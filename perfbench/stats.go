package main

import (
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified). It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// meter measures one timed phase: wall time, process CPU and allocation,
// minus the stretches the benchmark pauses it for (answer checks and
// input generation, which are not the system's work).
type meter struct {
	start     time.Time
	length    time.Duration // the phase's planned measured length
	cpu0      time.Duration
	alloc0    uint64
	gc0       uint32
	paused    time.Duration
	pausedCPU time.Duration

	mu      sync.Mutex
	queries []float64     // one-shot latencies, ms
	ingests []float64     // batch acknowledgement latencies, ms
	lag     []float64     // open-loop lateness of each send, ms
	busy    time.Duration // inside ingest calls
	served  time.Duration // inside query calls
	updates int
	failed  int
	errs    []string // the first few failures, for the run metadata

	wall     time.Duration
	cpu      time.Duration
	allocMB  float64
	gcCycles uint32
	heapMB   float64
	heap     []float64 // live-heap samples from the last quarter, MB
}

func newMeter(length time.Duration) *meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &meter{start: time.Now(), length: length, cpu0: cpuTime(), alloc0: ms.TotalAlloc, gc0: ms.NumGC}
}

// pause runs f outside the measured phase: its wall and CPU time are
// subtracted from the phase totals.
func (m *meter) pause(f func()) {
	t, c := time.Now(), cpuTime()
	f()
	m.paused += time.Since(t)
	m.pausedCPU += cpuTime() - c
}

// elapsed is the measured (unpaused) wall time so far.
func (m *meter) elapsed() time.Duration { return time.Since(m.start) - m.paused }

// query records one answered query: d is its latency (from its due time
// in an open loop) and inside the time spent inside the query call itself.
func (m *meter) query(d, inside time.Duration, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err != nil {
		m.fail(err)
		return
	}
	m.queries = append(m.queries, ms(d))
	m.served += inside
}

// ingest records one acknowledged batch of n updates: d is its latency
// (from its due time in an open loop) and inside the time spent inside the
// ingest call itself.
func (m *meter) ingest(d, inside time.Duration, n int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err != nil {
		m.fail(err)
		return
	}
	m.ingests = append(m.ingests, ms(d))
	m.busy += inside
	m.updates += n
}

// fail counts a failed operation; the caller holds m.mu.
func (m *meter) fail(err error) {
	m.failed++
	if len(m.errs) < 3 {
		m.errs = append(m.errs, err.Error())
	}
}

func (m *meter) late(d time.Duration) {
	m.mu.Lock()
	m.lag = append(m.lag, ms(d))
	m.mu.Unlock()
}

// sampleHeap reads the live heap after a forced GC, outside the measured
// time, once the phase is in its last quarter (earlier calls do nothing).
// Workloads call it between operations.
func (m *meter) sampleHeap() {
	if m.elapsed() >= m.length*3/4 {
		m.pause(func() { m.heap = append(m.heap, liveHeapMB()) })
	}
}

func liveHeapMB() float64 {
	runtime.GC()
	var s runtime.MemStats
	runtime.ReadMemStats(&s)
	return float64(s.HeapAlloc) / 1e6
}

// stop closes the phase with a last heap sample. The live heap is the
// median of the samples from the last quarter of the phase: growth the
// run retained shows at about seven eighths of its end size, and one
// reading at an unlucky moment (a full memo, a fresh snapshot) does not
// set it.
func (m *meter) stop() {
	m.wall = m.elapsed()
	m.cpu = cpuTime() - m.cpu0 - m.pausedCPU
	var s runtime.MemStats
	runtime.ReadMemStats(&s)
	m.allocMB = float64(s.TotalAlloc-m.alloc0) / 1e6
	m.gcCycles = s.NumGC - m.gc0 - uint32(len(m.heap))
	m.heap = append(m.heap, liveHeapMB())
	m.heapMB = quantile(m.heap, 0.5)
}

// ops is every operation the phase issued: one-shot queries plus ingest
// batches, failed ones included.
func (m *meter) ops() int { return len(m.queries) + len(m.ingests) + m.failed }

// endToEnd renders the end-to-end metrics of a stopped phase. wrong is
// the number of answers that failed the correctness check.
func (m *meter) endToEnd(setupS float64, wrong int) map[string]metric {
	ops := float64(m.ops())
	vals := map[string]float64{
		"setup_s":       setupS,
		"updates_per_s": ratio(float64(m.updates), m.busy.Seconds()),
		"ingest_p50_ms": quantile(m.ingests, 0.5),
		"ingest_p90_ms": quantile(m.ingests, 0.9),
		"query_p50_ms":  quantile(m.queries, 0.5),
		"query_p90_ms":  quantile(m.queries, 0.9),
		"queries_per_s": ratio(float64(len(m.queries)), m.wall.Seconds()),
		"cpu_ms_per_op": ratio(ms(m.cpu), ops),
		"heap_live_mb":  m.heapMB,
		"ok_ratio":      1 - ratio(float64(m.failed+wrong), ops),
	}
	out := make(map[string]metric, len(vals))
	for name, v := range vals {
		out[name] = metric{v, endToEndUnits[name]}
	}
	return out
}

// runtimeLayer renders the runtime, load-generator and tracing-overhead
// metrics of a stopped traced phase. The overhead is the time the tracing
// code ran (t.cost) as a share of the time spent inside the measured
// operations.
func (m *meter) runtimeLayer(into map[string]metric, t *tracer) {
	set(into, "runtime.alloc_mb_per_op", ratio(m.allocMB, float64(m.ops())))
	set(into, "runtime.gc_cycles", float64(m.gcCycles))
	set(into, "loadgen.lag_p90_ms", quantile(m.lag, 0.9))
	set(into, "trace.overhead_pct", 100*ratio(float64(t.cost.Load()), float64(m.busy+m.served)))
}

// samples reports the phase's sample counts for the run metadata.
func (m *meter) samples() map[string]any {
	return map[string]any{
		"queries": len(m.queries), "ingests": len(m.ingests), "updates": m.updates,
		"failed": m.failed, "lag": len(m.lag), "errors": m.errs,
	}
}

// sleepUntil blocks until t (returns at once when t is past).
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}
