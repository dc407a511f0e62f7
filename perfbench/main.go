// Command perfbench is the repository's benchmark of record. It drives one
// of three seeded workloads through the system's public entry points from
// a single process, checks every sampled answer against an independent
// full-path oracle, and prints one JSON result line:
//
//	perfbench --workload city-live --seed 2009 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of an untraced
// run. With --trace 1 it carries the per-layer metrics of a traced run:
// decorator spans around each layer's public calls, stage replays of
// sampled requests, and the share of the measured time the tracing code
// itself took. See README.md for the workloads, the metric-to-layer map
// and the known gaps.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings every workload receives.
type options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	WorkDir  string // scratch space: write-ahead logs (removed at exit) and span dumps
}

// workloads maps each workload name to its default sizing.
var workloads = map[string]func() sizing{
	"city-live":    citySizing,
	"oneshot-cold": oneshotSizing,
	"cluster-http": clusterSizing,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.Workload, "workload", "", "workload to run: city-live, oneshot-cold or cluster-http")
	flag.Int64Var(&o.Seed, "seed", 2009, "seed every generated input derives from")
	flag.Float64Var(&o.Seconds, "seconds", 20, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = report per-layer metrics from a traced run")
	flag.StringVar(&o.WorkDir, "work-dir", ".bench_build", "scratch directory for write-ahead logs and span dumps")
	flag.Parse()
	o.Trace = trace == 1
	size, ok := workloads[o.Workload]
	if !ok || o.Seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (city-live|oneshot-cold|cluster-http), --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	rep, err := run(o, size())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.Workload, err)
		os.Exit(1)
	}
	meta, _ := json.Marshal(rep.meta)
	fmt.Println(string(meta))
	res := rep.result(o.Trace)
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d failed operations, %d wrong answers, %d unequal stage replays\n",
			o.Workload, rep.failed, rep.wrong, rep.replayBad)
		os.Exit(1)
	}
}

// run dispatches one workload.
func run(o options, s sizing) (*report, error) {
	switch o.Workload {
	case "city-live":
		return runCity(o, s)
	case "oneshot-cold":
		return runOneshot(o, s)
	case "cluster-http":
		return runCluster(o, s)
	}
	return nil, fmt.Errorf("unknown workload %q", o.Workload)
}

// report is what a workload run hands back to main.
type report struct {
	e2e       map[string]metric
	layers    map[string]metric
	attempted int
	failed    int // operations that returned an error
	wrong     int // answers that failed the correctness check
	replays   int // stage replays run (traced runs only)
	replayBad int // stage replays whose answer differed from Engine.Do's
	meta      map[string]any
}

func (r *report) result(traced bool) result {
	m := r.e2e
	if traced {
		m = r.layers
	}
	return result{
		Correct:   r.failed == 0 && r.wrong == 0 && r.replayBad == 0,
		Attempted: r.attempted,
		Failed:    r.failed + r.wrong,
		Metrics:   m,
	}
}

// newReport starts a report with the host and run metadata every result
// carries (the ROADMAP's bench-row rule).
func newReport(o options, s sizing) *report {
	// The commit is what go build stamped from the checkout's version
	// control; a checkout outside git reads "unknown".
	commit, modified := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				commit = kv.Value
			case "vcs.modified":
				modified = kv.Value
			}
		}
	}
	return &report{
		e2e:    map[string]metric{},
		layers: map[string]metric{},
		meta: map[string]any{
			"workload":   o.Workload,
			"seed":       o.Seed,
			"seconds":    o.Seconds,
			"traced":     o.Trace,
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"num_cpu":    runtime.NumCPU(),
			"go_version": runtime.Version(),
			"commit":     commit,
			"modified":   modified,
			"sizing":     s,
		},
	}
}

// setupTimes runs set-up reps times, tearing down all but the last, and
// returns the last environment with the median set-up time in seconds.
// Repeating set-up makes setup_s a median rather than one noisy sample.
func setupTimes[E any](reps int, setup func(rep int) (E, error), teardown func(E)) (E, float64, error) {
	var env E
	var times []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		e, err := setup(i)
		if err != nil {
			return env, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < reps-1 {
			teardown(e)
			runtime.GC()
			continue
		}
		env = e
	}
	sort.Float64s(times)
	return env, times[len(times)/2], nil
}
