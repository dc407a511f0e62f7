package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/gateway"
	"repro/internal/mod"
	"repro/internal/prune"
	"repro/internal/textidx"
	"repro/internal/trajectory"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent is the span that caused it (0 for a request's root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	N      int    `json:"n,omitempty"` // items the call carried (updates, survivors)
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory while on. Decorators cannot see which
// request called them, so they attribute their spans to the request marked
// current. That is exact where one goroutine issues the decorated calls
// with one request in flight: the cluster client and the city feed.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Int64
	cur   atomic.Int64 // the current request's root span ID
	cost  atomic.Int64 // nanoseconds the tracing code itself ran while on

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID reserves a span ID (a request's root is reserved before its
// children are recorded).
func (t *tracer) newID() int64 { return t.ids.Add(1) }

// setOn switches recording; a nil tracer never records.
func (t *tracer) setOn(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// charge adds the time since c0, spent on tracing-only work such as
// stats reads and byte-counter snapshots, to the tracer's cost.
func (t *tracer) charge(c0 time.Time) {
	if t != nil && t.on.Load() {
		t.cost.Add(int64(time.Since(c0)))
	}
}

// add records a finished span under a reserved or fresh ID.
func (t *tracer) add(id, parent, req int64, name string, start, end time.Time, n int) {
	if t == nil || !t.on.Load() {
		return
	}
	defer t.charge(time.Now())
	if id == 0 {
		id = t.newID()
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), N: n}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// child records a span under the current request.
func (t *tracer) child(name string, start time.Time, n int) {
	if t == nil || !t.on.Load() {
		return
	}
	cur := t.cur.Load()
	t.add(0, cur, cur, name, start, time.Now(), n)
}

// byReq groups the recorded spans by request.
func (t *tracer) byReq() map[int64][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int64][]span)
	for _, s := range t.spans {
		out[s.Req] = append(out[s.Req], s)
	}
	return out
}

// named returns the durations (ms) of every span with the given name.
func (t *tracer) named(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// write dumps the spans as JSON lines to <workDir>/traces/<file>.
func (t *tracer) write(workDir, file string) error {
	dir := filepath.Join(workDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered is the total length of the union of the spans' intervals.
func covered(ss []span) time.Duration {
	if len(ss) == 0 {
		return 0
	}
	s := append([]span(nil), ss...)
	sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	var total int64
	lo, hi := s[0].Start, s[0].End
	for _, x := range s[1:] {
		if x.Start > hi {
			total += hi - lo
			lo, hi = x.Start, x.End
			continue
		}
		if x.End > hi {
			hi = x.End
		}
	}
	return time.Duration(total + hi - lo)
}

// extent is the time from the first span's start to the last one's end —
// the wall time of a scatter whose calls run in parallel.
func extent(ss []span) time.Duration {
	if len(ss) == 0 {
		return 0
	}
	lo, hi := ss[0].Start, ss[0].End
	for _, s := range ss[1:] {
		lo, hi = min(lo, s.Start), max(hi, s.End)
	}
	return time.Duration(hi - lo)
}

// --- layer decorators ---------------------------------------------------

// tracedShard times every call the router makes into a cluster.Shard.
type tracedShard struct {
	cluster.Shard
	t *tracer
}

func (s tracedShard) Get(ctx context.Context, oid int64) (*trajectory.Trajectory, []string, error) {
	start := time.Now()
	tr, tags, err := s.Shard.Get(ctx, oid)
	s.t.child("shard.get", start, 1)
	return tr, tags, err
}

func (s tracedShard) Bounds(ctx context.Context, q *trajectory.Trajectory, tb, te float64, k int, where *textidx.Predicate) ([]float64, error) {
	start := time.Now()
	b, err := s.Shard.Bounds(ctx, q, tb, te, k, where)
	s.t.child("shard.bounds", start, len(b))
	return b, err
}

func (s tracedShard) Survivors(ctx context.Context, q *trajectory.Trajectory, tb, te float64, bounds []float64, where *textidx.Predicate) ([]*trajectory.Trajectory, prune.Stats, error) {
	start := time.Now()
	out, st, err := s.Shard.Survivors(ctx, q, tb, te, bounds, where)
	s.t.child("shard.survivors", start, len(out))
	return out, st, err
}

func (s tracedShard) Refine(ctx context.Context, gatherID string, union *mod.Store, own []int64, req engine.Request) (engine.Result, error) {
	start := time.Now()
	res, err := s.Shard.Refine(ctx, gatherID, union, own, req)
	s.t.child("shard.refine", start, len(own))
	return res, err
}

func (s tracedShard) Ingest(ctx context.Context, updates []mod.Update) ([]mod.Applied, error) {
	start := time.Now()
	out, err := s.Shard.Ingest(ctx, updates)
	s.t.child("shard.ingest", start, len(updates))
	return out, err
}

// tracedBackend times the gateway's calls into its gateway.Backend.
type tracedBackend struct {
	gateway.Backend
	t *tracer
}

func (b tracedBackend) Do(ctx context.Context, req engine.Request) (engine.Result, error) {
	start := time.Now()
	res, err := b.Backend.Do(ctx, req)
	b.t.child("backend.do", start, 1)
	return res, err
}

// tracedJournal times the write-ahead hook (a wal.Log) the ingest path
// drives.
type tracedJournal struct {
	gateway.Journal
	t *tracer
}

func (j tracedJournal) Append(updates []mod.Update) error {
	start := time.Now()
	err := j.Journal.Append(updates)
	j.t.child("wal.append", start, len(updates))
	return err
}

func (j tracedJournal) AfterApply(store *mod.Store) error {
	start := time.Now()
	err := j.Journal.AfterApply(store)
	j.t.child("wal.after_apply", start, 0)
	return err
}

// byteCounter counts the bytes crossing a set of connections, and the
// dials that opened them.
type byteCounter struct {
	in, out, dials atomic.Int64
}

func (c *byteCounter) snapshot() (in, out int64) { return c.in.Load(), c.out.Load() }

// dial is a cluster.Dialer that counts bytes on the raw TCP stream.
func (c *byteCounter) dial(addr string) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c.dials.Add(1)
	return countingConn{Conn: conn, c: c}, nil
}

func (c *byteCounter) dialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	c.dials.Add(1)
	return countingConn{Conn: conn, c: c}, nil
}

type countingConn struct {
	net.Conn
	c *byteCounter
}

func (cc countingConn) Read(p []byte) (int, error) {
	n, err := cc.Conn.Read(p)
	cc.c.in.Add(int64(n))
	return n, err
}

func (cc countingConn) Write(p []byte) (int, error) {
	n, err := cc.Conn.Write(p)
	cc.c.out.Add(int64(n))
	return n, err
}

// retryCounter is a cluster.RemoteOptions.OnRetry hook.
type retryCounter struct{ n atomic.Int64 }

func (r *retryCounter) hook(string, int, error) { r.n.Add(1) }
