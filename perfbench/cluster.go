package main

import (
	"bytes"
	"context"
	"crypto/tls"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/gateway"
	"repro/internal/mod"
	"repro/internal/modserver"
	"repro/internal/simtest"
	"repro/internal/testcert"
)

func clusterSizing() sizing {
	return sizing{N: 20000, SetupReps: 5, Replays: 12, Shards: 2, IngestFrac: 0.35, Checks: 12}
}

const (
	gatewayToken = "gw-secret"
	shardToken   = "shard-secret"
	// clusterSteps sizes the world's step clock: far more ingests than a
	// run can issue, so revisions stay inside the plan horizon.
	clusterSteps = 100000
)

// clusterEnv is the docker-compose topology in one process: a TLS
// gateway with a bearer token over a router hub and a cluster.Router
// whose shards are modserver processes' servers on loopback TLS.
type clusterEnv struct {
	w       *simtest.World
	parts   []*mod.Store
	servers []*modserver.Server
	remotes []*cluster.RemoteShard
	gw      *gateway.Server
	client  *http.Client
	base    string
	done    sync.WaitGroup // the Serve goroutines

	// Traced builds only: byte counters on the HTTP client's and the
	// router's connections, and the router's retry count.
	httpBytes, wireBytes *byteCounter
	retries              *retryCounter
}

func setupCluster(o options, s sizing, t *tracer) (*clusterEnv, error) {
	w, err := simtest.NewWorld(simtest.Config{Seed: o.Seed, N: s.N, R: 0.5, Steps: clusterSteps})
	if err != nil {
		return nil, err
	}
	store, err := w.InitialStore()
	if err != nil {
		return nil, err
	}
	parts, err := cluster.SplitStore(store, s.Shards, cluster.Hash{})
	if err != nil {
		return nil, err
	}
	pair, err := testcert.New()
	if err != nil {
		return nil, err
	}
	env := &clusterEnv{w: w, parts: parts}
	serve := func(l net.Listener, f func(net.Listener) error) {
		env.done.Add(1)
		go func() {
			defer env.done.Done()
			_ = f(l) // ends with the Shutdown in close
		}()
	}
	listen := func() (net.Listener, error) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		return tls.NewListener(l, pair.ServerConfig()), nil
	}
	ropts := cluster.RemoteOptions{TLS: pair.ClientConfig(), Token: shardToken}
	if t != nil {
		env.wireBytes, env.retries = &byteCounter{}, &retryCounter{}
		ropts.Dialer, ropts.OnRetry = env.wireBytes.dial, env.retries.hook
	}
	var shards []cluster.Shard
	for i, part := range parts {
		part.BuildIndex(0)
		part.TextIndex()
		srv := modserver.NewServerWith(part, engine.New(0), modserver.Options{Token: shardToken})
		l, err := listen()
		if err != nil {
			env.close()
			return nil, err
		}
		env.servers = append(env.servers, srv)
		serve(l, srv.Serve)
		rs := cluster.NewRemoteShardWith(fmt.Sprintf("shard%d", i), l.Addr().String(), ropts)
		env.remotes = append(env.remotes, rs)
		var sh cluster.Shard = rs
		if t != nil {
			sh = tracedShard{Shard: rs, t: t}
		}
		shards = append(shards, sh)
	}
	ctx := context.Background()
	router, err := cluster.NewRouter(ctx, shards, cluster.Options{})
	if err != nil {
		env.close()
		return nil, err
	}
	var backend gateway.Backend = router
	if t != nil {
		backend = tracedBackend{Backend: router, t: t}
	}
	if env.gw, err = gateway.New(gateway.Options{Backend: backend, Hub: cluster.NewRouterHub(router), Token: gatewayToken}); err != nil {
		env.close()
		return nil, err
	}
	l, err := listen()
	if err != nil {
		env.close()
		return nil, err
	}
	serve(l, env.gw.Serve)
	env.base = "https://" + l.Addr().String()
	tr := &http.Transport{TLSClientConfig: pair.ClientConfig(), MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	if t != nil {
		env.httpBytes = &byteCounter{}
		tr.DialContext = env.httpBytes.dialContext
	}
	env.client = &http.Client{Transport: tr}
	var ready string
	if err := env.call(ctx, http.MethodGet, "/readyz", nil, &ready); err != nil {
		env.close()
		return nil, fmt.Errorf("gateway not ready: %w", err)
	}
	return env, nil
}

// call sends one authenticated request over the keep-alive connection
// and decodes a 200 reply into out (raw text for *string).
func (e *clusterEnv) call(ctx context.Context, method, path string, body any, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, e.base+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+gatewayToken)
	resp, err := e.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(raw))
	}
	if s, ok := out.(*string); ok {
		*s = string(raw)
		return nil
	}
	return json.Unmarshal(raw, out)
}

func (e *clusterEnv) close() {
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if e.gw != nil {
		_ = e.gw.Shutdown(ctx)
	}
	for _, rs := range e.remotes {
		_ = rs.Close()
	}
	for _, srv := range e.servers {
		_ = srv.Shutdown(ctx)
	}
	e.done.Wait()
}

// wireUpdate is the /v1/ingest update shape. It has no retire field, so
// this workload sends plan revisions and tag flips only.
type wireUpdate struct {
	OID   int64        `json:"oid"`
	Verts [][3]float64 `json:"verts,omitempty"`
	Tags  *[]string    `json:"tags,omitempty"`
}

func toWire(batch []mod.Update) []wireUpdate {
	out := make([]wireUpdate, len(batch))
	for i, u := range batch {
		out[i] = wireUpdate{OID: u.OID, Tags: u.Tags}
		if u.Tags != nil && *u.Tags == nil {
			out[i].Tags = &[]string{} // clear, which JSON null would not say
		}
		for _, v := range u.Verts {
			out[i].Verts = append(out[i].Verts, [3]float64{v.X, v.Y, v.T})
		}
	}
	return out
}

// clusterReq draws a short-window one-shot request: UQ31, UQ33 X=0.25,
// UQ41 K=2, or UQ31 filtered on the common tag.
func clusterReq(rng *rand.Rand, oids []int64) engine.Request {
	tb := float64(rng.Intn(51*4)) / 4
	req := engine.Request{Kind: engine.KindUQ31, QueryOID: oids[rng.Intn(len(oids))], Tb: tb, Te: tb + 9}
	switch rng.Intn(4) {
	case 1:
		req.Kind, req.X = engine.KindUQ33, 0.25
	case 2:
		req.Kind, req.K = engine.KindUQ41, 2
	case 3:
		req.Where = availPred
	}
	return req
}

// clusterClasses are the request classes clusterReq draws, each of which
// the check plan covers.
func clusterClasses() []string {
	return []string{
		reqClass(engine.Request{Kind: engine.KindUQ31}),
		reqClass(engine.Request{Kind: engine.KindUQ33}),
		reqClass(engine.Request{Kind: engine.KindUQ41}),
		reqClass(engine.Request{Kind: engine.KindUQ31, Where: availPred}),
	}
}

// clusterTrace is what the traced phase records per request beyond spans.
type clusterTrace struct {
	queryRoots, ingestRoots []int64
	httpQuery, httpIngest   []float64 // HTTP bytes per request
	wireOut, wireIn         []float64 // router<->shard bytes per query
	wireIngest              float64   // router<->shard bytes over all ingests
	updates                 int
	explains                []engine.Explain
	reqs                    []engine.Request
}

func runCluster(o options, s sizing) (*report, error) {
	rep := newReport(o, s)
	var t *tracer
	if o.Trace {
		t = newTracer() // decorators are installed, but record only while on
	}
	env, setupS, err := setupTimes(s.SetupReps,
		func(int) (*clusterEnv, error) { return setupCluster(o, s, t) },
		func(e *clusterEnv) { e.close() })
	if err != nil {
		return nil, err
	}
	defer env.close()
	ctx := context.Background()

	// The oracle: one engine over a mirror store fed the same ingests.
	mirror, err := env.w.InitialStore()
	if err != nil {
		return nil, err
	}
	oracle := engine.New(0)
	oids := mirror.OIDs()
	rng := rand.New(rand.NewSource(o.Seed ^ 0xc1a57))
	arrivals := rand.New(rand.NewSource(o.Seed ^ 0xa771))
	plan := newCheckPlan(o.Seed^0xc4ec, s.Checks, clusterClasses(), seconds(o.Seconds))
	wrong := 0
	ct := &clusterTrace{}
	var idx0 []mod.IndexStats
	var dials0, retries0 int64
	if t != nil {
		idx0 = shardIndexStats(env.parts)
		dials0, retries0 = env.wireBytes.dials.Load(), env.retries.n.Load()
	}

	m := newMeter(seconds(o.Seconds))
	t.setOn(true)
	for opNo := 1; m.elapsed() < seconds(o.Seconds); opNo++ {
		if opNo%20 == 0 {
			m.sampleHeap()
		}
		var root, hIn, hOut, wIn, wOut int64
		if t != nil {
			c0 := time.Now()
			root = t.newID()
			t.cur.Store(root)
			hIn, hOut = env.httpBytes.snapshot()
			wIn, wOut = env.wireBytes.snapshot()
			t.charge(c0)
		}
		if rng.Float64() < s.IngestFrac {
			var batch []mod.Update
			var gerr error
			m.pause(func() {
				batch, gerr = env.w.StepSized(max(1, simtest.Poisson(arrivals, 6)), simtest.Poisson(arrivals, 2), 0)
				if gerr == nil {
					_, gerr = mirror.ApplyUpdates(batch)
				}
			})
			if gerr != nil {
				return nil, gerr
			}
			body := struct {
				Updates []wireUpdate `json:"updates"`
			}{toWire(batch)}
			start := time.Now()
			var reply struct {
				Applied []json.RawMessage `json:"applied"`
			}
			err := env.call(ctx, http.MethodPost, "/v1/ingest", body, &reply)
			if err == nil && len(reply.Applied) != len(batch) {
				err = fmt.Errorf("ingest: %d of %d updates acknowledged", len(reply.Applied), len(batch))
			}
			d := time.Since(start)
			m.ingest(d, d, len(batch), err)
			if t != nil {
				t.add(root, 0, root, "http.ingest", start, start.Add(d), len(batch))
				c0 := time.Now()
				in, out := env.httpBytes.snapshot()
				ct.httpIngest = append(ct.httpIngest, float64(in-hIn+out-hOut))
				in, out = env.wireBytes.snapshot()
				ct.wireIngest += float64(in - wIn + out - wOut)
				ct.updates += len(batch)
				ct.ingestRoots = append(ct.ingestRoots, root)
				t.charge(c0)
			}
			continue
		}
		var req engine.Request
		m.pause(func() { req = clusterReq(rng, oids) })
		at := m.elapsed()
		start := time.Now()
		var res engine.Result
		err := env.call(ctx, http.MethodPost, "/v1/query", req, &res)
		d := time.Since(start)
		m.query(d, d, err)
		if t != nil {
			t.add(root, 0, root, "http.query", start, start.Add(d), 1)
			c0 := time.Now()
			in, out := env.httpBytes.snapshot()
			ct.httpQuery = append(ct.httpQuery, float64(in-hIn+out-hOut))
			in, out = env.wireBytes.snapshot()
			ct.wireIn = append(ct.wireIn, float64(in-wIn))
			ct.wireOut = append(ct.wireOut, float64(out-wOut))
			ct.queryRoots = append(ct.queryRoots, root)
			ct.explains = append(ct.explains, res.Explain)
			ct.reqs = append(ct.reqs, req)
			t.charge(c0)
		}
		if err == nil && plan.due(reqClass(req), at) {
			m.pause(func() {
				want, err := oracle.Do(ctx, mirror, req)
				if err != nil || answerKey(want) != answerKey(res) {
					wrong++
				}
			})
		}
	}
	t.setOn(false)
	m.stop()
	rep.attempted, rep.failed, rep.wrong = m.ops(), m.failed, wrong
	rep.meta["samples"] = m.samples()
	rep.meta["checks"] = plan.done
	if err := plan.covered(); err != nil {
		return nil, err
	}
	if !o.Trace {
		rep.e2e = m.endToEnd(setupS, wrong)
		return rep, nil
	}

	l := zeroLayers()
	m.runtimeLayer(l, t)
	clusterLayers(l, t, ct)
	set(l, "wire.dials", float64(env.wireBytes.dials.Load()-dials0))
	set(l, "router.retries", float64(env.retries.n.Load()-retries0))
	indexDelta(l, idx0, shardIndexStats(env.parts))
	engineExplains(l, ct.explains)
	if err := replayInto(ctx, rep, l, mirror, oracle, sampleReqs(o.Seed^0x5a3e, ct.reqs, s.Replays)); err != nil {
		return nil, err
	}
	rep.layers = l
	return rep, t.write(o.WorkDir, fmt.Sprintf("cluster-http-%d.jsonl", o.Seed))
}

func shardIndexStats(parts []*mod.Store) []mod.IndexStats {
	out := make([]mod.IndexStats, len(parts))
	for i, p := range parts {
		out[i] = p.IndexStats()
	}
	return out
}

// clusterLayers splits each traced HTTP request into gateway, router and
// shard time from its spans.
func clusterLayers(l map[string]metric, t *tracer, ct *clusterTrace) {
	byReq := t.byReq()
	var gwQ, gwI, do, bounds, surv, refine, lookup, merge, ingest, shipped, calls, skew []float64
	for _, root := range ct.queryRoots {
		var self span
		var backend, shard []span
		named := map[string][]span{}
		for _, sp := range byReq[root] {
			switch {
			case sp.ID == root:
				self = sp
			case sp.Name == "backend.do":
				backend = append(backend, sp)
			default:
				shard = append(shard, sp)
				named[sp.Name] = append(named[sp.Name], sp)
			}
		}
		gwQ = append(gwQ, ms(self.dur()-covered(append(append([]span{}, backend...), shard...))))
		if len(backend) == 0 {
			continue
		}
		do = append(do, ms(backend[0].dur()))
		merge = append(merge, ms(backend[0].dur()-covered(shard)))
		bounds = append(bounds, ms(extent(named["shard.bounds"])))
		surv = append(surv, ms(extent(named["shard.survivors"])))
		refine = append(refine, ms(extent(named["shard.refine"])))
		lookup = append(lookup, ms(covered(named["shard.get"])))
		n := 0
		for _, sp := range named["shard.survivors"] {
			n += sp.N
		}
		shipped = append(shipped, float64(n))
		calls = append(calls, float64(len(shard)))
		if rs := named["shard.refine"]; len(rs) >= 2 {
			lo, hi := rs[0].dur(), rs[0].dur()
			for _, sp := range rs[1:] {
				lo, hi = min(lo, sp.dur()), max(hi, sp.dur())
			}
			if lo > 0 {
				skew = append(skew, float64(hi)/float64(lo))
			}
		}
	}
	for _, root := range ct.ingestRoots {
		var self span
		var shard []span
		for _, sp := range byReq[root] {
			if sp.ID == root {
				self = sp
			} else {
				shard = append(shard, sp)
			}
		}
		gwI = append(gwI, ms(self.dur()-covered(shard)))
		var ing []span
		for _, sp := range shard {
			if sp.Name == "shard.ingest" {
				ing = append(ing, sp)
			}
		}
		ingest = append(ingest, ms(extent(ing)))
	}
	set(l, "gateway.query_self_ms", quantile(gwQ, 0.5))
	set(l, "gateway.ingest_self_ms", quantile(gwI, 0.5))
	set(l, "gateway.bytes_per_query", mean(ct.httpQuery))
	set(l, "gateway.bytes_per_ingest", mean(ct.httpIngest))
	set(l, "router.do_ms", quantile(do, 0.5))
	set(l, "router.bounds_ms", quantile(bounds, 0.5))
	set(l, "router.survivors_ms", quantile(surv, 0.5))
	set(l, "router.refine_ms", quantile(refine, 0.5))
	set(l, "router.lookup_ms", quantile(lookup, 0.5))
	set(l, "router.merge_self_ms", quantile(merge, 0.5))
	set(l, "router.ingest_ms", quantile(ingest, 0.5))
	set(l, "router.survivors_shipped_per_query", mean(shipped))
	set(l, "router.shard_calls_per_query", mean(calls))
	set(l, "router.shard_skew", quantile(skew, 0.5))
	set(l, "wire.bytes_out_per_query", mean(ct.wireOut))
	set(l, "wire.bytes_in_per_query", mean(ct.wireIn))
	set(l, "wire.bytes_per_update", ratio(ct.wireIngest, float64(ct.updates)))
}
