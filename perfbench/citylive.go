package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/continuous"
	"repro/internal/engine"
	"repro/internal/gateway"
	"repro/internal/mod"
	"repro/internal/simtest"
	"repro/internal/wal"
)

func citySizing() sizing {
	return sizing{
		N: 1000, SetupReps: 7, Replays: 12,
		Subs: 600, Shapes: 48,
		BatchRate: 8, RevMean: 1, FlipMean: 0.3, RetireMean: 0.15, ChurnMean: 0.3,
		QueryRate: 14, Segments: 3, CheckSubs: 16,
	}
}

// cityShapes is the standing-question pool: staggered 9-minute windows
// over the protected OID prefix, rotating UQ31, UQ33, UQ11, UQ31 filtered
// on the common tag and UQ41 K=2 filtered on either tag. (Whole-horizon
// UQ31 is left out: one such evaluation costs as much as a second of
// ingest at this size.)
func cityShapes(n int, qoids []int64) []engine.Request {
	pool := make([]engine.Request, 0, n)
	for i := 0; len(pool) < n; i++ {
		q, tgt := qoids[i%len(qoids)], qoids[(i+1)%len(qoids)]
		tb := float64((i * 7) % 48)
		req := engine.Request{Kind: engine.KindUQ31, QueryOID: q, Tb: tb, Te: tb + 9}
		switch i % 5 {
		case 1:
			req.Kind, req.X = engine.KindUQ33, 0.25
		case 2:
			req.Kind, req.OID = engine.KindUQ11, tgt
		case 3:
			req.Where = availPred
		case 4:
			req.Kind, req.K, req.Where = engine.KindUQ41, 2, anyPred
		}
		pool = append(pool, req)
	}
	return pool
}

// cityEnv is one live city: the world that scripts it, the hub serving
// it, and the write-ahead log journaling it.
type cityEnv struct {
	w      *simtest.World
	store  *mod.Store
	eng    *engine.Engine
	hub    *continuous.Hub
	log    *wal.Log
	walDir string
	shapes []engine.Request
	reqs   []engine.Request // standing request per subscription slot
	subIDs []int64
}

func setupCity(o options, s sizing, steps, rep int) (*cityEnv, error) {
	w, err := simtest.NewWorld(simtest.Config{Seed: o.Seed, N: s.N, Held: 4, R: 0.5, Steps: steps, Protect: 64})
	if err != nil {
		return nil, err
	}
	store, err := w.InitialStore()
	if err != nil {
		return nil, err
	}
	store.BuildIndex(0)
	store.TextIndex()
	env := &cityEnv{w: w, store: store, eng: engine.New(0)}
	env.hub = continuous.NewEngineHub(store, env.eng)
	env.walDir = filepath.Join(o.WorkDir, fmt.Sprintf("wal-%d-%d", os.Getpid(), rep))
	// The modserver flag defaults: no fsync per batch, a snapshot every 64.
	if env.log, err = wal.Create(env.walDir, store, wal.Options{Sync: false, SnapshotEvery: 64}); err != nil {
		return nil, err
	}
	env.shapes = cityShapes(s.Shapes, w.ProtectedOIDs())
	ctx := context.Background()
	for i := 0; i < s.Subs; i++ {
		req := env.shapes[i%len(env.shapes)]
		if i%5 == 4 {
			req = env.shapes[0] // the hot question
		}
		id, _, err := env.hub.Subscribe(ctx, req)
		if err != nil {
			env.close()
			return nil, fmt.Errorf("subscribe %d (%s): %w", i, req.Kind, err)
		}
		env.reqs = append(env.reqs, req)
		env.subIDs = append(env.subIDs, id)
	}
	return env, nil
}

func (e *cityEnv) close() {
	e.hub.Close()
	_ = e.log.Close() // the directory is removed next; its durability is moot
	_ = os.RemoveAll(e.walDir)
}

// citySchedule is one segment's open-loop arrivals.
type citySchedule struct {
	batches, queries []time.Duration
}

// cityPlan draws every segment's arrivals up front, so the world can be
// sized to the exact number of batches the run will ingest.
func cityPlan(seed int64, s sizing, d time.Duration, segments int) ([]citySchedule, int) {
	rngs := simtest.Rands(seed^0xc17e, 2)
	var plan []citySchedule
	total := 0
	for i := 0; i < segments; i++ {
		segD := d / time.Duration(segments)
		sc := citySchedule{batches: evenGaps(rngs[0], s.BatchRate, segD), queries: evenGaps(rngs[1], s.QueryRate, segD)}
		total += len(sc.batches)
		plan = append(plan, sc)
	}
	return plan, total
}

func runCity(o options, s sizing) (*report, error) {
	rep := newReport(o, s)
	var t *tracer
	if o.Trace {
		t = newTracer()
	}
	plan, total := cityPlan(o.Seed, s, seconds(o.Seconds), s.Segments)
	env, setupS, err := setupTimes(s.SetupReps,
		func(rep int) (*cityEnv, error) { return setupCity(o, s, total+1, rep) },
		func(e *cityEnv) { e.close() })
	if err != nil {
		return nil, err
	}
	defer env.close()
	ctx := context.Background()
	rngs := simtest.Rands(o.Seed^0x90b5, 4)
	arrivals, churn, pick, spot := rngs[0], rngs[1], rngs[2], rngs[3]

	var journal gateway.Journal = env.log
	if t != nil {
		journal = tracedJournal{Journal: env.log, t: t}
	}
	var hubStats []continuous.Stats // per traced batch: before, after
	var events []int
	var explains []engine.Explain
	var tracedReqs []engine.Request

	segment := func(m *meter, sc citySchedule) {
		traced := t != nil
		start := time.Now()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // the feed: churn, then one Poisson-sized batch per arrival
			defer wg.Done()
			for _, due := range sc.batches {
				for j := simtest.Poisson(churn, s.ChurnMean); j > 0; j-- {
					k := churn.Intn(len(env.subIDs))
					env.hub.Unsubscribe(env.subIDs[k])
					t0 := time.Now()
					id, _, err := env.hub.Subscribe(ctx, env.reqs[k])
					t.add(0, 0, 0, "hub.subscribe", t0, time.Now(), 1)
					if err != nil {
						m.query(0, 0, err)
						continue
					}
					env.subIDs[k] = id
				}
				batch, err := env.w.StepSized(max(1, simtest.Poisson(arrivals, s.RevMean)),
					simtest.Poisson(arrivals, s.FlipMean), simtest.Poisson(arrivals, s.RetireMean))
				if err != nil {
					m.ingest(0, 0, 0, err)
					continue
				}
				at := start.Add(due)
				sleepUntil(at)
				m.late(time.Since(at))
				var root int64
				var before continuous.Stats
				if traced {
					c0 := time.Now()
					root = t.newID()
					t.cur.Store(root)
					before = env.hub.Stats()
					t.charge(c0)
				}
				// The gateway's order: journal, apply and fan out, then
				// let the journal snapshot.
				t0 := time.Now()
				err = journal.Append(batch)
				var evs []continuous.Event
				if err == nil {
					t1 := time.Now() // the hub span leaves the journal's out
					_, evs, err = env.hub.Ingest(ctx, batch)
					t.add(0, root, root, "hub.ingest", t1, time.Now(), len(batch))
				}
				if err == nil {
					err = journal.AfterApply(env.store)
				}
				m.ingest(time.Since(at), time.Since(t0), len(batch), err)
				if traced {
					t.add(root, 0, root, "batch", t0, time.Now(), len(batch))
					c0 := time.Now()
					hubStats = append(hubStats, before, env.hub.Stats())
					events = append(events, len(evs))
					t.charge(c0)
				}
			}
		}()
		go func() { // the one-shot stream, on the hub's engine
			defer wg.Done()
			for _, due := range sc.queries {
				req := env.shapes[pick.Intn(len(env.shapes))]
				at := start.Add(due)
				sleepUntil(at)
				m.late(time.Since(at))
				t0 := time.Now()
				res, err := env.eng.Do(ctx, env.store, req)
				end := time.Now()
				m.query(end.Sub(at), end.Sub(t0), err)
				if traced {
					t.add(0, 0, t.newID(), "engine.do", t0, end, 1)
					c0 := time.Now()
					explains = append(explains, res.Explain)
					tracedReqs = append(tracedReqs, req)
					t.charge(c0)
				}
			}
		}()
		wg.Wait()
	}

	// check compares a seeded sample of standing answers with a fresh
	// engine over a snapshot of the world's truth.
	checks := 0
	check := func() (int, error) {
		snap, err := env.w.SnapshotStore()
		if err != nil {
			return 0, err
		}
		fresh := engine.New(0)
		wrong := 0
		for _, k := range spot.Perm(len(env.subIDs))[:min(s.CheckSubs, len(env.subIDs))] {
			live, err := env.hub.Answer(env.subIDs[k])
			if err != nil {
				return 0, err
			}
			want, err := fresh.Do(ctx, snap, env.reqs[k])
			if err != nil {
				return 0, err
			}
			if answerKey(live) != answerKey(want) {
				wrong++
			}
			checks++
		}
		return wrong, nil
	}

	idx0 := []mod.IndexStats{env.store.IndexStats()}
	wal0 := env.log.Stats()
	m := newMeter(seconds(o.Seconds))
	wrong := 0
	t.setOn(true)
	for _, sc := range plan {
		segment(m, sc)
		var err error
		var w int
		m.pause(func() { w, err = check() })
		if err != nil {
			return nil, err
		}
		wrong += w
	}
	m.stop()
	t.setOn(false)
	idx1 := []mod.IndexStats{env.store.IndexStats()}
	wal1 := env.log.Stats()
	rep.attempted, rep.failed, rep.wrong = m.ops(), m.failed, wrong
	rep.meta["samples"] = m.samples()
	rep.meta["checks"] = checks
	if !o.Trace {
		rep.e2e = m.endToEnd(setupS, wrong)
		return rep, nil
	}

	l := zeroLayers()
	m.runtimeLayer(l, t)
	hubLayer(l, t, hubStats, events)
	set(l, "wal.append_p50_ms", quantile(t.named("wal.append"), 0.5))
	set(l, "wal.append_p90_ms", quantile(t.named("wal.append"), 0.9))
	set(l, "wal.after_apply_p90_ms", quantile(t.named("wal.after_apply"), 0.9))
	set(l, "wal.bytes_per_update", ratio(float64(wal1.AppendedBytes-wal0.AppendedBytes), float64(m.updates)))
	set(l, "wal.snapshots", float64(wal1.Snapshots-wal0.Snapshots))
	indexDelta(l, idx0, idx1)
	set(l, "engine.do_ms", quantile(t.named("engine.do"), 0.5))
	engineExplains(l, explains)
	if err := replayInto(ctx, rep, l, env.store, env.eng, sampleReqs(o.Seed^0x5a3e, tracedReqs, s.Replays)); err != nil {
		return nil, err
	}
	rep.layers = l
	return rep, t.write(o.WorkDir, fmt.Sprintf("city-live-%d.jsonl", o.Seed))
}

// hubLayer renders the continuous hub's metrics: ingest span timings,
// per-batch Stats deltas, events and churn subscribe times.
func hubLayer(l map[string]metric, t *tracer, stats []continuous.Stats, events []int) {
	ing := t.named("hub.ingest")
	set(l, "hub.ingest_p50_ms", quantile(ing, 0.5))
	set(l, "hub.ingest_p90_ms", quantile(ing, 0.9))
	var evals, skips, shared float64
	for i := 0; i+1 < len(stats); i += 2 {
		b, a := stats[i], stats[i+1]
		evals += float64(a.Evals - b.Evals)
		skips += float64(a.Skips - b.Skips)
		shared += float64(a.Shared - b.Shared)
	}
	batches := float64(len(events))
	refreshes := evals + skips + shared
	set(l, "hub.evals_per_batch", ratio(evals, batches))
	set(l, "hub.skip_ratio", ratio(skips, refreshes))
	set(l, "hub.shared_ratio", ratio(shared, refreshes))
	ev := 0
	for _, n := range events {
		ev += n
	}
	set(l, "hub.events_per_batch", ratio(float64(ev), batches))
	set(l, "hub.subscribe_ms", quantile(t.named("hub.subscribe"), 0.5))
}
