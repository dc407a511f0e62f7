package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/simtest"
	"repro/internal/textidx"
)

func oneshotSizing() sizing {
	return sizing{
		N: 10000, SetupReps: 5, Replays: 12,
		RareFrac: 0.01, RepeatFrac: 0.25, BurstEvery: 12, BurstLen: 8, BurstFlips: 4,
		Checks: 12,
	}
}

// rareTag is the selective tag the oneshot-cold workload scatters over
// about RareFrac of the fleet.
const rareTag = "rare"

var rarePred = &textidx.Predicate{All: []string{rareTag}}

// oneshotEnv is the static store the closed-loop client queries.
type oneshotEnv struct {
	store *mod.Store
	eng   *engine.Engine
	oids  []int64
	rare  map[int64]bool
}

func setupOneshot(seed int64, s sizing) (*oneshotEnv, error) {
	w, err := simtest.NewWorld(simtest.Config{Seed: seed, N: s.N, R: 0.5, Steps: 1})
	if err != nil {
		return nil, err
	}
	store, err := w.InitialStore()
	if err != nil {
		return nil, err
	}
	env := &oneshotEnv{store: store, eng: engine.New(0), oids: store.OIDs(), rare: map[int64]bool{}}
	rng := rand.New(rand.NewSource(seed ^ 0x4a4e))
	for len(env.rare) < int(s.RareFrac*float64(len(env.oids))) {
		oid := env.oids[rng.Intn(len(env.oids))]
		if env.rare[oid] {
			continue
		}
		env.rare[oid] = true
		if err := store.SetTags(oid, append(store.Tags(oid), rareTag)); err != nil {
			return nil, err
		}
	}
	store.BuildIndex(0)
	store.TextIndex()
	return env, nil
}

// oneshotRound is one round of fresh request classes, numbered as in
// oneshotGen.query's switch: UQ41 K=3 (2) is dealt twice.
var oneshotRound = []int{0, 1, 2, 2, 3, 4, 5}

// oneshotGen draws the closed-loop request mix: 9-minute-window UQ31,
// UQ33, UQ41 K=3 and AllNNAt, UQ31 filtered on the common and on the rare
// tag, with RepeatFrac of requests repeating one of the last 8 keys.
//
// Repeats and classes are spread evenly rather than drawn independently,
// so every run has the same class mix whatever the seed. p90 falls inside
// the slowest class, UQ41 K=3, whose latency spreads widely with the query
// object. UQ41 is dealt twice per round so that p90 falls near that
// class's middle rather than its thin lower part; with independent draws,
// or a share of a sixth, p90 moved by a quarter from seed to seed.
type oneshotGen struct {
	rng    *rand.Rand
	env    *oneshotEnv
	recent []engine.Request
	s      sizing
	n      int   // requests drawn
	deck   []int // the classes left in the current round
}

func (g *oneshotGen) query() engine.Request {
	g.n++
	if len(g.recent) > 0 && int(float64(g.n)*g.s.RepeatFrac) > int(float64(g.n-1)*g.s.RepeatFrac) {
		return g.recent[g.rng.Intn(len(g.recent))]
	}
	if len(g.deck) == 0 {
		for _, i := range g.rng.Perm(len(oneshotRound)) {
			g.deck = append(g.deck, oneshotRound[i])
		}
	}
	class := g.deck[0]
	g.deck = g.deck[1:]
	tb := float64(g.rng.Intn(51*4)) / 4
	req := engine.Request{Kind: engine.KindUQ31, QueryOID: g.env.oids[g.rng.Intn(len(g.env.oids))], Tb: tb, Te: tb + 9}
	switch class {
	case 1:
		req.Kind, req.X = engine.KindUQ33, 0.25
	case 2:
		req.Kind, req.K = engine.KindUQ41, 3
	case 3:
		req.Kind, req.T = engine.KindAllNNAt, tb+g.rng.Float64()*9
	case 4:
		req.Where = availPred
	case 5:
		req.Where = rarePred
	}
	g.recent = append(g.recent, req)
	if len(g.recent) > 8 {
		g.recent = g.recent[1:]
	}
	return req
}

// flips moves the rare tag off BurstFlips tagged objects onto as many
// untagged ones, as pure tag-flip updates.
func (g *oneshotGen) flips() []mod.Update {
	tagged := make([]int64, 0, len(g.env.rare))
	for oid := range g.env.rare {
		tagged = append(tagged, oid)
	}
	slices.Sort(tagged)
	var batch []mod.Update
	for i := 0; i < g.s.BurstFlips && len(tagged) > 0; i++ {
		j := g.rng.Intn(len(tagged))
		off, on := tagged[j], g.env.oids[g.rng.Intn(len(g.env.oids))]
		if g.env.rare[on] {
			continue
		}
		tagged[j] = tagged[len(tagged)-1]
		tagged = tagged[:len(tagged)-1]
		delete(g.env.rare, off)
		g.env.rare[on] = true
		offTags := without(g.env.store.Tags(off), rareTag)
		onTags := append(append([]string{}, g.env.store.Tags(on)...), rareTag)
		batch = append(batch, mod.Update{OID: off, Tags: &offTags}, mod.Update{OID: on, Tags: &onTags})
	}
	return batch
}

func without(tags []string, drop string) []string {
	out := []string{}
	for _, t := range tags {
		if t != drop {
			out = append(out, t)
		}
	}
	return out
}

// oneshotClasses are the request classes the mix draws, each of which
// the check plan covers.
func oneshotClasses() []string {
	return []string{
		reqClass(engine.Request{Kind: engine.KindUQ31}),
		reqClass(engine.Request{Kind: engine.KindUQ33}),
		reqClass(engine.Request{Kind: engine.KindUQ41}),
		reqClass(engine.Request{Kind: engine.KindAllNNAt}),
		reqClass(engine.Request{Kind: engine.KindUQ31, Where: availPred}),
		reqClass(engine.Request{Kind: engine.KindUQ31, Where: rarePred}),
	}
}

func runOneshot(o options, s sizing) (*report, error) {
	rep := newReport(o, s)
	env, setupS, err := setupTimes(s.SetupReps,
		func(int) (*oneshotEnv, error) { return setupOneshot(o.Seed, s) },
		func(*oneshotEnv) {})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	gen := &oneshotGen{rng: rand.New(rand.NewSource(o.Seed ^ 0x0c01d)), env: env, s: s}
	full := engine.NewWith(engine.Options{FullScan: true})
	plan := newCheckPlan(o.Seed^0xc4ec, s.Checks, oneshotClasses(), seconds(o.Seconds))

	var t *tracer
	if o.Trace {
		t = newTracer()
	}
	var explains []engine.Explain
	var tracedReqs []engine.Request
	queryNo, wrong := 0, 0
	idx0 := []mod.IndexStats{env.store.IndexStats()}
	m := newMeter(seconds(o.Seconds))
	t.setOn(true)
	for m.elapsed() < seconds(o.Seconds) {
		if queryNo > 0 && queryNo%s.BurstEvery == 0 {
			m.sampleHeap()
			for i := 0; i < s.BurstLen; i++ {
				var batch []mod.Update
				m.pause(func() { batch = gen.flips() })
				start := time.Now()
				_, err := env.store.ApplyUpdates(batch)
				d := time.Since(start)
				m.ingest(d, d, len(batch), err)
			}
		}
		var req engine.Request
		m.pause(func() { req = gen.query() })
		queryNo++
		at := m.elapsed()
		start := time.Now()
		res, err := env.eng.Do(ctx, env.store, req)
		end := time.Now()
		m.query(end.Sub(start), end.Sub(start), err)
		if t != nil {
			t.add(0, 0, t.newID(), "engine.do", start, end, 1)
			c0 := time.Now()
			explains = append(explains, res.Explain)
			tracedReqs = append(tracedReqs, req)
			t.charge(c0)
		}
		if err == nil && plan.due(reqClass(req), at) {
			m.pause(func() {
				want, err := full.Do(ctx, env.store, req)
				if err != nil || answerKey(want) != answerKey(res) {
					wrong++
				}
			})
		}
	}
	t.setOn(false)
	m.stop()
	idx1 := []mod.IndexStats{env.store.IndexStats()}
	runtime.KeepAlive(env) // heap_live_mb counted it; keep it live through the reading
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
	set(l, "engine.do_ms", quantile(t.named("engine.do"), 0.5))
	engineExplains(l, explains)
	indexDelta(l, idx0, idx1)
	if err := replayInto(ctx, rep, l, env.store, env.eng, sampleReqs(o.Seed^0x5a3e, tracedReqs, s.Replays)); err != nil {
		return nil, err
	}
	rep.layers = l
	return rep, t.write(o.WorkDir, fmt.Sprintf("oneshot-cold-%d.jsonl", o.Seed))
}
