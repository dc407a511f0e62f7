package main

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"repro/internal/engine"
	"repro/internal/envelope"
	"repro/internal/mod"
	"repro/internal/prune"
	"repro/internal/queries"
)

// answerKey renders the answer-bearing fields of a result; Explain
// legitimately differs between execution paths.
func answerKey(res engine.Result) string {
	errStr := ""
	if res.Err != nil {
		errStr = res.Err.Error()
	}
	b, _ := json.Marshal(struct {
		Kind   engine.Kind       `json:"kind"`
		IsBool bool              `json:"is_bool"`
		Bool   bool              `json:"bool"`
		OIDs   []int64           `json:"oids"`
		Pairs  map[int64][]int64 `json:"pairs"`
		Err    string            `json:"err,omitempty"`
	}{res.Kind, res.IsBool, res.Bool, res.OIDs, res.Pairs, errStr})
	return string(b)
}

// stageTimes is one request split into the ROADMAP stages, replayed
// through each stage's public entry point in pipeline order.
type stageTimes struct {
	textual, snapshot, bounds, sweep time.Duration
	distfn, lower, zone, levels      time.Duration

	matching, universe int // predicate-matching objects vs store size (filtered only)
	probes, slices     int
	survivors          int
	intervals          int
	answers            int // answers the refine produced (OIDs, or 1 for a true predicate)
	tested             int // survivors the refine tested
}

// replayStages runs req through the public stage pipeline against store
// — textual pre-pass, sweep snapshot, slice bounds, survivor sweep,
// distance-function build, lower envelope, then the kind's refine (and
// rank levels for K > 1) over a prune.ForQueryWhereCtx processor — and
// checks the pipeline against eng.Do on the same store: the sweep's
// survivors must be the processor's basis, the envelope the processor's
// envelope, and the refine's answer Do's answer. The store must not
// change during the call.
func replayStages(ctx context.Context, store *mod.Store, eng *engine.Engine, req engine.Request) (stageTimes, bool, error) {
	var st stageTimes
	where := req.Where.Canon()
	q, err := store.Get(req.QueryOID)
	if err != nil {
		return st, false, err
	}
	lap := func(d *time.Duration, start time.Time) { *d = time.Since(start) }

	t := time.Now()
	if where != nil {
		st.matching = len(store.MatchingOIDs(where))
		st.universe = store.Len()
	}
	lap(&st.textual, t)

	t = time.Now()
	sw, err := prune.NewSweepWhere(store, q, req.Tb, req.Te, where)
	if err != nil {
		return st, false, err
	}
	lap(&st.snapshot, t)

	t = time.Now()
	bounds, err := sw.Bounds(ctx, 1)
	if err != nil {
		return st, false, err
	}
	lap(&st.bounds, t)

	t = time.Now()
	surv, _, err := sw.Survivors(ctx, bounds)
	if err != nil {
		return st, false, err
	}
	lap(&st.sweep, t)
	st.survivors = len(surv)

	// Probe and slice counts (untimed: a second pass over the same stages).
	if _, _, _, zs, err := prune.ZoneWhereCtx(ctx, store, q, req.Tb, req.Te, 1, where); err == nil {
		st.probes, st.slices = zs.Probes, zs.Slices
	}

	t = time.Now()
	fns, err := envelope.BuildDistanceFuncs(surv, q, req.Tb, req.Te)
	if err != nil {
		return st, false, err
	}
	lap(&st.distfn, t)

	var env *envelope.Envelope
	if len(fns) > 0 {
		t = time.Now()
		if env, err = envelope.LowerEnvelope(fns, req.Tb, req.Te); err != nil {
			return st, false, err
		}
		lap(&st.lower, t)
		st.intervals = env.Size()
	}

	proc, err := prune.ForQueryWhereCtx(ctx, store, q, req.Tb, req.Te, where)
	if err != nil {
		return st, false, err
	}
	equal := len(fns) == 0 || proc.Envelope().Size() == env.Size()
	ids := make([]int64, len(surv))
	for i, tr := range surv {
		ids[i] = tr.OID
	}
	equal = equal && slices.Equal(ids, proc.SurvivorOIDs())

	if k := req.Rank(); k > 1 {
		t = time.Now()
		if err := proc.EnsureLevelsCtx(ctx, k); err != nil {
			return st, false, err
		}
		lap(&st.levels, t)
	}

	t = time.Now()
	got, err := refine(proc, req, store)
	if err != nil {
		return st, false, err
	}
	lap(&st.zone, t)
	if got.IsBool {
		st.tested = 1
		if got.Bool {
			st.answers = 1
		}
	} else {
		st.tested = st.survivors
		st.answers = len(got.OIDs)
	}

	want, err := eng.Do(ctx, store, req)
	if err != nil {
		return st, false, err
	}
	return st, equal && answerKey(got) == answerKey(want), nil
}

// refine evaluates the request's zone filter over the processor serially,
// the way the engine's execRequest does it across its workers.
func refine(p *queries.Processor, req engine.Request, store *mod.Store) (engine.Result, error) {
	res := engine.Result{Kind: req.Kind}
	filter := func(pred func(oid int64) (bool, error)) error {
		for _, oid := range p.CandidateOIDs() {
			ok, err := pred(oid)
			if err != nil {
				return err
			}
			if ok {
				res.OIDs = append(res.OIDs, oid)
			}
		}
		return nil
	}
	var err error
	switch req.Kind {
	case engine.KindUQ11:
		res.IsBool = true
		if req.Where != nil && req.OID != req.QueryOID && !req.Where.Matches(store.Tags(req.OID)) {
			return res, nil // a non-matching target is outside the answer universe
		}
		res.Bool, err = p.UQ11(req.OID)
	case engine.KindUQ31:
		err = filter(p.UQ11)
	case engine.KindUQ33:
		err = filter(func(oid int64) (bool, error) { return p.UQ13(oid, req.X) })
	case engine.KindUQ41:
		err = filter(func(oid int64) (bool, error) { return p.UQ21(oid, req.K) })
	case engine.KindAllNNAt:
		err = filter(func(oid int64) (bool, error) { return p.IsPossibleNNAt(oid, req.T) })
	default:
		err = fmt.Errorf("perfbench: no stage replay for kind %s", req.Kind)
	}
	return res, err
}

// stageLayers accumulates stage replays into the per-layer metrics of the
// prune, envelope and queries layers.
type stageLayers struct {
	n, bad                           int
	textual, snapshot, bounds, sweep []float64
	distfn, lower, zone, levels      []float64
	probes, slices, intervals        []float64
	selectivity                      []float64
	answers, tested                  int
}

func (s *stageLayers) add(st stageTimes, ok bool) {
	s.n++
	if !ok {
		s.bad++
	}
	if st.universe > 0 {
		s.textual = append(s.textual, ms(st.textual))
		s.selectivity = append(s.selectivity, float64(st.matching)/float64(st.universe))
	}
	s.snapshot = append(s.snapshot, ms(st.snapshot))
	s.bounds = append(s.bounds, ms(st.bounds))
	s.sweep = append(s.sweep, ms(st.sweep))
	s.distfn = append(s.distfn, ms(st.distfn))
	s.lower = append(s.lower, ms(st.lower))
	s.zone = append(s.zone, ms(st.zone))
	if st.levels > 0 {
		s.levels = append(s.levels, ms(st.levels))
	}
	s.probes = append(s.probes, float64(st.probes))
	s.slices = append(s.slices, float64(st.slices))
	s.intervals = append(s.intervals, float64(st.intervals))
	s.answers += st.answers
	s.tested += st.tested
}

// replayAll replays reqs against a quiescent store and returns the
// accumulated stage metrics.
func replayAll(ctx context.Context, store *mod.Store, eng *engine.Engine, reqs []engine.Request) (*stageLayers, error) {
	s := &stageLayers{}
	for _, req := range reqs {
		st, ok, err := replayStages(ctx, store, eng, req)
		if err != nil {
			return nil, fmt.Errorf("stage replay %s q=%d [%g,%g]: %w", req.Kind, req.QueryOID, req.Tb, req.Te, err)
		}
		s.add(st, ok)
	}
	return s, nil
}

func (s *stageLayers) metrics(into map[string]metric) {
	set(into, "prune.textual_ms", quantile(s.textual, 0.5))
	set(into, "prune.snapshot_ms", quantile(s.snapshot, 0.5))
	set(into, "prune.bounds_ms", quantile(s.bounds, 0.5))
	set(into, "prune.sweep_ms", quantile(s.sweep, 0.5))
	set(into, "prune.probes_per_query", mean(s.probes))
	set(into, "prune.slices_per_query", mean(s.slices))
	set(into, "prune.textual_selectivity", mean(s.selectivity))
	set(into, "envelope.distfn_ms", quantile(s.distfn, 0.5))
	set(into, "envelope.lower_ms", quantile(s.lower, 0.5))
	set(into, "envelope.intervals", mean(s.intervals))
	set(into, "refine.zone_ms", quantile(s.zone, 0.5))
	set(into, "refine.hit_ratio", ratio(float64(s.answers), float64(s.tested)))
	set(into, "rank.levels_ms", quantile(s.levels, 0.5))
}

// replayInto runs the stage replays and records their metrics and
// verdicts.
func replayInto(ctx context.Context, rep *report, l map[string]metric, store *mod.Store, eng *engine.Engine, reqs []engine.Request) error {
	stages, err := replayAll(ctx, store, eng, reqs)
	if err != nil {
		return err
	}
	stages.metrics(l)
	rep.replays, rep.replayBad = stages.n, stages.bad
	rep.meta["replays"] = map[string]int{"run": stages.n, "unequal": stages.bad}
	return nil
}
