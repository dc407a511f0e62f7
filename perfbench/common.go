package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/textidx"
)

// sizing fixes a workload's population, rates and sample plan. Fields a
// workload does not use stay zero (and are omitted from the metadata).
type sizing struct {
	N         int `json:"n"`
	SetupReps int `json:"setup_reps"`
	Replays   int `json:"replays"` // stage replays in a traced run

	// city-live
	Subs       int     `json:"subs,omitempty"`
	Shapes     int     `json:"shapes,omitempty"`
	BatchRate  float64 `json:"batch_rate,omitempty"`  // open-loop ingest batches per second
	RevMean    float64 `json:"rev_mean,omitempty"`    // plan revisions per batch (Poisson mean)
	FlipMean   float64 `json:"flip_mean,omitempty"`   // tag flips per batch
	RetireMean float64 `json:"retire_mean,omitempty"` // retirements per batch
	ChurnMean  float64 `json:"churn_mean,omitempty"`  // unsubscribe+subscribe pairs per batch
	QueryRate  float64 `json:"query_rate,omitempty"`  // open-loop one-shot queries per second
	Segments   int     `json:"segments,omitempty"`    // standing answers are checked after each
	CheckSubs  int     `json:"check_subs,omitempty"`  // subscriptions checked per pause

	// oneshot-cold
	RareFrac   float64 `json:"rare_frac,omitempty"`   // share of objects carrying the rare tag
	RepeatFrac float64 `json:"repeat_frac,omitempty"` // share of queries repeating a recent key
	BurstEvery int     `json:"burst_every,omitempty"` // queries between rare-tag flip bursts
	BurstLen   int     `json:"burst_len,omitempty"`   // flip batches per burst
	BurstFlips int     `json:"burst_flips,omitempty"` // rare-tag moves per flip batch

	// cluster-http
	Shards     int     `json:"shards,omitempty"`
	IngestFrac float64 `json:"ingest_frac,omitempty"` // share of requests that are ingests

	// oneshot-cold and cluster-http: closed-loop answers checked per run
	Checks int `json:"checks,omitempty"`
}

// The tag predicates the request mixes filter on.
var (
	availPred = &textidx.Predicate{All: []string{"available"}}
	anyPred   = &textidx.Predicate{Any: []string{"available", "ev"}}
)

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// engineExplains renders the engine layer's counts from the Explain
// records of the traced one-shot queries.
func engineExplains(into map[string]metric, exps []engine.Explain) {
	hits, surv := 0.0, []float64{}
	for _, e := range exps {
		if e.MemoHit {
			hits++
		}
		if e.Candidates > 0 {
			surv = append(surv, float64(e.Survivors)/float64(e.Candidates))
		}
	}
	set(into, "engine.memo_hit_ratio", ratio(hits, float64(len(exps))))
	set(into, "engine.survivor_ratio", mean(surv))
}

// indexDelta renders the mod layer's index maintenance between two
// Store.IndexStats readings (summed over the stores given).
func indexDelta(into map[string]metric, before, after []mod.IndexStats) {
	var rebuilds, incr uint64
	for i := range before {
		a, b := after[i], before[i]
		rebuilds += (a.SegBuilds - b.SegBuilds) + (a.TPRBuilds - b.TPRBuilds) + (a.TextBuilds - b.TextBuilds)
		incr += (a.SegIncremental - b.SegIncremental) + (a.TPRIncremental - b.TPRIncremental) + (a.TextIncremental - b.TextIncremental)
	}
	set(into, "mod.index_rebuilds", float64(rebuilds))
	set(into, "mod.index_incremental", float64(incr))
}

// sampleReqs picks up to n of reqs by a seeded draw without replacement,
// in their original order.
func sampleReqs(seed int64, reqs []engine.Request, n int) []engine.Request {
	if len(reqs) <= n {
		return reqs
	}
	idx := rand.New(rand.NewSource(seed)).Perm(len(reqs))[:n]
	slices.Sort(idx)
	out := make([]engine.Request, n)
	for i, j := range idx {
		out[i] = reqs[j]
	}
	return out
}

// evenGaps is a constant-rate arrival schedule over [0, d): one send
// every 1/rate seconds, starting at a seeded phase within the first gap.
// Constant spacing keeps queueing in the measured latency a property of
// the system, not of bursts the generator happened to draw.
func evenGaps(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	gap := seconds(1 / rate)
	var out []time.Duration
	for at := time.Duration(rng.Int63n(int64(gap))); at < d; at += gap {
		out = append(out, at)
	}
	return out
}

// reqClass names a request's class for the check plan: its kind, and its
// tag predicate when it has one.
func reqClass(req engine.Request) string {
	if req.Where == nil {
		return string(req.Kind)
	}
	return string(req.Kind) + " " + req.Where.Key()
}

// checkPlan spreads a closed loop's answer checks over the measured phase
// and over the request classes. The phase is cut into n equal slots. The
// middle of slot i asks for a check of class (off+i) mod len(classes), and
// the first answered query of that class from then on is checked. With n
// at least the number of classes, every class is checked in a run, and
// the last checks fall near the end of the phase, after most writes.
type checkPlan struct {
	classes []string
	off     int
	n       int
	slot    time.Duration
	opened  int            // slots whose middle has passed
	wanted  map[string]int // checks asked for and not yet made, by class
	done    map[string]int // checks made, by class
}

func newCheckPlan(seed int64, n int, classes []string, d time.Duration) *checkPlan {
	return &checkPlan{
		classes: classes, n: n, slot: d / time.Duration(max(n, 1)),
		off:    rand.New(rand.NewSource(seed)).Intn(len(classes)),
		wanted: map[string]int{}, done: map[string]int{},
	}
}

// due reports whether an answered query of class c, issued at measured
// time at, is to be checked.
func (p *checkPlan) due(c string, at time.Duration) bool {
	for p.opened < p.n && at >= p.slot*time.Duration(p.opened)+p.slot/2 {
		p.wanted[p.classes[(p.off+p.opened)%len(p.classes)]]++
		p.opened++
	}
	if p.wanted[c] == 0 {
		return false
	}
	p.wanted[c]--
	p.done[c]++
	return true
}

// total is the number of checks made.
func (p *checkPlan) total() int {
	n := 0
	for _, k := range p.done {
		n += k
	}
	return n
}

// covered fails when some class got no check in the run.
func (p *checkPlan) covered() error {
	for _, c := range p.classes {
		if p.done[c] == 0 {
			return fmt.Errorf("no answer of class %q was checked", c)
		}
	}
	return nil
}
