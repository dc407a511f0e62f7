package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/mod"
	"repro/internal/queries"
	"repro/internal/workload"
)

// newStore builds a seeded random-waypoint store of n trajectories with the
// paper's default model (r = 0.5) and returns it with the first OID.
func newStore(t testing.TB, n int, seed int64) (*mod.Store, int64) {
	t.Helper()
	trs, err := workload.Generate(workload.DefaultConfig(seed), n)
	if err != nil {
		t.Fatal(err)
	}
	store, err := mod.NewUniformStore(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.InsertAll(trs); err != nil {
		t.Fatal(err)
	}
	return store, trs[0].OID
}

// batchKinds is the mixed workload used by the equivalence tests: every
// whole-MOD variant plus fixed-time retrievals, at several ranks, all
// against query object qOID over [0, 60].
func batchKinds(qOID int64) []Request {
	reqs := []Request{
		{Kind: KindUQ31},
		{Kind: KindUQ32},
		{Kind: KindUQ33, X: 0.25},
		{Kind: KindUQ41, K: 2},
		{Kind: KindUQ41, K: 3},
		{Kind: KindUQ42, K: 2},
		{Kind: KindUQ43, K: 3, X: 0.25},
		{Kind: KindAllNNAt, T: 30},
		{Kind: KindAllRankAt, T: 30, K: 2},
	}
	for i := range reqs {
		reqs[i].QueryOID, reqs[i].Tb, reqs[i].Te = qOID, 0, 60
	}
	return reqs
}

// serialResults computes the same batch with the serial Processor loops.
func serialResults(t *testing.T, store *mod.Store, qOID int64, reqs []Request) []Result {
	t.Helper()
	q, err := store.Get(qOID)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := queries.NewProcessor(store.All(), q, 0, 60, store.Radius())
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Result, len(reqs))
	for i, r := range reqs {
		var (
			ids []int64
			err error
		)
		switch r.Kind {
		case KindUQ31:
			ids = proc.UQ31()
		case KindUQ32:
			ids = proc.UQ32()
		case KindUQ33:
			ids, err = proc.UQ33(r.X)
		case KindUQ41:
			ids, err = proc.UQ41(r.K)
		case KindUQ42:
			ids, err = proc.UQ42(r.K)
		case KindUQ43:
			ids, err = proc.UQ43(r.K, r.X)
		case KindAllNNAt:
			ids = proc.PossibleNNAt(r.T)
		case KindAllRankAt:
			ids, err = proc.PossibleRankKAt(r.T, r.K)
		default:
			t.Fatalf("serialResults: unhandled kind %q", r.Kind)
		}
		out[i] = Result{OIDs: ids, Err: err}
	}
	return out
}

// answersEqual compares the answer part of two results (not Explain).
func answersEqual(a, b Result) bool {
	if a.IsBool != b.IsBool || a.Bool != b.Bool || (a.Err == nil) != (b.Err == nil) {
		return false
	}
	return fmt.Sprint(a.OIDs) == fmt.Sprint(b.OIDs)
}

// TestBatchMatchesSerial is the acceptance gate: on a seeded
// 1000-trajectory workload, the parallel batch answers must be identical to
// the serial Processor's, variant by variant.
func TestBatchMatchesSerial(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 200
	}
	store, qOID := newStore(t, n, 42)
	reqs := batchKinds(qOID)
	want := serialResults(t, store, qOID, reqs)

	eng := New(0)
	got, err := eng.DoBatch(context.Background(), store, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Err != nil {
			t.Fatalf("query %d (%s): %v", i, reqs[i].Kind, got[i].Err)
		}
		if !answersEqual(got[i], want[i]) {
			t.Errorf("query %d (%s k=%d x=%g): parallel %v != serial %v",
				i, reqs[i].Kind, reqs[i].K, reqs[i].X, got[i].OIDs, want[i].OIDs)
		}
	}
}

// TestWorkerCountInvariance is the property test: worker count (1, 2, 3,
// NumCPU, more-than-OIDs) must never change any answer, and every
// result's Explain reports the engine's worker count.
func TestWorkerCountInvariance(t *testing.T) {
	store, qOID := newStore(t, 120, 7)
	reqs := append(batchKinds(qOID),
		Request{Kind: KindUQ11, QueryOID: qOID, Tb: 0, Te: 60, OID: qOID + 5},
		Request{Kind: KindUQ12, QueryOID: qOID, Tb: 0, Te: 60, OID: qOID + 3},
		Request{Kind: KindUQ13, QueryOID: qOID, Tb: 0, Te: 60, OID: qOID + 5, X: 0.1},
		Request{Kind: KindUQ21, QueryOID: qOID, Tb: 0, Te: 60, OID: qOID + 9, K: 2},
		Request{Kind: KindUQ22, QueryOID: qOID, Tb: 0, Te: 60, OID: qOID + 4, K: 2},
		Request{Kind: KindNNAt, QueryOID: qOID, Tb: 0, Te: 60, OID: qOID + 5, T: 20},
		Request{Kind: KindRankAt, QueryOID: qOID, Tb: 0, Te: 60, OID: qOID + 5, T: 20, K: 2},
	)
	counts := []int{1, 2, 3, runtime.NumCPU(), 1000}
	var ref []Result
	for i, w := range counts {
		eng := New(w)
		got, err := eng.DoBatch(context.Background(), store, reqs)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for j, res := range got {
			if res.Explain.Workers != eng.Workers() {
				t.Fatalf("workers=%d query %d (%s): explain workers %d", w, j, reqs[j].Kind, res.Explain.Workers)
			}
		}
		if i == 0 {
			ref = got
			continue
		}
		for j := range reqs {
			if !answersEqual(got[j], ref[j]) {
				t.Errorf("workers=%d query %d (%s): %+v != workers=1 %+v",
					w, j, reqs[j].Kind, got[j], ref[j])
			}
		}
	}
}

// TestBoolKindsMatchProcessor checks the single-object kinds against the
// Processor methods directly.
func TestBoolKindsMatchProcessor(t *testing.T) {
	store, qOID := newStore(t, 60, 3)
	q, err := store.Get(qOID)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := queries.NewProcessor(store.All(), q, 0, 60, store.Radius())
	if err != nil {
		t.Fatal(err)
	}
	eng := New(2)
	for _, oid := range proc.CandidateOIDs() {
		wantB, err := proc.UQ11(oid)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Do(context.Background(), store, Request{Kind: KindUQ11, QueryOID: qOID, Tb: 0, Te: 60, OID: oid})
		if err != nil || !got.IsBool || got.Bool != wantB {
			t.Fatalf("UQ11(%d): got %+v, want %v", oid, got, wantB)
		}
	}
}

// TestProcessorMemo checks reuse within a store version and invalidation
// across mutations.
func TestProcessorMemo(t *testing.T) {
	store, qOID := newStore(t, 40, 11)
	eng := New(2)
	p1, err := eng.Processor(store, qOID, 0, 60)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := eng.Processor(store, qOID, 0, 60)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("same key did not reuse the memoized processor")
	}
	if eng.MemoLen() != 1 {
		t.Fatalf("memo len = %d, want 1", eng.MemoLen())
	}
	// Explain reports the envelope reuse on a request against the same key.
	res, err := eng.Do(context.Background(), store, Request{Kind: KindUQ31, QueryOID: qOID, Tb: 0, Te: 60})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Explain.MemoHit {
		t.Error("request against a memoized key did not report a memo hit")
	}
	if res.Explain.Candidates == 0 || res.Explain.Survivors == 0 {
		t.Errorf("explain counters empty: %+v", res.Explain)
	}
	// A different window is a different key.
	if p3, err := eng.Processor(store, qOID, 0, 30); err != nil || p3 == p1 {
		t.Fatalf("window change should build a new processor (err=%v)", err)
	}
	// A store mutation bumps the version and invalidates.
	trs, err := workload.Generate(workload.DefaultConfig(99), 41)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Insert(trs[40]); err != nil {
		t.Fatal(err)
	}
	p4, err := eng.Processor(store, qOID, 0, 60)
	if err != nil {
		t.Fatal(err)
	}
	if p4 == p1 {
		t.Fatal("store mutation did not invalidate the memo")
	}
	if len(p4.CandidateOIDs()) != len(p1.CandidateOIDs())+1 {
		t.Fatalf("rebuilt processor sees %d candidates, want %d",
			len(p4.CandidateOIDs()), len(p1.CandidateOIDs())+1)
	}
}

// TestConcurrentBatches hammers one engine from many goroutines (run under
// -race). Batches share keys, so this also exercises the build-once slot.
func TestConcurrentBatches(t *testing.T) {
	store, qOID := newStore(t, 80, 21)
	eng := New(runtime.NumCPU())
	reqs := batchKinds(qOID)
	const goroutines = 8
	var wg sync.WaitGroup
	results := make([][]Result, goroutines)
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = eng.DoBatch(context.Background(), store, reqs)
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for j := range reqs {
			if !answersEqual(results[g][j], results[0][j]) {
				t.Errorf("goroutine %d query %d (%s) diverged", g, j, reqs[j].Kind)
			}
		}
	}
	if eng.MemoLen() != 1 {
		t.Fatalf("memo len = %d, want 1 (all batches share a key)", eng.MemoLen())
	}
}

// TestErrors covers the per-request and per-batch failure paths.
func TestErrors(t *testing.T) {
	store, qOID := newStore(t, 20, 5)
	eng := New(2)
	ctx := context.Background()
	if res, err := eng.Do(ctx, store, Request{Kind: KindUQ31, QueryOID: 99999, Tb: 0, Te: 60}); err == nil || res.Err == nil {
		t.Error("unknown query OID should fail the request")
	}
	req := func(r Request) Request { r.QueryOID, r.Tb, r.Te = qOID, 0, 60; return r }
	res, err := eng.DoBatch(ctx, store, []Request{
		req(Request{Kind: "NOPE"}),
		req(Request{Kind: KindUQ33, X: 2}),
		req(Request{Kind: KindUQ43, K: 0, X: 0.5}),
		req(Request{Kind: KindUQ11, OID: 424242}),
		req(Request{Kind: KindUQ31}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res[0].Err, ErrBadKind) {
		t.Errorf("request 0: got %v, want ErrBadKind", res[0].Err)
	}
	if !errors.Is(res[1].Err, queries.ErrBadFrac) {
		t.Errorf("request 1: got %v, want ErrBadFrac", res[1].Err)
	}
	if !errors.Is(res[2].Err, queries.ErrBadRank) {
		t.Errorf("request 2: got %v, want ErrBadRank", res[2].Err)
	}
	if !errors.Is(res[3].Err, queries.ErrUnknownOID) {
		t.Errorf("request 3: got %v, want ErrUnknownOID", res[3].Err)
	}
	if res[4].Err != nil {
		t.Errorf("request 4: healthy sibling poisoned: %v", res[4].Err)
	}
	var nilEng *Engine
	if _, err := nilEng.DoBatch(ctx, store, []Request{req(Request{Kind: KindUQ31})}); !errors.Is(err, ErrNoEngine) {
		t.Errorf("nil engine: got %v, want ErrNoEngine", err)
	}
}
