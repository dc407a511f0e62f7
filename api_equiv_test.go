package repro_test

// The facade's golden gate: Engine.Do (directly and through compiled UQL)
// must return byte-identical answers to the full-scan reference
// implementations in internal/queries on a seeded 500-trajectory store,
// and context cancellation must stop a batch mid-flight with
// context.Canceled while leaving the store usable.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro"
	"repro/internal/queries"
)

func seededEquivStore(t *testing.T, n int) *repro.Store {
	t.Helper()
	store, err := repro.NewUniformStore(0.5)
	if err != nil {
		t.Fatal(err)
	}
	trs, err := repro.GenerateWorkload(repro.DefaultWorkload(2026), n)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.InsertAll(trs); err != nil {
		t.Fatal(err)
	}
	return store
}

// TestGoldenFacadeEquivalence compares Engine.Do against the full-scan
// reference processor and the engine's own memoized, index-pruned
// processor, variant by variant, on a 500-trajectory store.
func TestGoldenFacadeEquivalence(t *testing.T) {
	n := 500
	if testing.Short() {
		n = 120
	}
	store := seededEquivStore(t, n)
	eng := repro.NewEngine(0)
	ctx := context.Background()
	const qOID, tb, te = 1, 0.0, 60.0

	do := func(req repro.Request) repro.Result {
		t.Helper()
		res, err := eng.Do(ctx, store, req)
		if err != nil {
			t.Fatalf("Do(%+v): %v", req, err)
		}
		return res
	}

	// 1. The full-scan reference processor and the engine's indexed one.
	q, err := store.Get(qOID)
	if err != nil {
		t.Fatal(err)
	}
	full, err := queries.NewProcessor(store.All(), q, tb, te, store.Radius())
	if err != nil {
		t.Fatal(err)
	}
	indexed, err := eng.Processor(store, qOID, tb, te)
	if err != nil {
		t.Fatal(err)
	}
	for _, proc := range []*repro.QueryProcessor{full, indexed} {
		if got := do(repro.Request{Kind: repro.KindUQ31, QueryOID: qOID, Tb: tb, Te: te}).OIDs; !reflect.DeepEqual(got, proc.UQ31()) {
			t.Fatalf("UQ31: do=%v processor=%v", got, proc.UQ31())
		}
		if got := do(repro.Request{Kind: repro.KindUQ32, QueryOID: qOID, Tb: tb, Te: te}).OIDs; !reflect.DeepEqual(got, proc.UQ32()) {
			t.Fatalf("UQ32 diverged")
		}
		want33, err := proc.UQ33(0.25)
		if err != nil {
			t.Fatal(err)
		}
		if got := do(repro.Request{Kind: repro.KindUQ33, QueryOID: qOID, Tb: tb, Te: te, X: 0.25}).OIDs; !reflect.DeepEqual(got, want33) {
			t.Fatalf("UQ33 diverged")
		}
		for _, k := range []int{2, 3} {
			want41, err := proc.UQ41(k)
			if err != nil {
				t.Fatal(err)
			}
			if got := do(repro.Request{Kind: repro.KindUQ41, QueryOID: qOID, Tb: tb, Te: te, K: k}).OIDs; !reflect.DeepEqual(got, want41) {
				t.Fatalf("UQ41(%d) diverged", k)
			}
		}
		// Per-object predicates over a sample.
		oids := proc.CandidateOIDs()
		step := len(oids)/25 + 1
		for i := 0; i < len(oids); i += step {
			oid := oids[i]
			want11, err := proc.UQ11(oid)
			if err != nil {
				t.Fatal(err)
			}
			if got := do(repro.Request{Kind: repro.KindUQ11, QueryOID: qOID, Tb: tb, Te: te, OID: oid}); !got.IsBool || got.Bool != want11 {
				t.Fatalf("UQ11(%d) diverged", oid)
			}
			want21, err := proc.UQ21(oid, 2)
			if err != nil {
				t.Fatal(err)
			}
			if got := do(repro.Request{Kind: repro.KindUQ21, QueryOID: qOID, Tb: tb, Te: te, OID: oid, K: 2}); got.Bool != want21 {
				t.Fatalf("UQ21(%d) diverged", oid)
			}
		}
	}

	// 2. Compiled UQL statements against the reference processor.
	stmts := []struct {
		uql  string
		want func() (any, error)
	}{
		{fmt.Sprintf("SELECT T FROM MOD WHERE EXISTS Time IN [%g, %g] AND ProbabilityNN(T, %d, Time) > 0", tb, te, qOID),
			func() (any, error) { return full.UQ31(), nil }},
		{fmt.Sprintf("SELECT T FROM MOD WHERE ATLEAST 40%% Time IN [%g, %g] AND ProbabilityNN(T, %d, Time) > 0", tb, te, qOID),
			func() (any, error) { return full.UQ33(0.4) }},
		{fmt.Sprintf("SELECT 2 FROM MOD WHERE FORALL Time IN [%g, %g] AND ProbabilityNN(2, %d, Time) > 0", tb, te, qOID),
			func() (any, error) { return full.UQ12(2) }},
		{fmt.Sprintf("SELECT T FROM MOD WHERE AT Time = 30 WITHIN [%g, %g] AND ProbabilityKNN(T, %d, Time, 2) > 0", tb, te, qOID),
			func() (any, error) { return full.PossibleRankKAt(30, 2) }},
	}
	for _, st := range stmts {
		req, ok, err := repro.CompileUQL(st.uql)
		if err != nil || !ok {
			t.Fatalf("CompileUQL(%q): ok=%v err=%v", st.uql, ok, err)
		}
		want, err := st.want()
		if err != nil {
			t.Fatal(err)
		}
		res := do(req)
		var got any = res.OIDs
		if res.IsBool {
			got = res.Bool
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("compiled %q diverged: do=%v reference=%v", st.uql, got, want)
		}
	}

	// 3. All-pairs and reverse against their full-scan references on a
	// small subset (quadratic cost).
	sub := store.All()[:40]
	wantPairs, err := queries.AllPairsPossibleNN(sub, tb, te, store.Radius())
	if err != nil {
		t.Fatal(err)
	}
	subStore, err := repro.NewUniformStore(store.Radius())
	if err != nil {
		t.Fatal(err)
	}
	if err := subStore.InsertAll(sub); err != nil {
		t.Fatal(err)
	}
	gotPairs, err := eng.Do(ctx, subStore, repro.Request{Kind: repro.KindAllPairs, Tb: tb, Te: te})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotPairs.Pairs, wantPairs) {
		t.Fatal("reference all-pairs diverged from KindAllPairs")
	}
	wantRev, err := queries.ReversePossibleNN(sub, sub[3], tb, te, store.Radius())
	if err != nil {
		t.Fatal(err)
	}
	gotRev, err := eng.Do(ctx, subStore, repro.Request{Kind: repro.KindReverse, Tb: tb, Te: te, OID: sub[3].OID})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRev.OIDs, wantRev) {
		t.Fatalf("reference reverse diverged: %v vs %v", wantRev, gotRev.OIDs)
	}
}

// TestFacadeCancellation: a context canceled mid-batch returns
// context.Canceled and leaves the store usable.
func TestFacadeCancellation(t *testing.T) {
	store := seededEquivStore(t, 200)
	eng := repro.NewEngine(2)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.DoBatch(ctx, store, []repro.Request{
		{Kind: repro.KindUQ31, QueryOID: 1, Tb: 0, Te: 60},
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled: err=%v, want context.Canceled", err)
	}

	reqs := make([]repro.Request, 150)
	for i := range reqs {
		reqs[i] = repro.Request{Kind: repro.KindUQ31, QueryOID: int64(i%100 + 1), Tb: 0, Te: 30 + float64(i)/50}
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(15 * time.Millisecond)
		cancel2()
	}()
	if _, err := eng.DoBatch(ctx2, store, reqs); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-batch: err=%v, want context.Canceled", err)
	}

	// Store left usable.
	res, err := eng.Do(context.Background(), store, repro.Request{Kind: repro.KindUQ31, QueryOID: 1, Tb: 0, Te: 60})
	if err != nil || res.Err != nil {
		t.Fatalf("store unusable after cancellation: %v / %v", err, res.Err)
	}
	if n := store.Len(); n != 200 {
		t.Fatalf("store corrupted: len=%d", n)
	}
}
