package repro_test

import (
	"context"
	"sort"
	"testing"

	"repro"
	"repro/internal/queries"
)

func seededStore(t *testing.T, n int) *repro.Store {
	t.Helper()
	store, err := repro.NewUniformStore(0.5)
	if err != nil {
		t.Fatal(err)
	}
	trs, err := repro.GenerateWorkload(repro.DefaultWorkload(1234), n)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.InsertAll(trs); err != nil {
		t.Fatal(err)
	}
	return store
}

// doUQL compiles UQL statements to Requests and evaluates them as one
// engine batch — the facade's UQL route.
func doUQL(t *testing.T, eng *repro.Engine, store *repro.Store, stmts ...string) []repro.Result {
	t.Helper()
	reqs := make([]repro.Request, len(stmts))
	for i, stmt := range stmts {
		req, ok, err := repro.CompileUQL(stmt)
		if err != nil || !ok {
			t.Fatalf("CompileUQL(%q): ok=%v err=%v", stmt, ok, err)
		}
		reqs[i] = req
	}
	res, err := eng.DoBatch(context.Background(), store, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("%q: %v", stmts[i], r.Err)
		}
	}
	return res
}

// TestFacadeEndToEnd walks the whole public surface the README shows.
func TestFacadeEndToEnd(t *testing.T) {
	store := seededStore(t, 120)
	q, err := store.Get(1)
	if err != nil {
		t.Fatal(err)
	}

	tree, err := repro.BuildIPACNN(store.All(), q, 0, 60, store.Radius(), nil,
		repro.TreeConfig{MaxLevels: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tree.NodeCount() == 0 || tree.Depth() < 1 {
		t.Fatalf("tree: %d nodes depth %d", tree.NodeCount(), tree.Depth())
	}
	if got := tree.AnswerAt(30); got == 0 || got == q.OID {
		t.Fatalf("AnswerAt = %d", got)
	}
	ranked := tree.RankedAt(30, 3)
	if len(ranked) == 0 || ranked[0] != tree.AnswerAt(30) {
		t.Fatalf("RankedAt = %v vs AnswerAt = %d", ranked, tree.AnswerAt(30))
	}

	proc, err := queries.NewProcessor(store.All(), q, 0, 60, store.Radius())
	if err != nil {
		t.Fatal(err)
	}
	uq31 := proc.UQ31()
	res := doUQL(t, repro.NewEngine(1), store,
		"SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(T, 1, Time) > 0")[0]
	if len(res.OIDs) != len(uq31) {
		t.Fatalf("UQL %d ids vs processor %d", len(res.OIDs), len(uq31))
	}
	for i := range uq31 {
		if res.OIDs[i] != uq31[i] {
			t.Fatalf("UQL/processor divergence at %d", i)
		}
	}
	// The tree's kept set equals UQ31.
	kept := append([]int64(nil), tree.KeptOIDs...)
	sort.Slice(kept, func(a, b int) bool { return kept[a] < kept[b] })
	if len(kept) != len(uq31) {
		t.Fatalf("tree kept %d vs UQ31 %d", len(kept), len(uq31))
	}
	for i := range kept {
		if kept[i] != uq31[i] {
			t.Fatalf("kept/UQ31 divergence at %d: %d vs %d", i, kept[i], uq31[i])
		}
	}
}

func TestFacadeProbabilityHelpers(t *testing.T) {
	u := repro.UniformDiskPDF(1)
	conv, err := repro.Convolve(u, u)
	if err != nil {
		t.Fatal(err)
	}
	if conv.Support() != 2 {
		t.Fatalf("convolved support = %g", conv.Support())
	}
	cands := []repro.Candidate{{ID: 1, Dist: 2}, {ID: 2, Dist: 3}, {ID: 3, Dist: 30}}
	probs := repro.NNProbabilities(u, cands)
	if !(probs[1] > probs[2] && probs[2] >= 0 && probs[3] == 0) {
		t.Fatalf("probs = %v", probs)
	}
	up, err := repro.UncertainQueryNN(u, u, cands)
	if err != nil {
		t.Fatal(err)
	}
	if !(up[1] > up[2]) {
		t.Fatalf("uncertain-query probs = %v", up)
	}
	// Other pdf constructors.
	if g := repro.BoundedGaussianPDF(1, 0.4); g.Support() != 1 {
		t.Fatal("gaussian support")
	}
	if c := repro.ConePDF(2); c.Support() != 2 {
		t.Fatal("cone support")
	}
}

func TestFacadeTrajectoryConstruction(t *testing.T) {
	tr, err := repro.NewTrajectory(9, []repro.Vertex{{X: 0, Y: 0, T: 0}, {X: 1, Y: 1, T: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if tr.OID != 9 {
		t.Fatalf("oid = %d", tr.OID)
	}
	if _, err := repro.NewTrajectory(9, nil); err == nil {
		t.Fatal("invalid trajectory accepted")
	}
	// Store with explicit spec.
	st, err := repro.NewStore(repro.PDFSpec{Kind: repro.PDFBoundedGaussian, R: 1, Sigma: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if st.Radius() != 1 {
		t.Fatalf("radius = %g", st.Radius())
	}
	if _, err := repro.NewStore(repro.PDFSpec{Kind: "bogus", R: 1}); err == nil {
		t.Fatal("bogus spec accepted")
	}
}

func TestFacadeWorkloadConfigs(t *testing.T) {
	single, err := repro.GenerateWorkload(repro.SingleSegmentWorkload(3), 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range single {
		if tr.NumSegments() != 1 {
			t.Fatalf("segments = %d", tr.NumSegments())
		}
	}
}

// TestFacadeBatchEngine exercises the engine exports: a typed batch, the
// compiled UQL form, and agreement with the serial processor.
func TestFacadeBatchEngine(t *testing.T) {
	store := seededStore(t, 80)
	eng := repro.NewEngine(0)

	res, err := eng.DoBatch(context.Background(), store, []repro.Request{
		{Kind: repro.KindUQ31, QueryOID: 1, Tb: 0, Te: 60},
		{Kind: repro.KindUQ41, QueryOID: 1, Tb: 0, Te: 60, K: 2},
		{Kind: repro.KindUQ13, QueryOID: 1, Tb: 0, Te: 60, OID: 2, X: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("results = %d", len(res))
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("result %d: %v", i, r.Err)
		}
	}
	q, err := store.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := queries.NewProcessor(store.All(), q, 0, 60, store.Radius())
	if err != nil {
		t.Fatal(err)
	}
	want := proc.UQ31()
	got := res[0].OIDs
	if len(got) != len(want) {
		t.Fatalf("UQ31: engine %v != serial %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("UQ31: engine %v != serial %v", got, want)
		}
	}

	items := doUQL(t, eng, store,
		"SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(T, 1, Time) > 0",
		"SELECT 2 FROM MOD WHERE FORALL Time IN [0, 60] AND ProbabilityNN(2, 1, Time) > 0",
	)
	if items[0].IsBool || !items[1].IsBool {
		t.Fatalf("result shapes: %+v", items)
	}
}
