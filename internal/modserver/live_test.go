package modserver

import (
	"errors"
	"testing"

	"repro/internal/mod"
	"repro/internal/trajectory"
)

// liveStore builds the standard live scene: query object 1 crossing the
// plane, 2 shadowing it, 3 and 4 far away, plans covering [0, 10].
func liveStore(t *testing.T) *mod.Store {
	t.Helper()
	st, err := mod.NewUniformStore(0.5)
	if err != nil {
		t.Fatal(err)
	}
	for oid, y := range map[int64]float64{1: 0, 2: 1, 3: 50, 4: 100} {
		verts := make([]trajectory.Vertex, 11)
		for i := range verts {
			verts[i] = trajectory.Vertex{X: float64(i), Y: y, T: float64(i)}
		}
		tr, err := trajectory.New(oid, verts)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// flipUpdate alternately steers object 3 next to / away from query
// object 1 (a revision from t=6 or t=5.5 respectively).
func flipUpdate(near bool) mod.Update {
	if near {
		return mod.Update{OID: 3, Verts: []trajectory.Vertex{
			{X: 6, Y: 1, T: 6}, {X: 8, Y: 0.5, T: 8}, {X: 10, Y: 0.5, T: 10},
		}}
	}
	return mod.Update{OID: 3, Verts: []trajectory.Vertex{
		{X: 6, Y: 80, T: 5.5}, {X: 10, Y: 80, T: 10},
	}}
}

func mustFlip(t *testing.T, cli *Client, i int) {
	t.Helper()
	if _, err := cli.Ingest([]mod.Update{flipUpdate(i%2 == 0)}); err != nil {
		t.Fatalf("flip %d: %v", i, err)
	}
}

// TestIngestErrorIdentity keeps the wire error surface coherent with the
// in-process one for the live ops.
func TestIngestErrorIdentity(t *testing.T) {
	st := liveStore(t)
	_, addr := startServer(t, st)
	cli := mustDial(t, addr)

	// Stale revision: first vertex precedes the whole plan.
	_, err := cli.Ingest([]mod.Update{{OID: 1, Verts: []trajectory.Vertex{{X: 0, Y: 0, T: -5}}}})
	if err == nil {
		t.Fatal("stale revision accepted")
	}
	var wire interface{ Error() string } = err
	if wire.Error() == "" {
		t.Fatal("empty error message")
	}
	if errors.Is(err, mod.ErrNotFound) {
		t.Fatal("stale revision misreported as not-found")
	}

	// A mid-batch failure reports the applied prefix with the error — the
	// mod.ApplyUpdates partial contract, preserved across the wire.
	partial, err := cli.Ingest([]mod.Update{
		{OID: 2, Verts: []trajectory.Vertex{{X: 6, Y: 1.1, T: 6}, {X: 10, Y: 1.1, T: 10}}},
		{OID: 1, Verts: []trajectory.Vertex{{X: 0, Y: 0, T: -5}}},
	})
	if err == nil {
		t.Fatal("bad batch member accepted")
	}
	if len(partial) != 1 || partial[0].OID != 2 || partial[0].ChangedFrom != 5 {
		t.Fatalf("partial outcomes = %+v", partial)
	}
}
