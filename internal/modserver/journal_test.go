package modserver

import (
	"bytes"
	"testing"

	"repro/internal/mod"
	"repro/internal/trajectory"
	"repro/internal/wal"
)

// TestJournaledServerRecovers wires a WAL journal under a live server,
// mutates through the ingest op — revisions, an insert, tag flips and a
// retirement — then recovers the directory and demands the byte-identical
// store: the contract the -wal-dir flag rides on.
func TestJournaledServerRecovers(t *testing.T) {
	dir := t.TempDir()
	st := liveStore(t)
	log, err := wal.Create(dir, st, wal.Options{SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()

	_, addr := startServerWith(t, st, Options{Journal: log})
	cli := mustDial(t, addr)

	for i := 0; i < 3; i++ {
		mustFlip(t, cli, i)
	}
	avail, none := []string{"available"}, []string{}
	for _, batch := range [][]mod.Update{
		{{OID: 77, Verts: []trajectory.Vertex{{X: 1, Y: 1, T: 0}, {X: 2, Y: 2, T: 5}}, Tags: &avail}},
		{{OID: 2, Tags: &avail}, {OID: 77, Tags: &none}},
		{{OID: 4, Retire: true}},
	} {
		if _, err := cli.Ingest(batch); err != nil {
			t.Fatal(err)
		}
	}

	var live bytes.Buffer
	if err := st.SaveBinary(&live); err != nil {
		t.Fatal(err)
	}
	recovered, info, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Torn {
		t.Fatalf("clean shutdown recovered torn: %+v", info)
	}
	var rec bytes.Buffer
	if err := recovered.SaveBinary(&rec); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live.Bytes(), rec.Bytes()) {
		t.Fatalf("recovered store differs from live: %d vs %d bytes", rec.Len(), live.Len())
	}
	if _, err := recovered.Get(77); err != nil {
		t.Fatalf("inserted object lost in recovery: %v", err)
	}
	if _, err := recovered.Get(4); err == nil {
		t.Fatal("retired object resurrected by recovery")
	}
	if tags := recovered.Tags(2); len(tags) != 1 || tags[0] != "available" {
		t.Fatalf("tag flip lost in recovery: %v", tags)
	}
}
