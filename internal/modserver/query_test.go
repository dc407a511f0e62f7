package modserver

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/prune"
	"repro/internal/queries"
)

// phaseCall runs one deadline-carrying shard phase against the server.
type phaseCall struct {
	name string
	run  func(c *Client, deadline time.Duration) error
}

// deadlinePhases builds the bounds, survivors and refine calls over a
// store large enough that each phase costs well over a millisecond on
// the server: the survivors phase imposes huge finite bounds (every
// object is swept, none pruned) and the refine evaluates UQ31 over the
// whole store as the union.
func deadlinePhases(t *testing.T, store *mod.Store) []phaseCall {
	t.Helper()
	oids := store.OIDs()
	q, err := store.Get(oids[0])
	if err != nil {
		t.Fatal(err)
	}
	union := store.All()
	huge, err := prune.SliceBounds(context.Background(), store, q, 0, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range huge {
		huge[i] = 1e9
	}
	gather := 0
	return []phaseCall{
		{"bounds", func(c *Client, d time.Duration) error {
			_, err := c.ShardBounds(q, 0, 60, 10, nil, d)
			return err
		}},
		{"survivors", func(c *Client, d time.Duration) error {
			_, _, err := c.ShardSurvivors(q, 0, 60, huge, nil, d)
			return err
		}},
		{"refine", func(c *Client, d time.Duration) error {
			// A fresh gather ID per call: every refine uploads and
			// evaluates from scratch instead of reusing a memoized build.
			gather++
			_, err := c.ShardRefine(fmt.Sprintf("g%d", gather), union, oids[1:],
				engine.Request{Kind: engine.KindUQ31, QueryOID: q.OID, Tb: 0, Te: 60}, d)
			return err
		}},
	}
}

// TestQueryOpDeadline: an un-meetable deadline_ms fails each deadline-
// carrying phase with the server's context error and leaves the store and
// connection usable.
func TestQueryOpDeadline(t *testing.T) {
	store := seededStore(t, 16000)
	_, addr := startServer(t, store)
	c := mustDial(t, addr)

	for _, ph := range deadlinePhases(t, store) {
		if err := ph.run(c, time.Millisecond); err == nil ||
			!strings.Contains(err.Error(), "context deadline exceeded") {
			t.Fatalf("%s: deadline not enforced: err=%v", ph.name, err)
		}
		// The connection remains usable: the same phase answers without
		// a deadline.
		if err := ph.run(c, 0); err != nil {
			t.Fatalf("%s: server unusable after expired deadline: %v", ph.name, err)
		}
	}
	n, err := c.Count()
	if err != nil || n != store.Len() {
		t.Fatalf("count after deadline: n=%d err=%v", n, err)
	}
}

// TestDeadlineIdentityOverWire: a server-side deadline expiry keeps its
// context.DeadlineExceeded identity at the client — the regression the
// HTTP layer's 504 mapping rides on (it used to arrive as a generic
// string).
func TestDeadlineIdentityOverWire(t *testing.T) {
	store := seededStore(t, 16000)
	_, addr := startServer(t, store)
	c := mustDial(t, addr)

	for _, ph := range deadlinePhases(t, store) {
		if err := ph.run(c, time.Millisecond); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s deadline identity: %v, want context.DeadlineExceeded", ph.name, err)
		}
		// The connection survives the coded failure.
		if _, err := c.Count(); err != nil {
			t.Fatalf("count after coded %s deadline: %v", ph.name, err)
		}
	}
}

// TestQueryOpThresholdKind exercises a Section 7 kind end to end over the
// wire — ALLTHRESH through the refine phase, with the whole store as the
// gathered union and every object as the shard's own share — against the
// serial Processor.
func TestQueryOpThresholdKind(t *testing.T) {
	store := seededStore(t, 8)
	_, addr := startServer(t, store)
	c := mustDial(t, addr)

	oids := store.OIDs()
	q, err := store.Get(oids[0])
	if err != nil {
		t.Fatal(err)
	}
	proc, err := queries.NewProcessor(store.All(), q, 0, 60, store.Radius())
	if err != nil {
		t.Fatal(err)
	}
	want, err := proc.ThresholdNNAll(0.4, 0.1, queries.ThresholdConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.ShardRefine("thresh", store.All(), oids[1:],
		engine.Request{Kind: engine.KindAllThreshold, QueryOID: q.OID, Tb: 0, Te: 60, P: 0.4, X: 0.1}, 0)
	if err != nil {
		t.Fatalf("ALLTHRESH over wire: %v", err)
	}
	if len(want) == 0 || !slices.Equal(got.OIDs, want) {
		t.Fatalf("ALLTHRESH wire %v != serial %v", got.OIDs, want)
	}
}
