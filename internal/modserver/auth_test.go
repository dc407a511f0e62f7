package modserver

// Transport-security and drain tests: the static-token auth gate, TLS
// serving with the typed plaintext-dial error, and the graceful Shutdown
// drain.

import (
	"context"
	"crypto/tls"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/mod"
	"repro/internal/testcert"
)

// startTokenServer starts a token-protected server, optionally TLS.
func startTokenServer(t *testing.T, store *mod.Store, token string, tlsPair *testcert.Pair) (*Server, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if tlsPair != nil {
		l = tls.NewListener(l, tlsPair.ServerConfig())
	}
	srv := NewServerWith(store, nil, Options{Token: token})
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(l)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return srv, l.Addr().String()
}

// TestTokenAuthGatesOps: every op on a token-protected server is refused
// with the ErrUnauthorized identity until the connection authenticates;
// a wrong token is refused the same way at dial time; the right token
// unlocks the full shard protocol.
func TestTokenAuthGatesOps(t *testing.T) {
	store := seededStore(t, 20)
	_, addr := startTokenServer(t, store, "s3cret", nil)
	q, err := store.Get(store.OIDs()[0])
	if err != nil {
		t.Fatal(err)
	}

	// Unauthenticated ops: refused and the connection closed.
	c, err := dialWith(addr, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Count(); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("unauthenticated count: %v, want ErrUnauthorized", err)
	}
	c.Close()

	// A query phase is gated too.
	c, err = dialWith(addr, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ShardBounds(q, 0, 60, 1, nil, 0); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("unauthenticated bounds: %v, want ErrUnauthorized", err)
	}
	c.Close()

	// Wrong token: the dial itself fails typed.
	if _, err := dialWith(addr, nil, "wrong"); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("wrong-token dial: %v, want ErrUnauthorized", err)
	}

	// Right token: the shard protocol works on the authed connection.
	c, err = dialWith(addr, nil, "s3cret")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if n, err := c.Count(); err != nil || n != 20 {
		t.Fatalf("authed count: %d, %v", n, err)
	}
	if _, err := c.ShardBounds(q, 0, 60, 1, nil, 0); err != nil {
		t.Fatalf("authed bounds: %v", err)
	}
}

// TestNoTokenServerAcceptsAuth: an auth op against an unprotected server
// succeeds (clients can send the token unconditionally).
func TestNoTokenServerAcceptsAuth(t *testing.T) {
	store := seededStore(t, 5)
	_, addr := startServer(t, store)
	c, err := dialWith(addr, nil, "anything")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Count(); err != nil {
		t.Fatal(err)
	}
}

// TestTLSServingAndPlaintextTyped: a TLS+token server serves the shard
// protocol to a properly configured client, and a plaintext dial against
// it fails with the ErrTLSRequired identity (the server answers the
// confused client in plaintext) rather than a JSON syntax error or a
// silent close.
func TestTLSServingAndPlaintextTyped(t *testing.T) {
	pair, err := testcert.New()
	if err != nil {
		t.Fatal(err)
	}
	store := seededStore(t, 20)
	_, addr := startTokenServer(t, store, "s3cret", &pair)

	c, err := dialWith(addr, pair.ClientConfig(), "s3cret")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q, err := store.Get(store.OIDs()[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ShardBounds(q, 0, 60, 1, nil, 0); err != nil {
		t.Fatalf("TLS bounds: %v", err)
	}

	// Plaintext against TLS: typed refusal.
	pc := mustDial(t, addr)
	if _, err := pc.Count(); !errors.Is(err, ErrTLSRequired) {
		t.Fatalf("plaintext count against TLS server: %v, want ErrTLSRequired", err)
	}
}

// blockingJournal parks every Append until release is closed, so a test
// can hold an ingest in flight deterministically.
type blockingJournal struct {
	entered chan struct{}
	release chan struct{}
}

func (j *blockingJournal) Append([]mod.Update) error {
	j.entered <- struct{}{}
	<-j.release
	return nil
}

func (j *blockingJournal) AfterApply(*mod.Store) error { return nil }

// TestShutdownDrains: Shutdown lets an in-flight request finish and
// reply, then disconnects the drained connections; afterwards the
// listener is closed and new work is refused.
func TestShutdownDrains(t *testing.T) {
	store := liveStore(t)
	j := &blockingJournal{entered: make(chan struct{}, 1), release: make(chan struct{})}
	srv, addr := startServerWith(t, store, Options{Journal: j})
	c := mustDial(t, addr)

	type reply struct {
		applied []mod.Applied
		err     error
	}
	got := make(chan reply, 1)
	go func() {
		applied, err := c.Ingest([]mod.Update{flipUpdate(true)})
		got <- reply{applied, err}
	}()
	<-j.entered // the ingest is in flight, parked in the journal
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- srv.Shutdown(ctx) }()
	// The drain must wait for the in-flight request.
	select {
	case err := <-drained:
		t.Fatalf("shutdown returned with a request in flight: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(j.release)
	r := <-got
	if r.err != nil || len(r.applied) != 1 {
		t.Fatalf("in-flight ingest severed by shutdown: %+v, %v", r.applied, r.err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The connection was drained and closed; new requests fail.
	if _, err := c.Count(); err == nil {
		t.Fatal("count succeeded after shutdown")
	}
	// The listener is closed too.
	if _, err := dialWith(addr, nil, ""); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}
