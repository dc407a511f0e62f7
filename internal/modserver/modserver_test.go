package modserver

import (
	"bufio"
	"crypto/tls"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/mod"
	"repro/internal/trajectory"
	"repro/internal/workload"
)

// startServer returns a running server on a loopback port and its address.
func startServer(t *testing.T, store *mod.Store) (*Server, string) {
	t.Helper()
	return startServerWith(t, store, Options{})
}

// startServerWith is startServer with explicit server options.
func startServerWith(t *testing.T, store *mod.Store, o Options) (*Server, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerWith(store, nil, o)
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

// dialWith connects a client the way cluster.RemoteShard does: TCP, an
// optional TLS handshake, then an optional token auth.
func dialWith(addr string, cfg *tls.Config, token string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if cfg != nil {
		if conn, err = TLSClient(conn, cfg, addr); err != nil {
			return nil, err
		}
	}
	c := NewClient(conn)
	if token != "" {
		if err := c.Auth(token); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// mustDial connects a plaintext, unauthenticated client.
func mustDial(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := dialWith(addr, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func seededStore(t *testing.T, n int) *mod.Store {
	t.Helper()
	st, err := mod.NewUniformStore(0.5)
	if err != nil {
		t.Fatal(err)
	}
	trs, err := workload.Generate(workload.DefaultConfig(3), n)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.InsertAll(trs); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestClientServerRoundTrip drives every non-query op and every ingest
// outcome shape through the client: count, spec, get, owns, and an
// ingest revision, insert, tag flip and retirement whose applied
// outcomes survive the wire encoding (±Inf ChangedFrom included).
func TestClientServerRoundTrip(t *testing.T) {
	store := liveStore(t)
	_, addr := startServer(t, store)
	c := mustDial(t, addr)

	n, err := c.Count()
	if err != nil || n != 4 {
		t.Fatalf("count = %d, %v", n, err)
	}
	spec, err := c.Spec()
	if err != nil || spec.Kind != mod.PDFUniform || spec.R != 0.5 {
		t.Fatalf("spec = %+v, %v", spec, err)
	}

	// Revision: object 3 re-planned from t=6; prefix kept through t=5.
	applied, err := c.Ingest([]mod.Update{{OID: 3, Verts: []trajectory.Vertex{
		{X: 6, Y: 1, T: 6}, {X: 10, Y: 0.5, T: 10},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 1 || applied[0].Inserted || applied[0].ChangedFrom != 5 ||
		applied[0].Traj == nil || applied[0].Prev == nil ||
		len(applied[0].Traj.Verts) != 8 || len(applied[0].Prev.Verts) != 11 {
		t.Fatalf("revision outcome = %+v", applied)
	}

	// Insert: ChangedFrom round-trips as -Inf; get returns the object.
	tr, err := trajectory.New(500, []trajectory.Vertex{{X: 1, Y: 2, T: 0}, {X: 3, Y: 4, T: 60}})
	if err != nil {
		t.Fatal(err)
	}
	applied, err = c.Ingest([]mod.Update{{OID: tr.OID, Verts: tr.Verts}})
	if err != nil {
		t.Fatal(err)
	}
	if !applied[0].Inserted || !math.IsInf(applied[0].ChangedFrom, -1) {
		t.Fatalf("insert outcome = %+v", applied[0])
	}
	got, tags, err := c.GetTagged(500)
	if err != nil {
		t.Fatal(err)
	}
	if got.OID != 500 || len(got.Verts) != 2 || got.Verts[1] != tr.Verts[1] || tags != nil {
		t.Fatalf("get = %+v tags %v", got, tags)
	}

	// Pure tag flip: ChangedFrom round-trips as +Inf; get carries tags.
	flip := []string{"available"}
	applied, err = c.Ingest([]mod.Update{{OID: 500, Tags: &flip}})
	if err != nil {
		t.Fatal(err)
	}
	if !applied[0].TagsChanged || !math.IsInf(applied[0].ChangedFrom, 1) {
		t.Fatalf("tag flip outcome = %+v", applied[0])
	}
	if _, tags, err = c.GetTagged(500); err != nil || fmt.Sprint(tags) != "[available]" {
		t.Fatalf("get after flip: tags %v, %v", tags, err)
	}
	owned, err := c.Owns([]int64{500, 999})
	if err != nil || !owned[0] || owned[1] {
		t.Fatalf("owns = %v, %v", owned, err)
	}

	// Retirement: the object leaves the store; a second retirement fails
	// with the not-found identity.
	applied, err = c.Ingest([]mod.Update{{OID: 500, Retire: true}})
	if err != nil {
		t.Fatal(err)
	}
	if !applied[0].Retired || !math.IsInf(applied[0].ChangedFrom, -1) {
		t.Fatalf("retire outcome = %+v", applied[0])
	}
	if _, _, err := c.GetTagged(500); !errors.Is(err, mod.ErrNotFound) {
		t.Fatalf("get after retire: %v, want mod.ErrNotFound", err)
	}
	if _, err := c.Ingest([]mod.Update{{OID: 500, Retire: true}}); !errors.Is(err, mod.ErrNotFound) {
		t.Fatalf("double retire: %v, want mod.ErrNotFound", err)
	}
}

// exchange writes one raw request line and returns the reply line.
func exchange(t *testing.T, conn net.Conn, sc *bufio.Scanner, line string) string {
	t.Helper()
	if _, err := conn.Write([]byte(line + "\n")); err != nil {
		t.Fatal(err)
	}
	if !sc.Scan() {
		t.Fatalf("no reply to %s: %v", line, sc.Err())
	}
	return sc.Text()
}

func TestProtocolErrors(t *testing.T) {
	store := seededStore(t, 5)
	_, addr := startServer(t, store)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	// Raw malformed JSON line: server answers with ok=false, keeps the
	// connection alive.
	if resp := exchange(t, conn, sc, "{not json}"); !strings.Contains(resp, `"ok":false`) {
		t.Fatalf("response = %s", resp)
	}
	if resp := exchange(t, conn, sc, `{"op":"launch"}`); !strings.Contains(resp, `"code":"unknown_op"`) {
		t.Fatalf("response = %s", resp)
	}
	// Invalid trajectory via ingest (an insert needs two vertices).
	if resp := exchange(t, conn, sc, `{"op":"ingest","updates":[{"oid":9,"verts":[[0,0,0]]}]}`); !strings.Contains(resp, `"ok":false`) {
		t.Fatalf("response = %s", resp)
	}
	if resp := exchange(t, conn, sc, `{"op":"count"}`); !strings.Contains(resp, `"count":5`) {
		t.Fatalf("response = %s", resp)
	}
}

// TestRemovedOpsUnknown: the client-protocol ops that moved to the HTTP
// gateway get the typed unknown-op reply, and the connection keeps
// serving shard ops after each.
func TestRemovedOpsUnknown(t *testing.T) {
	store := seededStore(t, 5)
	_, addr := startServer(t, store)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	for _, line := range []string{
		`{"op":"ping"}`,
		`{"op":"subscribe","request":{"kind":"UQ31","query_oid":1,"tb":0,"te":60}}`,
		`{"op":"subscribe","sub_id":1,"from_seq":0}`,
		`{"op":"unsubscribe","sub_id":1}`,
		`{"op":"insert","oid":9,"verts":[[0,0,0],[1,1,60]]}`,
		`{"op":"delete","oid":1}`,
		`{"op":"trip","oid":9,"waypoints":[[0,0],[3,4]],"start":0,"speed":1}`,
		`{"op":"uql","query":"SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(T, 1, Time) > 0"}`,
		`{"op":"batch","queries":["SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(T, 1, Time) > 0"]}`,
		`{"op":"query","requests":[{"kind":"UQ31","query_oid":1,"tb":0,"te":60}]}`,
	} {
		resp := exchange(t, conn, sc, line)
		if !strings.Contains(resp, `"ok":false`) || !strings.Contains(resp, `"code":"unknown_op"`) {
			t.Fatalf("%s: response = %s", line, resp)
		}
		if resp := exchange(t, conn, sc, `{"op":"count"}`); !strings.Contains(resp, `"count":5`) {
			t.Fatalf("count after %s: %s", line, resp)
		}
	}
	if n := store.Len(); n != 5 {
		t.Fatalf("removed ops mutated the store: len %d", n)
	}
}

func TestConcurrentClients(t *testing.T) {
	store := seededStore(t, 10)
	_, addr := startServer(t, store)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(base int64) {
			defer wg.Done()
			c, err := dialWith(addr, nil, "")
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := int64(0); i < 20; i++ {
				oid := 1000 + base*100 + i
				if _, err := c.Ingest([]mod.Update{{OID: oid, Verts: []trajectory.Vertex{
					{X: 0, Y: 0, T: 0}, {X: 1, Y: 1, T: 60},
				}}}); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := c.GetTagged(oid); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if n := store.Len(); n != 10+6*20 {
		t.Fatalf("store len = %d", n)
	}
}

func TestServerClose(t *testing.T) {
	store := seededStore(t, 3)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerWith(store, nil, Options{})
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(l) }()
	c := mustDial(t, l.Addr().String())
	if _, err := c.Count(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != ErrServerClosed {
		t.Fatalf("Serve returned %v", err)
	}
	// Idempotent close.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Serving again after close refuses.
	if err := srv.Serve(l); err != ErrServerClosed {
		t.Fatalf("Serve after close: %v", err)
	}
}
