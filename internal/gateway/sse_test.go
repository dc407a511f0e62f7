package gateway

// SSE parity with an in-process hub: two identical worlds — one driven
// directly through continuous.Hub, one over the HTTP gateway — fed
// identical ingest batches must deliver identical subscription event
// sequences, including a from_seq resume across a severed SSE
// connection. The gateway hub's retained backlog is the oracle for both.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/continuous"
	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/modserver"
	"repro/internal/trajectory"
)

func newTestHub(t testing.TB, store *mod.Store) *continuous.Hub {
	t.Helper()
	hub := continuous.NewEngineHub(store, engine.New(0))
	t.Cleanup(hub.Close)
	return hub
}

// sseConn is a minimal SSE consumer over one GET /v1/subscribe stream.
type sseConn struct {
	resp *http.Response
	br   *bufio.Reader
}

type sseFrame struct {
	event string
	id    string
	data  []byte
}

func openSSE(t testing.TB, client *http.Client, url, token string) *sseConn {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		buf := make([]byte, 512)
		n, _ := resp.Body.Read(buf)
		t.Fatalf("subscribe %s: status %d (body %s)", url, resp.StatusCode, buf[:n])
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("subscribe content type %q", ct)
	}
	return &sseConn{resp: resp, br: bufio.NewReader(resp.Body)}
}

func (c *sseConn) close() { c.resp.Body.Close() }

// next reads one SSE frame (relies on the test -timeout to bound a
// wedged stream).
func (c *sseConn) next(t testing.TB) sseFrame {
	t.Helper()
	var f sseFrame
	for {
		line, err := c.br.ReadString('\n')
		if err != nil {
			t.Fatalf("sse read: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if f.data != nil {
				return f
			}
		case strings.HasPrefix(line, "event: "):
			f.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "id: "):
			f.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "data: "):
			f.data = []byte(strings.TrimPrefix(line, "data: "))
		}
	}
}

func canonicalEvent(t testing.TB, ev continuous.Event) string {
	t.Helper()
	ev.Explain.ShardExplains = append([]engine.Explain(nil), ev.Explain.ShardExplains...)
	normWalls(&ev.Explain)
	b, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// hugVerts returns a copy of tr's vertices up to tMax, offset slightly
// in x — a shadow object guaranteed to contest tr's NN zone.
func hugVerts(tr *trajectory.Trajectory, tMax float64) [][3]float64 {
	var out [][3]float64
	for _, v := range tr.Verts {
		if v.T > tMax {
			break
		}
		out = append(out, [3]float64{v.X + 0.05, v.Y, v.T})
	}
	return out
}

// TestSSEParityWithHub: identical worlds in-process and over HTTP;
// identical ingests; the answer, applied echoes, and full event
// sequences must match byte-for-byte (modulo walls) — including resume
// after a severed SSE connection.
func TestSSEParityWithHub(t *testing.T) {
	const n = 60
	storeA, trsA := buildStore(t, n, equivSeed)
	storeB, _ := buildStore(t, n, equivSeed)

	// World A: the hub driven directly.
	hubA := newTestHub(t, storeA)
	var eventsA []continuous.Event
	ingestA := func(batch []modserver.WireTraj) []mod.Applied {
		t.Helper()
		applied, events, err := hubA.Ingest(context.Background(), modserver.DecodeUpdates(batch))
		if err != nil {
			t.Fatal(err)
		}
		eventsA = append(eventsA, events...)
		return applied
	}

	// World B: HTTP gateway.
	hubB := newTestHub(t, storeB)
	srvB, base, client := startGateway(t, Options{
		Backend: EngineBackend{Eng: engine.New(0), Store: storeB},
		Hub:     hubB,
	}, nil)

	q := trsA[0]
	stand := engine.Request{Kind: engine.KindUQ31, QueryOID: q.OID, Tb: equivTb, Te: equivTe}
	_, resA, err := hubA.Subscribe(context.Background(), stand)
	if err != nil {
		t.Fatal(err)
	}

	stream := openSSE(t, client, fmt.Sprintf(
		"%s/v1/subscribe?kind=%s&query_oid=%d&tb=%g&te=%g",
		base, stand.Kind, stand.QueryOID, stand.Tb, stand.Te), "")
	defer stream.close()
	first := stream.next(t)
	if first.event != "subscribed" {
		t.Fatalf("first frame event %q", first.event)
	}
	var hello subscribedEvent
	if err := json.Unmarshal(first.data, &hello); err != nil {
		t.Fatal(err)
	}
	if got, want := canonical(t, hello.Result), canonical(t, resA); got != want {
		t.Fatalf("initial answers diverged\n got: %s\nwant: %s", got, want)
	}
	idB := hello.SubID

	// Three ingest phases: a shadow insert, its flight away, a second
	// shadow. Each changes the possible-NN set, so each emits a diff.
	batches := [][]modserver.WireTraj{
		{{OID: 9001, Verts: hugVerts(q, 35)}},
		{{OID: 9001, Verts: [][3]float64{{1000, 1000, 10}, {1001, 1001, 40}}}},
		{{OID: 9002, Verts: hugVerts(q, 35)}},
	}
	for bi, batch := range batches {
		appliedA := ingestA(batch)
		status, body := postJSON(t, client, base+"/v1/ingest", "", ingestRequest{Updates: batch})
		if status != http.StatusOK {
			t.Fatalf("batch %d http ingest: status %d (body %.300s)", bi, status, body)
		}
		var ir ingestResponse
		if err := json.Unmarshal(body, &ir); err != nil {
			t.Fatal(err)
		}
		wantApplied, _ := json.Marshal(ingestResponse{Applied: modserver.EncodeApplied(appliedA)})
		gotApplied, _ := json.Marshal(ir)
		if !bytes.Equal(wantApplied, gotApplied) {
			t.Fatalf("batch %d applied diverged\n got: %s\nwant: %s", bi, gotApplied, wantApplied)
		}
	}

	// The gateway hub's retained backlog is the oracle for both streams.
	expected, err := hubB.Replay(idB, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(expected) == 0 {
		t.Fatal("no events retained — the shadow updates missed the subscription")
	}
	if len(eventsA) != len(expected) {
		t.Fatalf("in-process hub emitted %d events, gateway hub retained %d", len(eventsA), len(expected))
	}
	for i, want := range expected {
		frame := stream.next(t)
		if frame.event != "diff" {
			t.Fatalf("sse frame %d event %q", i, frame.event)
		}
		var evB continuous.Event
		if err := json.Unmarshal(frame.data, &evB); err != nil {
			t.Fatal(err)
		}
		if frame.id != strconv.FormatUint(evB.Seq, 10) {
			t.Fatalf("sse frame %d id %q does not match seq %d", i, frame.id, evB.Seq)
		}
		cw := canonicalEvent(t, want)
		if ca := canonicalEvent(t, eventsA[i]); ca != cw {
			t.Fatalf("event %d in-process diverged\n got: %s\nwant: %s", i, ca, cw)
		}
		if cb := canonicalEvent(t, evB); cb != cw {
			t.Fatalf("event %d sse diverged\n got: %s\nwant: %s", i, cb, cw)
		}
	}
	lastSeq := expected[len(expected)-1].Seq
	eventsA = eventsA[:0]

	// Sever the SSE connection; the subscription must park as detached.
	stream.close()
	waitDetached(t, srvB, idB)

	// Events keep flowing server-side while the stream is down...
	batch4 := []modserver.WireTraj{{OID: 9002, Verts: [][3]float64{{2000, 2000, 5}, {2001, 2001, 40}}}}
	ingestA(batch4)
	if status, body := postJSON(t, client, base+"/v1/ingest", "", ingestRequest{Updates: batch4}); status != http.StatusOK {
		t.Fatalf("batch4 http ingest: status %d (body %.300s)", status, body)
	}

	// ...and the resume replays them before going live again.
	resumed := openSSE(t, client, fmt.Sprintf(
		"%s/v1/subscribe?sub_id=%d&from_seq=%d", base, idB, lastSeq), "")
	defer resumed.close()
	again := resumed.next(t)
	if again.event != "subscribed" {
		t.Fatalf("resume first frame event %q", again.event)
	}
	var rehello subscribedEvent
	if err := json.Unmarshal(again.data, &rehello); err != nil {
		t.Fatal(err)
	}
	if rehello.SubID != idB {
		t.Fatalf("resume sub id %d, want %d", rehello.SubID, idB)
	}

	batch5 := []modserver.WireTraj{{OID: 9003, Verts: hugVerts(q, 35)}}
	ingestA(batch5)
	if status, body := postJSON(t, client, base+"/v1/ingest", "", ingestRequest{Updates: batch5}); status != http.StatusOK {
		t.Fatalf("batch5 http ingest: status %d (body %.300s)", status, body)
	}

	tail, err := hubB.Replay(idB, lastSeq)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) < 2 || len(eventsA) != len(tail) {
		t.Fatalf("expected replayed + live events after resume: gateway %d, in-process %d", len(tail), len(eventsA))
	}
	for i, want := range tail {
		frame := resumed.next(t)
		var evB continuous.Event
		if err := json.Unmarshal(frame.data, &evB); err != nil {
			t.Fatal(err)
		}
		cw := canonicalEvent(t, want)
		if ca := canonicalEvent(t, eventsA[i]); ca != cw {
			t.Fatalf("tail event %d in-process diverged\n got: %s\nwant: %s", i, ca, cw)
		}
		if cb := canonicalEvent(t, evB); cb != cw {
			t.Fatalf("tail event %d sse diverged\n got: %s\nwant: %s", i, cb, cw)
		}
	}
}

// waitDetached polls until the stream's handler has parked subscription
// id as detached (the handler notices the severed connection
// asynchronously).
func waitDetached(t testing.TB, srv *Server, id int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		srv.subsMu.Lock()
		_, live := srv.subscribers[id]
		_, parked := srv.detached[id]
		srv.subsMu.Unlock()
		if !live && parked {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("subscription %d never parked as detached", id)
}

// TestResumeValidation: resuming an unknown subscription answers 404, a
// live one 400, and a resume past the replay window 410 event_gap.
func TestResumeValidation(t *testing.T) {
	store, trs := buildStore(t, 20, equivSeed)
	// Retention disabled: every non-trivial replay is a gap.
	hub := continuous.NewEngineHubWith(store, engine.New(0), continuous.HubOptions{BacklogCap: -1})
	t.Cleanup(hub.Close)
	srv, base, client := startGateway(t, Options{
		Backend: EngineBackend{Eng: engine.New(0), Store: store},
		Hub:     hub,
		Metrics: NewMetrics(nil),
	}, nil)

	get := func(url string) (int, []byte) {
		t.Helper()
		resp, err := client.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		buf := new(bytes.Buffer)
		_, _ = buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}

	// Unknown subscription.
	status, body := get(base + "/v1/subscribe?sub_id=777&from_seq=0")
	if status != http.StatusNotFound {
		t.Fatalf("unknown resume: status %d, want 404 (body %s)", status, body)
	}

	// A live stream cannot be claimed by a second connection.
	q := trs[0]
	stream := openSSE(t, client, fmt.Sprintf(
		"%s/v1/subscribe?kind=UQ31&query_oid=%d&tb=0&te=30", base, q.OID), "")
	defer stream.close()
	hello := stream.next(t)
	var sub subscribedEvent
	if err := json.Unmarshal(hello.data, &sub); err != nil {
		t.Fatal(err)
	}
	status, body = get(fmt.Sprintf("%s/v1/subscribe?sub_id=%d&from_seq=0", base, sub.SubID))
	if status != http.StatusBadRequest {
		t.Fatalf("live resume: status %d, want 400 (body %s)", status, body)
	}

	// Sever, advance the world, resume: with retention disabled the
	// replay is a gap — 410.
	stream.close()
	waitDetached(t, srv, sub.SubID)
	upd := []modserver.WireTraj{{OID: 9001, Verts: hugVerts(q, 35)}}
	if status, body := postJSON(t, client, base+"/v1/ingest", "", ingestRequest{Updates: upd}); status != http.StatusOK {
		t.Fatalf("ingest: status %d (body %.300s)", status, body)
	}
	status, body = get(fmt.Sprintf("%s/v1/subscribe?sub_id=%d&from_seq=0", base, sub.SubID))
	if status != http.StatusGone {
		t.Fatalf("gap resume: status %d, want 410 (body %s)", status, body)
	}
	if ae := decodeAPIError(t, body); ae.Code != "event_gap" {
		t.Fatalf("gap resume: code %q, want event_gap", ae.Code)
	}

	// Bad resume parameters.
	if status, _ = get(base + "/v1/subscribe?sub_id=xyz"); status != http.StatusBadRequest {
		t.Fatalf("bad sub_id: status %d, want 400", status)
	}
	if status, _ = get(base + "/v1/subscribe?sub_id=5"); status != http.StatusBadRequest {
		t.Fatalf("missing from_seq: status %d, want 400", status)
	}
	// Bad standing-query parameters.
	if status, _ = get(base + "/v1/subscribe?kind=UQ31&tb=abc"); status != http.StatusBadRequest {
		t.Fatalf("bad tb: status %d, want 400", status)
	}
	if status, _ = get(base + "/v1/subscribe?kind=NOPE&tb=0&te=30"); status != http.StatusBadRequest {
		t.Fatalf("bad kind: status %d, want 400", status)
	}
}

// TestLastEventIDResume: a plain EventSource reconnect (Last-Event-ID
// header, no from_seq param) resumes too.
func TestLastEventIDResume(t *testing.T) {
	store, trs := buildStore(t, 20, equivSeed)
	hub := newTestHub(t, store)
	srv, base, client := startGateway(t, Options{
		Backend: EngineBackend{Eng: engine.New(0), Store: store},
		Hub:     hub,
	}, nil)

	q := trs[0]
	stream := openSSE(t, client, fmt.Sprintf(
		"%s/v1/subscribe?kind=UQ31&query_oid=%d&tb=0&te=30", base, q.OID), "")
	hello := stream.next(t)
	var sub subscribedEvent
	if err := json.Unmarshal(hello.data, &sub); err != nil {
		t.Fatal(err)
	}
	if status, body := postJSON(t, client, base+"/v1/ingest", "",
		ingestRequest{Updates: []modserver.WireTraj{{OID: 9001, Verts: hugVerts(q, 35)}}}); status != http.StatusOK {
		t.Fatalf("ingest: status %d (body %.300s)", status, body)
	}
	ev := stream.next(t)
	stream.close()
	waitDetached(t, srv, sub.SubID)

	if status, body := postJSON(t, client, base+"/v1/ingest", "",
		ingestRequest{Updates: []modserver.WireTraj{{OID: 9001, Verts: [][3]float64{{500, 500, 5}, {501, 501, 40}}}}}); status != http.StatusOK {
		t.Fatalf("ingest 2: status %d (body %.300s)", status, body)
	}

	req, err := http.NewRequest(http.MethodGet,
		fmt.Sprintf("%s/v1/subscribe?sub_id=%d", base, sub.SubID), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", ev.id)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("Last-Event-ID resume: status %d", resp.StatusCode)
	}
	sc := &sseConn{resp: resp, br: bufio.NewReader(resp.Body)}
	if f := sc.next(t); f.event != "subscribed" {
		t.Fatalf("resume frame event %q", f.event)
	}
	replayed := sc.next(t)
	if replayed.event != "diff" {
		t.Fatalf("replayed frame event %q", replayed.event)
	}
	var got continuous.Event
	if err := json.Unmarshal(replayed.data, &got); err != nil {
		t.Fatal(err)
	}
	want, err := hub.Replay(sub.SubID, mustUint(t, ev.id))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("no replay events retained")
	}
	if cw, cg := canonicalEvent(t, want[0]), canonicalEvent(t, got); cw != cg {
		t.Fatalf("Last-Event-ID replay diverged\n got: %s\nwant: %s", cg, cw)
	}
}

func mustUint(t testing.TB, s string) uint64 {
	t.Helper()
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestFanOutSeversFullChannel: a stream whose buffer is full is severed
// (channel closed, route dropped) instead of blocking ingest — the
// white-box twin of the stalled-consumer path.
func TestFanOutSeversFullChannel(t *testing.T) {
	store, _ := buildStore(t, 5, equivSeed)
	srv, err := New(Options{Backend: EngineBackend{Eng: engine.New(0), Store: store}})
	if err != nil {
		t.Fatal(err)
	}
	st := &sseStream{ch: make(chan continuous.Event, 1)}
	srv.subscribers[7] = st
	srv.fanOut([]continuous.Event{{SubID: 7, Seq: 1}})
	srv.fanOut([]continuous.Event{{SubID: 7, Seq: 2}}) // buffer full: sever
	if ev, ok := <-st.ch; !ok || ev.Seq != 1 {
		t.Fatalf("buffered event: ok=%v seq=%d, want seq 1", ok, ev.Seq)
	}
	if _, ok := <-st.ch; ok {
		t.Fatal("channel not closed after sever")
	}
	srv.subsMu.Lock()
	_, live := srv.subscribers[7]
	srv.subsMu.Unlock()
	if live {
		t.Fatal("severed stream still routed")
	}
	// Events to unknown subscriptions are ignored.
	srv.fanOut([]continuous.Event{{SubID: 7, Seq: 3}})
}

func contains(ids []int64, id int64) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// TestDetachedLRUEviction: past the detached bound, the oldest parked
// subscription is evicted and unsubscribed from the hub.
func TestDetachedLRUEviction(t *testing.T) {
	store, trs := buildStore(t, 20, equivSeed)
	hub := newTestHub(t, store)
	srv, err := New(Options{Backend: EngineBackend{Eng: engine.New(0), Store: store}, Hub: hub})
	if err != nil {
		t.Fatal(err)
	}
	srv.maxDetached = 2
	base, client := serveGateway(t, srv, nil)

	q := trs[0]
	var ids []int64
	for i := 0; i < 3; i++ {
		stream := openSSE(t, client, fmt.Sprintf(
			"%s/v1/subscribe?kind=UQ31&query_oid=%d&tb=0&te=%g", base, q.OID, 30+float64(i)), "")
		var sub subscribedEvent
		if err := json.Unmarshal(stream.next(t).data, &sub); err != nil {
			t.Fatal(err)
		}
		stream.close()
		waitDetached(t, srv, sub.SubID)
		ids = append(ids, sub.SubID)
	}
	// The first subscription fell off the LRU and left the hub.
	deadline := time.Now().Add(2 * time.Second)
	for contains(hub.Subscriptions(), ids[0]) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if contains(hub.Subscriptions(), ids[0]) {
		t.Fatalf("evicted subscription %d still lives in the hub", ids[0])
	}
	for _, id := range ids[1:] {
		if !contains(hub.Subscriptions(), id) {
			t.Fatalf("retained subscription %d missing from the hub", id)
		}
	}
}

// steppedClock is a manually advanced clock for the detached TTL.
type steppedClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *steppedClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *steppedClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestDetachedSubscriptionExpires: a parked subscription past DetachedTTL
// is unsubscribed from the hub even when the only activity is an ingest,
// so it stops costing an evaluation per batch; a later resume of it
// answers 404 not_found.
func TestDetachedSubscriptionExpires(t *testing.T) {
	store, trs := buildStore(t, 20, equivSeed)
	hub := newTestHub(t, store)
	srv, err := New(Options{Backend: EngineBackend{Eng: engine.New(0), Store: store}, Hub: hub})
	if err != nil {
		t.Fatal(err)
	}
	clock := &steppedClock{t: time.Unix(1000, 0)}
	srv.now = clock.now
	base, client := serveGateway(t, srv, nil)

	q := trs[0]
	stream := openSSE(t, client, fmt.Sprintf("%s/v1/subscribe?kind=UQ31&query_oid=%d&tb=0&te=30", base, q.OID), "")
	var sub subscribedEvent
	if err := json.Unmarshal(stream.next(t).data, &sub); err != nil {
		t.Fatal(err)
	}
	stream.close()
	waitDetached(t, srv, sub.SubID)

	ingest := func(oid int64) {
		t.Helper()
		upd := []modserver.WireTraj{{OID: oid, Verts: [][3]float64{{500, 500, 5}, {501, 501, 40}}}}
		if status, body := postJSON(t, client, base+"/v1/ingest", "", ingestRequest{Updates: upd}); status != http.StatusOK {
			t.Fatalf("ingest: status %d (body %.300s)", status, body)
		}
	}
	// Within the TTL the parked subscription stays in the hub.
	clock.advance(DetachedTTL - time.Second)
	ingest(9001)
	if !contains(hub.Subscriptions(), sub.SubID) {
		t.Fatalf("subscription %d expired before the TTL", sub.SubID)
	}
	// Past the TTL an ingest alone expires it.
	clock.advance(2 * time.Second)
	ingest(9002)
	if got := hub.Subscriptions(); len(got) != 0 {
		t.Fatalf("expired subscription still in the hub: %v", got)
	}
	resp, err := client.Get(fmt.Sprintf("%s/v1/subscribe?sub_id=%d&from_seq=0", base, sub.SubID))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || decodeAPIError(t, body).Code != "not_found" {
		t.Fatalf("resume of expired subscription: status %d body %s", resp.StatusCode, body)
	}
}

// TestShutdownSeversStreams: drain closes live SSE streams promptly (the
// stream ends mid-connection) and the server shuts down within its
// grace period.
func TestShutdownSeversStreams(t *testing.T) {
	store, trs := buildStore(t, 20, equivSeed)
	hub := newTestHub(t, store)
	srv, base, client := startGateway(t, Options{
		Backend: EngineBackend{Eng: engine.New(0), Store: store},
		Hub:     hub,
	}, nil)

	stream := openSSE(t, client, fmt.Sprintf(
		"%s/v1/subscribe?kind=UQ31&query_oid=%d&tb=0&te=30", base, trs[0].OID), "")
	defer stream.close()
	stream.next(t) // subscribed

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with live stream: %v", err)
	}
	// The stream ended (EOF), not wedged until the grace deadline.
	if _, err := stream.br.ReadString('\n'); err == nil {
		t.Fatal("stream still delivering after shutdown")
	}
}
