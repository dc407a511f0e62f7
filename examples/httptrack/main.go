// Httptrack is livetrack over the production HTTP gateway: the same
// simulated fleet and standing subscription run two ways at once — an
// in-process live hub (the oracle), and the HTTP gateway with an SSE
// subscription — while scripted plan revisions flow into both worlds.
// The demo checks the SSE stream against the oracle event by event,
// severs the SSE connection mid-run, keeps ingesting, and resumes the
// stream with from_seq on the replay backlog; every event (including the
// replayed tail) must be byte-identical to the oracle's.
//
//	go run ./examples/httptrack
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro"
)

const (
	fleet = 120
	seed  = 2009
	span  = 60.0
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "httptrack:", err)
		os.Exit(1)
	}
}

func run() error {
	build := func() (*repro.Store, error) {
		store, err := repro.NewUniformStore(0.5)
		if err != nil {
			return nil, err
		}
		trs, err := repro.GenerateWorkload(repro.DefaultWorkload(seed), fleet)
		if err != nil {
			return nil, err
		}
		return store, store.InsertAll(trs)
	}

	// World O: the oracle, a live hub driven in process.
	storeO, err := build()
	if err != nil {
		return err
	}
	oracle := repro.NewLiveHub(storeO, repro.NewEngine(0))
	defer oracle.Close()

	// World H: an identical store behind the HTTP gateway.
	storeH, err := build()
	if err != nil {
		return err
	}
	engH := repro.NewEngine(0)
	hub := repro.NewLiveHub(storeH, engH)
	defer hub.Close()
	gw, err := repro.NewGateway(repro.GatewayOptions{
		Backend: repro.EngineGatewayBackend{Eng: engH, Store: storeH},
		Hub:     hub,
	})
	if err != nil {
		return err
	}
	lh, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go gw.Serve(lh)
	defer gw.Shutdown(context.Background())
	base := "http://" + lh.Addr().String()

	// One standing query in each world.
	ctx := context.Background()
	req := repro.Request{Kind: repro.KindUQ31, QueryOID: 1, Tb: 0, Te: span}
	_, resO, err := oracle.Subscribe(ctx, req)
	if err != nil {
		return err
	}
	sse, subID, resH, err := openSSE(base + "/v1/subscribe?kind=UQ31&query_oid=1&tb=0&te=60")
	if err != nil {
		return err
	}
	if a, b := canonicalResult(resO), canonicalResult(resH); a != b {
		return fmt.Errorf("initial answers diverge:\n  oracle %s\n  http   %s", a, b)
	}
	fmt.Printf("subscribed in process and over SSE (%s q=%d): initial answer %s\n",
		req.Kind, req.QueryOID, canonicalResult(resO))

	// Scripted revisions: every step steers a band of the fleet toward
	// query object 1's path, guaranteeing churn in the standing answer.
	q1, err := storeO.Get(1)
	if err != nil {
		return err
	}
	step := func(n int) []repro.Update {
		now := 10.0 * float64(n)
		var batch []repro.Update
		for k := 0; k < 6; k++ {
			oid := int64(30 + n*6 + k)
			tr, err := storeO.Get(oid)
			if err != nil {
				continue
			}
			pos := tr.At(now)
			target := q1.At(span)
			batch = append(batch, repro.Update{OID: oid, Verts: []repro.Vertex{
				{X: pos.X, Y: pos.Y, T: now},
				{X: (pos.X + target.X) / 2, Y: (pos.Y + target.Y) / 2, T: (now + span) / 2},
				{X: target.X, Y: target.Y, T: span},
			}})
		}
		return batch
	}

	// ingestBoth applies one step to both worlds and returns the oracle's
	// events — exactly what the SSE stream must carry for this step, so
	// no stream read can block waiting for an event that never comes.
	ingestBoth := func(n int) ([]repro.LiveEvent, error) {
		batch := step(n)
		_, emitted, err := oracle.Ingest(ctx, batch)
		if err != nil {
			return nil, fmt.Errorf("oracle ingest: %w", err)
		}
		if err := httpIngest(base, batch); err != nil {
			return nil, fmt.Errorf("http ingest: %w", err)
		}
		return emitted, nil
	}
	// expect reads one SSE event per oracle event and demands identity.
	expect := func(stream *sseStream, want []repro.LiveEvent, note string) (uint64, error) {
		var seq uint64
		for _, w := range want {
			evH, err := stream.next()
			if err != nil {
				return 0, fmt.Errorf("sse event: %w", err)
			}
			if a, b := canonicalEvent(w), canonicalEvent(evH); a != b {
				return 0, fmt.Errorf("stream diverges from the oracle:\n  oracle %s\n  http   %s", a, b)
			}
			seq = evH.Seq
			fmt.Printf("  seq=%d +%v -%v -> %v   (%s)\n", evH.Seq, evH.Added, evH.Removed, evH.OIDs, note)
		}
		return seq, nil
	}

	var lastSeq uint64
	fmt.Println("\nphase 1: live SSE stream against the in-process oracle")
	for n := 1; n <= 3; n++ {
		emitted, err := ingestBoth(n)
		if err != nil {
			return err
		}
		fmt.Printf("step %d: %d events\n", n, len(emitted))
		seq, err := expect(sse, emitted, "SSE == oracle")
		if err != nil {
			return err
		}
		if len(emitted) > 0 {
			lastSeq = seq
		}
	}

	fmt.Println("\nphase 2: SSE connection drops; ingest continues")
	sse.close()
	var missed []repro.LiveEvent
	for n := 4; n <= 5; n++ {
		emitted, err := ingestBoth(n)
		if err != nil {
			return err
		}
		missed = append(missed, emitted...)
		fmt.Printf("step %d: %d events (oracle live, HTTP parked)\n", n, len(emitted))
	}

	fmt.Printf("\nphase 3: resume from seq %d replays the missed tail\n", lastSeq)
	resumed, err := resumeSSE(base, subID, lastSeq)
	if err != nil {
		return err
	}
	defer resumed.close()
	if _, err := expect(resumed, missed, "replayed == oracle"); err != nil {
		return err
	}

	stats := hub.Stats()
	fmt.Printf("\ngateway hub: %d updates, %d re-evaluations, %d dirty-set skips\n",
		stats.Ingested, stats.Evals, stats.Skips)
	fmt.Println("every SSE event byte-identical to the in-process oracle, through a dropped connection ✓")
	return nil
}

// httpIngest posts a batch to /v1/ingest in the gateway's wire shape
// (vertices as [x, y, t] triplets).
func httpIngest(base string, batch []repro.Update) error {
	type wireUpdate struct {
		OID   int64        `json:"oid"`
		Verts [][3]float64 `json:"verts"`
	}
	wire := struct {
		Updates []wireUpdate `json:"updates"`
	}{}
	for _, u := range batch {
		w := wireUpdate{OID: u.OID}
		for _, v := range u.Verts {
			w.Verts = append(w.Verts, [3]float64{v.X, v.Y, v.T})
		}
		wire.Updates = append(wire.Updates, w)
	}
	body, err := json.Marshal(wire)
	if err != nil {
		return err
	}
	resp, err := http.Post(base+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("ingest status %d", resp.StatusCode)
	}
	return nil
}

// sseStream reads Server-Sent Events frames off one subscription.
type sseStream struct {
	resp *http.Response
	br   *bufio.Reader
}

func (s *sseStream) close() { s.resp.Body.Close() }

// next reads one "diff" frame and decodes its event payload.
func (s *sseStream) next() (repro.LiveEvent, error) {
	var ev repro.LiveEvent
	_, data, err := s.nextFrame()
	if err != nil {
		return ev, err
	}
	return ev, json.Unmarshal([]byte(data), &ev)
}

func (s *sseStream) nextFrame() (event, data string, err error) {
	for {
		line, err := s.br.ReadString('\n')
		if err != nil {
			return "", "", err
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && data != "":
			return event, data, nil
		}
	}
}

// openSSE starts a fresh subscription stream and consumes the leading
// "subscribed" frame carrying the subscription ID and initial answer.
func openSSE(url string) (*sseStream, int64, repro.Result, error) {
	var res repro.Result
	resp, err := http.Get(url)
	if err != nil {
		return nil, 0, res, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, 0, res, fmt.Errorf("subscribe status %d", resp.StatusCode)
	}
	s := &sseStream{resp: resp, br: bufio.NewReader(resp.Body)}
	_, data, err := s.nextFrame()
	if err != nil {
		resp.Body.Close()
		return nil, 0, res, err
	}
	var hello struct {
		SubID  int64        `json:"sub_id"`
		Result repro.Result `json:"result"`
	}
	if err := json.Unmarshal([]byte(data), &hello); err != nil {
		resp.Body.Close()
		return nil, 0, res, err
	}
	return s, hello.SubID, hello.Result, nil
}

// resumeSSE re-attaches to a parked subscription. The gateway parks the
// subscription when it notices the severed connection, so a resume that
// races the park (400: still live) retries briefly.
func resumeSSE(base string, subID int64, fromSeq uint64) (*sseStream, error) {
	url := fmt.Sprintf("%s/v1/subscribe?sub_id=%d&from_seq=%d", base, subID, fromSeq)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode == http.StatusOK {
			s := &sseStream{resp: resp, br: bufio.NewReader(resp.Body)}
			if _, _, err := s.nextFrame(); err != nil { // the "subscribed" hello
				resp.Body.Close()
				return nil, err
			}
			return s, nil
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("resume kept failing with status %d", resp.StatusCode)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// canonicalEvent renders an event with the wall-clock Explain fields
// zeroed, so byte comparison sees only the answer.
func canonicalEvent(ev repro.LiveEvent) string {
	ev.Explain = zeroWalls(ev.Explain)
	b, _ := json.Marshal(ev)
	return string(b)
}

func canonicalResult(r repro.Result) string {
	r.Explain = zeroWalls(r.Explain)
	b, _ := json.Marshal(r)
	return string(b)
}

func zeroWalls(ex repro.Explain) repro.Explain {
	ex.Wall, ex.RefineWall = 0, 0
	for i := range ex.ShardExplains {
		ex.ShardExplains[i] = zeroWalls(ex.ShardExplains[i])
	}
	return ex
}
