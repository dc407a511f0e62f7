package gateway

// The SSE continuous-query stream. GET /v1/subscribe registers a
// standing query on the hub and streams its diff events as
// `event: diff` frames whose `id:` is the subscription sequence number,
// so a plain EventSource reconnect (Last-Event-ID) — or an explicit
// sub_id+from_seq pair — resumes the stream across a severed connection
// with the hub's replay backlog. A severed stream's subscription stays
// resumable for DetachedTTL, and at most MaxDetached are kept.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/continuous"
	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/textidx"
)

// sseWriteTimeout bounds each event write so a stalled consumer cannot
// wedge its handler goroutine forever (ingest itself never blocks on a
// stream: fan-out severs a full channel instead of waiting).
const sseWriteTimeout = 30 * time.Second

// sseStream is one live stream's event route. The ingest fan-out is the
// only sender; it (or Shutdown) closes ch, always under emitMu.
type sseStream struct {
	ch chan continuous.Event
}

// subscribedEvent is the first SSE frame: the subscription id and its
// current full answer (the initial evaluation on subscribe, the
// re-fetched answer on resume).
type subscribedEvent struct {
	SubID  int64         `json:"sub_id"`
	Result engine.Result `json:"result"`
}

func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	hub := s.opts.Hub
	if hub == nil {
		writeError(w, fmt.Errorf("%w: no live hub", errUnsupported))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, errors.New("gateway: response writer cannot stream"))
		return
	}

	q := r.URL.Query()
	resume := q.Get("sub_id") != ""
	var (
		subID   int64
		fromSeq uint64
		req     engine.Request
		err     error
	)
	if resume {
		subID, err = strconv.ParseInt(q.Get("sub_id"), 10, 64)
		if err != nil {
			writeError(w, badReq(fmt.Errorf("gateway: bad sub_id: %w", err)))
			return
		}
		seqStr := q.Get("from_seq")
		if seqStr == "" {
			seqStr = r.Header.Get("Last-Event-ID")
		}
		if seqStr == "" {
			writeError(w, badReq(errors.New("gateway: resume needs from_seq or Last-Event-ID")))
			return
		}
		fromSeq, err = strconv.ParseUint(seqStr, 10, 64)
		if err != nil {
			writeError(w, badReq(fmt.Errorf("gateway: bad from_seq: %w", err)))
			return
		}
	} else {
		req, err = requestFromQuery(q)
		if err != nil {
			writeError(w, err)
			return
		}
	}

	st := &sseStream{ch: make(chan continuous.Event, s.opts.EventBuffer)}
	var answer engine.Result
	var backlog []continuous.Event

	// Registration happens under the emit lock: no ingest can fan out
	// between the answer/backlog we capture here and the live events the
	// channel will carry, so the stream is gap- and duplicate-free.
	s.emitMu.Lock()
	if s.draining.Load() {
		s.emitMu.Unlock()
		writeError(w, errDraining)
		return
	}
	if resume {
		s.sweepDetached()
		s.subsMu.Lock()
		_, live := s.subscribers[subID]
		_, parked := s.detached[subID]
		s.subsMu.Unlock()
		if live {
			s.emitMu.Unlock()
			writeError(w, badReq(fmt.Errorf("gateway: subscription %d is already streaming", subID)))
			return
		}
		if !parked {
			s.emitMu.Unlock()
			writeError(w, fmt.Errorf("gateway: %w: no detached subscription %d", mod.ErrNotFound, subID))
			return
		}
		backlog, err = hub.Replay(subID, fromSeq)
		if err != nil {
			s.emitMu.Unlock()
			if errors.Is(err, continuous.ErrEventGap) {
				s.opts.Metrics.countGap()
			}
			writeError(w, err)
			return
		}
		if answer, err = hub.Answer(subID); err != nil {
			s.emitMu.Unlock()
			writeError(w, err)
			return
		}
		s.subsMu.Lock()
		delete(s.detached, subID)
		s.subscribers[subID] = st
		s.subsMu.Unlock()
		s.opts.Metrics.countResume()
	} else {
		var deadlineMS int64
		if v := q.Get("deadline_ms"); v != "" {
			if deadlineMS, err = strconv.ParseInt(v, 10, 64); err != nil {
				s.emitMu.Unlock()
				writeError(w, badReq(fmt.Errorf("gateway: bad deadline_ms: %w", err)))
				return
			}
		}
		ctx, cancel := s.reqCtx(r, deadlineMS)
		subID, answer, err = hub.Subscribe(ctx, req)
		cancel()
		if err != nil {
			s.emitMu.Unlock()
			writeError(w, err)
			return
		}
		s.subsMu.Lock()
		s.subscribers[subID] = st
		s.subsMu.Unlock()
	}
	s.emitMu.Unlock()

	s.opts.Metrics.streamAttached()
	defer s.opts.Metrics.streamDetached()
	// On any exit the subscription parks as detached (LRU-bounded) so the
	// client can resume from its last seen event id.
	defer s.park(subID, st)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	rc := http.NewResponseController(w)
	write := func(event, id string, data []byte) error {
		_ = rc.SetWriteDeadline(time.Now().Add(sseWriteTimeout))
		if err := writeSSE(w, event, id, data); err != nil {
			return err
		}
		flusher.Flush()
		return nil
	}

	first, err := json.Marshal(subscribedEvent{SubID: subID, Result: answer})
	if err != nil || write("subscribed", "", first) != nil {
		return
	}
	for _, ev := range backlog {
		if s.writeEvent(write, ev) != nil {
			return
		}
	}
	for {
		select {
		case ev, chOpen := <-st.ch:
			if !chOpen {
				// Severed: the consumer stalled past its buffer, or the
				// server is draining. Either way the subscription stays
				// resumable.
				return
			}
			if s.writeEvent(write, ev) != nil {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) writeEvent(write func(event, id string, data []byte) error, ev continuous.Event) error {
	b, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	s.opts.Metrics.countEvents(1)
	return write("diff", strconv.FormatUint(ev.Seq, 10), b)
}

// writeSSE emits one server-sent event frame. data is JSON (no raw
// newlines), so a single data: line suffices.
func writeSSE(w io.Writer, event, id string, data []byte) error {
	if event != "" {
		if _, err := fmt.Fprintf(w, "event: %s\n", event); err != nil {
			return err
		}
	}
	if id != "" {
		if _, err := fmt.Fprintf(w, "id: %s\n", id); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "data: %s\n\n", data)
	return err
}

// fanOut routes one ingest's events to their live streams. Caller holds
// emitMu. A full channel means the consumer stalled a full buffer
// behind: the stream is severed (closed channel; the handler unwinds
// and parks the subscription for resume) instead of blocking ingest.
func (s *Server) fanOut(events []continuous.Event) {
	for _, ev := range events {
		s.subsMu.Lock()
		st := s.subscribers[ev.SubID]
		s.subsMu.Unlock()
		if st == nil {
			continue // in-process subscriber or a racing detach
		}
		select {
		case st.ch <- ev:
		default:
			s.subsMu.Lock()
			if s.subscribers[ev.SubID] == st {
				delete(s.subscribers, ev.SubID)
			}
			s.subsMu.Unlock()
			close(st.ch)
		}
	}
}

// parkEntry is one detachedOrder entry: a subscription and the park time
// it was recorded under. An entry whose time no longer matches
// detached[id] is stale (the subscription was resumed, and maybe parked
// again later) and is skipped.
type parkEntry struct {
	id int64
	at time.Time
}

// park deregisters a finished stream and retains its subscription as
// detached for a from_seq resume, expiring (and unsubscribing) the ones
// past DetachedTTL and LRU-evicting past maxDetached. It never closes
// st.ch — only the fan-out and Shutdown do, under emitMu.
func (s *Server) park(id int64, st *sseStream) {
	s.subsMu.Lock()
	defer s.subsMu.Unlock()
	if s.subscribers[id] == st {
		delete(s.subscribers, id)
	}
	now := s.now()
	s.sweepDetachedLocked(now)
	s.detached[id] = now
	s.detachedOrder = append(s.detachedOrder, parkEntry{id, now})
	for len(s.detached) > s.maxDetached {
		s.dropOldestLocked()
	}
	// Compact the order slice when stale entries (resumed subscriptions)
	// dominate it.
	if len(s.detachedOrder) > 2*len(s.detached)+16 {
		kept := s.detachedOrder[:0]
		for _, p := range s.detachedOrder {
			if at, ok := s.detached[p.id]; ok && at.Equal(p.at) {
				kept = append(kept, p)
			}
		}
		s.detachedOrder = kept
	}
}

// sweepDetached expires every detached subscription parked longer than
// DetachedTTL.
func (s *Server) sweepDetached() {
	s.subsMu.Lock()
	defer s.subsMu.Unlock()
	s.sweepDetachedLocked(s.now())
}

// sweepDetachedLocked walks detachedOrder from the oldest entry and
// expires until it reaches one parked within DetachedTTL. Caller holds
// subsMu.
func (s *Server) sweepDetachedLocked(now time.Time) {
	for len(s.detachedOrder) > 0 {
		p := s.detachedOrder[0]
		if at, ok := s.detached[p.id]; ok && at.Equal(p.at) && now.Sub(at) < DetachedTTL {
			return
		}
		s.dropOldestLocked()
	}
}

// dropOldestLocked pops the oldest detachedOrder entry and, unless it is
// stale, forgets the subscription and unsubscribes it from the hub.
// Caller holds subsMu.
func (s *Server) dropOldestLocked() {
	p := s.detachedOrder[0]
	s.detachedOrder = s.detachedOrder[1:]
	if at, ok := s.detached[p.id]; ok && at.Equal(p.at) {
		delete(s.detached, p.id)
		s.opts.Hub.Unsubscribe(p.id)
	}
}

// requestFromQuery builds the standing engine.Request from subscribe
// query parameters (names match the JSON field names). Semantic
// validation stays with the engine.
func requestFromQuery(q url.Values) (engine.Request, error) {
	var req engine.Request
	req.Kind = engine.Kind(q.Get("kind"))
	for _, f := range []struct {
		name string
		dst  *float64
	}{{"tb", &req.Tb}, {"te", &req.Te}, {"x", &req.X}, {"t", &req.T}, {"p", &req.P}} {
		v := q.Get(f.name)
		if v == "" {
			continue
		}
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return req, badReq(fmt.Errorf("gateway: bad %s: %w", f.name, err))
		}
		*f.dst = x
	}
	for _, f := range []struct {
		name string
		dst  *int64
	}{{"query_oid", &req.QueryOID}, {"oid", &req.OID}} {
		v := q.Get(f.name)
		if v == "" {
			continue
		}
		x, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return req, badReq(fmt.Errorf("gateway: bad %s: %w", f.name, err))
		}
		*f.dst = x
	}
	if v := q.Get("k"); v != "" {
		k, err := strconv.Atoi(v)
		if err != nil {
			return req, badReq(fmt.Errorf("gateway: bad k: %w", err))
		}
		req.K = k
	}
	if v := q.Get("where"); v != "" {
		// The predicate rides as a JSON object ({all, any, not} tag lists),
		// URL-encoded. Canonicalized here so the standing subscription's
		// stored request matches what the evaluation paths run with.
		var p textidx.Predicate
		if err := json.Unmarshal([]byte(v), &p); err != nil {
			return req, badReq(fmt.Errorf("gateway: bad where: %w", err))
		}
		if err := p.Validate(); err != nil {
			return req, badReq(fmt.Errorf("gateway: bad where: %w", err))
		}
		req.Where = p.Canon()
	}
	return req, nil
}
