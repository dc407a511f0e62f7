// Package modserver is the cluster shard RPC: it serves one partition of
// the MOD over TCP with a line-delimited JSON protocol, plus the matching
// client that cluster.RemoteShard drives. Clients of the system do not
// speak it — they use the HTTP gateway (internal/gateway), which reaches
// shards through the cluster router.
//
// Protocol: one JSON object per line in each direction.
//
//	request  := {"op": "...", ...}
//	response := {"ok": bool, "error": string?, "code": string?, ...}
//
// Operations:
//
//	{"op":"auth","token":"..."}                    → {"ok":true}
//	{"op":"count"}                                 → {"ok":true,"count":N}
//	{"op":"spec"}                                  → {"ok":true,"spec":{...},"max_line":N}
//	{"op":"get","oid":1}                           → {"ok":true,"oid":1,"verts":[...],"tags":[...]}
//	{"op":"owns","oids":[1,2]}                     → {"ok":true,"owned":[true,false]}
//	{"op":"ingest","updates":[{"oid":1,
//	 "verts":[[x,y,t],...],"tags":[...]},
//	 {"oid":2,"retire":true}]}                     → {"ok":true,"applied":[...]}
//
// Query phases (the cluster bound-exchange and distributed-refine
// protocol; +Inf bounds travel as -1 since JSON has no Inf literal):
//
//	{"op":"query","phase":"bounds","oid":1,
//	 "verts":[[x,y,t],...],"tb":0,"te":60,"k":1}   → {"ok":true,"bounds":[...]}
//	{"op":"query","phase":"survivors","oid":1,
//	 "verts":[...],"tb":0,"te":60,"bounds":[...]}  → {"ok":true,"more":true,"trajs":[chunk]}*
//	                                                 {"ok":true,"trajs":[last chunk],"stats":{...}}
//	{"op":"query","phase":"all"}                   → same streamed framing, no stats
//	{"op":"query","phase":"oids"}                  → {"ok":true,"oids":[...]}
//	{"op":"query","phase":"refine","gather_id":"g",
//	 "oids":[own...],"request":{...}}              → {"ok":true,"oids":[...],"explain":{...}} or
//	                                                 {"error":"...","code":"unknown_gather"}
//	{"op":"query","phase":"gather","gather_id":"g",
//	 "more":true,"trajs":[chunk]}                  → (no response; accumulates)
//	{"op":"query","phase":"gather","gather_id":"g",
//	 "trajs":[last chunk],"oids":[own...],
//	 "request":{...}}                              → {"ok":true,"oids":[...],"explain":{...}} (caches + refines)
//
// The bounds, survivors and refine phases take an optional "deadline_ms"
// (> 0) that bounds their evaluation with a context deadline; an expiry
// fails the phase with the coded deadline_exceeded error. Any other op or
// phase gets the coded unknown_op error and the connection keeps serving.
//
// The survivors and all phases stream their trajectory sets as incremental
// frames — each line stays within the server's request-line cap (advertised
// as max_line on the spec reply), so one giant gather can no longer demand
// an unbounded write buffer; intermediate frames carry "more":true and the
// final frame carries the stats. The gather/refine pair is the distributed
// refine: a router uploads the union survivor store once per connection
// under a gather ID (chunked client→server the same way), the server caches
// a few unions per connection, and each refine evaluates a whole-MOD filter
// over the cached union with the candidate domain restricted to the
// shard's own survivors (engine.DoRestricted).
package modserver

import (
	"bufio"
	"context"
	"crypto/subtle"
	"crypto/tls"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/prune"
	"repro/internal/textidx"
	"repro/internal/trajectory"
)

// MaxLine bounds a single protocol line (1 MiB) to keep rogue clients from
// exhausting memory. Options.MaxLineBytes overrides it per server.
const MaxLine = 1 << 20

// DefaultReadTimeout bounds how long a connection may sit between request
// lines before the server closes it. Serving-layer hardening: a stalled or
// hostile client holds shard resources (a goroutine, a connection slot, a
// scanner buffer) for at most this long.
const DefaultReadTimeout = 2 * time.Minute

// DefaultWriteTimeout bounds one frame of a streamed survivors/all reply:
// a reader that stalls mid-stream is severed instead of pinning the
// connection goroutine on a full TCP buffer. Single-line request replies
// stay exempt: modest replies on slow links are legitimate.
const DefaultWriteTimeout = 10 * time.Second

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("modserver: server closed")

// ErrConnClosed reports a client call whose connection closed mid-read —
// the transport died cleanly rather than delivering a reply. Retry layers
// (the cluster RemoteShard) match on it to classify the failure as
// transient.
var ErrConnClosed = errors.New("modserver: connection closed")

// ErrUnauthorized reports a token-protected server rejecting a request:
// the connection never authenticated (or presented the wrong token), so
// the server refused the op and closed the connection. Matches across
// the wire via the coded error.
var ErrUnauthorized = errors.New("modserver: unauthorized")

// ErrTLSRequired reports a plaintext client talking to a TLS server: the
// reply bytes are a TLS record (a handshake-failure alert), not protocol
// JSON. Redialing with a tls.Config is the fix; retrying plaintext never
// succeeds, so the cluster retry layer treats it as permanent.
var ErrTLSRequired = errors.New("modserver: server requires TLS")

// codeNotFound marks a structured not-found failure on the wire so clients
// can rebuild the mod.ErrNotFound identity across the network boundary
// (the cluster router routes on it when resolving point lookups).
const codeNotFound = "not_found"

// codeUnauthorized marks an auth rejection (ErrUnauthorized across the
// wire).
const codeUnauthorized = "unauthorized"

// codeTLSRequired marks the plaintext parting line a TLS server writes to
// a client whose first bytes were not a TLS handshake (ErrTLSRequired
// across the wire). The server detects the mismatch via
// tls.RecordHeaderError and answers in plaintext — the one protocol the
// confused client can actually read.
const codeTLSRequired = "tls_required"

// codeUnknownOp marks a request naming an op (or query phase) the shard
// RPC does not serve.
const codeUnknownOp = "unknown_op"

// codeDeadline and codeCanceled structure context failures on the wire,
// so a server-side deadline expiry keeps its context.DeadlineExceeded
// identity at the client (and up through the HTTP gateway's 504 mapping)
// instead of degrading to a generic string.
const (
	codeDeadline = "deadline_exceeded"
	codeCanceled = "canceled"
)

// codedFail builds an error response, attaching the machine-readable
// code for failures whose identity must survive the wire.
func codedFail(err error) Response {
	resp := Response{Error: err.Error()}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		resp.Code = codeDeadline
	case errors.Is(err, context.Canceled):
		resp.Code = codeCanceled
	case errors.Is(err, mod.ErrNotFound):
		resp.Code = codeNotFound
	}
	return resp
}

// wireError carries a server-reported error message while preserving a
// sentinel identity for errors.Is across the wire.
type wireError struct {
	msg string
	is  error
}

func (e wireError) Error() string { return e.msg }
func (e wireError) Unwrap() error { return e.is }

// Request is the wire format of a client request.
type Request struct {
	Op string `json:"op"`
	// Token authenticates the connection on the "auth" op (required first
	// when the server has Options.Token configured).
	Token string       `json:"token,omitempty"`
	OID   int64        `json:"oid,omitempty"`
	Verts [][3]float64 `json:"verts,omitempty"`

	// DeadlineMS (> 0) bounds the bounds, survivors and refine phases: the
	// server evaluates under a context deadline and fails the phase with a
	// context error once it expires.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`

	// Phase selects the sub-operation of the "query" op: "bounds" and
	// "survivors" are the two-phase NN bound exchange (OID/Verts carry the
	// query trajectory, Tb/Te the window, K the rank; Bounds the imposed
	// global bounds for the survivors phase); "oids" lists the stored
	// OIDs; "all" returns every stored trajectory; "gather" uploads a
	// union survivor store in incremental frames and "refine" evaluates a
	// restricted whole-MOD filter against it (the distributed-refine
	// protocol).
	Phase  string    `json:"phase,omitempty"`
	Tb     float64   `json:"tb,omitempty"`
	Te     float64   `json:"te,omitempty"`
	K      int       `json:"k,omitempty"`
	Bounds []float64 `json:"bounds,omitempty"`
	// Where restricts the "bounds", "survivors", and "oids" phases to the
	// predicate's matching sub-MOD (the carried query trajectory stays
	// exempt) — the shard half of the cluster's spatio-textual pruning.
	Where *textidx.Predicate `json:"where,omitempty"`

	// GatherID names a gathered union survivor store for the "gather" and
	// "refine" phases; the server caches a few per connection.
	GatherID string `json:"gather_id,omitempty"`
	// More marks a non-final "gather" upload frame: the server accumulates
	// Trajs and sends no response until the final (More=false) frame.
	More bool `json:"more,omitempty"`
	// Trajs carries one chunk of the union store on "gather" frames.
	Trajs []WireTraj `json:"trajs,omitempty"`
	// Request is the whole-MOD filter a "refine" (or final "gather")
	// frame evaluates.
	Request *engine.Request `json:"request,omitempty"`

	// Updates carries the "ingest" op's live update batch (the
	// mod.ApplyUpdate contract: revision, extension, insert, tag flip or
	// retirement per item).
	Updates []WireTraj `json:"updates,omitempty"`
	// OIDs carries the "owns" op's bulk ownership probe and the refine
	// phases' own-survivor domain.
	OIDs []int64 `json:"oids,omitempty"`
}

// WireApplied is one applied live update on the wire — the shard ingest
// reply and the gateway's /v1/ingest reply share it. ChangedFrom is
// omitted for inserts and retirements (it is -Inf in memory; JSON has no
// Inf literal) and for pure tag flips, which carry TagsOnly instead
// (ChangedFrom is +Inf in memory: no motion changed).
type WireApplied struct {
	OID         int64        `json:"oid"`
	Inserted    bool         `json:"inserted,omitempty"`
	Retired     bool         `json:"retired,omitempty"`
	ChangedFrom float64      `json:"changed_from,omitempty"`
	TagsOnly    bool         `json:"tags_only,omitempty"`
	Verts       [][3]float64 `json:"verts,omitempty"`
	PrevVerts   [][3]float64 `json:"prev_verts,omitempty"`
	TagsChanged bool         `json:"tags_changed,omitempty"`
	Tags        []string     `json:"tags,omitempty"`
	PrevTags    []string     `json:"prev_tags,omitempty"`
}

// WireTraj is one trajectory on the wire (the survivors/all/gather phases)
// and one live update (the shard ingest op and the gateway's /v1/ingest
// body). Tags follows the mod.Update contract: nil leaves the OID's tags
// alone, empty clears them, non-empty replaces them.
type WireTraj struct {
	OID   int64        `json:"oid"`
	Verts [][3]float64 `json:"verts,omitempty"`
	Tags  *[]string    `json:"tags,omitempty"`
	// Retire marks a retirement update (mod.Update.Retire): no vertices,
	// no tags — the object leaves the store.
	Retire bool `json:"retire,omitempty"`
}

// Response is the wire format of a server reply.
type Response struct {
	OK    bool         `json:"ok"`
	Error string       `json:"error,omitempty"`
	Count int          `json:"count,omitempty"`
	Spec  *mod.PDFSpec `json:"spec,omitempty"`
	OID   int64        `json:"oid,omitempty"`
	Verts [][3]float64 `json:"verts,omitempty"`
	// Tags carries the OID's tag set on the "get" reply (absent when
	// untagged).
	Tags []string `json:"tags,omitempty"`
	// OIDs answers the "oids" phase and the refine phases.
	OIDs []int64 `json:"oids,omitempty"`
	// Explain carries the refine phases' evaluation provenance.
	Explain *engine.Explain `json:"explain,omitempty"`

	// Code structures selected failures (codeNotFound, codeUnknownGather,
	// ...) so clients can rebuild error identities and retry paths.
	Code string `json:"code,omitempty"`
	// Bounds answers the "bounds" phase (+Inf encoded as -1).
	Bounds []float64 `json:"bounds,omitempty"`
	// Trajs answers the "survivors" and "all" phases, one chunk per frame.
	Trajs []WireTraj `json:"trajs,omitempty"`
	// More marks a non-final frame of a streamed reply: Trajs carries one
	// chunk and the final frame (More absent) carries the last chunk plus
	// Stats.
	More bool `json:"more,omitempty"`
	// Stats reports the survivors-phase sweep statistics (final frame only).
	Stats *prune.Stats `json:"stats,omitempty"`
	// MaxLine advertises the server's request-line cap on the "spec" reply
	// so clients can size their upload frames to fit.
	MaxLine int `json:"max_line,omitempty"`

	// Applied answers the "ingest" op, one outcome per update in order.
	Applied []WireApplied `json:"applied,omitempty"`
	// Owned answers the "owns" op, elementwise per requested OID.
	Owned []bool `json:"owned,omitempty"`
}

// Options tunes serving-layer hardening.
type Options struct {
	// ReadTimeout bounds how long a connection may sit between request
	// lines; a connection that stalls longer is closed. Zero means
	// DefaultReadTimeout; negative disables the deadline.
	ReadTimeout time.Duration
	// WriteTimeout bounds one frame of a streamed reply; a reader that
	// stops mid-stream is closed. Single-line replies are exempt (large
	// gathers on slow links are legitimate). Zero means
	// DefaultWriteTimeout; negative disables the deadline.
	WriteTimeout time.Duration
	// MaxLineBytes caps one request line. Zero means MaxLine. An
	// oversized request gets one error response, then the connection is
	// closed (the line cannot be resynchronized).
	MaxLineBytes int
	// MaxGatherBytes caps the estimated wire size a connection may
	// accumulate across the frames of one gather upload before the server
	// discards it — the multi-frame analogue of MaxLineBytes. Zero means
	// DefaultMaxGatherBytes; negative disables the cap.
	MaxGatherBytes int
	// Journal, when set, makes ingest write-ahead durable: every batch is
	// appended to it before the store applies it, and AfterApply runs
	// after a successful apply (where a wal.Log decides whether to
	// snapshot).
	Journal Journal
	// Token, when non-empty, requires every connection to authenticate
	// with {"op":"auth","token":...} before any other op. A wrong token
	// (or an op before auth) gets one coded unauthorized reply and the
	// connection is closed. Comparison is constant-time.
	Token string
}

// Journal is the write-ahead hook the ingest path drives (implemented by
// wal.Log). Append must make the batch durable before it returns; it runs
// before the batch is applied, under the server's ingest serialization
// lock. AfterApply runs after a successful apply with the post-batch
// store — the snapshot opportunity.
type Journal interface {
	Append(updates []mod.Update) error
	AfterApply(store *mod.Store) error
}

// Server serves a store over a listener. Refines run through one shared
// engine so concurrent connections benefit from the same processor memo.
type Server struct {
	store        *mod.Store
	engine       *engine.Engine
	journal      Journal
	readTimeout  time.Duration
	writeTimeout time.Duration
	maxLine      int
	maxGather    int
	token        string

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool

	// ingestMu serializes journal append and apply, so the journal's
	// append order is the apply order.
	ingestMu sync.Mutex
}

// connState is one connection's writer plus its gather cache. Only the
// connection's own handler goroutine touches it (the protocol is
// synchronous per connection), so it needs no lock.
type connState struct {
	conn         net.Conn
	writeTimeout time.Duration
	enc          *json.Encoder
	authed       bool

	// pending accumulates in-flight gather uploads frame by frame;
	// gathers/gatherOrder hold the few completed union stores this
	// connection may refine against (LRU, gatherCacheCap).
	pending     map[string]*gatherAccum
	gathers     map[string]*mod.Store
	gatherOrder []string
}

// send writes a request reply with no write deadline: replies can be
// legitimately large and slow links must not sever them.
func (cs *connState) send(resp Response) error { return cs.enc.Encode(resp) }

// sendFrame writes one frame of a streamed reply under the write
// deadline: a reader that stalls mid-stream is severed at the next frame
// instead of pinning the connection goroutine on a full TCP buffer.
func (cs *connState) sendFrame(resp Response) error {
	if cs.writeTimeout <= 0 {
		return cs.enc.Encode(resp)
	}
	_ = cs.conn.SetWriteDeadline(time.Now().Add(cs.writeTimeout))
	err := cs.enc.Encode(resp)
	_ = cs.conn.SetWriteDeadline(time.Time{})
	return err
}

// NewServerWith wraps a store with a caller-tuned engine and explicit
// hardening options (a nil engine gets one worker per CPU).
func NewServerWith(store *mod.Store, eng *engine.Engine, o Options) *Server {
	if eng == nil {
		eng = engine.New(0)
	}
	if o.ReadTimeout == 0 {
		o.ReadTimeout = DefaultReadTimeout
	}
	if o.WriteTimeout == 0 {
		o.WriteTimeout = DefaultWriteTimeout
	}
	if o.MaxLineBytes <= 0 {
		o.MaxLineBytes = MaxLine
	}
	if o.MaxGatherBytes == 0 {
		o.MaxGatherBytes = DefaultMaxGatherBytes
	}
	return &Server{
		store: store, engine: eng, journal: o.Journal,
		readTimeout: o.ReadTimeout, writeTimeout: o.WriteTimeout,
		maxLine: o.MaxLineBytes, maxGather: o.MaxGatherBytes, token: o.Token,
		conns: make(map[net.Conn]struct{}),
	}
}

// Serve accepts connections on l until Close. It always returns a non-nil
// error (ErrServerClosed after a clean shutdown).
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// Close stops accepting and tears down live connections.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.listener != nil {
		err = s.listener.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	return err
}

// Shutdown drains the server gracefully: it stops accepting, lets every
// in-flight request finish, then disconnects the idle connections.
// Connections still alive when ctx expires are force-closed and ctx's
// error returned. Safe to call concurrently with Serve; after it returns,
// Serve has ErrServerClosed.
//
// Mechanism: a handler blocked in Scan is kicked by an immediate read
// deadline. One kick is not enough — a handler that was mid-request
// re-arms its own deadline when it loops back — so the kick repeats on a
// short ticker until the connection set empties. The in-flight request
// itself is never interrupted: the deadline only fires on the next read.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	var err error
	if !alreadyClosed && s.listener != nil {
		err = s.listener.Close()
	}
	s.mu.Unlock()
	ticker := time.NewTicker(5 * time.Millisecond)
	defer ticker.Stop()
	for {
		s.mu.Lock()
		n := len(s.conns)
		for c := range s.conns {
			_ = c.SetReadDeadline(time.Now())
		}
		s.mu.Unlock()
		if n == 0 {
			return err
		}
		select {
		case <-ctx.Done():
			s.mu.Lock()
			for c := range s.conns {
				c.Close()
			}
			s.mu.Unlock()
			return ctx.Err()
		case <-ticker.C:
		}
	}
}

func (s *Server) handle(conn net.Conn) {
	cs := &connState{conn: conn, writeTimeout: s.writeTimeout, enc: json.NewEncoder(conn)}
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	if tc, ok := conn.(*tls.Conn); ok {
		// Handshake eagerly (instead of inside the first Read) so a
		// plaintext client is answered, not just dropped: Go flags "first
		// bytes are not TLS" with a RecordHeaderError carrying the raw
		// connection, and a plaintext JSON parting line is the one reply
		// that client can parse (codeTLSRequired → ErrTLSRequired).
		if s.readTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.readTimeout))
		}
		if err := tc.Handshake(); err != nil {
			var rhe tls.RecordHeaderError
			if errors.As(err, &rhe) && rhe.Conn != nil {
				_ = json.NewEncoder(rhe.Conn).Encode(Response{Error: ErrTLSRequired.Error(), Code: codeTLSRequired})
			}
			return
		}
	}
	sc := bufio.NewScanner(conn)
	// The scanner's token cap is max(limit, cap(buf)), so the initial
	// buffer must not exceed the configured line limit.
	initial := 4096
	if initial > s.maxLine {
		initial = s.maxLine
	}
	sc.Buffer(make([]byte, 0, initial), s.maxLine)
	for {
		// Arm the per-connection read deadline before each request line:
		// a client that stalls mid-line (or goes silent) is disconnected
		// instead of pinning this goroutine and its buffers forever.
		if s.readTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.readTimeout))
		}
		if !sc.Scan() {
			if errors.Is(sc.Err(), bufio.ErrTooLong) {
				// One parting diagnostic; the line boundary is lost, so
				// the connection cannot be resynchronized and closes.
				_ = cs.send(Response{Error: fmt.Sprintf("modserver: request exceeds %d bytes", s.maxLine)})
			}
			return
		}
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var req Request
		var resp Response
		if err := json.Unmarshal(line, &req); err != nil {
			resp = Response{Error: fmt.Sprintf("bad request: %v", err)}
		} else if req.Op == "auth" {
			// Auth gates everything below it in this chain. A wrong token
			// closes the connection after one coded reply — no retries on
			// an established connection, the client redials.
			if s.token != "" && subtle.ConstantTimeCompare([]byte(req.Token), []byte(s.token)) != 1 {
				_ = cs.send(Response{Error: ErrUnauthorized.Error() + ": bad token", Code: codeUnauthorized})
				return
			}
			cs.authed = true
			resp = Response{OK: true}
		} else if s.token != "" && !cs.authed {
			_ = cs.send(Response{Error: ErrUnauthorized.Error() + ": authenticate first", Code: codeUnauthorized})
			return
		} else if req.Op == "query" && req.Phase == "gather" && req.More {
			// A non-final gather upload frame: accumulate silently — the
			// protocol answers only the final (more=false) frame, so the
			// uploader can stream chunks without a round trip each.
			s.accumGather(req, cs)
			continue
		} else if req.Op == "query" && (req.Phase == "survivors" || req.Phase == "all") {
			// Streamed replies write their own frames; a mid-stream write
			// failure closes the connection (the stream cannot resync).
			if !s.streamPhase(req, cs) {
				return
			}
			continue
		} else {
			resp = s.dispatch(req, cs)
		}
		if err := cs.send(resp); err != nil {
			return
		}
	}
}

func (s *Server) dispatch(req Request, cs *connState) Response {
	switch req.Op {
	case "ingest":
		return s.doIngest(req)
	case "owns":
		owned := make([]bool, len(req.OIDs))
		for i, oid := range req.OIDs {
			_, err := s.store.Get(oid)
			owned[i] = err == nil
		}
		return Response{OK: true, Owned: owned}
	case "count":
		return Response{OK: true, Count: s.store.Len()}
	case "spec":
		spec := s.store.Spec()
		// max_line rides along so clients can size gather upload frames.
		return Response{OK: true, Spec: &spec, MaxLine: s.maxLine}
	case "get":
		tr, err := s.store.Get(req.OID)
		if err != nil {
			return codedFail(err)
		}
		return Response{OK: true, OID: tr.OID, Verts: encodeVerts(tr.Verts), Tags: s.store.Tags(tr.OID)}
	case "query":
		switch req.Phase {
		case "bounds":
			return s.doBounds(req)
		case "oids":
			if err := req.Where.Validate(); err != nil {
				return Response{Error: err.Error()}
			}
			return Response{OK: true, OIDs: s.store.MatchingOIDs(req.Where)}
		case "gather":
			// Only final (more=false) frames reach dispatch; the handler
			// loop accumulates the rest without replying.
			return s.doGather(req, cs)
		case "refine":
			return s.doRefine(req, cs)
		}
		// "survivors" and "all" stream from the handler loop and never
		// reach dispatch.
		return Response{Error: fmt.Sprintf("modserver: unknown op %q phase %q", req.Op, req.Phase), Code: codeUnknownOp}
	}
	return Response{Error: fmt.Sprintf("modserver: unknown op %q", req.Op), Code: codeUnknownOp}
}

// phaseCtx builds the evaluation context for a shard phase under the
// request's optional deadline.
func phaseCtx(req Request) (context.Context, context.CancelFunc) {
	if req.DeadlineMS > 0 {
		return context.WithTimeout(context.Background(), time.Duration(req.DeadlineMS)*time.Millisecond)
	}
	return context.WithCancel(context.Background())
}

// wireQuery rebuilds the phase's query trajectory from the wire fields.
func wireQuery(req Request) (*trajectory.Trajectory, error) {
	return trajectory.New(req.OID, decodeVerts(req.Verts))
}

// doBounds answers phase 1 of the cluster bound exchange: per-slice upper
// bounds on this store's local Level-k envelope against the carried query
// trajectory.
func (s *Server) doBounds(req Request) Response {
	q, err := wireQuery(req)
	if err != nil {
		return Response{Error: err.Error()}
	}
	if err := req.Where.Validate(); err != nil {
		return Response{Error: err.Error()}
	}
	ctx, cancel := phaseCtx(req)
	defer cancel()
	bounds, err := prune.SliceBoundsWhere(ctx, s.store, q, req.Tb, req.Te, req.K, req.Where)
	if err != nil {
		return codedFail(err)
	}
	return Response{OK: true, Bounds: encodeBounds(bounds)}
}

// doIngest journals and applies one live update batch. The ingest lock
// makes the journal's append order the apply order.
func (s *Server) doIngest(req Request) Response {
	updates := DecodeUpdates(req.Updates)
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if s.journal != nil {
		// Write-ahead: the batch must be durable before it is applied. A
		// batch the journal rejected is not applied at all.
		if err := s.journal.Append(updates); err != nil {
			return Response{Error: fmt.Sprintf("modserver: journal append: %v", err)}
		}
	}
	applied, err := s.store.ApplyUpdates(updates)
	if err != nil {
		// A mid-batch failure still committed a prefix: report it with the
		// error (the mod.ApplyUpdates contract), so callers — the cluster
		// router above all — know exactly which updates landed. The journal
		// holds the full batch; replay reproduces the same prefix.
		resp := codedFail(err)
		resp.Applied = EncodeApplied(applied)
		return resp
	}
	if s.journal != nil {
		// A failed snapshot does not lose data — the appended log still
		// reaches the current state — it only defers log truncation to a
		// later, hopefully healthier, snapshot attempt.
		_ = s.journal.AfterApply(s.store)
	}
	return Response{OK: true, Applied: EncodeApplied(applied)}
}

// DecodeUpdates rebuilds live updates from the wire. An update without
// vertices carries nil Verts (a pure tag flip or a retirement).
func DecodeUpdates(wts []WireTraj) []mod.Update {
	out := make([]mod.Update, len(wts))
	for i, wt := range wts {
		out[i] = mod.Update{OID: wt.OID, Verts: decodeVerts(wt.Verts), Tags: wt.Tags, Retire: wt.Retire}
	}
	return out
}

// encodeUpdates flattens live updates onto the wire.
func encodeUpdates(updates []mod.Update) []WireTraj {
	out := make([]WireTraj, len(updates))
	for i, u := range updates {
		out[i] = WireTraj{OID: u.OID, Verts: encodeVerts(u.Verts), Tags: u.Tags, Retire: u.Retire}
	}
	return out
}

// EncodeApplied flattens applied outcomes onto the wire. A pure tag
// flip's ChangedFrom is +Inf (no motion changed), which JSON cannot
// carry — it travels as the TagsOnly marker instead.
func EncodeApplied(applied []mod.Applied) []WireApplied {
	out := make([]WireApplied, len(applied))
	for i, a := range applied {
		wa := WireApplied{OID: a.OID, Inserted: a.Inserted, Retired: a.Retired,
			TagsChanged: a.TagsChanged, Tags: a.Tags, PrevTags: a.PrevTags}
		if !a.Inserted && !a.Retired {
			if math.IsInf(a.ChangedFrom, 1) {
				wa.TagsOnly = true
			} else {
				wa.ChangedFrom = a.ChangedFrom
			}
		}
		if a.Traj != nil {
			wa.Verts = encodeVerts(a.Traj.Verts)
		}
		if a.Prev != nil {
			wa.PrevVerts = encodeVerts(a.Prev.Verts)
		}
		out[i] = wa
	}
	return out
}

// decodeApplied rebuilds applied outcomes from the wire.
func decodeApplied(was []WireApplied) ([]mod.Applied, error) {
	out := make([]mod.Applied, len(was))
	for i, wa := range was {
		a := mod.Applied{OID: wa.OID, Inserted: wa.Inserted, Retired: wa.Retired, ChangedFrom: wa.ChangedFrom,
			TagsChanged: wa.TagsChanged, Tags: wa.Tags, PrevTags: wa.PrevTags}
		if wa.Inserted || wa.Retired {
			a.ChangedFrom = math.Inf(-1)
		} else if wa.TagsOnly {
			a.ChangedFrom = math.Inf(1)
		}
		var err error
		if len(wa.Verts) > 0 {
			if a.Traj, err = trajectory.New(wa.OID, decodeVerts(wa.Verts)); err != nil {
				return nil, err
			}
		}
		if len(wa.PrevVerts) > 0 {
			if a.Prev, err = trajectory.New(wa.OID, decodeVerts(wa.PrevVerts)); err != nil {
				return nil, err
			}
		}
		out[i] = a
	}
	return out, nil
}

// encodeVerts flattens vertices to [x, y, t] triples.
func encodeVerts(vs []trajectory.Vertex) [][3]float64 {
	if vs == nil {
		return nil
	}
	out := make([][3]float64, len(vs))
	for i, v := range vs {
		out[i] = [3]float64{v.X, v.Y, v.T}
	}
	return out
}

// decodeVerts is the inverse of encodeVerts; no triples decode to nil.
func decodeVerts(vs [][3]float64) []trajectory.Vertex {
	if len(vs) == 0 {
		return nil
	}
	out := make([]trajectory.Vertex, len(vs))
	for i, v := range vs {
		out[i] = trajectory.Vertex{X: v[0], Y: v[1], T: v[2]}
	}
	return out
}

// encodeBounds replaces +Inf with -1: JSON has no Inf literal, and slice
// bounds are distances (never negative), so the sign bit is free.
func encodeBounds(bs []float64) []float64 {
	out := make([]float64, len(bs))
	for i, b := range bs {
		if math.IsInf(b, 1) {
			out[i] = -1
		} else {
			out[i] = b
		}
	}
	return out
}

// decodeBounds is the inverse of encodeBounds.
func decodeBounds(bs []float64) []float64 {
	out := make([]float64, len(bs))
	for i, b := range bs {
		if b < 0 {
			out[i] = math.Inf(1)
		} else {
			out[i] = b
		}
	}
	return out
}

// encodeTrajs flattens trajectories onto the wire.
func encodeTrajs(trs []*trajectory.Trajectory) []WireTraj {
	out := make([]WireTraj, len(trs))
	for i, tr := range trs {
		out[i] = WireTraj{OID: tr.OID, Verts: encodeVerts(tr.Verts)}
	}
	return out
}

// decodeTrajs rebuilds trajectories from the wire.
func decodeTrajs(wts []WireTraj) ([]*trajectory.Trajectory, error) {
	out := make([]*trajectory.Trajectory, len(wts))
	for i, wt := range wts {
		tr, err := trajectory.New(wt.OID, decodeVerts(wt.Verts))
		if err != nil {
			return nil, err
		}
		out[i] = tr
	}
	return out, nil
}

// Client is a synchronous protocol client. Not safe for concurrent use;
// open one client per goroutine.
type Client struct {
	conn net.Conn
	sc   *bufio.Scanner
	enc  *json.Encoder
	// frameBytes remembers the server's advertised request-line cap (the
	// spec reply's max_line) for sizing gather upload frames.
	frameBytes int
}

// TLSClient wraps an established connection in a TLS client handshake,
// defaulting the verification ServerName from addr when the config names
// none (tls.Client, unlike tls.Dial, cannot infer one). On handshake
// failure the connection is closed. The cluster RemoteShard dials through
// an injectable Dialer and wraps the result here.
func TLSClient(conn net.Conn, cfg *tls.Config, addr string) (net.Conn, error) {
	if cfg.ServerName == "" && !cfg.InsecureSkipVerify {
		host, _, err := net.SplitHostPort(addr)
		if err != nil {
			host = addr
		}
		cfg = cfg.Clone()
		cfg.ServerName = host
	}
	tc := tls.Client(conn, cfg)
	if err := tc.Handshake(); err != nil {
		conn.Close()
		return nil, err
	}
	return tc, nil
}

// Auth authenticates this connection with the server's static bearer
// token. A server with no token configured accepts any auth; a
// token-protected server rejects every other op until this succeeds.
func (c *Client) Auth(token string) error {
	_, err := c.roundTrip(Request{Op: "auth", Token: token})
	return err
}

// ClientMaxLine bounds a single response line on the client side (1 GiB).
// Deliberately far above the server's request cap: the client talks to a
// server the operator chose, and legitimate replies (a large refine
// answer, a frame from a server with a raised line cap) may exceed the
// 1 MiB request limit.
const ClientMaxLine = 1 << 30

// NewClient wraps an established connection (useful with net.Pipe in
// tests).
func NewClient(conn net.Conn) *Client {
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 4096), ClientMaxLine)
	return &Client{conn: conn, sc: sc, enc: json.NewEncoder(conn)}
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) roundTrip(req Request) (Response, error) {
	if err := c.enc.Encode(req); err != nil {
		return Response{}, err
	}
	if !c.sc.Scan() {
		if err := c.sc.Err(); err != nil {
			return Response{}, err
		}
		return Response{}, ErrConnClosed
	}
	var resp Response
	if err := json.Unmarshal(c.sc.Bytes(), &resp); err != nil {
		return Response{}, lineError(c.sc.Bytes(), err)
	}
	if resp.MaxLine > 0 {
		c.frameBytes = resp.MaxLine
	}
	if !resp.OK {
		return resp, respError(resp)
	}
	return resp, nil
}

// respError rebuilds the sentinel identity of a failed reply from its
// structured code, with the server's message preserved verbatim.
func respError(resp Response) error {
	switch resp.Code {
	case codeNotFound:
		return wireError{msg: resp.Error, is: mod.ErrNotFound}
	case codeUnauthorized:
		return wireError{msg: resp.Error, is: ErrUnauthorized}
	case codeTLSRequired:
		return wireError{msg: resp.Error, is: ErrTLSRequired}
	case codeDeadline:
		return wireError{msg: resp.Error, is: context.DeadlineExceeded}
	case codeCanceled:
		return wireError{msg: resp.Error, is: context.Canceled}
	}
	return errors.New(resp.Error)
}

// lineError classifies an unparseable reply line: TLS record bytes (a
// handshake or alert record) mean this plaintext client dialed a TLS
// server that never got to send the friendly plaintext parting line —
// surface the same ErrTLSRequired identity instead of a JSON syntax
// error.
func lineError(line []byte, err error) error {
	if len(line) >= 3 && (line[0] == 0x15 || line[0] == 0x16) && line[1] == 0x03 {
		return wireError{msg: fmt.Sprintf("%v (reply is a TLS record)", ErrTLSRequired), is: ErrTLSRequired}
	}
	return err
}

// Count returns the number of stored trajectories.
func (c *Client) Count() (int, error) {
	resp, err := c.roundTrip(Request{Op: "count"})
	return resp.Count, err
}

// Spec returns the server's uncertainty model.
func (c *Client) Spec() (mod.PDFSpec, error) {
	resp, err := c.roundTrip(Request{Op: "spec"})
	if err != nil {
		return mod.PDFSpec{}, err
	}
	return *resp.Spec, nil
}

// GetTagged downloads a trajectory together with its tag set (nil when
// untagged) — the cluster's point-lookup path. A missing OID satisfies
// errors.Is(err, mod.ErrNotFound).
func (c *Client) GetTagged(oid int64) (*trajectory.Trajectory, []string, error) {
	resp, err := c.roundTrip(Request{Op: "get", OID: oid})
	if err != nil {
		return nil, nil, err
	}
	tr, err := trajectory.New(resp.OID, decodeVerts(resp.Verts))
	if err != nil {
		return nil, nil, err
	}
	return tr, resp.Tags, nil
}

// deadlineMS converts a client deadline to the wire field (0 = none),
// rounding sub-millisecond deadlines up so they do not vanish.
func deadlineMS(d time.Duration) int64 {
	if d <= 0 {
		return 0
	}
	ms := int64(d / time.Millisecond)
	if ms == 0 {
		ms = 1
	}
	return ms
}

// ShardBounds runs phase 1 of the cluster bound exchange remotely:
// per-slice upper bounds on the server store's local Level-k envelope
// against query trajectory q over [tb, te]. deadline <= 0 means none.
func (c *Client) ShardBounds(q *trajectory.Trajectory, tb, te float64, k int, where *textidx.Predicate, deadline time.Duration) ([]float64, error) {
	resp, err := c.roundTrip(Request{
		Op: "query", Phase: "bounds",
		OID: q.OID, Verts: encodeVerts(q.Verts), Tb: tb, Te: te, K: k, Where: where,
		DeadlineMS: deadlineMS(deadline),
	})
	if err != nil {
		return nil, err
	}
	return decodeBounds(resp.Bounds), nil
}

// ShardSurvivors runs phase 2 remotely: the server store's objects that
// can enter the 4r zone of the imposed global bounds, as trajectories,
// plus the sweep statistics. The reply arrives as a frame stream; a
// single non-more response is the degenerate one-frame case. deadline
// <= 0 means none.
func (c *Client) ShardSurvivors(q *trajectory.Trajectory, tb, te float64, bounds []float64, where *textidx.Predicate, deadline time.Duration) ([]*trajectory.Trajectory, prune.Stats, error) {
	resp, err := c.roundTripStream(Request{
		Op: "query", Phase: "survivors",
		OID: q.OID, Verts: encodeVerts(q.Verts), Tb: tb, Te: te, Where: where,
		Bounds: encodeBounds(bounds), DeadlineMS: deadlineMS(deadline),
	})
	if err != nil {
		return nil, prune.Stats{}, err
	}
	trs, err := decodeTrajs(resp.Trajs)
	if err != nil {
		return nil, prune.Stats{}, err
	}
	var stats prune.Stats
	if resp.Stats != nil {
		stats = *resp.Stats
	}
	return trs, stats, nil
}

// AllTrajectories downloads every stored trajectory (the cluster gather
// path for all-pairs and reverse kinds), reassembled from the server's
// frame stream.
func (c *Client) AllTrajectories() ([]*trajectory.Trajectory, error) {
	resp, err := c.roundTripStream(Request{Op: "query", Phase: "all"})
	if err != nil {
		return nil, err
	}
	return decodeTrajs(resp.Trajs)
}

// Ingest applies a live update batch remotely (the mod.ApplyUpdate
// contract per item) and returns the per-update outcomes in order. A
// mid-batch server failure returns the outcomes applied before it
// alongside the error — the same partial-prefix contract as the
// in-process mod.ApplyUpdates.
func (c *Client) Ingest(updates []mod.Update) ([]mod.Applied, error) {
	resp, err := c.roundTrip(Request{Op: "ingest", Updates: encodeUpdates(updates)})
	if err != nil {
		partial, derr := decodeApplied(resp.Applied)
		if derr != nil {
			return nil, err
		}
		return partial, err
	}
	if len(resp.Applied) != len(updates) {
		return nil, fmt.Errorf("modserver: ingest returned %d outcomes for %d updates",
			len(resp.Applied), len(updates))
	}
	return decodeApplied(resp.Applied)
}

// Owns reports, elementwise, whether the server's store holds each OID —
// the bulk ownership probe behind cluster ingest placement.
func (c *Client) Owns(oids []int64) ([]bool, error) {
	resp, err := c.roundTrip(Request{Op: "owns", OIDs: oids})
	if err != nil {
		return nil, err
	}
	if len(resp.Owned) != len(oids) {
		return nil, fmt.Errorf("modserver: owns returned %d answers for %d oids", len(resp.Owned), len(oids))
	}
	return resp.Owned, nil
}
