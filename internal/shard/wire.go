package shard

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"deltacoloring/internal/graph"
)

// RoundsPath is the internal endpoint workers serve the protocol on.
const RoundsPath = "/v1/shard/rounds"

// RoundsRequest is one protocol operation addressed to one shard of one
// session: the body of POST /v1/shard/rounds, framed by EncodeRequest.
type RoundsRequest struct {
	// Op is "init", "step", "finish", or "abort".
	Op string
	// Session namespaces concurrent runs on a shared worker host.
	Session string
	// Shard is the shard index within the session.
	Shard int

	// Init payload: the binary-encoded shard subgraph, the sub→parent
	// vertex mapping, the owned sub-local indices, the parent graph's
	// vertex count and maximum degree.
	Graph    []byte
	ToParent []int32
	Locals   []int32
	ParentN  int
	Delta    int

	// Step payload: ghost updates to apply before the round.
	Updates []Update
}

// RoundsResponse is the endpoint's reply, framed by EncodeResponse.
// Protocol failures travel in Error/Violation (HTTP 200): the transport
// reconstructs the named violation type on the coordinator's side.
type RoundsResponse struct {
	OK bool
	// Step reply.
	Changed []Update
	NotDone int
	// Finish reply: every local vertex's color.
	Colors []Update
	// Error is the failure message; Violation tags its type ("exchange",
	// "merge", or "" for untyped errors).
	Error     string
	Violation string
}

// hostSession is one worker living on a Host.
type hostSession struct {
	mu   sync.Mutex
	w    *Worker
	last time.Time
}

// Host owns the shard workers of one serving process, keyed by
// session/shard. It is the server half of the protocol: ServeRounds decodes
// each request frame and hands it to Handle, and a Host served directly as
// an http.Handler does exactly that. Sessions idle past the TTL are reaped
// on the next call, and an init whose parent graph exceeds the vertex cap
// is refused before anything is sized by it.
type Host struct {
	mu       sync.Mutex
	sessions map[string]*hostSession
	ttl      time.Duration
	maxN     int
	now      func() time.Time
}

// NewHost returns a Host reaping sessions idle longer than ttl
// (default 5m) and refusing parent graphs of more than maxN vertices
// (default 1<<20).
func NewHost(ttl time.Duration, maxN int) *Host {
	if ttl <= 0 {
		ttl = 5 * time.Minute
	}
	if maxN <= 0 {
		maxN = 1 << 20
	}
	return &Host{sessions: make(map[string]*hostSession), ttl: ttl, maxN: maxN, now: time.Now}
}

// Sessions reports the live worker count.
func (h *Host) Sessions() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.sessions)
}

// ServeHTTP serves the /v1/shard/rounds wire; request body limits are the
// caller's to set.
func (h *Host) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ServeRounds(w, r, h.Handle)
}

func sessionKey(session string, shard int) string {
	return fmt.Sprintf("%s/%d", session, shard)
}

// Handle executes one protocol operation and never panics the caller: all
// failures are reported in the response.
func (h *Host) Handle(req *RoundsRequest) *RoundsResponse {
	switch req.Op {
	case "init":
		return h.handleInit(req)
	case "step", "finish":
		return h.handleRound(req)
	case "abort":
		h.drop(sessionKey(req.Session, req.Shard))
		return &RoundsResponse{OK: true}
	default:
		return &RoundsResponse{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

func (h *Host) handleInit(req *RoundsRequest) *RoundsResponse {
	if req.ParentN > h.maxN {
		return &RoundsResponse{
			Error: fmt.Sprintf("shard parent graph has n=%d, above the %d-vertex limit", req.ParentN, h.maxN),
		}
	}
	sub, err := graph.DecodeBinary(bytes.NewReader(req.Graph))
	if err != nil {
		return &RoundsResponse{Error: fmt.Sprintf("bad shard graph: %v", err)}
	}
	part, err := NewPartFromWire(sub, req.ToParent, req.Locals, req.ParentN)
	if err != nil {
		return &RoundsResponse{Error: err.Error()}
	}
	sess := &hostSession{w: NewWorker(part, req.Delta), last: h.now()}
	key := sessionKey(req.Session, req.Shard)
	h.mu.Lock()
	if old, dup := h.sessions[key]; dup {
		old.w.Close()
	}
	h.sessions[key] = sess
	h.reapLocked()
	h.mu.Unlock()
	return &RoundsResponse{OK: true}
}

func (h *Host) handleRound(req *RoundsRequest) *RoundsResponse {
	key := sessionKey(req.Session, req.Shard)
	h.mu.Lock()
	sess, ok := h.sessions[key]
	h.mu.Unlock()
	if !ok {
		return &RoundsResponse{Error: fmt.Sprintf("unknown session %q", key)}
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.last = h.now()
	if req.Op == "finish" {
		colors, err := sess.w.Finish()
		h.drop(key)
		if err != nil {
			return errResponse(err)
		}
		return &RoundsResponse{OK: true, Colors: colors}
	}
	res, err := sess.w.Step(req.Shard, req.Updates)
	if err != nil {
		return errResponse(err)
	}
	return &RoundsResponse{OK: true, Changed: res.Changed, NotDone: res.NotDone}
}

func (h *Host) drop(key string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if sess, ok := h.sessions[key]; ok {
		sess.w.Close()
		delete(h.sessions, key)
	}
}

// reapLocked drops sessions idle past the TTL; h.mu must be held.
func (h *Host) reapLocked() {
	cutoff := h.now().Add(-h.ttl)
	for key, sess := range h.sessions {
		if sess.last.Before(cutoff) {
			sess.w.Close()
			delete(h.sessions, key)
		}
	}
}

// errResponse tags a worker error with its violation type for the wire.
func errResponse(err error) *RoundsResponse {
	resp := &RoundsResponse{Error: err.Error()}
	switch err.(type) {
	case *ExchangeViolation:
		resp.Violation = "exchange"
	case *MergeViolation:
		resp.Violation = "merge"
	case *PartitionViolation:
		resp.Violation = "partition"
	}
	return resp
}

// HTTPTransport is the coordinator-side client of the /v1/shard/rounds
// endpoint: shard s is served by addrs[s mod len(addrs)], so any worker
// fleet size serves any shard count.
type HTTPTransport struct {
	addrs   []string
	session string
	client  *http.Client
}

// NewHTTPTransport builds a transport over the given worker base URLs
// (e.g. "http://127.0.0.1:8081"). session namespaces this run on the
// workers; client may be nil for http.DefaultClient (the coordinator's
// per-call context still bounds every request).
func NewHTTPTransport(addrs []string, session string, client *http.Client) (*HTTPTransport, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("shard: no worker addresses")
	}
	if session == "" {
		session = "local"
	}
	if client == nil {
		client = http.DefaultClient
	}
	return &HTTPTransport{addrs: addrs, session: session, client: client}, nil
}

func (t *HTTPTransport) do(ctx context.Context, shard int, req *RoundsRequest) (*RoundsResponse, error) {
	req.Session = t.session
	req.Shard = shard
	body, err := EncodeRequest(req)
	if err != nil {
		return nil, err
	}
	url := t.addrs[shard%len(t.addrs)] + RoundsPath
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", frameContentType)
	hresp, err := t.client.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer hresp.Body.Close()
	raw, err := readBody(hresp.Body, hresp.ContentLength)
	if err != nil {
		return nil, fmt.Errorf("shard: read response from %s: %w", url, err)
	}
	if hresp.StatusCode != http.StatusOK {
		// A 400 carries the decoder's complaint as text: typically a
		// worker built with another frame version.
		return nil, fmt.Errorf("shard: %s answered %d: %s", url, hresp.StatusCode, bytes.TrimSpace(raw[:min(len(raw), 256)]))
	}
	resp, err := DecodeResponse(raw)
	if err != nil {
		return nil, fmt.Errorf("shard: bad response from %s: %w", url, err)
	}
	if resp.Error != "" {
		// Reconstruct the named violation so errors.As works across the wire.
		switch resp.Violation {
		case "exchange":
			return nil, &ExchangeViolation{Shard: shard, Vertex: -1, Reason: resp.Error}
		case "merge":
			return nil, &MergeViolation{Vertex: -1, Reason: resp.Error}
		case "partition":
			return nil, &PartitionViolation{Err: fmt.Errorf("%s", resp.Error)}
		}
		return nil, fmt.Errorf("shard: worker error: %s", resp.Error)
	}
	return resp, nil
}

// Init ships the shard subgraph to its worker host.
func (t *HTTPTransport) Init(ctx context.Context, shard int, part *Part, delta, parentN int) error {
	var buf bytes.Buffer
	if err := graph.EncodeBinary(&buf, part.Sub.G); err != nil {
		return err
	}
	toParent := make([]int32, len(part.Sub.ToParent))
	for i, pv := range part.Sub.ToParent {
		toParent[i] = int32(pv)
	}
	_, err := t.do(ctx, shard, &RoundsRequest{
		Op:       "init",
		Graph:    buf.Bytes(),
		ToParent: toParent,
		Locals:   part.Locals,
		ParentN:  parentN,
		Delta:    delta,
	})
	return err
}

// Step runs one remote worker round.
func (t *HTTPTransport) Step(ctx context.Context, shard int, updates []Update) (*StepResult, error) {
	resp, err := t.do(ctx, shard, &RoundsRequest{Op: "step", Updates: updates})
	if err != nil {
		return nil, err
	}
	return &StepResult{Changed: resp.Changed, NotDone: resp.NotDone}, nil
}

// Finish collects the remote worker's final colors.
func (t *HTTPTransport) Finish(ctx context.Context, shard int) ([]Update, error) {
	resp, err := t.do(ctx, shard, &RoundsRequest{Op: "finish"})
	if err != nil {
		return nil, err
	}
	return resp.Colors, nil
}

// Abort drops the remote worker, best effort.
func (t *HTTPTransport) Abort(shard int) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, _ = t.do(ctx, shard, &RoundsRequest{Op: "abort"})
}
