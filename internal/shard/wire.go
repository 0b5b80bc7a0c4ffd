package shard

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"deltacoloring/internal/graph"
)

// StreamPath is the internal endpoint workers serve the protocol on: one
// POST per coordinator run and worker host, carrying every call of that
// run to that host (frame.go).
const StreamPath = "/v1/shard/stream"

// abortTimeout bounds a best-effort abort and the wait for a closed stream's
// last bytes.
const abortTimeout = 2 * time.Second

// RoundsRequest is one protocol operation addressed to one shard of one
// run: one record of a stream, framed by EncodeRequest.
type RoundsRequest struct {
	// Op is "init", "step", "finish", or "abort".
	Op string
	// Session labels the run in the host's error texts. It keys nothing:
	// a host keys workers by stream and shard.
	Session string
	// Shard is the shard index within the run.
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

// streamIdleTimeout closes a stream that sends no record for this long:
// the coordinator behind it is gone or wedged, and its workers die with it.
const streamIdleTimeout = 5 * time.Minute

// Host is the server half of the protocol for one serving process. Each
// stream ServeRounds serves owns its workers, keyed by shard index in a
// table of its own, and drops them when it ends: a run's worker state lives
// exactly as long as the coordinator's connection, and two coordinators
// sharing a host cannot reach each other's workers, whatever their session
// labels. An init whose parent graph exceeds the vertex cap is refused
// before anything is sized by it.
type Host struct {
	maxN int
	live atomic.Int64 // workers held across every open stream
	// hook, when set, runs at the start of each record: a test seam.
	hook func(*RoundsRequest)
}

// NewHost returns a Host refusing parent graphs of more than maxN vertices
// (default 1<<20).
func NewHost(maxN int) *Host {
	if maxN <= 0 {
		maxN = 1 << 20
	}
	return &Host{maxN: maxN}
}

// Sessions reports the live worker count across every open stream.
func (h *Host) Sessions() int { return int(h.live.Load()) }

// newStreamTable returns an empty worker table for one stream, counted in
// the host's gauge.
func (h *Host) newStreamTable() *InProcess {
	return &InProcess{workers: make(map[int]*Worker), live: &h.live}
}

// ServeRounds serves one coordinator stream: it reads request records until
// EOF and answers each with one response frame, in request order, each
// flushed as soon as it and every earlier one are answered. Records for
// different shards run concurrently, up to GOMAXPROCS of them past the one
// being written, so the co-hosted shards' steps of a round use the host's
// cores; records for one shard run in order. A first record that does not
// decode is answered with 400 and a text body; a later one ends the stream
// once the records before it are answered. Each record is bounded by
// maxRecord, and a stream idle for streamIdleTimeout is closed. The
// stream's workers are keyed by shard alone: the session in each record is
// only a label for error texts. Workers neither finished nor aborted are
// dropped when the stream ends.
func (h *Host) ServeRounds(w http.ResponseWriter, r *http.Request, maxRecord int64) {
	rc := http.NewResponseController(w)
	// Both fail only where they do not apply: HTTP/2 is full-duplex
	// already, and a recorder has no connection to time out.
	_ = rc.EnableFullDuplex()
	// The coordinator sends Expect: 100-continue, and net/http closes the
	// connection after the reply when the handler writes its header while
	// the body is still the expect-continue reader short of EOF, which a
	// full-duplex stream always does. Hiding that reader's type keeps the
	// connection for the next run; the 100 Continue still goes out on the
	// first read.
	r.Body = struct{ io.ReadCloser }{r.Body}
	workers := h.newStreamTable()
	defer workers.abortAll()
	br := bufio.NewReader(r.Body)
	var replies chan *pendingReply
	last := make(map[int]chan struct{}) // per shard: its latest record's done
	for first := true; ; first = false {
		_ = rc.SetReadDeadline(time.Now().Add(streamIdleTimeout))
		// A fresh buffer per record: a decoded init aliases its frame
		// while it runs.
		frame, err := readRecord(br, maxRecord, nil)
		if first && errors.Is(err, io.EOF) {
			err = errors.New("empty stream")
		}
		var req *RoundsRequest
		if err != nil {
			err = fmt.Errorf("shard: read request: %w", err)
		} else {
			req, err = DecodeRequest(frame)
		}
		if err != nil {
			if first {
				http.Error(w, err.Error(), http.StatusBadRequest)
			}
			return
		}
		if first {
			w.Header().Set("Content-Type", frameContentType)
			replies = make(chan *pendingReply, runtime.GOMAXPROCS(0))
			written := make(chan struct{})
			go writeReplies(w, rc, replies, written)
			defer func() {
				close(replies)
				<-written
			}()
		}
		p := &pendingReply{done: make(chan struct{})}
		prev := last[req.Shard]
		last[req.Shard] = p.done
		replies <- p
		go h.run(req, workers, prev, p)
	}
}

// pendingReply is one record's answer, ready once done is closed.
type pendingReply struct {
	done chan struct{}
	out  []byte
}

// run answers req into p once prev, the same shard's previous record, is
// answered. A panic becomes the record's error reply: it runs off the
// handler's goroutine, where the server would not recover it.
func (h *Host) run(req *RoundsRequest, workers *InProcess, prev chan struct{}, p *pendingReply) {
	defer close(p.done)
	defer func() {
		if v := recover(); v != nil {
			p.out = EncodeResponse(&RoundsResponse{Error: fmt.Sprintf("shard: %s panicked: %v", req.Op, v)})
		}
	}()
	if prev != nil {
		<-prev
	}
	if h.hook != nil {
		h.hook(req)
	}
	p.out = EncodeResponse(h.handle(req, workers))
}

// writeReplies writes each reply once it and every earlier one are ready,
// flushing once per run of ready replies, then closes written. After a
// failed write it only waits, so every record in flight finishes before the
// stream's workers are dropped.
func writeReplies(w http.ResponseWriter, rc *http.ResponseController, replies <-chan *pendingReply, written chan<- struct{}) {
	defer close(written)
	var prefix [binary.MaxVarintLen64]byte
	ok := true
	p, more := <-replies
	for more {
		<-p.done
		if ok {
			_, _ = w.Write(binary.AppendUvarint(prefix[:0], uint64(len(p.out))))
			_, _ = w.Write(p.out)
		}
		// A next reply already queued and answered shares this flush.
		select {
		case p, more = <-replies:
			if !more || !isDone(p) {
				ok = ok && rc.Flush() == nil
			}
		default:
			ok = ok && rc.Flush() == nil
			p, more = <-replies
		}
	}
}

// isDone reports whether p is answered.
func isDone(p *pendingReply) bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// handle executes one protocol operation against one stream's workers.
func (h *Host) handle(req *RoundsRequest, workers *InProcess) *RoundsResponse {
	switch req.Op {
	case "init":
		return h.handleInit(req, workers)
	case "step", "finish":
		w, err := workers.get(req.Shard)
		if err != nil {
			return &RoundsResponse{Error: fmt.Sprintf("unknown session %q: %v on this stream", req.Session, err)}
		}
		if req.Op == "finish" {
			colors, err := w.Finish()
			workers.Abort(req.Shard)
			if err != nil {
				return errResponse(err)
			}
			return &RoundsResponse{OK: true, Colors: colors}
		}
		res, err := w.Step(req.Shard, req.Updates)
		if err != nil {
			return errResponse(err)
		}
		return &RoundsResponse{OK: true, Changed: res.Changed, NotDone: res.NotDone}
	case "abort":
		workers.Abort(req.Shard)
		return &RoundsResponse{OK: true}
	default:
		return &RoundsResponse{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

func (h *Host) handleInit(req *RoundsRequest, workers *InProcess) *RoundsResponse {
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
	_ = workers.Init(context.Background(), req.Shard, part, req.Delta, req.ParentN)
	return &RoundsResponse{OK: true}
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

// HTTPTransport is the coordinator-side client of the stream endpoint:
// shard s is served by addrs[s mod len(addrs)], so any worker fleet size
// serves any shard count. Each address gets one stream per run, opened on
// its first call and closed once every shard initialised on it has
// finished or aborted. Run hands it each round as one batch: a host's step
// records for the round leave in one write and are answered in order, so a
// round costs one write and one round trip per host, not one per shard.
// Concurrent calls for shards on one host are written back to back in the
// same way.
type HTTPTransport struct {
	addrs   []string
	session string
	client  *http.Client

	mu      sync.Mutex
	streams []*stream    // by address index; nil while closed
	live    map[int]bool // shards initialised, not yet finished or aborted
}

// NewHTTPTransport builds a transport over the given worker base URLs
// (e.g. "http://127.0.0.1:8081"). session labels this run in the
// workers' error texts; client may be nil for http.DefaultClient. A stream is one
// request that lasts the whole run, so the transport uses a copy of client
// without its Timeout: the coordinator's per-call context (CallTimeout)
// bounds every call instead.
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
	c := *client
	c.Timeout = 0
	return &HTTPTransport{addrs: addrs, session: session, client: &c,
		streams: make([]*stream, len(addrs)), live: make(map[int]bool)}, nil
}

// stream is one open request to a worker host. Replies match calls in FIFO
// order; the first failure tears the stream down and fails every call
// waiting on it, and every later one.
type stream struct {
	url    string
	pw     *io.PipeWriter
	cancel context.CancelFunc
	done   chan struct{} // closed when read returns

	wmu   sync.Mutex // keeps queue order equal to write order
	mu    sync.Mutex
	queue []chan reply
	err   error
}

type reply struct {
	resp *RoundsResponse
	err  error
}

// streamFor returns shard's host stream, opening it on the host's first
// call; init marks shard live.
func (t *HTTPTransport) streamFor(shard int, init bool) *stream {
	i := shard % len(t.addrs)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.streams[i] == nil {
		t.streams[i] = t.open(t.addrs[i])
	}
	if init {
		t.live[shard] = true
	}
	return t.streams[i]
}

// release marks shard finished or aborted and closes its host's stream
// once no live shard remains there.
func (t *HTTPTransport) release(shard int) {
	i := shard % len(t.addrs)
	t.mu.Lock()
	delete(t.live, shard)
	st := t.streams[i]
	for s := range t.live {
		if s%len(t.addrs) == i {
			st = nil
			break
		}
	}
	if st != nil {
		t.streams[i] = nil
	}
	t.mu.Unlock()
	if st != nil {
		st.close()
	}
}

// open starts the request; its first record follows from the first call.
// Expect: 100-continue lets a server that never reads the body (one without
// this path, or of an older wire) answer at once instead of draining a body
// that does not end.
func (t *HTTPTransport) open(base string) *stream {
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	st := &stream{url: base + StreamPath, pw: pw, cancel: cancel, done: make(chan struct{})}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, st.url, pr)
	if err != nil {
		st.fail(err)
		close(st.done)
		return st
	}
	req.Header.Set("Content-Type", frameContentType)
	req.Header.Set("Expect", "100-continue")
	go st.read(t.client, req)
	return st
}

// read runs the request and hands each response frame to the oldest
// waiting call, until the stream ends.
func (st *stream) read(client *http.Client, req *http.Request) {
	defer close(st.done)
	defer st.cancel()
	resp, err := client.Do(req)
	if err != nil {
		st.fail(err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// A 400 carries the decoder's complaint as text: typically a
		// worker built with another frame version.
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		st.fail(fmt.Errorf("shard: %s answered %d: %s", st.url, resp.StatusCode, bytes.TrimSpace(raw)))
		return
	}
	br := bufio.NewReader(resp.Body)
	var buf []byte
	for {
		frame, err := readRecord(br, math.MaxInt64, buf)
		if errors.Is(err, io.EOF) {
			st.fail(fmt.Errorf("shard: stream from %s ended", st.url))
			return
		}
		var out *RoundsResponse
		if err == nil {
			out, err = DecodeResponse(frame)
		}
		if err != nil {
			st.fail(fmt.Errorf("shard: bad response from %s: %w", st.url, err))
			return
		}
		st.mu.Lock()
		if len(st.queue) == 0 {
			st.mu.Unlock()
			st.fail(fmt.Errorf("shard: bad response from %s: no call waiting", st.url))
			return
		}
		ch := st.queue[0]
		st.queue = st.queue[1:]
		st.mu.Unlock()
		ch <- reply{resp: out}
		buf = frame
	}
}

// fail tears the stream down: the first error sticks, every waiting call
// gets it, and the request is cancelled.
func (st *stream) fail(err error) {
	st.mu.Lock()
	if st.err == nil {
		st.err = err
	}
	err, q := st.err, st.queue
	st.queue = nil
	st.mu.Unlock()
	st.cancel()
	_ = st.pw.CloseWithError(err)
	for _, ch := range q {
		ch <- reply{err: err}
	}
}

// close ends the request body, which ends the host's loop, and waits for
// the host to end its answer, at most abortTimeout.
func (st *stream) close() {
	_ = st.pw.Close()
	t := time.NewTimer(abortTimeout)
	defer t.Stop()
	select {
	case <-st.done:
	case <-t.C:
		st.fail(fmt.Errorf("shard: %s did not end the stream", st.url))
		<-st.done
	}
}

// watch tears the whole stream down once ctx expires, until the returned
// stop is called: the calls behind an expired one would wait on it.
func (st *stream) watch(ctx context.Context) (stop func() bool) {
	return context.AfterFunc(ctx, func() {
		st.fail(fmt.Errorf("shard: stream to %s: %w", st.url, ctx.Err()))
	})
}

// send writes recs, n request records, in one write and returns the channel
// their n replies arrive on, in order.
func (st *stream) send(recs []byte, n int) <-chan reply {
	ch := make(chan reply, n)
	st.wmu.Lock()
	defer st.wmu.Unlock()
	st.mu.Lock()
	err := st.err
	if err == nil {
		for range n {
			st.queue = append(st.queue, ch)
		}
	}
	st.mu.Unlock()
	if err != nil {
		for range n {
			ch <- reply{err: err}
		}
		return ch
	}
	// A failed write needs no handling here: the HTTP client closes the
	// body only once the request itself has ended, and read reports why.
	_, _ = st.pw.Write(recs)
	return ch
}

func (t *HTTPTransport) do(ctx context.Context, shard int, req *RoundsRequest) (*RoundsResponse, error) {
	req.Session = t.session
	req.Shard = shard
	rec, err := encodeRecord(req)
	if err != nil {
		return nil, err
	}
	st := t.streamFor(shard, req.Op == "init")
	stop := st.watch(ctx)
	defer stop()
	return checkReply(shard, <-st.send(rec, 1))
}

// checkReply turns a failed reply into its error, reconstructing the named
// violation so errors.As works across the wire.
func checkReply(shard int, r reply) (*RoundsResponse, error) {
	if r.err != nil {
		return nil, r.err
	}
	resp := r.resp
	if resp.Error != "" {
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

// stepRound writes each host's step records for the round back to back in
// one write, so a host gets one chunk and one flush per round, then
// collects every reply under one deadline for the round.
func (t *HTTPTransport) stepRound(ctx context.Context, timeout time.Duration, r *round) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	hosts := len(t.addrs)
	type batch struct {
		shards  []int
		replies <-chan reply
		stop    func() bool
	}
	batches := make([]batch, hosts)
	for _, s := range r.active {
		b := &batches[s%hosts]
		b.shards = append(b.shards, s)
	}
	for i := range batches {
		b := &batches[i]
		if len(b.shards) == 0 {
			continue
		}
		// A step passes checkRequest whenever its shard's init did: the
		// session and shard are the same, and a step has no other scalar.
		req := RoundsRequest{Op: "step", Session: t.session}
		size := 0
		for _, s := range b.shards {
			req.Shard, req.Updates = s, r.updates[s]
			size += binary.MaxVarintLen64 + requestLen(&req)
		}
		recs := make([]byte, 0, size)
		for _, s := range b.shards {
			req.Shard, req.Updates = s, r.updates[s]
			recs = appendRequestRecord(recs, &req)
		}
		st := t.streamFor(b.shards[0], false)
		b.stop = st.watch(ctx)
		b.replies = st.send(recs, len(b.shards))
	}
	for _, b := range batches {
		for _, s := range b.shards {
			resp, err := checkReply(s, <-b.replies)
			if err != nil {
				r.errs[s] = err
				continue
			}
			r.steps[s] = &StepResult{Changed: resp.Changed, NotDone: resp.NotDone}
		}
		if b.stop != nil {
			b.stop()
		}
	}
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

// Finish collects the remote worker's final colors; the host drops the
// shard either way.
func (t *HTTPTransport) Finish(ctx context.Context, shard int) ([]Update, error) {
	resp, err := t.do(ctx, shard, &RoundsRequest{Op: "finish"})
	t.release(shard)
	if err != nil {
		return nil, err
	}
	return resp.Colors, nil
}

// Abort drops the remote worker, best effort. A shard never initialised
// costs no call.
func (t *HTTPTransport) Abort(shard int) {
	t.mu.Lock()
	live := t.live[shard]
	t.mu.Unlock()
	if live {
		ctx, cancel := context.WithTimeout(context.Background(), abortTimeout)
		_, _ = t.do(ctx, shard, &RoundsRequest{Op: "abort"})
		cancel()
	}
	t.release(shard)
}
