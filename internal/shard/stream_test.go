package shard

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deltacoloring/internal/graph"
)

// oneConnClient holds at most one connection per host, as the shard_http
// benchmark's client does: a stream that never ends would starve the next
// run on that host.
func oneConnClient(t *testing.T) *http.Client {
	t.Helper()
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	t.Cleanup(tr.CloseIdleConnections)
	return &http.Client{Transport: tr}
}

// streamHost is one worker host served over HTTP, counting the streams it
// is serving right now.
type streamHost struct {
	host *Host
	srv  *httptest.Server
	live atomic.Int32
	// body, when set, wraps each stream's request body.
	body func(io.Reader) io.Reader
}

// testMaxRecord is the record limit test hosts serve with: the service's
// default body limit.
const testMaxRecord = 32 << 20

// serveHost serves host's stream wire as the service does.
func serveHost(host *Host) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		host.ServeRounds(w, r, testMaxRecord)
	})
}

func newStreamHost(t *testing.T, host *Host) *streamHost {
	t.Helper()
	h := &streamHost{host: host}
	h.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.live.Add(1)
		defer h.live.Add(-1)
		if h.body != nil {
			r.Body = io.NopCloser(h.body(r.Body))
		}
		host.ServeRounds(w, r, testMaxRecord)
	}))
	t.Cleanup(h.srv.Close)
	return h
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("after 2s: %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// idle reports whether no host serves a stream and none holds a worker.
func idle(hosts ...*streamHost) func() bool {
	return func() bool {
		for _, h := range hosts {
			if h.live.Load() != 0 || h.host.Sessions() != 0 {
				return false
			}
		}
		return true
	}
}

// stepHook runs before the n-th Step call (counting from 1) it forwards.
type stepHook struct {
	Transport
	n     atomic.Int32
	at    int32
	apply func()
}

func (s *stepHook) Step(ctx context.Context, shard int, updates []Update) (*StepResult, error) {
	if s.n.Add(1) == s.at {
		s.apply()
	}
	return s.Transport.Step(ctx, shard, updates)
}

func streamGraph() *graph.Graph {
	return graph.PermuteIDs(graph.Torus(12, 12), rand.New(rand.NewSource(31)))
}

// TestStreamOneConnPerHost runs k=4 over two hosts with one connection per
// host, as the benchmark does: each run is bit-identical to the
// single-process engine, each run's streams end with the run (else the
// next run would wait for the connection), and the servers close at once.
func TestStreamOneConnPerHost(t *testing.T) {
	g := streamGraph()
	want := runSingle(t, g)
	client := oneConnClient(t)
	hosts := []*streamHost{newStreamHost(t, NewHost(0)), newStreamHost(t, NewHost(0))}
	addrs := []string{hosts[0].srv.URL, hosts[1].srv.URL}
	for run := 0; run < 3; run++ {
		tr, err := NewHTTPTransport(addrs, fmt.Sprintf("one-conn-%d", run), client)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), g, Config{K: 4, Transport: tr, CallTimeout: 5 * time.Second})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if !reflect.DeepEqual(res.Colors, want.colors) || res.Rounds != want.rounds {
			t.Fatalf("run %d diverges from the single-process run: rounds %d vs %d", run, res.Rounds, want.rounds)
		}
	}
	waitFor(t, "a stream is still open", idle(hosts...))
	start := time.Now()
	for _, h := range hosts {
		h.srv.Close()
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("closing the servers took %v", d)
	}
}

// TestStreamDialsPerRun counts the TCP connections a run dials on a
// one-connection client. A run holds one stream per host, so it may dial
// each host at most once. Today every run dials every host again: the
// request carries Expect: 100-continue, and net/http's server marks a
// connection close-after-reply when a handler writes its header before an
// expect-continue body has reached EOF, which a full-duplex stream always
// does (DESIGN.md §15.3). Dropping the header would allow reuse, but a
// worker without the stream path would then never answer. Keep-alive
// across runs would bring the count down to one dial per host in all.
func TestStreamDialsPerRun(t *testing.T) {
	g := streamGraph()
	var dials atomic.Int32
	var d net.Dialer
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			return d.DialContext(ctx, network, addr)
		}}
	t.Cleanup(tr.CloseIdleConnections)
	client := &http.Client{Transport: tr}
	hosts := []*streamHost{newStreamHost(t, NewHost(0)), newStreamHost(t, NewHost(0))}
	addrs := []string{hosts[0].srv.URL, hosts[1].srv.URL}
	const runs = 5
	for run := 0; run < runs; run++ {
		before := dials.Load()
		ht, err := NewHTTPTransport(addrs, fmt.Sprintf("dials-%d", run), client)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(context.Background(), g, Config{K: 4, Transport: ht, CallTimeout: 5 * time.Second}); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if n := dials.Load() - before; n > int32(len(addrs)) {
			t.Fatalf("run %d dialed %d connections over %d hosts", run, n, len(addrs))
		}
		waitFor(t, "a stream is still open", idle(hosts...))
	}
	t.Logf("%d runs over %d hosts dialed %d connections", runs, len(addrs), dials.Load())
}

// writeCounter counts each connection's Write calls, one counter per dial.
type writeCounter struct {
	mu     sync.Mutex
	counts []*atomic.Int32
}

func (w *writeCounter) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	n := new(atomic.Int32)
	w.mu.Lock()
	w.counts = append(w.counts, n)
	w.mu.Unlock()
	return &countedConn{Conn: c, writes: n}, nil
}

type countedConn struct {
	net.Conn
	writes *atomic.Int32
}

func (c *countedConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestStreamOneWritePerHostPerRound: a round's steps for one host leave
// the coordinator as one write on that host's connection, not one per
// shard. Each connection carries at most the request header, one write per
// init, round and finish of the shards on its host, and the body's end.
func TestStreamOneWritePerHostPerRound(t *testing.T) {
	g := graph.Torus(8, 8)
	want := runSingle(t, g)
	var wc writeCounter
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true, DialContext: wc.dial}
	t.Cleanup(tr.CloseIdleConnections)
	hosts := []*streamHost{newStreamHost(t, NewHost(0)), newStreamHost(t, NewHost(0))}
	ht, err := NewHTTPTransport([]string{hosts[0].srv.URL, hosts[1].srv.URL}, "writes", &http.Client{Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	res, err := Run(context.Background(), g, Config{K: k, Transport: ht, CallTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Colors, want.colors) || res.Rounds != want.rounds {
		t.Fatalf("diverges from the single-process run: rounds %d vs %d", res.Rounds, want.rounds)
	}
	waitFor(t, "a stream is still open", idle(hosts...))
	wc.mu.Lock()
	defer wc.mu.Unlock()
	if len(wc.counts) != len(hosts) {
		t.Fatalf("%d connections over %d hosts", len(wc.counts), len(hosts))
	}
	shardsPerHost := k / len(hosts)
	limit := 1 + shardsPerHost + res.Rounds + shardsPerHost + 1
	for i, n := range wc.counts {
		got := int(n.Load())
		if got > limit {
			t.Errorf("connection %d: %d writes over %d rounds, want at most %d", i, got, res.Rounds, limit)
		}
		t.Logf("connection %d: %d writes over %d rounds (limit %d)", i, got, res.Rounds, limit)
	}
}

// TestStreamHungWorkerTearsDown: a worker that keeps reading but stops
// answering fails the run by CallTimeout; the stream is torn down on both
// sides, the hung host drops the stream's sessions, and the goroutine count
// settles back.
func TestStreamHungWorkerTearsDown(t *testing.T) {
	client := oneConnClient(t)
	good := newStreamHost(t, NewHost(0))
	hung := newStreamHost(t, NewHost(0))
	var hang atomic.Bool
	hung.body = func(r io.Reader) io.Reader { return &hangReader{r: r, hang: &hang} }
	base := runtime.NumGoroutine()

	ht, err := NewHTTPTransport([]string{good.srv.URL, hung.srv.URL}, "hung", client)
	if err != nil {
		t.Fatal(err)
	}
	tr := &stepHook{Transport: ht, at: 6, apply: func() { hang.Store(true) }}
	start := time.Now()
	res, err := Run(context.Background(), streamGraph(), Config{K: 4, Transport: tr, CallTimeout: 200 * time.Millisecond})
	if err == nil || res != nil {
		t.Fatalf("hung worker: res %v, err %v; want an error", res, err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hung worker: %v, want the call deadline", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("the run took %v to fail", d)
	}
	waitFor(t, "a stream or session outlived the run", idle(good, hung))
	client.CloseIdleConnections()
	waitFor(t, "goroutines did not settle", func() bool { return runtime.NumGoroutine() <= base })
}

// hangReader passes reads through until hang is set, then swallows the
// rest of the body: the worker reads its records but answers none.
type hangReader struct {
	r    io.Reader
	hang *atomic.Bool
}

func (h *hangReader) Read(p []byte) (int, error) {
	if h.hang.Load() {
		_, err := io.Copy(io.Discard, h.r)
		if err == nil {
			err = io.EOF
		}
		return 0, err
	}
	return h.r.Read(p)
}

// TestStreamWorkerKilledMidRun: a worker whose connections die mid-run
// fails the run with an error, never with a coloring, and well before the
// call deadline.
func TestStreamWorkerKilledMidRun(t *testing.T) {
	client := oneConnClient(t)
	good := newStreamHost(t, NewHost(0))
	victim := newStreamHost(t, NewHost(0))
	ht, err := NewHTTPTransport([]string{good.srv.URL, victim.srv.URL}, "killed", client)
	if err != nil {
		t.Fatal(err)
	}
	tr := &stepHook{Transport: ht, at: 6, apply: victim.srv.CloseClientConnections}
	start := time.Now()
	res, err := Run(context.Background(), streamGraph(), Config{K: 4, Transport: tr, CallTimeout: 10 * time.Second})
	if err == nil || res != nil {
		t.Fatalf("killed worker: res %v, err %v; want an error", res, err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("the run took %v to fail: %v", d, err)
	}
	waitFor(t, "a stream or session outlived the run", idle(good, victim))
}

// TestStreamBatchedRoundFailures drives the batched round, Run over a bare
// HTTPTransport, into a host that stops answering and into one whose
// connection dies, each at its fourth step record. A hung host fails the
// run at the round's deadline, a killed one well before it; neither run
// yields a coloring, and no stream or worker outlives it.
func TestStreamBatchedRoundFailures(t *testing.T) {
	for _, tc := range []struct {
		name    string
		timeout time.Duration
		within  time.Duration
		want    error
	}{
		{"hung", 200 * time.Millisecond, 5 * time.Second, context.DeadlineExceeded},
		{"killed", 10 * time.Second, 2 * time.Second, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client := oneConnClient(t)
			good := newStreamHost(t, NewHost(0))
			victim := newStreamHost(t, NewHost(0))
			var hang atomic.Bool
			victim.body = func(r io.Reader) io.Reader { return &hangReader{r: r, hang: &hang} }
			var steps atomic.Int32
			victim.host.hook = func(req *RoundsRequest) {
				if req.Op != "step" || steps.Add(1) != 4 {
					return
				}
				if tc.want != nil {
					hang.Store(true)
				} else {
					victim.srv.CloseClientConnections()
				}
			}
			ht, err := NewHTTPTransport([]string{good.srv.URL, victim.srv.URL}, "batched-"+tc.name, client)
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			res, err := Run(context.Background(), streamGraph(), Config{K: 4, Transport: ht, CallTimeout: tc.timeout})
			if err == nil || res != nil {
				t.Fatalf("res %v, err %v; want an error", res, err)
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if d := time.Since(start); d > tc.within {
				t.Fatalf("the run took %v to fail: %v", d, err)
			}
			waitFor(t, "a stream or worker outlived the run", idle(good, victim))
		})
	}
}

// TestStreamInitFailureAbortsAll: when shard 1's host refuses its init,
// the coordinator's abort closes every stream and both hosts end with no
// session.
func TestStreamInitFailureAbortsAll(t *testing.T) {
	g := streamGraph()
	client := oneConnClient(t)
	ok := newStreamHost(t, NewHost(0))
	small := newStreamHost(t, NewHost(g.N()-1))
	tr, err := NewHTTPTransport([]string{ok.srv.URL, small.srv.URL}, "init-fail", client)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), g, Config{K: 4, Transport: tr})
	if err == nil || !strings.Contains(err.Error(), "shard 1 init") || !strings.Contains(err.Error(), "vertex limit") {
		t.Fatalf("err = %v, want shard 1's init refused", err)
	}
	if ok.host.Sessions() != 0 || small.host.Sessions() != 0 {
		t.Fatalf("sessions after abort: %d and %d, want 0", ok.host.Sessions(), small.host.Sessions())
	}
	waitFor(t, "a stream outlived the abort", idle(ok, small))
}

// TestStreamCutDropsSessions: when a stream is cut mid-run the host drops
// the workers that stream opened at once, not after the stream's idle
// timeout.
func TestStreamCutDropsSessions(t *testing.T) {
	g := streamGraph()
	p, err := BuildPartition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	h := newStreamHost(t, NewHost(0))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.srv.URL+StreamPath, pr)
	if err != nil {
		t.Fatal(err)
	}
	type answer struct {
		resp *http.Response
		err  error
	}
	client := oneConnClient(t)
	done := make(chan answer, 1)
	go func() {
		resp, err := client.Do(req)
		done <- answer{resp, err}
	}()
	for s := 0; s < 2; s++ {
		var init RoundsRequest
		init.Op, init.Session, init.Shard = "init", "cut", s
		init.Graph, init.ToParent, init.Locals, init.ParentN, init.Delta = encodePartWire(t, &p.Parts[s], g)
		frame, err := EncodeRequest(&init)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pw.Write(appendRecord(nil, frame)); err != nil {
			t.Fatal(err)
		}
	}
	a := <-done
	if a.err != nil {
		t.Fatal(a.err)
	}
	defer a.resp.Body.Close()
	br := bufio.NewReader(a.resp.Body)
	for s := 0; s < 2; s++ {
		frame, err := readRecord(br, math.MaxInt64, nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp, err := DecodeResponse(frame); err != nil || !resp.OK {
			t.Fatalf("init %d: %+v, %v", s, resp, err)
		}
	}
	if n := h.host.Sessions(); n != 2 {
		t.Fatalf("Sessions = %d with the stream open, want 2", n)
	}
	cancel()
	waitFor(t, "the cut stream's sessions were kept", idle(h))
}

// TestStreamRunsShardsConcurrently: a host answers one stream's records for
// different shards concurrently, so co-hosted shards' work shares the
// host's cores, while one shard's records run in order and every reply
// comes back in request order. The first record to start (shard 0's init)
// waits until a second one (shard 1's init) has started; a host handling
// records one at a time would stall it.
func TestStreamRunsShardsConcurrently(t *testing.T) {
	g := streamGraph()
	p, err := BuildPartition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	host := NewHost(0)
	var calls atomic.Int32
	var met atomic.Bool
	both := make(chan struct{})
	host.hook = func(*RoundsRequest) {
		switch calls.Add(1) {
		case 1:
			select {
			case <-both:
				met.Store(true)
			case <-time.After(2 * time.Second):
			}
		case 2:
			close(both)
		}
	}
	var body []byte
	ops := []struct {
		op    string
		shard int
	}{{"init", 0}, {"init", 1}, {"step", 0}, {"abort", 0}, {"step", 1}, {"abort", 1}}
	for _, o := range ops {
		req := RoundsRequest{Op: o.op, Session: "conc", Shard: o.shard}
		if o.op == "init" {
			req.Graph, req.ToParent, req.Locals, req.ParentN, req.Delta = encodePartWire(t, &p.Parts[o.shard], g)
		}
		frame, err := EncodeRequest(&req)
		if err != nil {
			t.Fatal(err)
		}
		body = appendRecord(body, frame)
	}
	rec := httptest.NewRecorder()
	host.ServeRounds(rec, httptest.NewRequest(http.MethodPost, StreamPath, bytes.NewReader(body)), testMaxRecord)
	if !met.Load() {
		t.Fatal("shard 0's init never saw shard 1's start: the host ran the records one at a time")
	}
	br := bufio.NewReader(rec.Body)
	for i, o := range ops {
		frame, err := readRecord(br, math.MaxInt64, nil)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		resp, err := DecodeResponse(frame)
		if err != nil || !resp.OK {
			t.Fatalf("%s shard %d: %+v, %v", o.op, o.shard, resp, err)
		}
	}
	if _, err := readRecord(br, math.MaxInt64, nil); !errors.Is(err, io.EOF) {
		t.Fatalf("after %d replies: %v, want EOF", len(ops), err)
	}
	if n := host.Sessions(); n != 0 {
		t.Fatalf("Sessions = %d after the aborts, want 0", n)
	}
}

// TestStreamOutlivesClientTimeout: a stream lasts the whole run, so a
// caller's client Timeout shorter than the run does not cut it; CallTimeout
// bounds each call instead.
func TestStreamOutlivesClientTimeout(t *testing.T) {
	g := streamGraph()
	want := runSingle(t, g)
	h := newStreamHost(t, NewHost(0))
	client := oneConnClient(t)
	client.Timeout = 100 * time.Millisecond
	ht, err := NewHTTPTransport([]string{h.srv.URL}, "timeout", client)
	if err != nil {
		t.Fatal(err)
	}
	tr := &stepHook{Transport: ht, at: 3, apply: func() { time.Sleep(300 * time.Millisecond) }}
	res, err := Run(context.Background(), g, Config{K: 2, Transport: tr, CallTimeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("a run longer than the client's Timeout failed: %v", err)
	}
	if !reflect.DeepEqual(res.Colors, want.colors) || res.Rounds != want.rounds {
		t.Fatalf("diverges from the single-process run: rounds %d vs %d", res.Rounds, want.rounds)
	}
	waitFor(t, "a stream or session outlived the run", idle(h))
}

// gatedSteps forwards to a Transport. Its first Step call closes started,
// every Step waits for release first when release is set, and it records
// the first reply for shard 0.
type gatedSteps struct {
	Transport
	once    sync.Once
	started chan struct{}
	release <-chan struct{}

	mu    sync.Mutex
	step0 *StepResult
}

func newGatedSteps(tr Transport, release <-chan struct{}) *gatedSteps {
	return &gatedSteps{Transport: tr, started: make(chan struct{}), release: release}
}

func (g *gatedSteps) Step(ctx context.Context, shard int, updates []Update) (*StepResult, error) {
	g.once.Do(func() { close(g.started) })
	if g.release != nil {
		select {
		case <-g.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	res, err := g.Transport.Step(ctx, shard, updates)
	g.mu.Lock()
	if shard == 0 && g.step0 == nil && res != nil {
		g.step0 = res
	}
	g.mu.Unlock()
	return res, err
}

// TestStreamSessionsDoNotCollide: two coordinators sharing a worker host
// may label their runs alike (every deltaserved names its first sharded
// run "svc-j00000001"), yet each reaches only its own workers. Coordinator
// A inits shards 0-1 of Torus(8,8), then B inits shards 0-1 of Grid(5,4)
// under the same session before A steps: A's first step on shard 0 must
// answer for A's shard, and both runs must then finish bit-identical to
// the single-process engine.
func TestStreamSessionsDoNotCollide(t *testing.T) {
	const session = "svc-j00000001"
	gA, gB := graph.Torus(8, 8), graph.Grid(5, 4)
	wantA, wantB := runSingle(t, gA), runSingle(t, gB)
	ref := newGatedSteps(NewInProcess(), nil)
	if _, err := Run(context.Background(), gA, Config{K: 2, Transport: ref}); err != nil {
		t.Fatal(err)
	}

	h := newStreamHost(t, NewHost(0))
	tr := &http.Transport{DisableCompression: true} // two streams to one host at once
	t.Cleanup(tr.CloseIdleConnections)
	client := &http.Client{Transport: tr}
	newTransport := func() Transport {
		ht, err := NewHTTPTransport([]string{h.srv.URL}, session, client)
		if err != nil {
			t.Fatal(err)
		}
		return ht
	}
	type outcome struct {
		res *Result
		err error
	}
	run := func(g *graph.Graph, tr Transport) <-chan outcome {
		out := make(chan outcome, 1)
		go func() {
			res, err := Run(context.Background(), g, Config{K: 2, Transport: tr, CallTimeout: 5 * time.Second, Session: session})
			out <- outcome{res, err}
		}()
		return out
	}
	gateB := newGatedSteps(newTransport(), nil)
	gateA := newGatedSteps(newTransport(), gateB.started)
	doneA := run(gA, gateA)
	select {
	case <-gateA.started: // A's inits are answered; its steps wait for B's inits
	case o := <-doneA:
		t.Fatalf("A ended before its first step: %v", o.err)
	}
	doneB := run(gB, gateB)
	a, b := <-doneA, <-doneB

	if gateA.step0 == nil || gateA.step0.NotDone != ref.step0.NotDone || !reflect.DeepEqual(gateA.step0.Changed, ref.step0.Changed) {
		pB, err := BuildPartition(gB, 2)
		if err != nil {
			t.Fatal(err)
		}
		t.Fatalf("A's first step on shard 0 = %+v, want %+v from A's own worker (B's shard 0 has %d locals)",
			gateA.step0, ref.step0, len(pB.Parts[0].Locals))
	}
	for _, c := range []struct {
		name string
		o    outcome
		want singleRun
	}{{"A", a, wantA}, {"B", b, wantB}} {
		if c.o.err != nil {
			t.Fatalf("run %s: %v", c.name, c.o.err)
		}
		if !reflect.DeepEqual(c.o.res.Colors, c.want.colors) || c.o.res.Rounds != c.want.rounds {
			t.Fatalf("run %s diverges from the single-process run: rounds %d vs %d", c.name, c.o.res.Rounds, c.want.rounds)
		}
	}
	waitFor(t, "a stream or worker outlived the runs", idle(h))
}

// BenchmarkTorusOverHTTP times k=4 runs of Torus(64,64) over two loopback
// hosts on a one-connection client, shard_http's main operation in one
// process: coordinator and hosts share a CPU profile of it, as in
//
//	go test -run '^$' -bench TorusOverHTTP -benchtime 200x -cpuprofile cpu.out ./internal/shard/
func BenchmarkTorusOverHTTP(b *testing.B) {
	g := graph.Torus(64, 64)
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	var addrs []string
	for i := 0; i < 2; i++ {
		srv := httptest.NewServer(serveHost(NewHost(0)))
		defer srv.Close()
		addrs = append(addrs, srv.URL)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ht, err := NewHTTPTransport(addrs, fmt.Sprintf("bench-%d", i), client)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Run(context.Background(), g, Config{K: 4, Transport: ht, CallTimeout: 5 * time.Second}); err != nil {
			b.Fatal(err)
		}
	}
}
