package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deltacoloring"
	"deltacoloring/internal/shard"
)

// mustVerifySharded verifies a sharded response against the greedy wire
// algorithm's Δ+1 palette (deltacoloring.Verify's Δ bound is the paper
// pipelines' contract, not greedy's).
func mustVerifySharded(t *testing.T, g *deltacoloring.Graph, resp *ColorResponse) {
	t.Helper()
	if resp.State != "done" {
		t.Fatalf("state %q, error %q", resp.State, resp.Error)
	}
	if err := deltacoloring.VerifyWithin(g, resp.Colors, g.MaxDegree()+1); err != nil {
		t.Fatalf("invalid coloring: %v", err)
	}
}

// shardReq builds a sharded request over the easy clique-ring generator with
// the cache bypassed (sharded tests want real runs, not cache hits).
func shardReq(k int) *ColorRequest {
	r := easyReq(4)
	r.Shards = k
	r.NoCache = true
	return r
}

// TestColorSharded: ?shards= runs end to end through the service, the
// response carries the shard summary, and the coloring is bit-identical to
// the single-shard run of the same graph.
func TestColorSharded(t *testing.T) {
	_, cl, _ := newTestServer(t, Config{Workers: 2})
	single, err := cl.Color(context.Background(), shardReq(1))
	if err != nil {
		t.Fatal(err)
	}
	mustVerifySharded(t, deltacoloring.GenEasyCliqueRing(4, 16), single)
	if single.Shards != 1 || single.CutEdges != 0 {
		t.Fatalf("single-shard summary wrong: shards=%d cut=%d", single.Shards, single.CutEdges)
	}
	for _, k := range []int{2, 4} {
		resp, err := cl.Color(context.Background(), shardReq(k))
		if err != nil {
			t.Fatalf("shards=%d: %v", k, err)
		}
		mustVerifySharded(t, deltacoloring.GenEasyCliqueRing(4, 16), resp)
		if !reflect.DeepEqual(resp.Colors, single.Colors) {
			t.Fatalf("shards=%d: colors differ from the single-shard run", k)
		}
		if resp.Rounds != single.Rounds {
			t.Fatalf("shards=%d: %d rounds, single-shard run used %d", k, resp.Rounds, single.Rounds)
		}
		if resp.Shards != k {
			t.Fatalf("shards=%d: response says %d", k, resp.Shards)
		}
		if resp.CutEdges <= 0 || resp.BoundaryUpdates <= 0 {
			t.Fatalf("shards=%d: no cut traffic in response: %+v", k, resp)
		}
	}
}

// TestColorShardedChecked: ?shards=&check=1 attaches the conformance harness
// to the coordinator and reports the shard phases.
func TestColorShardedChecked(t *testing.T) {
	_, cl, _ := newTestServer(t, Config{Workers: 2})
	body, _ := json.Marshal(shardReq(0))
	hr, err := http.Post(cl.BaseURL+"/v1/color?shards=3&check=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("status %d", hr.StatusCode)
	}
	resp := &ColorResponse{}
	if err := json.NewDecoder(hr.Body).Decode(resp); err != nil {
		t.Fatal(err)
	}
	mustVerifySharded(t, deltacoloring.GenEasyCliqueRing(4, 16), resp)
	if resp.Shards != 3 {
		t.Fatalf("shards=3 query param ignored: %+v", resp)
	}
	if resp.Checks == 0 {
		t.Fatalf("checked sharded run reported no checks")
	}
	phases := map[string]bool{}
	for _, p := range resp.CheckPhases {
		phases[p] = true
	}
	if !phases["shard/partition"] || !phases["final"] || !phases["oracle"] {
		t.Fatalf("check phases %v missing shard/partition, final, or oracle", resp.CheckPhases)
	}
}

// TestShardCacheKeysIsolateShardCounts: each shard count gets its own cache
// entry, and sharded entries never answer unsharded requests (or vice
// versa) — a hit must reproduce the shard summary it was stored with.
func TestShardCacheKeysIsolateShardCounts(t *testing.T) {
	_, cl, _ := newTestServer(t, Config{Workers: 2})
	post := func(k int) *ColorResponse {
		t.Helper()
		r := easyReq(4)
		r.Shards = k
		resp, err := cl.Color(context.Background(), r)
		if err != nil {
			t.Fatalf("shards=%d: %v", k, err)
		}
		return resp
	}
	if resp := post(2); resp.Cached || resp.Shards != 2 {
		t.Fatalf("first shards=2 run: cached=%t shards=%d", resp.Cached, resp.Shards)
	}
	if resp := post(2); !resp.Cached || resp.Shards != 2 {
		t.Fatalf("second shards=2 run: cached=%t shards=%d", resp.Cached, resp.Shards)
	}
	if resp := post(4); resp.Cached || resp.Shards != 4 {
		t.Fatalf("shards=4 after shards=2: cached=%t shards=%d (cache keys must isolate shard counts)", resp.Cached, resp.Shards)
	}
	// An unsharded run of the same graph is a different key entirely.
	if resp := post(0); resp.Cached || resp.Shards != 0 {
		t.Fatalf("unsharded run after sharded ones: cached=%t shards=%d", resp.Cached, resp.Shards)
	}
}

// TestColorShardedConcurrent: 32 concurrent ?shards=4 requests against an
// in-process 4-shard cluster, every response verified and bit-identical.
// This is the -race exercise for the coordinator's per-shard fan-out inside
// the service's worker pool.
func TestColorShardedConcurrent(t *testing.T) {
	_, cl, _ := newTestServer(t, Config{Workers: 8, QueueDepth: 64})
	const calls = 32
	var wg sync.WaitGroup
	resps := make([]*ColorResponse, calls)
	errs := make([]error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = cl.Color(context.Background(), shardReq(4))
		}(i)
	}
	wg.Wait()
	g := deltacoloring.GenEasyCliqueRing(4, 16)
	for i := 0; i < calls; i++ {
		if errs[i] != nil {
			t.Fatalf("call %d: %v", i, errs[i])
		}
		mustVerifySharded(t, g, resps[i])
		if !reflect.DeepEqual(resps[i].Colors, resps[0].Colors) {
			t.Fatalf("call %d: colors differ across identical sharded requests", i)
		}
	}
}

// TestShardWorkerEndpointRoundTrip: one server acts as the worker fleet for
// another over POST /v1/shard/stream — the full HTTP protocol path. The
// worker host must end the run with no leaked sessions.
func TestShardWorkerEndpointRoundTrip(t *testing.T) {
	workerSrv, workerCl, _ := newTestServer(t, Config{Workers: 1})
	_, cl, _ := newTestServer(t, Config{Workers: 2, ShardAddrs: []string{workerCl.BaseURL}})
	resp, err := cl.Color(context.Background(), shardReq(3))
	if err != nil {
		t.Fatal(err)
	}
	mustVerifySharded(t, deltacoloring.GenEasyCliqueRing(4, 16), resp)
	if resp.Shards != 3 || resp.CutEdges <= 0 {
		t.Fatalf("cluster run summary wrong: %+v", resp)
	}
	deadline := time.Now().Add(2 * time.Second)
	for workerSrv.shardHost.Sessions() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("worker host retains %d sessions after the run", workerSrv.shardHost.Sessions())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// meeting is where the first replies of n streams wait for each other.
type meeting struct {
	n, arrived atomic.Int32
	all        chan struct{}
}

// meetWriter holds a stream's first reply until n streams have sent one,
// or two seconds pass; later streams (a retry) pass straight through.
type meetWriter struct {
	http.ResponseWriter
	once sync.Once
	m    *meeting
}

func (w *meetWriter) Write(p []byte) (int, error) {
	w.once.Do(func() {
		if w.m.arrived.Add(1) == w.m.n.Load() {
			close(w.m.all)
		}
		select {
		case <-w.m.all:
		case <-time.After(2 * time.Second):
		}
	})
	return w.ResponseWriter.Write(p)
}

func (w *meetWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// TestShardCoordinatorsShareWorker: two coordinators share one worker host
// and run their first sharded jobs at once, both named "svc-j00000001".
// The host holds each stream's first reply until both streams have sent
// one, so both coordinators' shard-0 inits have run before either run goes
// on. A job runs once, so a collision cannot hide behind a second
// attempt. Each coloring must equal the in-process run of its own
// request, and the host must end with no worker.
func TestShardCoordinatorsShareWorker(t *testing.T) {
	workerSrv := New(Config{Workers: 1})
	meet := &meeting{all: make(chan struct{})}
	meet.n.Store(2)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == shard.StreamPath {
			w = &meetWriter{ResponseWriter: w, m: meet}
		}
		workerSrv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = workerSrv.Shutdown(ctx)
	})
	_, ref, _ := newTestServer(t, Config{Workers: 2})
	reqs := []*ColorRequest{shardReq(2), shardReq(3)}
	reqs[1].Gen.M = 5
	var wg sync.WaitGroup
	resps := make([]*ColorResponse, len(reqs))
	errs := make([]error, len(reqs))
	for i := range reqs {
		_, cl, _ := newTestServer(t, Config{Workers: 1, ShardAddrs: []string{ts.URL}})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = cl.Color(context.Background(), reqs[i])
		}(i)
	}
	wg.Wait()
	for i, req := range reqs {
		if errs[i] != nil {
			t.Fatalf("coordinator %d: %v", i, errs[i])
		}
		if resps[i].JobID != "j00000001" {
			t.Fatalf("coordinator %d ran job %q, want both on j00000001", i, resps[i].JobID)
		}
		want, err := ref.Color(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		mustVerifySharded(t, deltacoloring.GenEasyCliqueRing(req.Gen.M, 16), resps[i])
		if !reflect.DeepEqual(resps[i].Colors, want.Colors) {
			t.Fatalf("coordinator %d: colors differ from the in-process run", i)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for workerSrv.shardHost.Sessions() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("worker host retains %d workers after the runs", workerSrv.shardHost.Sessions())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestShardRequestValidation: malformed or incompatible shard requests are
// refused with 400 before any work is queued.
func TestShardRequestValidation(t *testing.T) {
	_, cl, _ := newTestServer(t, Config{Workers: 1, MaxShards: 8})
	post := func(path string, req *ColorRequest) (int, string) {
		t.Helper()
		body, _ := json.Marshal(req)
		hr, err := http.Post(cl.BaseURL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer hr.Body.Close()
		resp := &ColorResponse{}
		_ = json.NewDecoder(hr.Body).Decode(resp)
		return hr.StatusCode, resp.Error
	}
	randReq := easyReq(4)
	randReq.Algo = "rand"
	randReq.Shards = 2
	simpleReq := easyReq(4)
	simpleReq.Shards = 2
	simpleReq.Backend = "simple"
	negReq := easyReq(4)
	negReq.Shards = -1
	cases := []struct {
		name string
		path string
		req  *ColorRequest
	}{
		{"non-numeric query", "/v1/color?shards=many", easyReq(4)},
		{"negative query", "/v1/color?shards=-2", easyReq(4)},
		{"negative body", "/v1/color", negReq},
		{"over the limit", "/v1/color?shards=9", easyReq(4)},
		{"rand algo", "/v1/color", randReq},
		{"non-greedy backend", "/v1/color", simpleReq},
		{"backend via query", "/v1/color?shards=2&backend=ruling", easyReq(4)},
	}
	for _, c := range cases {
		if status, msg := post(c.path, c.req); status != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", c.name, status, msg)
		}
	}
	// The greedy backend is the one explicit backend sharding composes with.
	ok := easyReq(4)
	ok.Shards = 2
	ok.Backend = "greedy"
	if status, msg := post("/v1/color", ok); status != http.StatusOK {
		t.Fatalf("shards with backend=greedy: status %d (%s)", status, msg)
	}
}

// TestShardChaosNeverServesBadColoring: with a fault-injecting transport
// corrupting cross-cut exchanges or finish reports, the service must answer
// an error — never 200 with an invalid or partial coloring. A job runs
// once, so the injected failure surfaces instead of being healed.
func TestShardChaosNeverServesBadColoring(t *testing.T) {
	for _, mode := range []string{shard.ChaosCorruptExchange, shard.ChaosCorruptFinish, shard.ChaosCrash} {
		t.Run(mode, func(t *testing.T) {
			seed := uint64(0)
			cfg := Config{
				Workers:          1,
				BreakerThreshold: -1,
				shardTransport: func(session string) shard.Transport {
					seed++
					return shard.NewChaosTransport(shard.NewInProcess(),
						shard.ChaosPlan{Mode: mode, Seed: seed, Prob: 1})
				},
			}
			_, cl, _ := newTestServer(t, cfg)
			resp, err := cl.Color(context.Background(), shardReq(3))
			if err == nil {
				t.Fatalf("%s: corrupted sharded run answered 200: %+v", mode, resp)
			}
			var apiErr *APIError
			if !errors.As(err, &apiErr) {
				t.Fatalf("%s: %v", mode, err)
			}
			if apiErr.StatusCode != http.StatusInternalServerError {
				t.Fatalf("%s: status %d, want 500", mode, apiErr.StatusCode)
			}
			if apiErr.Resp != nil && apiErr.Resp.State == "done" {
				t.Fatalf("%s: failed status carries a done response", mode)
			}
		})
	}
}

// TestShardRoundsEndpointRefusesGarbage: the worker endpoint answers
// protocol failures inside a 200 response frame (so coordinators can
// reconstruct typed violations), refuses oversized graphs the same way, and
// answers every first record that does not decode — including a JSON body
// from a coordinator of another wire version — or that exceeds
// MaxBodyBytes with 400 and a text body. Each body is one record on a
// stream; post strips the record envelope from a 200 answer.
func TestShardRoundsEndpointRefusesGarbage(t *testing.T) {
	_, cl, _ := newTestServer(t, Config{Workers: 1, MaxVertices: 100})
	postRaw := func(body []byte) (int, string, []byte) {
		t.Helper()
		hr, err := http.Post(cl.BaseURL+shard.StreamPath, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer hr.Body.Close()
		raw, err := io.ReadAll(hr.Body)
		if err != nil {
			t.Fatal(err)
		}
		return hr.StatusCode, hr.Header.Get("Content-Type"), raw
	}
	post := func(frame []byte) (int, string, []byte) {
		t.Helper()
		status, ctype, raw := postRaw(append(binary.AppendUvarint(nil, uint64(len(frame))), frame...))
		if status == http.StatusOK {
			n, k := binary.Uvarint(raw)
			if k <= 0 || uint64(len(raw)-k) != n {
				t.Fatalf("answer %x is not one record", raw)
			}
			raw = raw[k:]
		}
		return status, ctype, raw
	}
	frame := func(req *shard.RoundsRequest) []byte {
		t.Helper()
		b, err := shard.EncodeRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	step := frame(&shard.RoundsRequest{Op: "step", Session: "ghost", Updates: []shard.Update{{V: 1, C: 2}}})
	initFrame := frame(&shard.RoundsRequest{Op: "init", Session: "s", ParentN: 3, Graph: make([]byte, 20), ToParent: []int32{0, 1, 2}})

	badVersion := bytes.Clone(step)
	badVersion[0]++
	// Header, empty session, shard 0, then a count of 1<<40 updates
	// followed by a single pair.
	overCount := binary.AppendUvarint([]byte{step[0], step[1], 0, 0}, 1<<40)
	overCount = append(overCount, make([]byte, 8)...)
	for name, body := range map[string][]byte{
		"empty":         nil,
		"json":          []byte(`{"op":"step","session":"ghost","shard":0}`),
		"bad version":   badVersion,
		"truncated":     initFrame[:len(initFrame)/2],
		"count > bytes": overCount,
		"trailing":      append(bytes.Clone(step), 0),
	} {
		status, ctype, raw := post(body)
		if status != http.StatusBadRequest || !strings.HasPrefix(ctype, "text/plain") || !bytes.Contains(raw, []byte("shard:")) {
			t.Errorf("%s: status %d, %s body %q; want 400 with a text body", name, status, ctype, raw)
		}
	}
	// A record declaring more than MaxBodyBytes is refused on its length
	// alone, before its bytes are read or allocated.
	overLimit := binary.AppendUvarint(nil, 32<<20+1)
	if status, ctype, raw := postRaw(overLimit); status != http.StatusBadRequest ||
		!strings.HasPrefix(ctype, "text/plain") || !bytes.Contains(raw, []byte("exceeds the 33554432-byte limit")) {
		t.Errorf("over-limit record: status %d, %s body %q; want 400 naming the limit", status, ctype, raw)
	}

	// Unknown session: a protocol error inside a 200.
	status, _, raw := post(step)
	resp, err := shard.DecodeResponse(raw)
	if status != http.StatusOK || err != nil || resp.OK || !strings.Contains(resp.Error, "unknown session") {
		t.Fatalf("unknown session: status %d resp %+v err %v", status, resp, err)
	}
	// Oversized parent graph: refused before decoding the subgraph.
	status, _, raw = post(frame(&shard.RoundsRequest{Op: "init", Session: "big", ParentN: 101}))
	resp, err = shard.DecodeResponse(raw)
	if status != http.StatusOK || err != nil || resp.OK {
		t.Fatalf("oversized init: status %d resp %+v err %v", status, resp, err)
	}
	if want := fmt.Sprintf("above the %d-vertex limit", 100); !strings.Contains(resp.Error, want) {
		t.Fatalf("oversized init error %q", resp.Error)
	}
}
