package shard

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"deltacoloring/internal/graph"
	"deltacoloring/internal/local"
)

// singleRun is the one-process oracle every sharded run must match.
type singleRun struct {
	colors []int
	rounds int
}

func runSingle(t *testing.T, g *graph.Graph) singleRun {
	t.Helper()
	net := local.New(g)
	defer net.Close()
	colors, rounds, err := SolveSingle(net)
	if err != nil {
		t.Fatalf("SolveSingle: %v", err)
	}
	if err := verifyMerged(g, colors); err != nil {
		t.Fatalf("SolveSingle produced an invalid coloring: %v", err)
	}
	return singleRun{colors: colors, rounds: rounds}
}

// TestShardedBitIdentity is the tentpole contract: at every shard count the
// sharded run returns the same colors AND the same round count as the dense
// single-process engine.
func TestShardedBitIdentity(t *testing.T) {
	for name, g := range testGraphs(t) {
		want := runSingle(t, g)
		for _, k := range testShardCounts {
			t.Run(fmt.Sprintf("%s/k=%d", name, k), func(t *testing.T) {
				res, err := Run(context.Background(), g, Config{K: k})
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				if !reflect.DeepEqual(res.Colors, want.colors) {
					t.Fatalf("colors diverge from the single-process run\n got %v\nwant %v", res.Colors, want.colors)
				}
				if res.Rounds != want.rounds {
					t.Fatalf("rounds = %d, single-process engine used %d", res.Rounds, want.rounds)
				}
				if res.NumColors != g.MaxDegree()+1 {
					t.Fatalf("NumColors = %d, want Δ+1 = %d", res.NumColors, g.MaxDegree()+1)
				}
				if res.Traffic.CutEdges > 0 && res.Traffic.BoundaryUpdates == 0 {
					t.Fatal("cut edges exist but no boundary update ever crossed them")
				}
			})
		}
	}
}

// TestShardedBitIdentityUnderIDPermutation re-checks bit-identity when the
// symmetry-breaking IDs no longer coincide with vertex indices — the case
// that catches any index-based (rather than ID-based) tie-break.
func TestShardedBitIdentityUnderIDPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, base := range []*graph.Graph{
		graph.Grid(7, 6),
		graph.RandomRegular(48, 5, rand.New(rand.NewSource(8))),
		graph.Cycle(33),
	} {
		g := graph.PermuteIDs(base, rng)
		want := runSingle(t, g)
		for _, k := range []int{2, 4} {
			res, err := Run(context.Background(), g, Config{K: k})
			if err != nil {
				t.Fatalf("Run k=%d: %v", k, err)
			}
			if !reflect.DeepEqual(res.Colors, want.colors) || res.Rounds != want.rounds {
				t.Fatalf("permuted-ID run diverges at k=%d: rounds %d vs %d", k, res.Rounds, want.rounds)
			}
		}
	}
}

// newTestCluster serves count independent worker Hosts over HTTP and returns
// their base URLs.
func newTestCluster(t *testing.T, count int) []string {
	t.Helper()
	addrs := make([]string, count)
	for i := 0; i < count; i++ {
		srv := httptest.NewServer(serveHost(NewHost(0)))
		t.Cleanup(srv.Close)
		addrs[i] = srv.URL
	}
	return addrs
}

// TestShardedBitIdentityOverHTTP runs the full wire protocol — binary
// request and response frames carrying the CSR subgraphs and every round's
// exchange — against real HTTP worker processes and demands the same
// bit-identity the in-process transport has, with hosts carrying equal and
// unequal shard counts.
func TestShardedBitIdentityOverHTTP(t *testing.T) {
	for _, tc := range []struct{ k, workers int }{
		{1, 1}, {2, 2}, {4, 2}, {4, 4}, {3, 5}, {5, 2}, {7, 3},
	} {
		t.Run(fmt.Sprintf("k=%d/workers=%d", tc.k, tc.workers), func(t *testing.T) {
			g := graph.PermuteIDs(graph.Grid(8, 5), rand.New(rand.NewSource(21)))
			want := runSingle(t, g)
			tr, err := NewHTTPTransport(newTestCluster(t, tc.workers), "bit-identity", nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(context.Background(), g, Config{K: tc.k, Transport: tr})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if !reflect.DeepEqual(res.Colors, want.colors) {
				t.Fatal("HTTP cluster colors diverge from the single-process run")
			}
			if res.Rounds != want.rounds {
				t.Fatalf("HTTP cluster rounds = %d, want %d", res.Rounds, want.rounds)
			}
		})
	}
}

// TestHTTPTransportRefusesForeignWire: a worker that does not speak this
// wire fails the run on its first call with its own reason, well under the
// call deadline, whether it refuses the request (a 400 on a body it cannot
// parse), answers with bytes that are not a response record, or does not
// serve the stream path at all. The last stands for a worker of a wire with
// one POST per call, which reads a body to its end before answering: on the
// path it serves, a stream would hang it until the deadline.
func TestHTTPTransportRefusesForeignWire(t *testing.T) {
	oldWire := http.NewServeMux()
	oldWire.HandleFunc("POST /v1/shard/call", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
	})
	for name, tc := range map[string]struct {
		handler http.Handler
		want    string
	}{
		"refused":    {answer(http.StatusBadRequest, `{"error":"invalid JSON body"}`), "answered 400: {\"error\":\"invalid JSON body\"}"},
		"misfiled":   {answer(http.StatusOK, `{"ok":true}`), "bad response"},
		"not served": {oldWire, "answered 404"},
	} {
		for _, client := range []*http.Client{nil, oneConnClient(t)} {
			srv := httptest.NewServer(tc.handler)
			tr, err := NewHTTPTransport([]string{srv.URL}, "foreign", client)
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			_, err = Run(context.Background(), graph.Grid(4, 4), Config{K: 2, Transport: tr, CallTimeout: 10 * time.Second})
			d := time.Since(start)
			srv.Close()
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "shard 0 init") {
				t.Errorf("%s: err = %v, want shard 0's init to fail with %q", name, err, tc.want)
			}
			if d > 2*time.Second {
				t.Errorf("%s: failing took %v", name, d)
			}
		}
	}
}

// answer is a handler that ignores the request and writes status and body.
func answer(status int, body string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(status)
		_, _ = w.Write([]byte(body))
	})
}

// TestHostSessionLifecycle pins the worker host's bookkeeping through one
// stream's worker table: workers are counted while held and dropped on
// finish and abort, and shards another stream opened are refused.
func TestHostSessionLifecycle(t *testing.T) {
	g := graph.Grid(5, 4)
	p, err := BuildPartition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	host := NewHost(0)
	stream := host.newStreamTable()
	initReq := func(s int) *RoundsRequest {
		part := &p.Parts[s]
		var req RoundsRequest
		req.Op = "init"
		req.Session = "t"
		req.Shard = s
		req.Graph, req.ToParent, req.Locals, req.ParentN, req.Delta = encodePartWire(t, part, g)
		return &req
	}
	for s := 0; s < p.K; s++ {
		if resp := host.handle(initReq(s), stream); !resp.OK {
			t.Fatalf("init shard %d: %s", s, resp.Error)
		}
	}
	if host.Sessions() != p.K {
		t.Fatalf("Sessions = %d, want %d", host.Sessions(), p.K)
	}
	other := host.newStreamTable()
	if resp := host.handle(&RoundsRequest{Op: "step", Session: "nope", Shard: 0}, other); resp.Error == "" {
		t.Fatal("another stream's shard accepted")
	} else if !strings.Contains(resp.Error, `session "nope"`) {
		t.Fatalf("refusal %q does not name the session", resp.Error)
	}
	if resp := host.handle(&RoundsRequest{Op: "bogus"}, stream); resp.Error == "" {
		t.Fatal("unknown op accepted")
	}
	if resp := host.handle(&RoundsRequest{Op: "finish", Session: "t", Shard: 0}, stream); resp.OK {
		t.Fatal("finish of a shard that never stepped succeeded")
	}
	host.handle(&RoundsRequest{Op: "abort", Session: "t", Shard: 0}, stream)
	host.handle(&RoundsRequest{Op: "abort", Session: "t", Shard: 1}, stream)
	if host.Sessions() != 0 {
		t.Fatalf("Sessions = %d after finish and abort, want 0", host.Sessions())
	}
}

// TestHostRefusesOverCapInit: a bare Host served over HTTP refuses an init
// announcing a parent graph above its vertex cap (one record on a stream),
// inside a 200 response frame and before the announced size allocates anything; an init at the
// cap passes admission and fails only on its (empty) subgraph.
func TestHostRefusesOverCapInit(t *testing.T) {
	srv := httptest.NewServer(serveHost(NewHost(100)))
	defer srv.Close()
	post := func(parentN int) *RoundsResponse {
		t.Helper()
		body, err := EncodeRequest(&RoundsRequest{Op: "init", Session: "big", ParentN: parentN})
		if err != nil {
			t.Fatal(err)
		}
		hresp, err := http.Post(srv.URL+StreamPath, frameContentType, bytes.NewReader(appendRecord(nil, body)))
		if err != nil {
			t.Fatal(err)
		}
		defer hresp.Body.Close()
		raw := new(bytes.Buffer)
		if _, err := raw.ReadFrom(hresp.Body); err != nil {
			t.Fatal(err)
		}
		if hresp.StatusCode != http.StatusOK {
			t.Fatalf("n=%d: status %d, want 200", parentN, hresp.StatusCode)
		}
		frame, err := readRecord(bufio.NewReader(raw), math.MaxInt64, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := DecodeResponse(frame)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	over := post(101)
	if want := "shard parent graph has n=101, above the 100-vertex limit"; over.OK || over.Error != want {
		t.Fatalf("over-cap init: %+v, want error %q", over, want)
	}
	at := post(100)
	if at.OK || strings.Contains(at.Error, "vertex limit") || !strings.Contains(at.Error, "bad shard graph") {
		t.Fatalf("at-cap init: %+v, want only the empty subgraph refused", at)
	}
}

func encodePartWire(t *testing.T, part *Part, g *graph.Graph) (enc []byte, toParent, locals []int32, parentN, delta int) {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.EncodeBinary(&buf, part.Sub.G); err != nil {
		t.Fatal(err)
	}
	toParent = make([]int32, len(part.Sub.ToParent))
	for i, pv := range part.Sub.ToParent {
		toParent[i] = int32(pv)
	}
	return buf.Bytes(), toParent, part.Locals, g.N(), g.MaxDegree()
}
