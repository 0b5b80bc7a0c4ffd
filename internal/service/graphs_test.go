package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deltacoloring/internal/dynamic"
	"deltacoloring/internal/faults"
	"deltacoloring/internal/local"
)

// doJSON sends a JSON request to the test server and decodes the response.
func doJSON(t *testing.T, ts *httptest.Server, method, path string, body, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, ts.URL+path, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode != http.StatusNoContent {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

func newGraphServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		ts.Close()
	})
	return svc, ts
}

// cycleSpec builds an inline GraphSpec cycle.
func cycleSpec(n int) *GraphSpec {
	spec := &GraphSpec{N: n}
	for v := 0; v < n; v++ {
		spec.Edges = append(spec.Edges, [2]int{v, (v + 1) % n})
	}
	return spec
}

// fetchColoring GETs a graph's coloring, optionally with ?check=1.
func fetchColoring(t *testing.T, ts *httptest.Server, id string, check bool) *ColoringResponse {
	t.Helper()
	path := "/v1/graphs/" + id + "/coloring"
	if check {
		path += "?check=1"
	}
	var cr ColoringResponse
	if code := doJSON(t, ts, "GET", path, nil, &cr); code != http.StatusOK {
		t.Fatalf("GET %s: %d (%s)", path, code, cr.Error)
	}
	return &cr
}

func TestGraphLifecycle(t *testing.T) {
	_, ts := newGraphServer(t, Config{})

	// Create from an inline spec.
	var created GraphResponse
	code := doJSON(t, ts, "POST", "/v1/graphs", &CreateGraphRequest{Graph: cycleSpec(24)}, &created)
	if code != http.StatusCreated || created.ID == "" {
		t.Fatalf("create: %d %+v", code, created)
	}
	if created.Info.N != 24 || !created.Info.Healthy || created.Info.NumColors > 3 {
		t.Fatalf("info: %+v", created.Info)
	}

	// The coloring endpoint serves a valid coloring, checked and unchecked.
	cr := fetchColoring(t, ts, created.ID, true)
	if !cr.Checked || cr.Stale || cr.Version != 1 || len(cr.Colors) != 24 {
		t.Fatalf("coloring: %+v", cr)
	}

	// Mutate: add a chord, expect an incremental batch.
	var mr MutateResponse
	code = doJSON(t, ts, "POST", "/v1/graphs/"+created.ID+"/mutations",
		&MutateRequest{Mutations: []dynamic.Mutation{{Op: dynamic.OpAddEdge, U: 0, V: 12}}}, &mr)
	if code != http.StatusOK || !mr.Healthy || mr.Result == nil {
		t.Fatalf("mutate: %d %+v", code, mr)
	}
	if mr.Result.Mode != dynamic.ModeIncremental || mr.Result.Version != 2 {
		t.Fatalf("result: %+v", mr.Result)
	}
	if cr := fetchColoring(t, ts, created.ID, true); cr.Version != 2 {
		t.Fatalf("coloring after mutate: %+v", cr)
	}

	// A rejected batch is a 400 and leaves the version alone.
	code = doJSON(t, ts, "POST", "/v1/graphs/"+created.ID+"/mutations",
		&MutateRequest{Mutations: []dynamic.Mutation{{Op: dynamic.OpAddEdge, U: 0, V: 12}}}, &mr)
	if code != http.StatusBadRequest || mr.Error == "" {
		t.Fatalf("duplicate add: %d %+v", code, mr)
	}
	if cr := fetchColoring(t, ts, created.ID, false); cr.Version != 2 {
		t.Fatalf("rejected batch advanced version: %+v", cr)
	}
	// The rejection is the client's fault; it must not count as a
	// maintenance failure.
	if resp, err := ts.Client().Get(ts.URL + "/metrics"); err != nil {
		t.Fatal(err)
	} else {
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(raw), "deltaserved_dynamic_failures_total 0") {
			t.Error("validation rejection counted as a maintenance failure")
		}
	}

	// List and info.
	var list struct {
		Graphs []GraphResponse `json:"graphs"`
	}
	if code := doJSON(t, ts, "GET", "/v1/graphs", nil, &list); code != http.StatusOK || len(list.Graphs) != 1 {
		t.Fatalf("list: %d %+v", code, list)
	}
	var info GraphResponse
	if code := doJSON(t, ts, "GET", "/v1/graphs/"+created.ID, nil, &info); code != http.StatusOK {
		t.Fatalf("get: %d", code)
	}
	if info.Stats == nil || info.Stats.Batches != 1 || info.Stats.Incremental != 1 {
		t.Fatalf("stats: %+v", info.Stats)
	}

	// Delete; further use is a 404.
	if code := doJSON(t, ts, "DELETE", "/v1/graphs/"+created.ID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: %d", code)
	}
	if code := doJSON(t, ts, "GET", "/v1/graphs/"+created.ID+"/coloring", nil, &cr); code != http.StatusNotFound {
		t.Fatalf("coloring after delete: %d", code)
	}
}

func TestGraphCreateValidation(t *testing.T) {
	_, ts := newGraphServer(t, Config{MaxGraphs: 1})
	var resp GraphResponse

	// No source, two sources, bad gen.
	if code := doJSON(t, ts, "POST", "/v1/graphs", &CreateGraphRequest{}, &resp); code != http.StatusBadRequest {
		t.Fatalf("no source: %d", code)
	}
	if code := doJSON(t, ts, "POST", "/v1/graphs", &CreateGraphRequest{
		Graph: cycleSpec(4), Gen: &GenSpec{Family: "easy", M: 4, Delta: 4},
	}, &resp); code != http.StatusBadRequest {
		t.Fatalf("two sources: %d", code)
	}
	if code := doJSON(t, ts, "POST", "/v1/graphs", &CreateGraphRequest{
		Gen: &GenSpec{Family: "nope", M: 4, Delta: 4},
	}, &resp); code != http.StatusBadRequest {
		t.Fatalf("bad gen: %d", code)
	}

	// MaxGraphs is enforced with a 409 until a slot frees up.
	if code := doJSON(t, ts, "POST", "/v1/graphs", &CreateGraphRequest{Graph: cycleSpec(6)}, &resp); code != http.StatusCreated {
		t.Fatalf("first create: %d", code)
	}
	if code := doJSON(t, ts, "POST", "/v1/graphs", &CreateGraphRequest{Graph: cycleSpec(6)}, nil); code != http.StatusConflict {
		t.Fatalf("over limit: %d", code)
	}
	if code := doJSON(t, ts, "DELETE", "/v1/graphs/"+resp.ID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: %d", code)
	}
	if code := doJSON(t, ts, "POST", "/v1/graphs", &CreateGraphRequest{Graph: cycleSpec(6)}, &resp); code != http.StatusCreated {
		t.Fatalf("create after delete: %d", code)
	}

	// Oversized batches are rejected up front.
	big := make([]dynamic.Mutation, 5000)
	for i := range big {
		big[i] = dynamic.Mutation{Op: dynamic.OpAddEdge, U: 0, V: 1}
	}
	if code := doJSON(t, ts, "POST", "/v1/graphs/"+resp.ID+"/mutations",
		&MutateRequest{Mutations: big}, nil); code != http.StatusBadRequest {
		t.Fatalf("oversized batch: %d", code)
	}
	// Empty batch too.
	if code := doJSON(t, ts, "POST", "/v1/graphs/"+resp.ID+"/mutations",
		&MutateRequest{}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty batch: %d", code)
	}
}

// TestMutationBatchLimit pins the batch-size bound at its edge: a batch of
// maxMutationsPerBatch mutations applies, one more is a 400 naming both
// sizes, and the refused batch leaves the graph alone.
func TestMutationBatchLimit(t *testing.T) {
	_, ts := newGraphServer(t, Config{})
	var created GraphResponse
	if code := doJSON(t, ts, "POST", "/v1/graphs", &CreateGraphRequest{Graph: cycleSpec(6)}, &created); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	batch := func(n int) *MutateRequest {
		req := &MutateRequest{Mutations: make([]dynamic.Mutation, n)}
		for i := range req.Mutations {
			req.Mutations[i] = dynamic.Mutation{Op: dynamic.OpAddVertex}
		}
		return req
	}
	path := "/v1/graphs/" + created.ID + "/mutations"
	var mr MutateResponse
	if code := doJSON(t, ts, "POST", path, batch(4096), &mr); code != http.StatusOK || !mr.Healthy {
		t.Fatalf("batch of 4096: %d %+v", code, mr)
	}
	mr = MutateResponse{}
	code := doJSON(t, ts, "POST", path, batch(4097), &mr)
	if want := "batch of 4097 exceeds the 4096-mutation limit"; code != http.StatusBadRequest || mr.Error != want {
		t.Fatalf("batch of 4097: %d %q, want 400 %q", code, mr.Error, want)
	}
	if cr := fetchColoring(t, ts, created.ID, true); cr.Version != 2 || len(cr.Colors) != 6+4096 {
		t.Fatalf("after the refused batch: version %d, %d colors", cr.Version, len(cr.Colors))
	}
}

// A stalled apply loop must answer 429 once the bounded queue fills, reads
// must keep serving instantly meanwhile, and the queue must drain cleanly
// once released.
func TestMutationQueueBackpressure(t *testing.T) {
	var calls atomic.Int32
	var armed atomic.Bool
	block := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(block) }) }
	defer release()
	svc, ts := newGraphServer(t, Config{
		MutationQueueDepth: 2,
		dynNetHook: func(net *local.Network) {
			// Let the initial coloring through; once armed, stall every
			// maintenance network.
			if armed.Load() {
				calls.Add(1)
				<-block
			}
		},
	})
	var created GraphResponse
	if code := doJSON(t, ts, "POST", "/v1/graphs", &CreateGraphRequest{Graph: cycleSpec(16)}, &created); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	armed.Store(true)

	// Three batches: one blocks inside Apply, two sit in the queue.
	var wg sync.WaitGroup
	codes := make([]int, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var mr MutateResponse
			codes[i] = doJSON(t, ts, "POST", "/v1/graphs/"+created.ID+"/mutations",
				&MutateRequest{Mutations: []dynamic.Mutation{{Op: dynamic.OpAddEdge, U: i, V: i + 8}}}, &mr)
		}(i)
	}

	// Wait until the loop is provably stalled inside the first Apply with
	// the other two batches filling the depth-2 queue — then one probe must
	// bounce with 429.
	gs, ok := svc.lookupGraph(created.ID)
	if !ok {
		t.Fatal("store vanished")
	}
	deadline := time.Now().Add(10 * time.Second)
	for calls.Load() < 1 || len(gs.jobs) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled (hook calls %d, queued %d)", calls.Load(), len(gs.jobs))
		}
		time.Sleep(2 * time.Millisecond)
	}
	var mr MutateResponse
	if code := doJSON(t, ts, "POST", "/v1/graphs/"+created.ID+"/mutations",
		&MutateRequest{Mutations: []dynamic.Mutation{{Op: dynamic.OpAddEdge, U: 3, V: 11}}}, &mr); code != http.StatusTooManyRequests {
		t.Fatalf("probe on a full queue: %d (%s)", code, mr.Error)
	}

	// Reads do not wait behind the stalled apply loop.
	if cr := fetchColoring(t, ts, created.ID, false); cr.Version != 1 {
		t.Fatalf("read during stall: %+v", cr)
	}

	release()
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("queued batch %d: %d", i, code)
		}
	}
	cr := fetchColoring(t, ts, created.ID, true)
	if cr.Version != 4 || cr.Stale {
		t.Fatalf("after drain: %+v", cr)
	}
	if st := svc.met.dynRejects.Load(); st == 0 {
		t.Fatal("429s were served but not counted")
	}
}

// Chaos at the service boundary: fault plans installed on every dynamic
// maintenance network. The API must never answer 200 with an invalid
// coloring — healthy snapshots verify, unhealthy stores serve last-known-good
// marked stale, and ?check=1 re-proves whatever is served before it goes out.
func TestGraphChaosNeverServesInvalid(t *testing.T) {
	var step atomic.Int32
	_, ts := newGraphServer(t, Config{
		dynNetHook: func(net *local.Network) {
			s := int(step.Add(1)) - 1
			if s == 0 || s%4 == 3 {
				return // clean windows (including the initial coloring)
			}
			p, err := faults.NewPlan(net.Graph(), faults.Config{
				Seed: int64(s), CrashRate: 0.03, DropRate: 0.06, CorruptRate: 0.03,
			})
			if err != nil {
				t.Errorf("fault plan: %v", err)
				return
			}
			net.SetFaults(p)
		},
	})
	var created GraphResponse
	if code := doJSON(t, ts, "POST", "/v1/graphs", &CreateGraphRequest{
		Gen: &GenSpec{Family: "easy", M: 6, Delta: 8},
	}, &created); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	n := created.Info.N
	sawStale, sawFailure := false, false
	for i := 0; i < 40; i++ {
		var mr MutateResponse
		code := doJSON(t, ts, "POST", "/v1/graphs/"+created.ID+"/mutations",
			&MutateRequest{Mutations: []dynamic.Mutation{{Op: dynamic.OpAddEdge, U: (i * 7) % n, V: (i*13 + n/2) % n}}}, &mr)
		switch code {
		case http.StatusOK:
		case http.StatusBadRequest:
			// Edge already present or self-loop from the index arithmetic.
		case http.StatusInternalServerError:
			sawFailure = true
			if mr.Healthy {
				t.Fatalf("mutation %d: failed but store claims healthy", i)
			}
		default:
			t.Fatalf("mutation %d: unexpected status %d (%s)", i, code, mr.Error)
		}

		// Whatever the health, GET ?check=1 must be 200-valid or 503: the
		// server proves the coloring against the oracle before serving it.
		var cr ColoringResponse
		gcode := doJSON(t, ts, "GET", "/v1/graphs/"+created.ID+"/coloring?check=1", nil, &cr)
		switch gcode {
		case http.StatusOK:
			if !cr.Checked {
				t.Fatalf("mutation %d: served without the requested check", i)
			}
			if cr.Stale {
				sawStale = true
			}
		case http.StatusServiceUnavailable:
			// Acceptable: no valid coloring to serve at all.
		default:
			t.Fatalf("mutation %d: coloring status %d (%s)", i, gcode, cr.Error)
		}
	}
	if sawFailure && !sawStale {
		t.Error("maintenance failed but no stale last-known-good was ever served")
	}
}

// Concurrent clients on distinct graphs with interleaved reads: race-clean,
// every store healthy and valid at the end, dynamic metrics exposed.
func TestGraphConcurrentClients(t *testing.T) {
	_, ts := newGraphServer(t, Config{})
	const graphs, rounds = 3, 12
	ids := make([]string, graphs)
	for i := range ids {
		var created GraphResponse
		if code := doJSON(t, ts, "POST", "/v1/graphs", &CreateGraphRequest{Graph: cycleSpec(30 + i)}, &created); code != http.StatusCreated {
			t.Fatalf("create %d: %d", i, code)
		}
		ids[i] = created.ID
	}
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			n := 30 + i
			for r := 0; r < rounds; r++ {
				var mr MutateResponse
				m := dynamic.Mutation{Op: dynamic.OpAddEdge, U: (r * 3) % n, V: (r*3 + n/2) % n}
				code := doJSON(t, ts, "POST", "/v1/graphs/"+id+"/mutations", &MutateRequest{Mutations: []dynamic.Mutation{m}}, &mr)
				if code != http.StatusOK && code != http.StatusBadRequest {
					t.Errorf("graph %s round %d: %d (%s)", id, r, code, mr.Error)
					return
				}
				fetchColoring(t, ts, id, r%3 == 0)
			}
		}(i, id)
	}
	wg.Wait()
	for _, id := range ids {
		if cr := fetchColoring(t, ts, id, true); cr.Stale {
			t.Fatalf("graph %s ended stale", id)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"deltaserved_dynamic_mutations_total",
		"deltaserved_dynamic_graphs 3",
		`deltaserved_dynamic_batches_total{mode="incremental"}`,
		"deltaserved_dynamic_recolor_seconds_count",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// Shutdown drains queued mutation batches before stopping the apply loops,
// and the API refuses new graphs afterwards.
func TestGraphShutdownDrains(t *testing.T) {
	svc := New(Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	var created GraphResponse
	if code := doJSON(t, ts, "POST", "/v1/graphs", &CreateGraphRequest{Graph: cycleSpec(12)}, &created); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if code := doJSON(t, ts, "POST", "/v1/graphs", &CreateGraphRequest{Graph: cycleSpec(12)}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("create after shutdown: %d", code)
	}
	// The surviving store's queue is closed: mutations answer 410.
	if code := doJSON(t, ts, "POST", "/v1/graphs/"+created.ID+"/mutations",
		&MutateRequest{Mutations: []dynamic.Mutation{{Op: dynamic.OpAddEdge, U: 0, V: 6}}}, nil); code != http.StatusGone {
		t.Fatalf("mutate after shutdown: %d", code)
	}
	// Reads still serve the last maintained coloring.
	if cr := fetchColoring(t, ts, created.ID, true); cr.Version != 1 {
		t.Fatalf("read after shutdown: %+v", cr)
	}
}
