package service

import (
	"bytes"
	"context"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"deltacoloring/internal/durable"
	"deltacoloring/internal/dynamic"
)

// waitReady polls /readyz until the server reports ready or the deadline
// passes.
func waitReady(t *testing.T, ts *httptest.Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := ts.Client().Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("server never became ready")
}

// mutateBody builds a single-edge-add batch body.
func mutateBody(u, v int) *MutateRequest {
	return &MutateRequest{Mutations: []dynamic.Mutation{{Op: dynamic.OpAddEdge, U: u, V: v}}}
}

func TestDurableRestartRoundTrip(t *testing.T) {
	dataDir := t.TempDir()
	cfg := Config{Workers: 1, DataDir: dataDir, CheckpointEvery: -1}

	svc := New(cfg)
	ts := httptest.NewServer(svc.Handler())
	waitReady(t, ts)

	var created GraphResponse
	if code := doJSON(t, ts, "POST", "/v1/graphs", &CreateGraphRequest{Graph: cycleSpec(24)}, &created); code != http.StatusCreated {
		t.Fatalf("create: %d (%s)", code, created.Error)
	}
	var mr MutateResponse
	for i := 0; i < 4; i++ {
		if code := doJSON(t, ts, "POST", "/v1/graphs/"+created.ID+"/mutations",
			mutateBody(i, i+7), &mr); code != http.StatusOK {
			t.Fatalf("mutate %d: %d (%s)", i, code, mr.Error)
		}
	}
	before := fetchColoring(t, ts, created.ID, true)

	// Graceful shutdown: final checkpoint, so restart replays nothing —
	// but the durable state must round-trip either way.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	ts.Close()

	svc2 := New(cfg)
	ts2 := httptest.NewServer(svc2.Handler())
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := svc2.Shutdown(ctx); err != nil {
			t.Errorf("shutdown 2: %v", err)
		}
		ts2.Close()
	}()
	waitReady(t, ts2)

	// The graph survives under its old ID with its version intact.
	after := fetchColoring(t, ts2, created.ID, true)
	if after.Version != before.Version || after.N != before.N {
		t.Fatalf("recovered coloring diverged: %+v vs %+v", after, before)
	}
	// Readiness carries the per-graph recovery report.
	resp, err := ts2.Client().Get(ts2.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if !strings.Contains(body, created.ID) {
		t.Fatalf("/readyz missing recovery report for %s:\n%s", created.ID, body)
	}

	// Mutations keep working, and a new graph gets an ID above the
	// recovered one (the allocator was advanced past it).
	if code := doJSON(t, ts2, "POST", "/v1/graphs/"+created.ID+"/mutations",
		mutateBody(1, 9), &mr); code != http.StatusOK {
		t.Fatalf("post-recovery mutate: %d (%s)", code, mr.Error)
	}
	var fresh GraphResponse
	if code := doJSON(t, ts2, "POST", "/v1/graphs", &CreateGraphRequest{Graph: cycleSpec(6)}, &fresh); code != http.StatusCreated {
		t.Fatalf("post-recovery create: %d (%s)", code, fresh.Error)
	}
	if fresh.ID <= created.ID {
		t.Fatalf("fresh ID %s not above recovered %s", fresh.ID, created.ID)
	}

	// WAL and recovery metrics are exposed.
	resp, err = ts2.Client().Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := readAll(t, resp)
	for _, want := range []string{
		"deltaserved_wal_appends_total", "deltaserved_wal_checkpoints_total",
		"deltaserved_recovery_graphs_total 1", "deltaserved_recovery_failed_total 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}

func TestUncleanRestartReplaysWAL(t *testing.T) {
	dataDir := t.TempDir()
	cfg := Config{Workers: 1, DataDir: dataDir, CheckpointEvery: -1}

	svc := New(cfg)
	ts := httptest.NewServer(svc.Handler())
	waitReady(t, ts)
	var created GraphResponse
	if code := doJSON(t, ts, "POST", "/v1/graphs", &CreateGraphRequest{Graph: cycleSpec(16)}, &created); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	var mr MutateResponse
	for i := 0; i < 3; i++ {
		if code := doJSON(t, ts, "POST", "/v1/graphs/"+created.ID+"/mutations",
			mutateBody(i, i+5), &mr); code != http.StatusOK {
			t.Fatalf("mutate %d: %d", i, code)
		}
	}
	before := fetchColoring(t, ts, created.ID, false)
	// Unclean stop: no Shutdown, just drop the server (its WAL records were
	// fsynced per batch under the default policy). The apply loops leak in
	// this test process, harmlessly idle; a real crash is exercised by the
	// restart chaos harness.
	ts.Close()

	svc2 := New(cfg)
	ts2 := httptest.NewServer(svc2.Handler())
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc2.Shutdown(ctx)
		ts2.Close()
	}()
	waitReady(t, ts2)
	after := fetchColoring(t, ts2, created.ID, true)
	if after.Version != before.Version {
		t.Fatalf("replayed version %d, want %d", after.Version, before.Version)
	}
	resp, err := ts2.Client().Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := readAll(t, resp)
	if !strings.Contains(metrics, "deltaserved_recovery_replayed_total 3") {
		t.Fatalf("expected 3 replayed records in /metrics:\n%s",
			grepLines(metrics, "deltaserved_recovery"))
	}
}

func grepLines(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

func TestReadinessGating(t *testing.T) {
	svc, ts := newGraphServer(t, Config{Workers: 1})
	// Force the recovering state: every graph endpoint must shed with 503 +
	// Retry-After while /livez stays 200.
	svc.recovering.Store(true)
	for _, probe := range []struct {
		method, path string
		body         any
	}{
		{"POST", "/v1/graphs", &CreateGraphRequest{Graph: cycleSpec(6)}},
		{"POST", "/v1/graphs/g000001/mutations", mutateBody(0, 2)},
		{"DELETE", "/v1/graphs/g000001", nil},
	} {
		var resp ColorResponse
		if code := doJSON(t, ts, probe.method, probe.path, probe.body, &resp); code != http.StatusServiceUnavailable {
			t.Fatalf("%s %s during recovery: %d, want 503", probe.method, probe.path, code)
		}
	}
	hresp, err := ts.Client().Get(ts.URL + "/livez")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("/livez during recovery: %d, want 200", hresp.StatusCode)
	}
	rresp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during recovery: %d, want 503", rresp.StatusCode)
	}
	if rresp.Header.Get("Retry-After") == "" {
		t.Fatal("/readyz 503 without Retry-After")
	}

	svc.recovering.Store(false)
	waitReady(t, ts)
	var created GraphResponse
	if code := doJSON(t, ts, "POST", "/v1/graphs", &CreateGraphRequest{Graph: cycleSpec(6)}, &created); code != http.StatusCreated {
		t.Fatalf("create after recovery: %d", code)
	}
}

// TestDeleteDrainsInFlightMutations is the regression test for the delete
// race: deleting a graph while mutation batches are in flight must drain the
// apply loop before tearing down durable state, so every batch gets a
// definitive answer and the directory removal cannot race an append.
func TestDeleteDrainsInFlightMutations(t *testing.T) {
	dataDir := t.TempDir()
	svc, ts := newGraphServer(t, Config{Workers: 1, DataDir: dataDir, MutationQueueDepth: 64})
	waitReady(t, ts)
	var created GraphResponse
	if code := doJSON(t, ts, "POST", "/v1/graphs", &CreateGraphRequest{Graph: cycleSpec(32)}, &created); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}

	const writers = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	codes := make([][]int, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < 10; i++ {
				var mr MutateResponse
				code := doJSON(t, ts, "POST", "/v1/graphs/"+created.ID+"/mutations",
					mutateBody((w*11+i)%32, (w*7+i*3+1)%32), &mr)
				codes[w] = append(codes[w], code)
			}
		}(w)
	}
	close(start)
	time.Sleep(2 * time.Millisecond) // let some batches reach the queue
	if code := doJSON(t, ts, "DELETE", "/v1/graphs/"+created.ID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: %d", code)
	}
	wg.Wait()

	// Every batch got a definitive status: applied, rejected by validation,
	// or turned away because the graph was gone/closing — never a hang, and
	// never an internal error from racing the teardown.
	for w, cs := range codes {
		for i, code := range cs {
			switch code {
			case http.StatusOK, http.StatusBadRequest, http.StatusNotFound,
				http.StatusGone, http.StatusTooManyRequests:
			default:
				t.Fatalf("writer %d batch %d: unexpected status %d", w, i, code)
			}
		}
	}
	// The durable directory is gone (atomically, tombstone included).
	if _, err := os.Stat(filepath.Join(dataDir, created.ID)); !os.IsNotExist(err) {
		t.Fatalf("durable dir survived delete: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dataDir, created.ID+".deleting")); !os.IsNotExist(err) {
		t.Fatal("deletion tombstone left behind")
	}
	_ = svc
}

// TestFailedRecoveryReservesItsID: a graph directory whose checkpoint does
// not load (here a torn one) is reported under /readyz and left as it is,
// and its ID stays taken: the next graph gets the ID after it.
func TestFailedRecoveryReservesItsID(t *testing.T) {
	dataDir := t.TempDir()
	cfg := Config{Workers: 1, DataDir: dataDir, CheckpointEvery: -1}
	svc := New(cfg)
	ts := httptest.NewServer(svc.Handler())
	waitReady(t, ts)
	var created GraphResponse
	if code := doJSON(t, ts, "POST", "/v1/graphs", &CreateGraphRequest{Graph: cycleSpec(8)}, &created); code != http.StatusCreated || created.ID != "g000001" {
		t.Fatalf("create: %d %q (%s)", code, created.ID, created.Error)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ts.Close()

	dir := filepath.Join(dataDir, "g000001")
	ckpt := filepath.Join(dir, durable.CheckpointFile)
	b, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, b[:len(b)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirBytes(t, dir)

	_, ts2 := newGraphServer(t, cfg)
	waitReady(t, ts2)
	var next GraphResponse
	if code := doJSON(t, ts2, "POST", "/v1/graphs", &CreateGraphRequest{Graph: cycleSpec(6)}, &next); code != http.StatusCreated || next.ID != "g000002" {
		t.Fatalf("create after a failed recovery: %d %q (%s), want 201 g000002", code, next.ID, next.Error)
	}
	var ready struct {
		Recovery []GraphRecovery `json:"recovery"`
	}
	doJSON(t, ts2, "GET", "/readyz", nil, &ready)
	if len(ready.Recovery) != 1 || ready.Recovery[0].ID != "g000001" || !strings.Contains(ready.Recovery[0].Error, "torn body") {
		t.Fatalf("/readyz recovery = %+v, want g000001's checkpoint error", ready.Recovery)
	}
	if after := dirBytes(t, dir); !maps.EqualFunc(before, after, bytes.Equal) {
		t.Fatal("the failed directory changed")
	}
}

// dirBytes reads every file in dir.
func dirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(ents))
	for _, e := range ents {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}
