package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deltacoloring"
)

// newTestServer spins up a service plus an httptest front end; the caller
// gets a client and a shutdown func (safe to call twice).
func newTestServer(t *testing.T, cfg Config) (*Server, *Client, func()) {
	t.Helper()
	svc := New(cfg)
	ts := httptest.NewServer(svc.Handler())
	var once sync.Once
	stop := func() {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := svc.Shutdown(ctx); err != nil {
				t.Errorf("Shutdown: %v", err)
			}
			ts.Close()
		})
	}
	t.Cleanup(stop)
	return svc, NewClient(ts.URL), stop
}

func easyReq(k int) *ColorRequest {
	return &ColorRequest{Gen: &GenSpec{Family: "easy", M: k, Delta: 16}}
}

func mustVerify(t *testing.T, g *deltacoloring.Graph, resp *ColorResponse) {
	t.Helper()
	if resp.State != "done" {
		t.Fatalf("state %q, error %q", resp.State, resp.Error)
	}
	if err := deltacoloring.Verify(g, resp.Colors); err != nil {
		t.Fatalf("invalid coloring: %v", err)
	}
}

func TestSyncColor(t *testing.T) {
	_, cl, _ := newTestServer(t, Config{Workers: 2})
	resp, err := cl.Color(context.Background(), easyReq(4))
	if err != nil {
		t.Fatal(err)
	}
	mustVerify(t, deltacoloring.GenEasyCliqueRing(4, 16), resp)
	if resp.N != 64 || resp.Delta != 16 || resp.Rounds <= 0 || len(resp.Spans) == 0 {
		t.Fatalf("summary wrong: %+v", resp)
	}
}

func TestRandAlgo(t *testing.T) {
	_, cl, _ := newTestServer(t, Config{Workers: 2})
	req := easyReq(4)
	req.Algo = "rand"
	req.Seed = 3
	resp, err := cl.Color(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	mustVerify(t, deltacoloring.GenEasyCliqueRing(4, 16), resp)
	if resp.Shatter == nil {
		t.Fatal("randomized run missing shattering stats")
	}
}

// The canonical hash keys the cache by structure, so the same graph sent as
// an inline spec and as an edge-list text shares one entry.
func TestCacheHitAcrossSources(t *testing.T) {
	_, cl, _ := newTestServer(t, Config{Workers: 2})
	g := deltacoloring.GenEasyCliqueRing(4, 16)
	spec := &GraphSpec{N: g.N()}
	var el strings.Builder
	fmt.Fprintln(&el, g.N())
	for _, e := range g.Edges() {
		spec.Edges = append(spec.Edges, [2]int{e.U, e.V})
		fmt.Fprintln(&el, e.U, e.V)
	}

	first, err := cl.Color(context.Background(), &ColorRequest{Graph: spec})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first request cannot be cached")
	}
	second, err := cl.Color(context.Background(), &ColorRequest{EdgeList: el.String()})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("identical graph via edge_list missed the cache")
	}
	mustVerify(t, g, second)

	// A different seed under algo=rand is a different key.
	r1 := &ColorRequest{Graph: spec, Algo: "rand", Seed: 1}
	if resp, err := cl.Color(context.Background(), r1); err != nil || resp.Cached {
		t.Fatalf("rand seed 1: cached=%v err=%v", resp != nil && resp.Cached, err)
	}
	r2 := &ColorRequest{EdgeList: el.String(), Algo: "rand", Seed: 2}
	if resp, err := cl.Color(context.Background(), r2); err != nil || resp.Cached {
		t.Fatalf("rand seed 2 must not hit seed 1's entry: cached=%v err=%v", resp != nil && resp.Cached, err)
	}
}

// check=1 attaches the conformance harness: the response must report phase
// checker firings plus the oracle cross-check, the coloring must stay
// bit-identical to the unchecked run, and checked/unchecked results must not
// share cache entries.
func TestCheckMode(t *testing.T) {
	_, cl, _ := newTestServer(t, Config{Workers: 2})
	plain, err := cl.Color(context.Background(), easyReq(4))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Checks != 0 || plain.CheckPhases != nil {
		t.Fatalf("unchecked run reported checks: %+v", plain)
	}

	req := easyReq(4)
	req.Check = true
	checked, err := cl.Color(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	mustVerify(t, deltacoloring.GenEasyCliqueRing(4, 16), checked)
	if checked.Cached {
		t.Fatal("checked run must not hit the unchecked cache entry")
	}
	if checked.Checks <= 0 {
		t.Fatalf("checked run reported %d checks", checked.Checks)
	}
	want := map[string]bool{"final": false, "oracle": false}
	for _, p := range checked.CheckPhases {
		if _, ok := want[p]; ok {
			want[p] = true
		}
	}
	for p, seen := range want {
		if !seen {
			t.Fatalf("check_phases %v missing %q", checked.CheckPhases, p)
		}
	}
	if !slicesEqual(plain.Colors, checked.Colors) {
		t.Fatal("checked run not bit-identical to unchecked run")
	}

	// The query-param spelling reaches the same path.
	body, _ := json.Marshal(easyReq(4))
	hr, err := http.Post(cl.BaseURL+"/v1/color?check=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var qresp ColorResponse
	if err := json.NewDecoder(hr.Body).Decode(&qresp); err != nil {
		t.Fatal(err)
	}
	if qresp.State != "done" || qresp.Checks <= 0 {
		t.Fatalf("?check=1 response: %+v", qresp)
	}
	if !qresp.Cached {
		t.Fatal("second checked run of the same graph should hit the checked cache entry")
	}

	// Checked randomized runs keep their shattering stats.
	rreq := easyReq(4)
	rreq.Algo, rreq.Seed, rreq.Check = "rand", 3, true
	rresp, err := cl.Color(context.Background(), rreq)
	if err != nil {
		t.Fatal(err)
	}
	if rresp.Shatter == nil || rresp.Checks <= 0 {
		t.Fatalf("checked rand run: shatter=%v checks=%d", rresp.Shatter, rresp.Checks)
	}
}

func slicesEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBadRequests(t *testing.T) {
	_, cl, _ := newTestServer(t, Config{Workers: 1})
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(cl.BaseURL+"/v1/color", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var cr ColorResponse
		if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
			t.Fatalf("error body not JSON: %v", err)
		}
		if resp.StatusCode >= 400 && cr.Error == "" {
			t.Fatalf("error response without message: %q", body)
		}
		return resp.StatusCode
	}
	cases := []string{
		`{not json`,
		`{}`,
		`{"gen": {"family": "easy", "m": 4, "delta": 16}, "edge_list": "2\n0 1\n"}`,
		`{"algo": "quantum", "gen": {"family": "easy", "m": 4, "delta": 16}}`,
		`{"gen": {"family": "cursed", "m": 4, "delta": 16}}`,
		`{"gen": {"family": "easy", "m": 1, "delta": 16}}`,
		`{"gen": {"family": "hard", "m": 2, "delta": 16}}`,
		`{"gen": {"family": "mixed", "m": 2, "delta": 2}}`,
		`{"edge_list": "2\n0 5\n"}`,
		`{"edge_list": "x\n"}`,
		`{"graph": {"n": 3, "edges": [[0, 9]]}}`,
		`{"timeout_ms": -5, "gen": {"family": "easy", "m": 4, "delta": 16}}`,
		`{"gen": {"family": "easy", "m": 4, "delta": 16}, "surprise": 1}`,
		`{"edge_list": "99999999\n"}`,
		`{"graph": {"n": 99999999, "edges": []}}`,
		`{"gen": {"family": "hard", "m": 99999999, "delta": 16}}`,
	}
	for _, body := range cases {
		if got := post(body); got != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, got)
		}
	}
}

func TestNotDenseMapsTo422(t *testing.T) {
	_, cl, _ := newTestServer(t, Config{Workers: 1})
	// A star is maximally sparse: the ACD rejects it with ErrNotDense.
	req := &ColorRequest{EdgeList: "9\n0 1\n0 2\n0 3\n0 4\n0 5\n0 6\n0 7\n0 8\n"}
	_, err := cl.Color(context.Background(), req)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("want 422 APIError, got %v", err)
	}
	if apiErr.Resp == nil || apiErr.Resp.State != "failed" || apiErr.Resp.Error == "" {
		t.Fatalf("error body: %+v", apiErr.Resp)
	}
}

// TestLemmaRefusalMapsTo422: the deterministic pipeline refuses
// HardCliqueBipartite(48,48) under the scaled preset (Lemma 13's incoming
// bound fails). Every request answers 422 after one attempt, and the
// breaker, which counts server faults, stays
// closed however often it is asked.
func TestLemmaRefusalMapsTo422(t *testing.T) {
	var attempts atomic.Int64
	cfg := Config{Workers: 1, BreakerThreshold: 2}
	cfg.runHook = func(work) { attempts.Add(1) }
	svc, cl, _ := newTestServer(t, cfg)
	const requests = 3
	for i := 1; i <= requests; i++ {
		_, err := cl.Color(context.Background(), &ColorRequest{Gen: &GenSpec{Family: "hard", M: 48, Delta: 48}, Algo: "det", NoCache: true})
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("request %d: want 422 APIError, got %v", i, err)
		}
		if apiErr.Resp == nil || !strings.Contains(apiErr.Resp.Error, "Lemma 13 violated") {
			t.Fatalf("request %d: error body %+v, want the Lemma 13 refusal", i, apiErr.Resp)
		}
		if got := attempts.Load(); got != int64(i) {
			t.Fatalf("request %d: %d attempts in all, want one per request", i, got)
		}
	}
	if state, opens := svc.breaker.snapshot(); state != breakerClosed || opens != 0 {
		t.Fatalf("breaker state %d after %d opens, want closed and never opened", state, opens)
	}
}

func TestAsyncJobLifecycle(t *testing.T) {
	_, cl, _ := newTestServer(t, Config{Workers: 2})
	req := easyReq(6)
	req.Async = true
	acc, err := cl.Color(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if acc.JobID == "" || (acc.State != "queued" && acc.State != "running") {
		t.Fatalf("async accept: %+v", acc)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	final, err := cl.Wait(ctx, acc.JobID, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	mustVerify(t, deltacoloring.GenEasyCliqueRing(6, 16), final)
	if final.JobID != acc.JobID {
		t.Fatalf("job id changed: %q -> %q", acc.JobID, final.JobID)
	}

	if _, err := cl.Job(context.Background(), "j99999999"); err == nil {
		t.Fatal("unknown job must 404")
	} else if apiErr := new(APIError); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %v", err)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	cfg := Config{Workers: 1, QueueDepth: 1}
	cfg.runHook = func(w work) {
		started <- w.job.id
		<-release
	}
	_, cl, _ := newTestServer(t, cfg)

	submit := func() (*ColorResponse, error) {
		req := easyReq(4)
		req.Async = true
		req.NoCache = true
		return cl.Color(context.Background(), req)
	}
	first, err := submit()
	if err != nil {
		t.Fatal(err)
	}
	<-started // the only worker is now blocked inside first's run
	second, err := submit()
	if err != nil {
		t.Fatal(err)
	}
	_, err = submit() // worker busy + queue slot taken -> 429
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("want 429, got %v", err)
	}
	if apiErr.RetryAfter <= 0 {
		t.Fatal("429 must carry Retry-After")
	}
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, id := range []string{first.JobID, second.JobID} {
		resp, err := cl.Wait(ctx, id, 2*time.Millisecond)
		if err != nil || resp.State != "done" {
			t.Fatalf("job %s after release: %+v, %v", id, resp, err)
		}
	}
}

func TestDeadlineExceeded(t *testing.T) {
	cfg := Config{Workers: 1}
	cfg.runHook = func(work) { time.Sleep(50 * time.Millisecond) }
	_, cl, _ := newTestServer(t, cfg)
	req := easyReq(4)
	req.TimeoutMS = 10
	req.NoCache = true
	_, err := cl.Color(context.Background(), req)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("want 504, got %v", err)
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	var ran atomic.Int32
	cfg := Config{Workers: 2, QueueDepth: 16}
	cfg.runHook = func(work) { ran.Add(1); time.Sleep(3 * time.Millisecond) }
	svc, cl, stop := newTestServer(t, cfg)

	ids := make([]string, 0, 6)
	for i := 0; i < 6; i++ {
		req := easyReq(4 + i%3)
		req.Async = true
		req.NoCache = true
		resp, err := cl.Color(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, resp.JobID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// Every accepted job must have been drained to completion.
	if got := ran.Load(); got != 6 {
		t.Fatalf("ran %d of 6 accepted jobs", got)
	}
	for _, id := range ids {
		resp, err := cl.Job(context.Background(), id)
		if err != nil || resp.State != "done" {
			t.Fatalf("job %s after drain: %+v, %v", id, resp, err)
		}
	}
	// The closed server refuses new work but still answers polls.
	if err := cl.Healthz(context.Background()); err == nil {
		t.Fatal("healthz must fail after shutdown")
	}
	_, err := cl.Color(context.Background(), easyReq(4))
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown POST: want 503, got %v", err)
	}
	stop()
}

var metricLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_]+="(\\.|[^"\\])*"(,[a-zA-Z_]+="(\\.|[^"\\])*")*\})? (-?[0-9.e+-]+|\+Inf|NaN)$`)

// scrapeMetrics fetches /metrics, validates every line against the
// Prometheus text format, and returns the samples keyed by full name
// (including the label part).
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !metricLine.MatchString(line) {
			t.Fatalf("malformed metrics line: %q", line)
		}
		sp := strings.LastIndex(line, " ")
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		samples[line[:sp]] = v
	}
	return samples
}

func TestMetricsExposition(t *testing.T) {
	svc, cl, _ := newTestServer(t, Config{Workers: 2})
	if _, err := cl.Color(context.Background(), easyReq(4)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Color(context.Background(), easyReq(4)); err != nil {
		t.Fatal(err)
	}
	m := scrapeMetrics(t, cl.BaseURL)

	for _, name := range []string{
		"deltaserved_jobs_started_total",
		"deltaserved_jobs_completed_total",
		"deltaserved_jobs_failed_total",
		"deltaserved_jobs_rejected_total",
		"deltaserved_cache_hits_total",
		"deltaserved_cache_misses_total",
		"deltaserved_queue_depth",
		"deltaserved_workers",
		"deltaserved_jobs_retained",
		"deltaserved_retained_bytes",
		"deltaserved_job_duration_seconds_sum",
	} {
		if _, ok := m[name]; !ok {
			t.Errorf("missing metric %s", name)
		}
	}
	// One job ran (the second request hit the cache): its record and its
	// cache entry hold one response, counted once.
	jobs, bytes := svc.retained()
	if m["deltaserved_jobs_retained"] != 1 || jobs != 1 {
		t.Errorf("deltaserved_jobs_retained = %v (server %d), want 1", m["deltaserved_jobs_retained"], jobs)
	}
	if walked := walkRetained(svc); m["deltaserved_retained_bytes"] != float64(walked) || bytes != walked || walked == 0 {
		t.Errorf("deltaserved_retained_bytes = %v (ledger %d), a walk finds %d", m["deltaserved_retained_bytes"], bytes, walked)
	}
	if m["deltaserved_jobs_completed_total"] < 1 || m["deltaserved_cache_hits_total"] < 1 {
		t.Fatalf("counters wrong: %v", m)
	}
	// Per-phase round totals from local.Span tracing must be present.
	phases := 0
	for name, v := range m {
		if strings.HasPrefix(name, "deltaserved_phase_rounds_total{phase=") {
			phases++
			if v <= 0 {
				t.Errorf("phase counter %s = %v", name, v)
			}
		}
	}
	if phases == 0 {
		t.Fatal("no deltaserved_phase_rounds_total{phase=...} samples")
	}
	// Histogram sanity: cumulative buckets, +Inf equals count.
	count := m["deltaserved_job_duration_seconds_count"]
	if inf := m[`deltaserved_job_duration_seconds_bucket{le="+Inf"}`]; inf != count || count < 1 {
		t.Fatalf("histogram +Inf %v != count %v", m[`deltaserved_job_duration_seconds_bucket{le="+Inf"}`], count)
	}
	prev := -1.0
	for _, le := range []string{"0.001", "0.005", "0.025", "0.1", "0.5", "2.5", "10"} {
		v, ok := m[fmt.Sprintf("deltaserved_job_duration_seconds_bucket{le=%q}", le)]
		if !ok {
			t.Fatalf("missing bucket le=%s", le)
		}
		if v < prev {
			t.Fatalf("bucket le=%s not cumulative", le)
		}
		prev = v
	}
}

// TestConcurrentLoad is the acceptance scenario: >= 64 concurrent POSTs
// against a pool of 4 workers with a short queue. Every successful response
// must verify; saturation must produce at least one 429; repeats must hit
// the cache; and shutdown must drain cleanly. Run with -race.
func TestConcurrentLoad(t *testing.T) {
	cfg := Config{Workers: 4, QueueDepth: 8, CacheSize: 64}
	// Workers hold their first jobs at a gate until saturation has actually
	// been observed, so the >= 1 rejection below is deterministic rather
	// than a scheduling accident: with all 4 workers parked and 8 queue
	// slots, the remaining clients must collide with a full queue.
	gate := make(chan struct{})
	cfg.runHook = func(work) { <-gate }
	svc, cl, _ := newTestServer(t, cfg)

	const clients = 64
	ks := []int{4, 5, 6, 7, 8, 9, 10, 11}
	graphs := make([]*deltacoloring.Graph, len(ks))
	for i, k := range ks {
		graphs[i] = deltacoloring.GenEasyCliqueRing(k, 16)
	}

	var rejected, cached atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	start := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			req := easyReq(ks[i%len(ks)])
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			for attempt := 0; ; attempt++ {
				resp, err := cl.Color(ctx, req)
				var apiErr *APIError
				if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusTooManyRequests {
					rejected.Add(1)
					if attempt > 500 {
						errs <- fmt.Errorf("client %d: starved after %d retries", i, attempt)
						return
					}
					time.Sleep(time.Duration(1+i%4) * time.Millisecond)
					continue
				}
				if err != nil {
					errs <- fmt.Errorf("client %d: %w", i, err)
					return
				}
				if verr := deltacoloring.Verify(graphs[i%len(ks)], resp.Colors); verr != nil {
					errs <- fmt.Errorf("client %d: bad coloring: %w", i, verr)
					return
				}
				if resp.Cached {
					cached.Add(1)
				}
				return
			}
		}(i)
	}
	close(start)
	go func() {
		for rejected.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		close(gate)
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if rejected.Load() == 0 {
		t.Error("expected at least one 429 under saturation")
	}

	// A repeat of any request is a guaranteed cache hit by now.
	resp, err := cl.Color(context.Background(), easyReq(ks[0]))
	if err != nil || !resp.Cached {
		t.Fatalf("repeat request: cached=%v err=%v", resp != nil && resp.Cached, err)
	}
	cached.Add(1)
	if cached.Load() < 1 {
		t.Error("expected at least one cache hit")
	}

	m := scrapeMetrics(t, cl.BaseURL)
	if m["deltaserved_jobs_rejected_total"] < 1 || m["deltaserved_cache_hits_total"] < 1 {
		t.Errorf("metrics disagree with observations: %v", m)
	}
	if m["deltaserved_jobs_completed_total"] < float64(len(ks)) {
		t.Errorf("completed %v < %d distinct graphs", m["deltaserved_jobs_completed_total"], len(ks))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("drain after load: %v", err)
	}
	t.Logf("load: %d clients, %d rejections, %d cache hits, %.0f runs",
		clients, rejected.Load(), cached.Load(), m["deltaserved_jobs_completed_total"])
}

func TestLRUCacheEviction(t *testing.T) {
	led := &ledger{}
	c := newLRU(2, led)
	r := func(id string) *ColorResponse { return &ColorResponse{JobID: id} }
	c.add("a", r("a"))
	c.add("b", r("b"))
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted too early")
	}
	c.add("c", r("c")) // evicts b (a was just used)
	if _, ok := c.get("b"); ok {
		t.Fatal("b should be evicted")
	}
	var want int64
	for _, key := range []string{"a", "c"} {
		got, ok := c.get(key)
		if !ok || got.JobID != key {
			t.Fatalf("lost %s", key)
		}
		want += responseBytes(got)
	}
	if c.len() != 2 {
		t.Fatalf("len %d", c.len())
	}
	if led.bytes != want || len(led.refs) != 2 {
		t.Fatalf("ledger holds %d B in %d responses, want %d B in 2", led.bytes, len(led.refs), want)
	}
	// trim skips an entry whose response something else also holds, as a
	// job record does; forget then drops it.
	a, _ := c.get("a")
	led.hold(a)
	c.trim(func() bool { return true })
	if _, ok := c.get("c"); ok || c.len() != 1 {
		t.Fatalf("trim kept c or dropped a: len %d", c.len())
	}
	c.forget("a", &ColorResponse{JobID: "a"})
	if c.len() != 1 {
		t.Fatal("forget dropped an entry holding a different response")
	}
	c.forget("a", a)
	led.release(a)
	if c.len() != 0 || led.bytes != 0 || len(led.refs) != 0 {
		t.Fatalf("after forget: len %d, ledger %d B in %d responses", c.len(), led.bytes, len(led.refs))
	}
}

func TestPanicIsolation(t *testing.T) {
	cfg := Config{Workers: 1}
	cfg.runHook = func(w work) {
		if w.req.Seed == 666 {
			panic("boom")
		}
	}
	_, cl, _ := newTestServer(t, cfg)
	bad := easyReq(4)
	bad.Seed = 666
	bad.NoCache = true
	_, err := cl.Color(context.Background(), bad)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusInternalServerError {
		t.Fatalf("want 500 from panicking job, got %v", err)
	}
	if !strings.Contains(apiErr.Resp.Error, "internal panic") {
		t.Fatalf("panic not reported: %+v", apiErr.Resp)
	}
	// The worker survived and serves the next request.
	resp, err := cl.Color(context.Background(), easyReq(4))
	if err != nil {
		t.Fatal(err)
	}
	mustVerify(t, deltacoloring.GenEasyCliqueRing(4, 16), resp)
}
