package service

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// apiErr unwraps an error into an *APIError or fails the test.
func apiErr(t *testing.T, err error) *APIError {
	t.Helper()
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("want *APIError, got %T: %v", err, err)
	}
	return ae
}

// A panicking run must answer 500, mark the job quarantined, keep its record
// pollable, and count the quarantine in /healthz.
func TestPanicQuarantinesJob(t *testing.T) {
	cfg := Config{Workers: 1, MaxRetries: -1, BreakerThreshold: -1}
	cfg.runHook = func(work) { panic("injected fault") }
	svc, cl, _ := newTestServer(t, cfg)

	req := easyReq(4)
	req.Async = true
	resp, err := cl.Color(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	final, err := cl.Wait(context.Background(), resp.JobID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "failed" || !strings.Contains(final.Error, "injected fault") {
		t.Fatalf("job state %q error %q, want failed with injected fault", final.State, final.Error)
	}
	if !final.Quarantined {
		t.Fatal("panicked job not marked quarantined")
	}
	if got := svc.quarantinedCount(); got != 1 {
		t.Fatalf("quarantined count %d, want 1", got)
	}

	// The sync path must surface the same failure as a plain 500.
	ae := apiErr(t, func() error { _, err := cl.Color(context.Background(), easyReq(5)); return err }())
	if ae.StatusCode != http.StatusInternalServerError {
		t.Fatalf("sync panic answered %d, want 500", ae.StatusCode)
	}
	if ae.Resp == nil || !ae.Resp.Quarantined {
		t.Fatalf("sync panic response not quarantined: %+v", ae.Resp)
	}
}

// Quarantined records must survive job-table eviction until every other
// terminal record is gone.
func TestQuarantineSurvivesEviction(t *testing.T) {
	var failFirst atomic.Bool
	failFirst.Store(true)
	cfg := Config{Workers: 1, MaxJobs: 4, MaxRetries: -1, BreakerThreshold: -1}
	cfg.runHook = func(work) {
		if failFirst.CompareAndSwap(true, false) {
			panic("quarantine me")
		}
	}
	svc, cl, _ := newTestServer(t, cfg)

	req := easyReq(4)
	req.Async = true
	first, err := cl.Color(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Wait(context.Background(), first.JobID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Push well past MaxJobs with healthy no-cache jobs.
	for i := 0; i < 8; i++ {
		r := easyReq(4)
		r.NoCache = true
		if _, err := cl.Color(context.Background(), r); err != nil {
			t.Fatalf("filler job %d: %v", i, err)
		}
	}
	svc.jmu.Lock()
	_, alive := svc.jobs[first.JobID]
	svc.jmu.Unlock()
	if !alive {
		t.Fatal("quarantined job evicted while non-quarantined candidates existed")
	}
	got, err := cl.Job(context.Background(), first.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Quarantined {
		t.Fatalf("polled quarantined record lost its flag: %+v", got)
	}
}

// A run that outlives its deadline without unwinding must be converted into
// a clean 504 by the watchdog, and the worker must survive to serve again.
func TestWatchdogConvertsHungRunTo504(t *testing.T) {
	release := make(chan struct{})
	var hang atomic.Bool
	hang.Store(true)
	cfg := Config{Workers: 1, MaxRetries: -1, BreakerThreshold: -1, WatchdogGrace: 30 * time.Millisecond}
	cfg.runHook = func(work) {
		if hang.CompareAndSwap(true, false) {
			<-release // ignores ctx: simulates a hung run
		}
	}
	_, cl, _ := newTestServer(t, cfg)
	defer close(release)

	req := easyReq(4)
	req.Async = true
	req.TimeoutMS = 40
	resp, err := cl.Color(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	final, err := cl.Wait(context.Background(), resp.JobID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "failed" || !strings.Contains(final.Error, "watchdog") {
		t.Fatalf("hung job state %q error %q, want watchdog 504", final.State, final.Error)
	}

	// The worker abandoned the hung attempt; it must still serve new jobs.
	ok, err := cl.Color(context.Background(), easyReq(4))
	if err != nil {
		t.Fatal(err)
	}
	if ok.State != "done" {
		t.Fatalf("worker dead after watchdog: %+v", ok)
	}
}

// After BreakerThreshold consecutive failures the breaker must shed new work
// with 503 + Retry-After, then recover through a successful half-open probe.
func TestBreakerShedsAndRecovers(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	cfg := Config{Workers: 1, MaxRetries: -1, BreakerThreshold: 2, BreakerCooldown: 50 * time.Millisecond}
	cfg.runHook = func(work) {
		if failing.Load() {
			panic("unhealthy")
		}
	}
	_, cl, _ := newTestServer(t, cfg)

	for i := 0; i < 2; i++ {
		r := easyReq(4)
		r.NoCache = true
		ae := apiErr(t, func() error { _, err := cl.Color(context.Background(), r); return err }())
		if ae.StatusCode != http.StatusInternalServerError {
			t.Fatalf("failure %d answered %d, want 500", i, ae.StatusCode)
		}
	}

	// Circuit open: new work is shed before reaching the queue.
	r := easyReq(4)
	r.NoCache = true
	ae := apiErr(t, func() error { _, err := cl.Color(context.Background(), r); return err }())
	if ae.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open breaker answered %d, want 503", ae.StatusCode)
	}
	if ae.RetryAfter <= 0 {
		t.Fatal("503 without Retry-After hint")
	}

	// Heal the backend, wait out the cooldown: the probe closes the circuit.
	failing.Store(false)
	time.Sleep(60 * time.Millisecond)
	resp, err := cl.Color(context.Background(), r)
	if err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if resp.State != "done" {
		t.Fatalf("probe state %q, want done", resp.State)
	}
	resp, err = cl.Color(context.Background(), r)
	if err != nil || resp.State != "done" {
		t.Fatalf("closed breaker rejected work: %v %+v", err, resp)
	}
}

// Transient failures are retried server-side with backoff before the job is
// failed; a first-attempt panic must be invisible to the client.
func TestServerSideRetryMasksTransientPanic(t *testing.T) {
	var attempts atomic.Int64
	cfg := Config{Workers: 1, MaxRetries: 2, RetryBaseBackoff: time.Millisecond, BreakerThreshold: -1}
	cfg.runHook = func(work) {
		if attempts.Add(1) == 1 {
			panic("transient")
		}
	}
	svc, cl, _ := newTestServer(t, cfg)

	resp, err := cl.Color(context.Background(), easyReq(4))
	if err != nil {
		t.Fatal(err)
	}
	if resp.State != "done" {
		t.Fatalf("retried job state %q, want done", resp.State)
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("attempts %d, want 2", got)
	}
	if retries := svc.met.jobsRetried.Load(); retries != 1 {
		t.Fatalf("retries metric %d, want 1", retries)
	}
}

// Concurrent POSTs sharing an idempotency key must run the pipeline once;
// the duplicate joins the in-flight job and gets the same result.
func TestIdempotencyKeyDeduplicates(t *testing.T) {
	gate := make(chan struct{})
	var runs atomic.Int64
	cfg := Config{Workers: 2, BreakerThreshold: -1}
	cfg.runHook = func(work) { runs.Add(1); <-gate }
	_, cl, _ := newTestServer(t, cfg)

	req := easyReq(4)
	req.NoCache = true
	req.IdempotencyKey = "same-key"
	type res struct {
		resp *ColorResponse
		err  error
	}
	results := make(chan res, 2)
	for i := 0; i < 2; i++ {
		go func() {
			r, err := cl.Color(context.Background(), req)
			results <- res{r, err}
		}()
	}
	// Both requests are in flight (one running, one joined) before release.
	for runs.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(gate)
	var ids []string
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.resp.State != "done" {
			t.Fatalf("state %q, want done", r.resp.State)
		}
		ids = append(ids, r.resp.JobID)
	}
	if runs.Load() != 1 {
		t.Fatalf("pipeline ran %d times for one idempotency key, want 1", runs.Load())
	}
	if ids[0] != ids[1] {
		t.Fatalf("duplicate POSTs got different jobs: %v", ids)
	}
}

// ColorRetry must stamp an idempotency key, retry transient 5xxs, and hand
// back the eventual success; a failed attempt must not pin the key.
func TestClientColorRetry(t *testing.T) {
	var attempts atomic.Int64
	cfg := Config{Workers: 1, MaxRetries: -1, BreakerThreshold: -1}
	cfg.runHook = func(w work) {
		if w.job.idemKey == "" {
			panic("request reached the server without an idempotency key")
		}
		if attempts.Add(1) == 1 {
			panic("transient")
		}
	}
	_, cl, _ := newTestServer(t, cfg)

	req := easyReq(4)
	req.NoCache = true
	resp, err := cl.ColorRetry(context.Background(), req,
		RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if resp.State != "done" {
		t.Fatalf("state %q, want done", resp.State)
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("server ran %d attempts, want 2 (failed key must not replay)", got)
	}
	if req.IdempotencyKey != "" {
		t.Fatal("ColorRetry mutated the caller's request")
	}

	// Deterministic client errors must not be retried.
	attempts.Store(0)
	bad := &ColorRequest{Gen: &GenSpec{Family: "nope"}}
	if _, err := cl.ColorRetry(context.Background(), bad, RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond}); err == nil {
		t.Fatal("bad request accepted")
	} else if ae := apiErr(t, err); ae.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad request answered %d, want 400", ae.StatusCode)
	}
	if attempts.Load() != 0 {
		t.Fatal("400 reached the worker or was retried")
	}
}

// The hardened endpoints must expose their state: watchdog/breaker/retry
// counters in /metrics and breaker + quarantine info in /healthz.
func TestHardeningObservability(t *testing.T) {
	cfg := Config{Workers: 1, MaxRetries: -1, BreakerThreshold: 1, BreakerCooldown: time.Minute}
	cfg.runHook = func(work) { panic("boom") }
	_, cl, _ := newTestServer(t, cfg)

	r := easyReq(4)
	r.NoCache = true
	if _, err := cl.Color(context.Background(), r); err == nil {
		t.Fatal("panicking job succeeded")
	}
	if _, err := cl.Color(context.Background(), r); err == nil {
		t.Fatal("open breaker admitted work")
	}

	get := func(path string) string {
		res, err := http.Get(cl.BaseURL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(res.Body)
		res.Body.Close()
		return string(body)
	}
	met := get("/metrics")
	for _, want := range []string{
		"deltaserved_jobs_quarantined_total 1",
		"deltaserved_jobs_shed_total 1",
		"deltaserved_breaker_state 1",
		"deltaserved_watchdog_timeouts_total 0",
		"deltaserved_job_retries_total 0",
	} {
		if !strings.Contains(met, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	health := get("/healthz")
	for _, want := range []string{`"breaker":"open"`, `"quarantined":1`} {
		if !strings.Contains(health, want) {
			t.Errorf("healthz missing %q in %s", want, health)
		}
	}
}
