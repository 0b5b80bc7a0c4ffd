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
	cfg := Config{Workers: 1, BreakerThreshold: -1}
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

// A failed job runs once: at the default Config a run that always panics
// is attempted exactly once, answers 500, and is quarantined. Pipelines
// are pure functions of their input, so a second attempt could only repeat
// the first failure.
func TestPanicRunsOnce(t *testing.T) {
	var runs atomic.Int64
	cfg := Config{}
	cfg.runHook = func(work) {
		runs.Add(1)
		panic("always fails")
	}
	svc, cl, _ := newTestServer(t, cfg)

	req := easyReq(4)
	req.NoCache = true
	ae := apiErr(t, func() error { _, err := cl.Color(context.Background(), req); return err }())
	if ae.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking run answered %d, want 500", ae.StatusCode)
	}
	if ae.Resp == nil || !ae.Resp.Quarantined {
		t.Fatalf("panicking run not quarantined: %+v", ae.Resp)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("pipeline ran %d times, want 1", got)
	}
	if got := svc.quarantinedCount(); got != 1 {
		t.Fatalf("quarantined count %d, want 1", got)
	}
}

// Quarantined records must survive job-table eviction until every other
// terminal record is gone.
func TestQuarantineSurvivesEviction(t *testing.T) {
	var failFirst atomic.Bool
	failFirst.Store(true)
	cfg := Config{Workers: 1, MaxJobs: 4, BreakerThreshold: -1}
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
	cfg := Config{Workers: 1, BreakerThreshold: -1, WatchdogGrace: 30 * time.Millisecond}
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
// with 503 + Retry-After, then recover through a successful probe.
func TestBreakerShedsAndRecovers(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	cfg := Config{Workers: 1, BreakerThreshold: 2, BreakerCooldown: 50 * time.Millisecond}
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
		t.Fatalf("probe failed: %v", err)
	}
	if resp.State != "done" {
		t.Fatalf("probe state %q, want done", resp.State)
	}
	resp, err = cl.Color(context.Background(), r)
	if err != nil || resp.State != "done" {
		t.Fatalf("closed breaker rejected work: %v %+v", err, resp)
	}
}

// An open breaker's probe that ends without a server-side verdict (here a
// 422 Lemma refusal, which says nothing about service health) must not
// wedge the circuit: the next expired cooldown admits another probe, and
// a healthy one closes the circuit.
func TestBreakerProbeNeverWedges(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	cooldown := 20 * time.Millisecond
	cfg := Config{Workers: 1, BreakerThreshold: 1, BreakerCooldown: cooldown}
	cfg.runHook = func(work) {
		if failing.Load() {
			panic("open the breaker")
		}
	}
	svc, cl, _ := newTestServer(t, cfg)
	color := func(req *ColorRequest) error {
		req.NoCache = true
		_, err := cl.Color(context.Background(), req)
		return err
	}

	if ae := apiErr(t, color(easyReq(4))); ae.StatusCode != http.StatusInternalServerError {
		t.Fatalf("injected panic answered %d, want 500", ae.StatusCode)
	}
	failing.Store(false)
	time.Sleep(cooldown + 10*time.Millisecond)
	probe := &ColorRequest{Gen: &GenSpec{Family: "hard", M: 48, Delta: 48}, Algo: "det"}
	if ae := apiErr(t, color(probe)); ae.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("probe answered %d, want the 422 Lemma refusal", ae.StatusCode)
	}

	// Healthy requests must get through within a few cooldowns.
	deadline := time.Now().Add(2 * time.Second)
	for {
		err := color(easyReq(4))
		if err == nil {
			break
		}
		if ae := apiErr(t, err); ae.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("healthy request answered %d, want 200 or 503", ae.StatusCode)
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker still shedding healthy work 2s after a 422 probe")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if state, _ := svc.breaker.snapshot(); state != breakerClosed {
		t.Fatalf("breaker state %d after a healthy probe, want closed", state)
	}
	if err := color(easyReq(4)); err != nil {
		t.Fatalf("closed breaker rejected work: %v", err)
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

// A job that fails must not pin its idempotency key: a later POST with the
// same key runs the pipeline again instead of replaying the failure.
func TestIdempotencyFailedKeyReruns(t *testing.T) {
	var runs atomic.Int64
	cfg := Config{Workers: 1, BreakerThreshold: -1}
	cfg.runHook = func(work) {
		if runs.Add(1) == 1 {
			panic("transient")
		}
	}
	_, cl, _ := newTestServer(t, cfg)

	req := easyReq(4)
	req.NoCache = true
	req.IdempotencyKey = "fails-once"
	if _, err := cl.Color(context.Background(), req); err == nil {
		t.Fatal("first run panicked but the POST succeeded")
	} else if ae := apiErr(t, err); ae.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failed run answered %d, want 500", ae.StatusCode)
	}
	resp, err := cl.Color(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.State != "done" {
		t.Fatalf("second POST state %q, want done", resp.State)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("pipeline ran %d times, want 2 (a failed key must not replay)", got)
	}
}

// The hardened endpoints must expose their state: watchdog/breaker
// counters in /metrics and breaker + quarantine info in /healthz.
func TestHardeningObservability(t *testing.T) {
	cfg := Config{Workers: 1, BreakerThreshold: 1, BreakerCooldown: time.Minute}
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
