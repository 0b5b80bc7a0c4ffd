package service

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"deltacoloring"
)

// TestServiceChaosNeverServesInvalid is the service-level acceptance
// property: under randomly injected worker failures (panics, hangs past the
// deadline, slow runs) every answer is either a verified coloring with 200
// or an honest failure status (429/499/5xx) — never a 200 carrying an
// invalid or missing coloring. The fault mix is seeded, the request load is
// concurrent, and the whole test is run under -race by `make chaos`.
func TestServiceChaosNeverServesInvalid(t *testing.T) {
	requests := 40
	if v := os.Getenv("DELTA_CHAOS_ITERS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("bad DELTA_CHAOS_ITERS=%q", v)
		}
		requests = 20 * n
	}

	var mu sync.Mutex
	rng := rand.New(rand.NewSource(2025))
	cfg := Config{
		Workers:          4,
		MaxRetries:       1,
		RetryBaseBackoff: time.Millisecond,
		BreakerThreshold: 8,
		BreakerCooldown:  20 * time.Millisecond,
		WatchdogGrace:    20 * time.Millisecond,
	}
	cfg.runHook = func(work) {
		mu.Lock()
		roll := rng.Float64()
		mu.Unlock()
		switch {
		case roll < 0.25:
			panic("chaos: injected panic")
		case roll < 0.35:
			time.Sleep(150 * time.Millisecond) // hung past deadline + grace
		case roll < 0.5:
			time.Sleep(5 * time.Millisecond) // merely slow
		}
	}
	_, cl, _ := newTestServer(t, cfg)

	g := deltacoloring.GenEasyCliqueRing(4, 16)
	var wg sync.WaitGroup
	errs := make(chan error, requests)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := easyReq(4)
			req.NoCache = true
			req.TimeoutMS = 60
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			resp, err := cl.Color(ctx, req)
			if err != nil {
				var ae *APIError
				if !errors.As(err, &ae) {
					errs <- err
					return
				}
				switch ae.StatusCode {
				case http.StatusTooManyRequests, 499,
					http.StatusInternalServerError, http.StatusServiceUnavailable,
					http.StatusGatewayTimeout:
					return // honest failure
				}
				errs <- err
				return
			}
			// A 200 must carry a complete verified Δ-coloring, no exceptions.
			if resp.State != "done" {
				errs <- errors.New("200 with state " + resp.State)
				return
			}
			if verr := deltacoloring.Verify(g, resp.Colors); verr != nil {
				errs <- verr
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("chaos violation: %v", err)
	}
}
