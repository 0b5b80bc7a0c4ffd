package service

import (
	"context"
	"errors"
	"net/http"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"deltacoloring/internal/graph"
)

// walkRetained sums the bytes of every response the job table and the cache
// hold, each counted once, by walking both structures instead of reading
// the ledger.
func walkRetained(s *Server) int64 {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	seen := make(map[*ColorResponse]bool)
	var n int64
	add := func(r *ColorResponse) {
		if r != nil && !seen[r] {
			seen[r] = true
			n += responseBytes(r)
		}
	}
	for _, j := range s.jobs {
		add(j.result())
	}
	for el := s.cache.ll.Front(); el != nil; el = el.Next() {
		add(el.Value.(*lruEntry).val)
	}
	return n
}

// Many more jobs than MaxJobs, most of them large-n colorings: what the job
// table and the cache retain stays within the byte budget, the ledger agrees
// with a walk of both, the newest jobs stay pollable, and once every job is
// finished each run's graph is garbage.
func TestRetentionByteBound(t *testing.T) {
	const maxN = 1 << 12
	var runs, collected atomic.Int64
	cfg := Config{Workers: 2, MaxJobs: 16, CacheSize: 8, MaxVertices: maxN, MaxRetries: -1}
	cfg.runHook = func(w work) {
		runs.Add(1)
		runtime.SetFinalizer(w.g, func(*graph.Graph) { collected.Add(1) })
	}
	svc, cl, _ := newTestServer(t, cfg)
	budget := cfg.withDefaults().retainedBudget()

	const total = 48
	var ids []string
	var ns []int
	for i := 0; i < total; i++ {
		req := &ColorRequest{Backend: "greedy"}
		switch {
		case i%4 == 0:
			// Large-n gen bodies; every other one repeats the previous gen
			// and so is a cache hit sharing a retained response.
			req.Gen = &GenSpec{Family: "easy", M: 128 - i/8, Delta: 16}
		case i%4 == 1:
			// A no_cache run: only its job record holds the response.
			req.NoCache = true
			req.Graph = &GraphSpec{N: maxN, Edges: [][2]int{{0, i}}}
		default:
			// Sparse bodies: n at the vertex limit, a short path.
			req.Graph = &GraphSpec{N: maxN - i, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3 + i}}}
		}
		resp, err := cl.Color(context.Background(), req)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if !resp.Cached {
			ids = append(ids, resp.JobID)
			ns = append(ns, resp.N)
		}
		jobs, bytes := svc.retained()
		if bytes > budget {
			t.Fatalf("after job %d: %d retained bytes above the %d B budget", i, bytes, budget)
		}
		if jobs > cfg.MaxJobs {
			t.Fatalf("after job %d: %d job records above MaxJobs %d", i, jobs, cfg.MaxJobs)
		}
		if walked := walkRetained(svc); walked != bytes {
			t.Fatalf("after job %d: ledger holds %d B, a walk of the table and cache finds %d B", i, bytes, walked)
		}
	}
	if len(ids) < 2*cfg.MaxJobs {
		t.Fatalf("only %d jobs ran, want well over MaxJobs %d", len(ids), cfg.MaxJobs)
	}
	// The newest jobs are still pollable with their full colorings.
	for k := len(ids) - 4; k < len(ids); k++ {
		resp, err := cl.Job(context.Background(), ids[k])
		if err != nil {
			t.Fatalf("newest job %s not pollable: %v", ids[k], err)
		}
		if resp.State != "done" || len(resp.Colors) != ns[k] {
			t.Fatalf("newest job %s: state %q with %d colors, want done with %d", ids[k], resp.State, len(resp.Colors), ns[k])
		}
	}
	// No record, cache entry or pool holds a finished run's graph.
	deadline := time.Now().Add(5 * time.Second)
	for collected.Load() < runs.Load() && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if c, r := collected.Load(), runs.Load(); c != r {
		t.Fatalf("%d of %d finished runs' graphs are still reachable", r-c, r)
	}
}

// More large cached jobs than the byte budget holds are all registered
// before the first one finishes. As they finish, the byte bound takes the
// oldest, and each drop frees its response's bytes even though the cache
// shares it, so the newest jobs stay pollable with their full colorings.
func TestRetentionQueuedBurst(t *testing.T) {
	const maxN = 1 << 12
	gate := make(chan struct{})
	cfg := Config{Workers: 1, QueueDepth: 32, MaxVertices: maxN, MaxRetries: -1}
	cfg.runHook = func(work) { <-gate }
	svc, cl, _ := newTestServer(t, cfg)
	budget := cfg.withDefaults().retainedBudget()

	const total = 16 // about twice what the budget holds
	var ids []string
	var ns []int
	for i := 0; i < total; i++ {
		req := &ColorRequest{Async: true, Backend: "greedy",
			Graph: &GraphSpec{N: maxN - i, Edges: [][2]int{{0, 1}, {1, 2 + i}}}}
		resp, err := cl.Color(context.Background(), req)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		ids = append(ids, resp.JobID)
		ns = append(ns, req.Graph.N)
	}
	if got := 8 * int64(ns[0]) * total; got < 2*budget {
		t.Fatalf("%d jobs of %d colors fit the %d B budget twice; the burst is too small", total, ns[0], budget)
	}
	close(gate)
	// One worker runs the queue in order: the newest job finishes last.
	if _, err := cl.Wait(context.Background(), ids[total-1], 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	jobs, bytes := svc.retained()
	if bytes > budget {
		t.Fatalf("%d retained bytes above the %d B budget", bytes, budget)
	}
	if walked := walkRetained(svc); walked != bytes {
		t.Fatalf("ledger holds %d B, a walk of the table and cache finds %d B", bytes, walked)
	}
	keep := int(budget/(8*int64(ns[0]))) - 1
	if jobs < keep {
		t.Fatalf("%d job records retained, want at least %d under the %d B budget", jobs, keep, budget)
	}
	for k := total - keep; k < total; k++ {
		resp, err := cl.Job(context.Background(), ids[k])
		if err != nil {
			t.Fatalf("newest job %s not pollable: %v", ids[k], err)
		}
		if resp.State != "done" || len(resp.Colors) != ns[k] {
			t.Fatalf("newest job %s: state %q with %d colors, want done with %d", ids[k], resp.State, len(resp.Colors), ns[k])
		}
	}
}

// An attempt the watchdog abandons keeps its own work item: it can still
// read its graph after its job has failed and its record has been evicted.
func TestRetentionWatchdogAbandonedAttempt(t *testing.T) {
	release := make(chan struct{})
	read := make(chan [2]int, 1)
	var hang atomic.Bool
	hang.Store(true)
	cfg := Config{Workers: 1, MaxJobs: 2, MaxRetries: -1, BreakerThreshold: -1, WatchdogGrace: 30 * time.Millisecond}
	cfg.runHook = func(w work) {
		if !hang.CompareAndSwap(true, false) {
			return
		}
		<-release // ignores ctx: simulates a hung run
		degrees := 0
		for v := 0; v < w.g.N(); v++ {
			degrees += len(w.g.Neighbors(v))
		}
		read <- [2]int{w.g.N(), degrees}
	}
	_, cl, _ := newTestServer(t, cfg)

	req := easyReq(4)
	req.Async = true
	req.NoCache = true
	req.TimeoutMS = 40
	resp, err := cl.Color(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	final, err := cl.Wait(context.Background(), resp.JobID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "failed" {
		t.Fatalf("hung job state %q, want failed by the watchdog", final.State)
	}
	// Push the failed record out of the two-record table.
	for i := 0; i < 3; i++ {
		if _, err := cl.Color(context.Background(), easyReq(4+i)); err != nil {
			t.Fatal(err)
		}
	}
	var apiErr *APIError
	if _, err := cl.Job(context.Background(), resp.JobID); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("failed job %s still retained: %v", resp.JobID, err)
	}
	runtime.GC()
	close(release)
	g, _ := graph.EasyCliqueRing(4, 16)
	if got, want := <-read, [2]int{g.N(), 2 * g.M()}; got != want {
		t.Fatalf("abandoned attempt read n=%d with degree sum %d, want n=%d with %d", got[0], got[1], want[0], want[1])
	}
}
