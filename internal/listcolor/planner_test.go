package listcolor

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"deltacoloring/internal/coloring"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/local"
)

// layerSets cuts g's vertices into count disjoint random sets.
func layerSets(g *graph.Graph, count int, rng *rand.Rand) [][]int {
	sets := make([][]int, count)
	for _, v := range rng.Perm(g.N()) {
		i := rng.Intn(count)
		sets[i] = append(sets[i], v)
	}
	return sets
}

// TestPlannerMatchesInlinePlans: at any worker count the planner hands out,
// in order, the plans NewPlan makes inline, and charges the same rounds.
// With more than one worker it plans ahead on goroutines, within its window.
func TestPlannerMatchesInlinePlans(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.ErdosRenyi(600, 0.02, rng)
	sets := layerSets(g, 7, rng)
	inline := local.New(g)
	var want []*Plan
	for _, s := range sets {
		p, err := NewPlan(inline, s)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
	}
	for _, w := range []int{1, 2, 4} {
		net := local.New(g)
		net.SetWorkers(w)
		pl := NewPlanner(net, sets)
		for i := range sets {
			p, err := pl.Next()
			if err != nil {
				t.Fatal(err)
			}
			if w > 1 && (pl.started < min(i+w, len(sets)) || pl.started > i+w) {
				t.Fatalf("w=%d plan %d: %d plans launched, want a window of %d ahead", w, i, pl.started, w-1)
			}
			if !slices.Equal(p.sub.ToParent, want[i].sub.ToParent) || !slices.Equal(p.slots, want[i].slots) {
				t.Fatalf("w=%d plan %d differs from the inline plan", w, i)
			}
		}
		pl.Close()
		net.Close()
		if net.Rounds() != inline.Rounds() {
			t.Fatalf("w=%d: planner charged %d rounds, inline %d", w, net.Rounds(), inline.Rounds())
		}
	}
}

// TestPlannerReraisesInterrupt: an interrupt that trips inside a planning
// goroutine reaches the caller as the same local.Interrupt panic, Close
// waits for the plans still in flight, and no goroutine is left behind.
func TestPlannerReraisesInterrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := graph.ErdosRenyi(800, 0.02, rng)
	sets := layerSets(g, 9, rng)
	before := runtime.NumGoroutine()
	stop := errors.New("stop")
	net := local.New(g)
	net.SetWorkers(3)
	var calls atomic.Int64
	net.SetInterrupt(func() error {
		// Only planning goroutines charge rounds here: the caller never
		// sweeps. Err is sticky once tripped, like a cancelled context's.
		if calls.Add(1) > 40 {
			return stop
		}
		return nil
	})
	pl := NewPlanner(net, sets)
	var got any
	func() {
		defer func() { got = recover() }()
		for range sets {
			if _, err := pl.Next(); err != nil {
				t.Errorf("plan error: %v", err)
			}
		}
	}()
	pl.Close()
	ip, ok := got.(local.Interrupt)
	if !ok || ip.Err != stop {
		t.Fatalf("Next re-raised %v, want local.Interrupt{stop}", got)
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSolveFrontierMatchesDense cross-checks Solve's exact-seed slot sweep
// (and the Linial reduction under it) against the dense engine on random
// list instances: colors and rounds must agree at every worker count.
func TestSolveFrontierMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 8; trial++ {
		g := graph.ErdosRenyi(200+rng.Intn(300), 0.01+0.04*rng.Float64(), rng)
		inst := Instance{Active: make([]bool, g.N()), Lists: make([]coloring.Palette, g.N())}
		for v := range inst.Active {
			inst.Active[v] = rng.Intn(4) != 0
			k := g.Degree(v) + 1 + rng.Intn(3)
			for inst.Lists[v].Size() < k {
				inst.Lists[v].Add(rng.Intn(3 * (g.MaxDegree() + 1)))
			}
		}
		run := func(workers int, frontier bool) ([]int, int) {
			net := local.New(g)
			defer net.Close()
			net.SetWorkers(workers)
			net.SetFrontier(frontier)
			out := coloring.NewPartial(g.N())
			if err := Solve(net, inst, out); err != nil {
				t.Fatalf("trial %d workers=%d frontier=%v: %v", trial, workers, frontier, err)
			}
			return out.Colors, net.Rounds()
		}
		want, wantRounds := run(1, false)
		for _, w := range []int{1, 4} {
			got, rounds := run(w, true)
			if rounds != wantRounds || !slices.Equal(got, want) {
				t.Fatalf("trial %d workers=%d: frontier run (rounds %d) differs from dense (rounds %d)", trial, w, rounds, wantRounds)
			}
		}
	}
}
