package baseline

import (
	"errors"
	"math/rand"
	"testing"

	"deltacoloring/internal/coloring"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/local"
)

func TestTrialColoringDeltaPlusOneCompletes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := graph.Torus(10, 10)
	net := local.New(g)
	c := coloring.NewPartial(g.N())
	res := TrialColoring(net, c, g.MaxDegree()+1, 500, rng)
	if res.Stuck {
		t.Fatalf("Δ+1 trial coloring stuck: %+v", res)
	}
	if err := coloring.VerifyComplete(g, c, g.MaxDegree()+1); err != nil {
		t.Fatal(err)
	}
	if res.Rounds > 200 {
		t.Fatalf("trial coloring needed %d rounds", res.Rounds)
	}
}

func TestTrialColoringDeltaOnCliqueGetsStuck(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	// On K_Δ+... a clique of size Δ with Δ colors: each vertex needs a
	// distinct color; random trials thrash but here palette equals clique
	// size so it can finish. Use K_{Δ+1} structure via HardCliqueBipartite
	// instead: Δ colors, dense — the trial gets stuck on some vertices.
	g, _ := graph.HardCliqueBipartite(8, 8)
	net := local.New(g)
	c := coloring.NewPartial(g.N())
	res := TrialColoring(net, c, g.MaxDegree(), 300, rng)
	if !res.Stuck {
		// Completion is possible but astronomically unlikely; if it ever
		// happens the coloring must at least be valid.
		if err := coloring.VerifyComplete(g, c, g.MaxDegree()); err != nil {
			t.Fatal(err)
		}
		t.Skip("trial coloring finished against the odds")
	}
	if res.Colored == 0 {
		t.Fatal("no vertex colored at all")
	}
}

func TestPermanentSlack(t *testing.T) {
	g := graph.Star(4)
	c := coloring.NewPartial(4)
	if PermanentSlack(g, c) != 0 {
		t.Fatal("slack on uncolored graph")
	}
	c.Colors[1], c.Colors[2] = 0, 0
	if PermanentSlack(g, c) != 1 {
		t.Fatalf("center should have slack, got %d", PermanentSlack(g, c))
	}
	c.Colors[2] = 1
	if PermanentSlack(g, c) != 0 {
		t.Fatal("distinct colors should give no slack")
	}
}

func TestDeltaPlusOne(t *testing.T) {
	g := graph.Torus(8, 8)
	net := local.New(g)
	c, err := DeltaPlusOne(net)
	if err != nil {
		t.Fatal(err)
	}
	if err := coloring.VerifyComplete(g, c, g.MaxDegree()+1); err != nil {
		t.Fatal(err)
	}
	if net.Rounds() == 0 {
		t.Fatal("no rounds charged")
	}
}

func TestLoopholeLayeredOnEasyGraph(t *testing.T) {
	g, _ := graph.EasyCliqueRing(6, 8)
	net := local.New(g)
	c, layers, err := LoopholeLayered(net, 50)
	if err != nil {
		t.Fatalf("LoopholeLayered: %v", err)
	}
	if err := coloring.VerifyComplete(g, c, g.MaxDegree()); err != nil {
		t.Fatal(err)
	}
	if layers <= 0 {
		t.Fatalf("layers = %d", layers)
	}
}

func TestLoopholeLayeredStuckOnHardGraph(t *testing.T) {
	g, _ := graph.HardCliqueBipartite(8, 8)
	net := local.New(g)
	_, _, err := LoopholeLayered(net, 50)
	if !errors.Is(err, ErrStuck) {
		t.Fatalf("expected ErrStuck on loophole-free graph, got %v", err)
	}
}

func TestLoopholeLayeredRespectsLayerBudget(t *testing.T) {
	// A long even cycle: only 4/6-cycles exist... C_{2k} has no sub-6-cycle
	// loopholes except itself when k <= 3; use a graph with one distant
	// loophole: a long path (every vertex has degree <= 2 < Δ? Δ=2, ends
	// have degree 1 -> singletons everywhere). Instead force the budget
	// error with maxLayers=0 on a star.
	g := graph.Star(5)
	net := local.New(g)
	if _, _, err := LoopholeLayered(net, 0); err == nil {
		t.Fatal("expected layer-budget error")
	}
}
