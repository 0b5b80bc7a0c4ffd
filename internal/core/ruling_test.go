package core

import (
	"math/rand"
	"strings"
	"testing"

	"deltacoloring/internal/graph"
	"deltacoloring/internal/local"
)

func TestRulingHardCliqueBipartite(t *testing.T) {
	g, _ := graph.HardCliqueBipartite(16, 16)
	res, err := ColorRuling(local.New(g), TestParams())
	if err != nil {
		t.Fatalf("ColorRuling: %v", err)
	}
	requireColoring(t, g, res)
	if res.Stats.HardCliques != 32 || res.Stats.EasyCliques != 0 {
		t.Fatalf("stats: %+v", res.Stats)
	}
	if res.Stats.TypeI == 0 {
		t.Fatal("ruling selection produced no Type I cliques")
	}
	if res.Stats.Triads != res.Stats.TypeI {
		t.Fatalf("Triads = %d, TypeI = %d", res.Stats.Triads, res.Stats.TypeI)
	}
}

func TestRulingEasyCliqueRing(t *testing.T) {
	g, _ := graph.EasyCliqueRing(8, 16)
	res, err := ColorRuling(local.New(g), TestParams())
	if err != nil {
		t.Fatalf("ColorRuling: %v", err)
	}
	requireColoring(t, g, res)
	if res.Stats.HardCliques != 0 || res.Stats.EasyCliques != 8 {
		t.Fatalf("stats: %+v", res.Stats)
	}
}

func TestRulingMixedHardEasy(t *testing.T) {
	g, _ := graph.HardWithEasyPatch(16, 16)
	res, err := ColorRuling(local.New(g), TestParams())
	if err != nil {
		t.Fatalf("ColorRuling: %v", err)
	}
	requireColoring(t, g, res)
	if res.Stats.HardCliques != 28 || res.Stats.EasyCliques != 4 {
		t.Fatalf("stats: %+v", res.Stats)
	}
}

func TestRulingEasyDenseBlocks(t *testing.T) {
	g, _ := graph.EasyDenseBlocks(8, 63, 1)
	res, err := ColorRuling(local.New(g), TestParams())
	if err != nil {
		t.Fatalf("ColorRuling: %v", err)
	}
	requireColoring(t, g, res)
}

// TestRulingWorkerIndependence pins the ruling route to the repository's
// determinism contract: identical colors and rounds at any worker count on
// either engine.
func TestRulingWorkerIndependence(t *testing.T) {
	g, _ := graph.HardCliqueBipartite(16, 16)
	base, err := ColorRuling(local.New(g), TestParams())
	if err != nil {
		t.Fatalf("ColorRuling: %v", err)
	}
	for _, workers := range []int{2, 8} {
		for _, frontier := range []bool{true, false} {
			net := local.New(g)
			net.SetWorkers(workers)
			net.SetFrontier(frontier)
			res, err := ColorRuling(net, TestParams())
			if err != nil {
				t.Fatalf("workers=%d frontier=%v: %v", workers, frontier, err)
			}
			if res.Rounds != base.Rounds {
				t.Fatalf("workers=%d frontier=%v: rounds %d != %d", workers, frontier, res.Rounds, base.Rounds)
			}
			for v, c := range res.Coloring.Colors {
				if c != base.Coloring.Colors[v] {
					t.Fatalf("workers=%d frontier=%v: vertex %d color %d != %d", workers, frontier, v, c, base.Coloring.Colors[v])
				}
			}
		}
	}
}

// TestRulingSpansAndPairLoad pins the route's cost against Algorithm 2's:
// the load-balanced selection keeps the pair-coloring phase no more
// expensive than the deterministic pipeline's (the ruling set trades total
// rounds for a cheaper, coordination-free selection; EXPERIMENTS.md E22
// quantifies the trade on every workload).
func TestRulingSpansAndPairLoad(t *testing.T) {
	g, _ := graph.HardCliqueBipartite(16, 16)
	det, err := ColorDeterministic(local.New(g), TestParams())
	if err != nil {
		t.Fatalf("ColorDeterministic: %v", err)
	}
	rul, err := ColorRuling(local.New(g), TestParams())
	if err != nil {
		t.Fatalf("ColorRuling: %v", err)
	}
	spanRounds := func(res *Result, name string) int {
		for _, sp := range res.Spans {
			if sp.Name == name {
				return sp.Rounds
			}
		}
		return -1
	}
	if rp, dp := spanRounds(rul, "alg2/pairs"), spanRounds(det, "alg2/pairs"); rp > dp {
		t.Fatalf("ruling pair coloring costs %d rounds > deterministic %d", rp, dp)
	}
}

// TestDriverSpanNames pins each driver's ordered span list on one hard
// instance. The names are a contract: the conformance checkers key on them
// and the benchmark's per-phase metrics read them.
func TestDriverSpanNames(t *testing.T) {
	g, _ := graph.HardCliqueBipartite(16, 16)
	runs := []struct {
		name string
		run  func(*local.Network) (*Result, error)
		want string
	}{
		{"det", func(net *local.Network) (*Result, error) { return ColorDeterministic(net, TestParams()) },
			"alg1/acd alg1/classify alg2/matching alg2/heg alg2/sparsify alg2/triads alg2/pairs alg2/rest"},
		{"rand", func(net *local.Network) (*Result, error) {
			res, err := ColorRandomized(net, TestRandomizedParams(), rand.New(rand.NewSource(1)))
			if err != nil {
				return nil, err
			}
			return &res.Result, nil
		}, "alg4/acd alg4/classify alg4/preshatter alg4/components alg4/happylayers"},
		{"ruling", func(net *local.Network) (*Result, error) { return ColorRuling(net, TestParams()) },
			"ruling/acd ruling/classify ruling/rulingset ruling/select alg2/triads alg2/pairs alg2/rest"},
		{"simple", func(net *local.Network) (*Result, error) { return ColorSimpleDense(net, TestParams()) },
			"simple/acd simple/classify simple/orientation simple/triads alg2/triads alg2/pairs alg2/rest"},
	}
	for _, r := range runs {
		res, err := r.run(local.New(g))
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		names := make([]string, len(res.Spans))
		for i, sp := range res.Spans {
			names[i] = sp.Name
		}
		if got := strings.Join(names, " "); got != r.want {
			t.Errorf("%s spans:\n got %s\nwant %s", r.name, got, r.want)
		}
	}
}
