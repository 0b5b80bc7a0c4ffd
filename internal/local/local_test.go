package local

import (
	"testing"

	"deltacoloring/internal/graph"
)

// exchange runs one round of f on a fresh Runner over a copy of cur: the
// one-shot reference a persistent Runner's Steps must match.
func exchange(net *Network, cur []int, f func(v int, self int, nbrs Nbrs[int]) int) []int {
	return NewRunner(net, append([]int(nil), cur...)).Step(f)
}

// bfsByExchange computes hop distances from vertex 0 using one round per
// BFS level; it doubles as the canonical example of the state engine.
func bfsByExchange(net *Network, diamBound int) []int {
	g := net.Graph()
	dist := make([]int, g.N())
	for v := range dist {
		dist[v] = -1
	}
	dist[0] = 0
	for r := 0; r < diamBound; r++ {
		dist = exchange(net, dist, func(v int, self int, nbrs Nbrs[int]) int {
			if self >= 0 {
				return self
			}
			for i := 0; i < nbrs.Len(); i++ {
				if d := nbrs.State(i); d >= 0 {
					return d + 1
				}
			}
			return -1
		})
	}
	return dist
}

func TestExchangeBFS(t *testing.T) {
	g := graph.Cycle(9)
	net := New(g)
	dist := bfsByExchange(net, 5)
	for v := 0; v < g.N(); v++ {
		if want := g.Dist(0, v); dist[v] != want {
			t.Fatalf("dist[%d] = %d, want %d", v, dist[v], want)
		}
	}
	if net.Rounds() != 5 {
		t.Fatalf("rounds = %d, want 5", net.Rounds())
	}
}

func TestExchangeParallelMatchesSequential(t *testing.T) {
	g := graph.Torus(20, 20)
	seq := New(g)
	par := New(g)
	par.SetWorkers(8)
	d1 := bfsByExchange(seq, 25)
	d2 := bfsByExchange(par, 25)
	for v := range d1 {
		if d1[v] != d2[v] {
			t.Fatalf("parallel execution diverged at vertex %d: %d vs %d", v, d1[v], d2[v])
		}
	}
	if seq.Rounds() != par.Rounds() {
		t.Fatalf("round counts diverged: %d vs %d", seq.Rounds(), par.Rounds())
	}
}

func TestChargeAndVirtualDilation(t *testing.T) {
	g := graph.Cycle(4)
	net := New(g)
	net.Charge(3)
	if net.Rounds() != 3 {
		t.Fatalf("rounds = %d, want 3", net.Rounds())
	}
	vg := graph.Complete(3)
	vnet := net.Virtual(vg, 4)
	vnet.Charge(2)
	if net.Rounds() != 3+8 {
		t.Fatalf("rounds = %d, want 11", net.Rounds())
	}
	// Nested virtual networks multiply dilations.
	vvnet := vnet.Virtual(vg, 2)
	vvnet.Charge(1)
	if net.Rounds() != 11+8 {
		t.Fatalf("rounds = %d, want 19", net.Rounds())
	}
	// A round on a virtual network charges dilation rounds.
	exchange(vnet, make([]int, vg.N()), func(v int, s int, nb Nbrs[int]) int { return s })
	if net.Rounds() != 19+4 {
		t.Fatalf("rounds = %d, want 23", net.Rounds())
	}
	if net.Charge(0); net.Rounds() != 23 {
		t.Fatal("Charge(0) changed the counter")
	}
}

func TestPhaseSpans(t *testing.T) {
	net := New(graph.Cycle(5))
	endA := net.Phase("a")
	net.Charge(2)
	endB := net.Phase("b")
	net.Charge(3) // counts to both open spans
	endB()
	net.Charge(1) // only to a
	endA()
	net.Charge(5) // to none
	spans := net.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %v", spans)
	}
	if spans[0].Name != "a" || spans[0].Rounds != 6 {
		t.Fatalf("span a = %+v, want 6 rounds", spans[0])
	}
	if spans[1].Name != "b" || spans[1].Rounds != 3 {
		t.Fatalf("span b = %+v, want 3 rounds", spans[1])
	}
}

func TestIterate(t *testing.T) {
	g := graph.Path(10)
	net := New(g)
	dist := make([]int, g.N())
	for v := range dist {
		dist[v] = -1
	}
	dist[0] = 0
	final, rounds, err := NewRunner(net, dist).Run(100,
		func(v int, self int, nbrs Nbrs[int]) int {
			if self >= 0 {
				return self
			}
			for i := 0; i < nbrs.Len(); i++ {
				if d := nbrs.State(i); d >= 0 {
					return d + 1
				}
			}
			return -1
		},
		func(v int, s int) bool { return s >= 0 })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rounds != 9 {
		t.Fatalf("rounds = %d, want 9", rounds)
	}
	for v, d := range final {
		if d != v {
			t.Fatalf("dist[%d] = %d", v, d)
		}
	}
}

func TestIterateBudgetExhausted(t *testing.T) {
	net := New(graph.Path(10))
	st := make([]int, 10)
	_, _, err := NewRunner(net, st).Run(3,
		func(v int, s int, nb Nbrs[int]) int { return s },
		func(v int, s int) bool { return false })
	if err == nil {
		t.Fatal("expected budget-exhausted error")
	}
}
