package graph

import (
	"math/rand"
	"testing"
)

func TestBuilderDedupAndSort(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2 (duplicates collapsed)", g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestBuilderRejectsSelfLoop(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(1, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted a self-loop")
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 2)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted an out-of-range edge")
	}
}

func TestBuilderRejectsDuplicateIDs(t *testing.T) {
	b := NewBuilder(2)
	b.SetID(0, 7)
	b.SetID(1, 7)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted duplicate IDs")
	}
}

func TestBuilderRejectsReuse(t *testing.T) {
	b := NewBuilder(1)
	if _, err := b.Build(); err != nil {
		t.Fatalf("first Build: %v", err)
	}
	if _, err := b.Build(); err == nil {
		t.Fatal("second Build on the same builder succeeded")
	}
}

func TestHasEdge(t *testing.T) {
	g := Cycle(5)
	if !g.HasEdge(0, 1) || !g.HasEdge(4, 0) {
		t.Fatal("cycle edges missing")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("chord reported in C5")
	}
	if g.HasEdge(3, 3) {
		t.Fatal("self-loop reported")
	}
}

func TestDegreesAndEdges(t *testing.T) {
	g := Complete(6)
	if g.MaxDegree() != 5 {
		t.Fatalf("K6 max degree = %d, want 5", g.MaxDegree())
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 5 {
			t.Fatalf("K6 vertex %d has degree %d, want 5", v, g.Degree(v))
		}
	}
	if g.M() != 15 {
		t.Fatalf("K6 edges = %d, want 15", g.M())
	}
	if len(g.Edges()) != 15 {
		t.Fatalf("Edges() length = %d", len(g.Edges()))
	}
}

func TestIsClique(t *testing.T) {
	g := Complete(4)
	if !g.IsClique([]int{0, 1, 2, 3}) {
		t.Fatal("K4 not recognized as clique")
	}
	c := Cycle(4)
	if c.IsClique([]int{0, 1, 2}) {
		t.Fatal("path in C4 misreported as clique")
	}
	if !c.IsClique([]int{0, 1}) || !c.IsClique([]int{2}) || !c.IsClique(nil) {
		t.Fatal("small sets should be cliques")
	}
}

func TestNeighborsWithin(t *testing.T) {
	g := Path(7)
	ball := g.NeighborsWithin(3, 2)
	want := []int{1, 2, 4, 5}
	if len(ball) != len(want) {
		t.Fatalf("ball = %v, want %v", ball, want)
	}
	for i := range want {
		if ball[i] != want[i] {
			t.Fatalf("ball = %v, want %v", ball, want)
		}
	}
	if got := g.NeighborsWithin(0, 0); got != nil {
		t.Fatalf("radius-0 ball = %v, want nil", got)
	}
}

func TestDist(t *testing.T) {
	g := Cycle(8)
	cases := []struct{ u, v, want int }{
		{0, 0, 0}, {0, 1, 1}, {0, 4, 4}, {0, 5, 3},
	}
	for _, c := range cases {
		if got := g.Dist(c.u, c.v); got != c.want {
			t.Errorf("Dist(%d,%d) = %d, want %d", c.u, c.v, got, c.want)
		}
	}
	u := Union(Cycle(3), Cycle(3))
	if got := u.Dist(0, 4); got != -1 {
		t.Fatalf("cross-component Dist = %d, want -1", got)
	}
}

func TestGeneratorShapes(t *testing.T) {
	cases := []struct {
		name       string
		g          *Graph
		n, m, maxD int
	}{
		{"Cycle(5)", Cycle(5), 5, 5, 2},
		{"Path(5)", Path(5), 5, 4, 2},
		{"Complete(7)", Complete(7), 7, 21, 6},
		{"Star(6)", Star(6), 6, 5, 5},
		{"Grid(4,3)", Grid(4, 3), 12, 17, 4},
		{"Torus(4,5)", Torus(4, 5), 20, 40, 4},
		{"DisjointCliques(3,4)", DisjointCliques(3, 4), 12, 18, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.g.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if c.g.N() != c.n || c.g.M() != c.m || c.g.MaxDegree() != c.maxD {
				t.Fatalf("got (n=%d, m=%d, Δ=%d), want (%d, %d, %d)",
					c.g.N(), c.g.M(), c.g.MaxDegree(), c.n, c.m, c.maxD)
			}
		})
	}
}

func TestRandomRegular(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := RandomRegular(50, 4, rng)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("vertex %d has degree %d, want 4", v, g.Degree(v))
		}
	}
}

func TestRandomTree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := RandomTree(64, rng)
	if g.M() != 63 {
		t.Fatalf("tree edges = %d, want 63", g.M())
	}
	for v := 1; v < g.N(); v++ {
		if g.Dist(0, v) < 0 {
			t.Fatalf("tree vertex %d unreachable from 0", v)
		}
	}
}

func TestErdosRenyiExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if g := ErdosRenyi(10, 0, rng); g.M() != 0 {
		t.Fatal("G(n,0) has edges")
	}
	if g := ErdosRenyi(10, 1, rng); g.M() != 45 {
		t.Fatal("G(n,1) incomplete")
	}
}

func TestPermuteIDsPreservesStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := Torus(5, 5)
	p := PermuteIDs(g, rng)
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if p.M() != g.M() {
		t.Fatal("edge count changed")
	}
	for v := 0; v < g.N(); v++ {
		if p.Degree(v) != g.Degree(v) {
			t.Fatal("degree changed")
		}
	}
	// IDs must still be a permutation of 0..n-1.
	seen := make([]bool, g.N())
	for v := 0; v < g.N(); v++ {
		seen[p.ID(v)] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("ID %d missing after permutation", v)
		}
	}
}

func TestRemoveEdges(t *testing.T) {
	g := Complete(4)
	h := RemoveEdges(g, []Edge{{U: 1, V: 0}, {U: 2, V: 3}})
	if h.M() != 4 {
		t.Fatalf("M = %d after removing 2 edges from K4, want 4", h.M())
	}
	if h.HasEdge(0, 1) || h.HasEdge(2, 3) {
		t.Fatal("removed edge still present")
	}
	if !h.HasEdge(0, 2) {
		t.Fatal("unrelated edge vanished")
	}
}
