package listcolor

import (
	"math/rand"
	"testing"
	"testing/quick"

	"deltacoloring/internal/coloring"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/local"
)

func allActive(n int) []bool {
	a := make([]bool, n)
	for i := range a {
		a[i] = true
	}
	return a
}

func fullLists(n, k int) []coloring.Palette {
	ls := make([]coloring.Palette, n)
	for i := range ls {
		ls[i] = coloring.FullPalette(k)
	}
	return ls
}

func TestSolveDeltaPlusOne(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"Cycle", graph.Cycle(21)},
		{"Complete", graph.Complete(8)},
		{"Torus", graph.Torus(5, 5)},
		{"ER", graph.ErdosRenyi(60, 0.12, rng)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k := c.g.MaxDegree() + 1
			out := coloring.NewPartial(c.g.N())
			inst := Instance{Active: allActive(c.g.N()), Lists: fullLists(c.g.N(), k)}
			if err := Solve(local.New(c.g), inst, out); err != nil {
				t.Fatalf("Solve: %v", err)
			}
			if err := coloring.VerifyComplete(c.g, out, k); err != nil {
				t.Fatal(err)
			}
			if err := coloring.VerifyLists(c.g, out, inst.Lists); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSolvePartialActiveSet(t *testing.T) {
	g := graph.Complete(10)
	out := coloring.NewPartial(10)
	// Pre-color vertices 0..4 with colors 0..4.
	for v := 0; v < 5; v++ {
		out.Colors[v] = v
	}
	active := make([]bool, 10)
	for v := 5; v < 10; v++ {
		active[v] = true
	}
	// Lists: palette [0,10) minus colored neighbors = {5..9} for each.
	lists := GreedyLists(g, out, 10)
	inst := Instance{Active: active, Lists: lists}
	if err := Solve(local.New(g), inst, out); err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if err := coloring.VerifyComplete(g, out, 10); err != nil {
		t.Fatal(err)
	}
}

func TestSolveRejectsShortLists(t *testing.T) {
	g := graph.Complete(4)
	out := coloring.NewPartial(4)
	inst := Instance{Active: allActive(4), Lists: fullLists(4, 3)} // deg 3, lists of 3
	if err := Solve(local.New(g), inst, out); err == nil {
		t.Fatal("accepted lists of size deg")
	}
}

func TestSolveRejectsColoredActive(t *testing.T) {
	g := graph.Path(3)
	out := coloring.NewPartial(3)
	out.Colors[1] = 0
	inst := Instance{Active: allActive(3), Lists: fullLists(3, 3)}
	if err := Solve(local.New(g), inst, out); err == nil {
		t.Fatal("accepted already-colored active vertex")
	}
}

func TestSolveRejectsSizeMismatch(t *testing.T) {
	g := graph.Path(3)
	out := coloring.NewPartial(3)
	inst := Instance{Active: allActive(2), Lists: fullLists(3, 3)}
	if err := Solve(local.New(g), inst, out); err == nil {
		t.Fatal("accepted mismatched instance")
	}
}

func TestSolveNoActive(t *testing.T) {
	g := graph.Path(3)
	out := coloring.NewPartial(3)
	inst := Instance{Active: make([]bool, 3), Lists: fullLists(3, 3)}
	if err := Solve(local.New(g), inst, out); err != nil {
		t.Fatalf("Solve with no active vertices: %v", err)
	}
	if out.CountColored() != 0 {
		t.Fatal("colored something with no active vertices")
	}
}

func TestSolveArbitraryLists(t *testing.T) {
	// Cycle with lists {v mod 3, (v+1) mod 3, 5}: size 3 > degree 2.
	g := graph.Cycle(9)
	lists := make([]coloring.Palette, 9)
	for v := range lists {
		var p coloring.Palette
		p.Add(v % 3)
		p.Add((v + 1) % 3)
		p.Add(5)
		lists[v] = p
	}
	out := coloring.NewPartial(9)
	if err := Solve(local.New(g), Instance{Active: allActive(9), Lists: lists}, out); err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if err := coloring.VerifyLists(g, out, lists); err != nil {
		t.Fatal(err)
	}
	for v := range lists {
		if out.Colors[v] == coloring.None {
			t.Fatalf("vertex %d uncolored", v)
		}
	}
}

// Property: random graphs, random lists of size deg+1+extra are always
// completed to a valid list coloring.
func TestSolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(40)
		g := graph.PermuteIDs(graph.ErdosRenyi(n, 0.2, rng), rng)
		colorSpace := g.MaxDegree() + 5
		lists := make([]coloring.Palette, n)
		for v := 0; v < n; v++ {
			need := g.Degree(v) + 1
			var p coloring.Palette
			perm := rng.Perm(colorSpace)
			for i := 0; i < need+rng.Intn(3); i++ {
				p.Add(perm[i%len(perm)])
			}
			lists[v] = p
		}
		out := coloring.NewPartial(n)
		if err := Solve(local.New(g), Instance{Active: allActive(n), Lists: lists}, out); err != nil {
			return false
		}
		if err := coloring.VerifyLists(g, out, lists); err != nil {
			return false
		}
		return out.CountColored() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// buildWithIDs builds an n-vertex graph on edges with the given IDs.
func buildWithIDs(t *testing.T, n int, edges [][2]int, ids []uint64) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	for v, id := range ids {
		b.SetID(v, id)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGreedyIDOrderDecides: on one edge whose lower index carries the higher
// ID, the higher ID commits first and takes the smallest color — an index
// tie-break would color the pair the other way round.
func TestGreedyIDOrderDecides(t *testing.T) {
	g := buildWithIDs(t, 2, [][2]int{{0, 1}}, []uint64{10, 5})
	colors := []int{coloring.None, coloring.None}
	rounds, err := Greedy(local.New(g), Uniform(2, 2), colors, 4)
	if err != nil {
		t.Fatal(err)
	}
	if colors[0] != 0 || colors[1] != 1 || rounds != 2 {
		t.Fatalf("colors %v in %d rounds, want [0 1] in 2", colors, rounds)
	}
}

// TestGreedyInactiveNeighbors: an inactive uncolored neighbor neither blocks
// nor constrains (even with the larger ID) and is never written, while an
// inactive colored neighbor's color is still excluded.
func TestGreedyInactiveNeighbors(t *testing.T) {
	// Path 1 - 0 - 2: vertex 1 is inactive and uncolored with the largest
	// ID, vertex 2 is inactive and holds color 0.
	g := buildWithIDs(t, 3, [][2]int{{0, 1}, {0, 2}}, []uint64{1, 9, 0})
	inst := Uniform(3, 3)
	inst.Active[1], inst.Active[2] = false, false
	colors := []int{coloring.None, coloring.None, 0}
	rounds, err := Greedy(local.New(g), inst, colors, 3)
	if err != nil {
		t.Fatal(err)
	}
	if colors[0] != 1 || colors[1] != coloring.None || colors[2] != 0 || rounds != 1 {
		t.Fatalf("colors %v in %d rounds, want [1 None 0] in 1", colors, rounds)
	}
}

// TestGreedyUniformProperty: on random graphs with permuted IDs the uniform
// [0, Δ+1) instance always completes to a proper coloring.
func TestGreedyUniformProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		g := graph.PermuteIDs(graph.ErdosRenyi(50, 0.15, rng), rng)
		k := g.MaxDegree() + 1
		colors := make([]int, g.N())
		for v := range colors {
			colors[v] = coloring.None
		}
		if _, err := Greedy(local.New(g), Uniform(g.N(), k), colors, g.N()+2); err != nil {
			t.Fatal(err)
		}
		if err := coloring.VerifyComplete(g, &coloring.Partial{Colors: colors}, k); err != nil {
			t.Fatal(err)
		}
	}
}
