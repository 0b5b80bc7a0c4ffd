package loophole

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"deltacoloring/internal/acd"
	"deltacoloring/internal/coloring"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/local"
)

func TestFindForVertexDegreeDeficient(t *testing.T) {
	g := graph.Star(5) // leaves have degree 1 < Δ=4
	l := FindForVertex(g, 4, 1)
	if l == nil || len(l.Verts) != 1 || l.Verts[0] != 1 {
		t.Fatalf("expected singleton loophole, got %+v", l)
	}
	if err := l.Validate(g, 4); err != nil {
		t.Fatal(err)
	}
}

func TestFindForVertexFourCycle(t *testing.T) {
	g := graph.Cycle(4) // C4 itself is a non-clique 4-cycle; Δ=2, all deg 2
	l := FindForVertex(g, 2, 0)
	if l == nil || len(l.Verts) != 4 {
		t.Fatalf("expected 4-cycle loophole, got %+v", l)
	}
	if err := l.Validate(g, 2); err != nil {
		t.Fatal(err)
	}
}

func TestFindForVertexSixCycle(t *testing.T) {
	g := graph.Cycle(6)
	l := FindForVertex(g, 2, 3)
	if l == nil {
		t.Fatal("no loophole found on C6")
	}
	// C6 contains no 4-cycle, so the witness must be the 6-cycle.
	if len(l.Verts) != 6 {
		t.Fatalf("expected 6-cycle, got %v", l.Verts)
	}
	if err := l.Validate(g, 2); err != nil {
		t.Fatal(err)
	}
}

func TestFindForVertexNoneOnOddCycle(t *testing.T) {
	g := graph.Cycle(7)
	for v := 0; v < 7; v++ {
		if l := FindForVertex(g, 2, v); l != nil {
			t.Fatalf("odd cycle should have no loophole, got %+v at %d", l, v)
		}
	}
}

func TestFindForVertexNoneOnClique(t *testing.T) {
	g := graph.Complete(5) // K5: every 4-cycle induces a clique, deg = Δ
	for v := 0; v < 5; v++ {
		if l := FindForVertex(g, 4, v); l != nil {
			t.Fatalf("K5 should have no loophole, got %+v", l)
		}
	}
}

func TestValidateRejectsBadLoopholes(t *testing.T) {
	g := graph.Complete(4)
	if err := newSingleton(0).Validate(g, 3); err == nil {
		t.Fatal("full-degree singleton accepted")
	}
	cl := newCycle([]int{0, 1, 2, 3})
	if err := cl.Validate(g, 3); err == nil {
		t.Fatal("clique 4-cycle accepted")
	}
	p := graph.Path(4)
	bad := newCycle([]int{0, 1, 2, 3})
	if err := bad.Validate(p, 2); err == nil {
		t.Fatal("non-cycle accepted")
	}
	if err := (&Loophole{Verts: []int{0, 1}}).Validate(p, 2); err == nil {
		t.Fatal("size-2 loophole accepted")
	}
}

func TestClassifyHardCliqueBipartite(t *testing.T) {
	g, _ := graph.HardCliqueBipartite(16, 16)
	a, err := acd.Compute(local.New(g), 1.0/8)
	if err != nil {
		t.Fatal(err)
	}
	cl := Classify(g, a)
	for ci, easy := range cl.Easy {
		if easy {
			t.Fatalf("clique %d misclassified easy (witness %v)", ci, cl.Witness[ci].Verts)
		}
	}
	if err := VerifyHard(g, a, cl); err != nil {
		t.Fatal(err)
	}
}

func TestClassifyEasyCliqueRing(t *testing.T) {
	g, _ := graph.EasyCliqueRing(6, 16)
	a, err := acd.Compute(local.New(g), 1.0/8)
	if err != nil {
		t.Fatal(err)
	}
	cl := Classify(g, a)
	for ci, easy := range cl.Easy {
		if !easy {
			t.Fatalf("clique %d misclassified hard", ci)
		}
	}
	if err := VerifyHard(g, a, cl); err != nil {
		t.Fatal(err)
	}
}

func TestClassifyHardWithEasyPatch(t *testing.T) {
	g, part := graph.HardWithEasyPatch(16, 16)
	a, err := acd.Compute(local.New(g), 1.0/8)
	if err != nil {
		t.Fatal(err)
	}
	cl := Classify(g, a)
	if err := VerifyHard(g, a, cl); err != nil {
		t.Fatal(err)
	}
	// The rewiring makes exactly the doubled clique pairs easy: ground-truth
	// cliques L0 (0), R0 (m), L_{m-1} (m-1), R1 (m+1).
	const m = 16
	wantEasy := map[int]bool{0: true, m: true, m - 1: true, m + 1: true}
	easyCount := 0
	for ci, easy := range cl.Easy {
		if !easy {
			continue
		}
		easyCount++
		if !wantEasy[part.Member[a.Cliques[ci][0]]] {
			t.Fatalf("unexpected easy clique %d (ground truth %d)", ci, part.Member[a.Cliques[ci][0]])
		}
	}
	if easyCount != 4 {
		t.Fatalf("easy cliques = %d, want 4", easyCount)
	}
}

// Classify must agree with the exhaustive detector on whether each clique
// intersects a loophole.
func TestClassifyMatchesExhaustive(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"hard", func() *graph.Graph { g, _ := graph.HardCliqueBipartite(12, 12); return g }()},
		{"easyRing", func() *graph.Graph { g, _ := graph.EasyCliqueRing(5, 12); return g }()},
		{"patched", func() *graph.Graph { g, _ := graph.HardWithEasyPatch(12, 12); return g }()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a, err := acd.Compute(local.New(c.g), 1.0/6)
			if err != nil {
				t.Fatal(err)
			}
			cl := Classify(c.g, a)
			delta := c.g.MaxDegree()
			for ci, members := range a.Cliques {
				exhaustive := false
				for _, v := range members {
					if FindForVertex(c.g, delta, v) != nil {
						exhaustive = true
						break
					}
				}
				if exhaustive != cl.Easy[ci] {
					t.Fatalf("clique %d: exhaustive=%v classify=%v", ci, exhaustive, cl.Easy[ci])
				}
			}
		})
	}
}

func TestCompleteSingleton(t *testing.T) {
	g := graph.Star(4)
	c := coloring.NewPartial(4)
	c.Colors[0] = 0 // center colored
	l := newSingleton(1)
	if err := Complete(g, c, l, 3); err != nil {
		t.Fatal(err)
	}
	if c.Colors[1] == coloring.None || c.Colors[1] == 0 {
		t.Fatalf("bad completion color %d", c.Colors[1])
	}
}

func TestCompleteFourCycleTightPalette(t *testing.T) {
	// C4 with Δ=2: 2 colors suffice exactly because it is even.
	g := graph.Cycle(4)
	c := coloring.NewPartial(4)
	l := newCycle([]int{0, 1, 2, 3})
	if err := Complete(g, c, l, 2); err != nil {
		t.Fatal(err)
	}
	if err := coloring.VerifyComplete(g, c, 2); err != nil {
		t.Fatal(err)
	}
}

func TestCompleteImpossible(t *testing.T) {
	// Odd cycle with 2 colors has no completion.
	g := graph.Cycle(5)
	c := coloring.NewPartial(5)
	fake := &Loophole{Verts: []int{0, 1, 2, 3, 4}, Cycle: []int{0, 1, 2, 3, 4}}
	if err := Complete(g, c, fake, 2); err == nil {
		t.Fatal("colored an odd cycle with 2 colors")
	}
}

func TestCompleteAlreadyColored(t *testing.T) {
	g := graph.Cycle(4)
	c := coloring.NewPartial(4)
	c.Colors = []int{0, 1, 0, 1}
	if err := Complete(g, c, newCycle([]int{0, 1, 2, 3}), 2); err != nil {
		t.Fatal(err)
	}
}

// Lemma 7: non-clique even cycles are deg-list colorable; odd cycles and
// cliques are not.
func TestLemma7DegListColorability(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	colorsOf := func(k, space int) coloring.Palette {
		var p coloring.Palette
		perm := rng.Perm(space)
		for i := 0; i < k; i++ {
			p.Add(perm[i])
		}
		return p
	}
	// Even cycles: every deg-sized list assignment admits a coloring.
	for _, n := range []int{4, 6} {
		g := graph.Cycle(n)
		for trial := 0; trial < 200; trial++ {
			lists := make([]coloring.Palette, n)
			for v := range lists {
				lists[v] = colorsOf(2, 4)
			}
			if !ExistsListColoring(g, lists) {
				t.Fatalf("C%d with deg-lists had no coloring (violates Lemma 7)", n)
			}
		}
	}
	// Odd cycle counterexample: identical lists of size 2.
	g := graph.Cycle(5)
	lists := make([]coloring.Palette, 5)
	for v := range lists {
		lists[v] = coloring.FullPalette(2)
	}
	if ExistsListColoring(g, lists) {
		t.Fatal("C5 with identical 2-lists should not be colorable")
	}
	// Clique counterexample: identical lists of size deg.
	k := graph.Complete(4)
	klists := make([]coloring.Palette, 4)
	for v := range klists {
		klists[v] = coloring.FullPalette(3)
	}
	if ExistsListColoring(k, klists) {
		t.Fatal("K4 with identical 3-lists should not be colorable")
	}
}

// VerifyHard checks the Lemma 9 structure per branch; exercise each with
// hand-built decompositions.
func TestVerifyHardBranches(t *testing.T) {
	fakeHard := func(n int) *Classification {
		return &Classification{Easy: make([]bool, n), Witness: make([]*Loophole, n)}
	}
	t.Run("notAClique", func(t *testing.T) {
		g := graph.Cycle(4)
		a := &acd.ACD{Eps: 0.5, Delta: 2, CliqueOf: []int{0, 0, 0, 0}, Cliques: [][]int{{0, 1, 2, 3}}}
		if err := VerifyHard(g, a, fakeHard(1)); err == nil {
			t.Fatal("non-clique hard AC accepted")
		}
	})
	t.Run("degreeDeficient", func(t *testing.T) {
		// K4 plus a pendant edge: Δ=4, clique members have degree 3 or 4.
		b := graph.NewBuilder(5)
		for u := 0; u < 4; u++ {
			for v := u + 1; v < 4; v++ {
				b.AddEdge(u, v)
			}
		}
		b.AddEdge(0, 4)
		g := b.MustBuild()
		a := &acd.ACD{Eps: 0.5, Delta: 4, CliqueOf: []int{0, 0, 0, 0, acd.Sparse}, Cliques: [][]int{{0, 1, 2, 3}}}
		if err := VerifyHard(g, a, fakeHard(1)); err == nil {
			t.Fatal("degree-deficient hard AC accepted")
		}
	})
	t.Run("outsiderTwoNeighbors", func(t *testing.T) {
		// K4 where every member also has an external edge, and one outsider
		// catches two of them.
		b := graph.NewBuilder(7)
		for u := 0; u < 4; u++ {
			for v := u + 1; v < 4; v++ {
				b.AddEdge(u, v)
			}
		}
		b.AddEdge(0, 4)
		b.AddEdge(1, 4) // outsider 4 has two neighbors in the clique
		b.AddEdge(2, 5)
		b.AddEdge(3, 6)
		b.AddEdge(5, 6)
		b.AddEdge(4, 5)
		g := b.MustBuild()
		a := &acd.ACD{Eps: 0.5, Delta: 4, CliqueOf: []int{0, 0, 0, 0, acd.Sparse, acd.Sparse, acd.Sparse}, Cliques: [][]int{{0, 1, 2, 3}}}
		if err := VerifyHard(g, a, fakeHard(1)); err == nil {
			t.Fatal("Lemma 9.3 violation accepted")
		}
	})
	t.Run("easyWithoutWitness", func(t *testing.T) {
		g := graph.Complete(4)
		a := &acd.ACD{Eps: 0.5, Delta: 3, CliqueOf: []int{0, 0, 0, 0}, Cliques: [][]int{{0, 1, 2, 3}}}
		cl := &Classification{Easy: []bool{true}, Witness: []*Loophole{nil}}
		if err := VerifyHard(g, a, cl); err == nil {
			t.Fatal("easy clique without witness accepted")
		}
	})
}

// naiveSixCycle is the plain 6-cycle search sixCycleThrough must agree
// with: the same enumeration order, with every adjacency and the clique
// test read through HasEdge.
func naiveSixCycle(g *graph.Graph, v int) *Loophole {
	nv := g.Neighbors(v)
	for _, na := range nv {
		a := int(na)
		for _, ne := range nv {
			e := int(ne)
			if e == a {
				continue
			}
			for _, nb := range g.Neighbors(a) {
				b := int(nb)
				if b == v || b == e {
					continue
				}
				for _, nc := range g.Neighbors(b) {
					c := int(nc)
					if c == v || c == a || c == e {
						continue
					}
					for _, nd := range g.Neighbors(c) {
						d := int(nd)
						if d == v || d == a || d == b || d == e || !g.HasEdge(d, e) {
							continue
						}
						if cand := []int{v, a, b, c, d, e}; !g.IsClique(cand) {
							return newCycle(cand)
						}
					}
				}
			}
		}
	}
	return nil
}

// TestSixCycleMatchesNaive: the marked 6-cycle search returns exactly the
// cycle the plain search finds first, or nil with it, on every vertex of
// random graphs dense and sparse, and of cliques with a few edges removed
// (where most closing paths are cliques).
func TestSixCycleMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var gs []*graph.Graph
	for _, p := range []float64{0.15, 0.3, 0.6, 0.9} {
		for i := 0; i < 4; i++ {
			gs = append(gs, graph.ErdosRenyi(9+rng.Intn(6), p, rng))
		}
	}
	gs = append(gs, graph.Complete(8), graph.Cycle(6), graph.Cycle(7))
	for _, missing := range [][][2]int{{{0, 1}}, {{2, 5}, {6, 7}}, {{0, 8}, {1, 8}, {3, 4}}} {
		b := graph.NewBuilder(9)
		for u := 0; u < 9; u++ {
			for w := u + 1; w < 9; w++ {
				if !slices.Contains(missing, [2]int{u, w}) {
					b.AddEdge(u, w)
				}
			}
		}
		gs = append(gs, b.MustBuild())
	}
	for gi, g := range gs {
		for v := 0; v < g.N(); v++ {
			got, want := sixCycleThrough(g, v), naiveSixCycle(g, v)
			if (got == nil) != (want == nil) || (got != nil && !reflect.DeepEqual(got.Cycle, want.Cycle)) {
				t.Fatalf("graph %d vertex %d: got %+v, want %+v", gi, v, got, want)
			}
		}
	}
}
