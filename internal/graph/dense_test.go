package graph

import (
	"math/rand"
	"testing"
)

func checkPartition(t *testing.T, g *Graph, part *CliquePartition) {
	t.Helper()
	if len(part.Member) != g.N() {
		t.Fatalf("partition covers %d vertices, graph has %d", len(part.Member), g.N())
	}
	count := 0
	for ci, members := range part.Cliques {
		count += len(members)
		if !g.IsClique(members) {
			t.Fatalf("clique %d is not a clique", ci)
		}
		for _, v := range members {
			if part.Member[v] != ci {
				t.Fatalf("membership mismatch for vertex %d", v)
			}
		}
	}
	if count != g.N() {
		t.Fatalf("cliques cover %d vertices, want %d", count, g.N())
	}
}

func TestHardCliqueBipartiteShape(t *testing.T) {
	const m, delta = 8, 6
	g, part := HardCliqueBipartite(m, delta)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.N() != 2*m*delta {
		t.Fatalf("n = %d, want %d", g.N(), 2*m*delta)
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != delta {
			t.Fatalf("vertex %d has degree %d, want %d", v, g.Degree(v), delta)
		}
	}
	checkPartition(t, g, part)
	// Each vertex has exactly one external neighbor, in a different clique.
	for v := 0; v < g.N(); v++ {
		ext := 0
		for _, w := range g.Neighbors(v) {
			if part.Member[w] != part.Member[v] {
				ext++
			}
		}
		if ext != 1 {
			t.Fatalf("vertex %d has %d external neighbors, want 1", v, ext)
		}
	}
}

// TestHardCliqueBipartiteSuperGraph checks the structural facts the hardness
// argument rests on: the super-graph of cliques is simple (no two cliques
// share more than one matching edge), triangle-free, and no external vertex
// has two neighbors in the same clique (Lemma 9, part 3).
func TestHardCliqueBipartiteSuperGraph(t *testing.T) {
	const m, delta = 9, 5
	g, part := HardCliqueBipartite(m, delta)
	k := len(part.Cliques)
	super := make(map[[2]int]int)
	for _, e := range g.Edges() {
		cu, cv := part.Member[e.U], part.Member[e.V]
		if cu == cv {
			continue
		}
		if cu > cv {
			cu, cv = cv, cu
		}
		super[[2]int{cu, cv}]++
	}
	adj := make([][]bool, k)
	for i := range adj {
		adj[i] = make([]bool, k)
	}
	for key, cnt := range super {
		if cnt != 1 {
			t.Fatalf("clique pair %v joined by %d edges, want 1", key, cnt)
		}
		adj[key[0]][key[1]] = true
		adj[key[1]][key[0]] = true
	}
	for a := 0; a < k; a++ {
		for b := a + 1; b < k; b++ {
			if !adj[a][b] {
				continue
			}
			for c := b + 1; c < k; c++ {
				if adj[a][c] && adj[b][c] {
					t.Fatalf("super-graph triangle %d-%d-%d", a, b, c)
				}
			}
		}
	}
	// Lemma 9 part 3.
	for v := 0; v < g.N(); v++ {
		perClique := map[int]int{}
		for _, w := range g.Neighbors(v) {
			if part.Member[w] != part.Member[v] {
				perClique[part.Member[w]]++
			}
		}
		for c, cnt := range perClique {
			if cnt > 1 {
				t.Fatalf("vertex %d has %d neighbors in foreign clique %d", v, cnt, c)
			}
		}
	}
}

func TestEasyCliqueRingShape(t *testing.T) {
	const k, delta = 6, 8
	g, part := EasyCliqueRing(k, delta)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	checkPartition(t, g, part)
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != delta {
			t.Fatalf("vertex %d degree %d, want %d", v, g.Degree(v), delta)
		}
	}
	// The construction must contain a non-clique 4-cycle: two matched pairs
	// between adjacent cliques.
	found := false
	for v := 0; v < delta/2 && !found; v++ {
		for u := v + 1; u < delta/2; u++ {
			// v, u in clique 0; their partners in clique 1.
			pv, pu := delta+delta/2+v, delta+delta/2+u
			if g.HasEdge(v, u) && g.HasEdge(pv, pu) && g.HasEdge(v, pv) && g.HasEdge(u, pu) && !g.HasEdge(v, pu) {
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("expected non-clique 4-cycle between adjacent cliques")
	}
}

func TestEasyDenseBlocksShape(t *testing.T) {
	const k, size, spread = 10, 12, 2
	g, part := EasyDenseBlocks(k, size, spread)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	checkPartition(t, g, part)
	wantDeg := size - 1 + 2*spread
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != wantDeg {
			t.Fatalf("vertex %d degree %d, want %d", v, g.Degree(v), wantDeg)
		}
	}
}

func TestHardWithEasyPatch(t *testing.T) {
	const m, delta = 8, 6
	g, part := HardWithEasyPatch(m, delta)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	checkPartition(t, g, part)
	// Rewiring preserves all degrees.
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != delta {
			t.Fatalf("vertex %d has degree %d, want %d", v, g.Degree(v), delta)
		}
	}
	// L0 and R0 are now joined by two matching edges (slots 0 and 1).
	if !g.HasEdge(0*delta+0, m*delta+0) || !g.HasEdge(0*delta+1, m*delta+1) {
		t.Fatal("expected doubled L0-R0 matching edges")
	}
	// Their union contains a non-clique 4-cycle.
	c := []int{0, 1, m*delta + 1, m * delta}
	for i := range c {
		if !g.HasEdge(c[i], c[(i+1)%4]) {
			t.Fatalf("4-cycle edge {%d,%d} missing", c[i], c[(i+1)%4])
		}
	}
	if g.IsClique(c) {
		t.Fatal("patch 4-cycle induces a clique")
	}
}

func TestDenseGeneratorPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"HardCliqueBipartite small m", func() { HardCliqueBipartite(3, 5) }},
		{"EasyCliqueRing odd delta", func() { EasyCliqueRing(5, 5) }},
		{"EasyDenseBlocks tight k", func() { EasyDenseBlocks(4, 10, 2) }},
		{"Cycle too small", func() { Cycle(2) }},
		{"Torus too small", func() { Torus(2, 5) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			c.fn()
		})
	}
}

func TestMixedDenseRandomShape(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	const k, size = 72, 31
	g, part := MixedDenseRandom(k, size, rng)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	checkPartition(t, g, part)
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != size+1 {
			t.Fatalf("vertex %d degree %d, want %d", v, g.Degree(v), size+1)
		}
	}
	// One edge per clique pair.
	seen := map[[2]int]int{}
	for _, e := range g.Edges() {
		cu, cv := part.Member[e.U], part.Member[e.V]
		if cu == cv {
			continue
		}
		if cu > cv {
			cu, cv = cv, cu
		}
		seen[[2]int{cu, cv}]++
	}
	for pair, cnt := range seen {
		if cnt != 1 {
			t.Fatalf("clique pair %v has %d edges", pair, cnt)
		}
	}
}

func TestMixedDenseRandomPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k <= 2*size")
		}
	}()
	rng := rand.New(rand.NewSource(1))
	MixedDenseRandom(10, 31, rng)
}

// TestDenseFamilyChecked pins DenseFamily's error texts (the service answers
// them verbatim as 400 bodies) and their order: family, then size, then
// domain. Good arguments build the generator's graph.
func TestDenseFamilyChecked(t *testing.T) {
	for _, c := range []struct {
		family         string
		m, delta, maxN int
		want           string
	}{
		{"cursed", 4, 16, 100, `unknown gen family "cursed" (want hard, easy, or mixed)`},
		{"cursed", 1 << 40, 16, 100, `unknown gen family "cursed" (want hard, easy, or mixed)`},
		{"hard", 99999999, 16, 1000, "gen hard m=99999999 delta=16 exceeds the 1000-vertex limit"},
		{"easy", 1, 1 << 40, 1000, "gen easy m=1 delta=1099511627776 exceeds the 1000-vertex limit"},
		{"hard", 4, 8, 0, "gen hard needs 2 <= delta <= m, got m=4 delta=8"},
		{"easy", 3, 16, 0, "gen easy needs m >= 4 and even delta >= 4, got m=3 delta=16"},
		{"easy", 4, 5, 0, "gen easy needs m >= 4 and even delta >= 4, got m=4 delta=5"},
		{"mixed", 8, 16, 0, "gen mixed needs m >= max(4, delta) and delta >= 3, got m=8 delta=16"},
		{"mixed", 2, 2, 1000, "gen mixed needs m >= max(4, delta) and delta >= 3, got m=2 delta=2"},
	} {
		_, err := DenseFamily(c.family, c.m, c.delta, c.maxN)
		if err == nil || err.Error() != c.want {
			t.Errorf("DenseFamily(%q, %d, %d, %d) = %v, want %q", c.family, c.m, c.delta, c.maxN, err, c.want)
		}
	}
	for _, c := range []struct {
		family string
		build  func(m, delta int) (*Graph, *CliquePartition)
		m      int
	}{
		{"hard", HardCliqueBipartite, 16},
		{"easy", EasyCliqueRing, 6},
		{"mixed", HardWithEasyPatch, 16},
	} {
		g, err := DenseFamily(c.family, c.m, 16, 512)
		if err != nil {
			t.Fatalf("%s: %v", c.family, err)
		}
		if want, _ := c.build(c.m, 16); EqualCSR(g, want) != nil {
			t.Errorf("%s: DenseFamily differs from its generator: %v", c.family, EqualCSR(g, want))
		}
	}
	// The generators panic with the same precondition; HardWithEasyPatch
	// checks m >= delta itself rather than failing inside
	// HardCliqueBipartite.
	func() {
		defer func() {
			if r := recover(); r != "graph: gen mixed needs m >= max(4, delta) and delta >= 3, got m=8 delta=16" {
				t.Errorf("HardWithEasyPatch(8, 16) panicked with %v", r)
			}
		}()
		HardWithEasyPatch(8, 16)
	}()
}
