package split

import (
	"math/rand"
	"testing"
	"testing/quick"

	"deltacoloring/internal/graph"
	"deltacoloring/internal/local"
)

func TestSplit2OnRegularGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := graph.RandomRegular(100, 8, rng)
	net := local.New(g)
	edges := g.Edges()
	part, err := Split(net, g.N(), edges, 1, 0.25)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	if err := VerifyParts(g.N(), edges, part, 1, 0.25); err != nil {
		t.Fatal(err)
	}
	if net.Rounds() == 0 {
		t.Fatal("split charged no rounds")
	}
}

func TestSplitFourParts(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g := graph.RandomRegular(120, 16, rng)
	net := local.New(g)
	edges := g.Edges()
	part, err := Split(net, g.N(), edges, 2, 0.1)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	if err := VerifyParts(g.N(), edges, part, 2, 0.1); err != nil {
		t.Fatal(err)
	}
	// Each part should get roughly a quarter of the edges.
	counts := make([]int, 4)
	for _, p := range part {
		counts[p]++
	}
	for p, c := range counts {
		if c < len(edges)/8 || c > len(edges)/2 {
			t.Fatalf("part %d has %d of %d edges", p, c, len(edges))
		}
	}
}

func TestSplitMultigraph(t *testing.T) {
	// Parallel edges between two vertices must divide evenly too.
	edges := make([]graph.Edge, 12)
	for i := range edges {
		edges[i] = graph.Edge{U: 0, V: 1}
	}
	net := local.New(graph.Path(2))
	part, err := Split(net, 2, edges, 1, 0.3)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	if err := VerifyParts(2, edges, part, 1, 0.3); err != nil {
		t.Fatal(err)
	}
}

func TestSplitZeroLevels(t *testing.T) {
	g := graph.Cycle(6)
	part, err := Split(local.New(g), 6, g.Edges(), 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range part {
		if p != 0 {
			t.Fatal("level-0 split must keep everything in part 0")
		}
	}
}

func TestSplitEmptyEdgeList(t *testing.T) {
	part, err := Split(local.New(graph.Path(3)), 3, nil, 2, 0.5)
	if err != nil || len(part) != 0 {
		t.Fatalf("empty split: %v %v", part, err)
	}
}

func TestSplitRejectsBadInput(t *testing.T) {
	net := local.New(graph.Path(3))
	if _, err := Split(net, 3, []graph.Edge{{U: 0, V: 5}}, 1, 0.5); err == nil {
		t.Fatal("accepted out-of-range endpoint")
	}
	if _, err := Split(net, 3, []graph.Edge{{U: 1, V: 1}}, 1, 0.5); err == nil {
		t.Fatal("accepted self-loop")
	}
	if _, err := Split(net, 3, nil, -1, 0.5); err == nil {
		t.Fatal("accepted negative level")
	}
	if _, err := Split(net, 3, nil, 1, 0); err == nil {
		t.Fatal("accepted eps=0")
	}
}

func TestBuildTrailsCoversAllEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	g := graph.ErdosRenyi(40, 0.2, rng)
	edges := g.Edges()
	trails := buildTrails(g.N(), edges)
	seen := make([]bool, len(edges))
	for _, tr := range trails {
		for _, e := range tr.edges {
			if seen[e] {
				t.Fatalf("edge %d in two trails", e)
			}
			seen[e] = true
		}
	}
	for e, s := range seen {
		if !s {
			t.Fatalf("edge %d missing from trails", e)
		}
	}
}

func TestBuildTrailsCycleDetection(t *testing.T) {
	g := graph.Cycle(8)
	trails := buildTrails(g.N(), g.Edges())
	if len(trails) != 1 || !trails[0].cycle || len(trails[0].edges) != 8 {
		t.Fatalf("C8 should yield one 8-edge cycle trail, got %+v", trails)
	}
	p := graph.Path(5)
	trails = buildTrails(p.N(), p.Edges())
	if len(trails) != 1 || trails[0].cycle || len(trails[0].edges) != 4 {
		t.Fatalf("P5 should yield one 4-edge path trail, got %+v", trails)
	}
}

func TestVerifyPartsCatchesSkew(t *testing.T) {
	g := graph.Complete(8)
	edges := g.Edges()
	part := make([]int, len(edges)) // all edges in part 0
	if err := VerifyParts(g.N(), edges, part, 1, 0.1); err == nil {
		t.Fatal("fully skewed split accepted")
	}
	if err := VerifyParts(g.N(), edges, part[:3], 1, 0.1); err == nil {
		t.Fatal("length mismatch accepted")
	}
	bad := make([]int, len(edges))
	bad[0] = 7
	if err := VerifyParts(g.N(), edges, bad, 1, 0.1); err == nil {
		t.Fatal("out-of-range part accepted")
	}
}

// splitPropertyCase draws one TestSplitProperty instance from seed: a
// random d-regular graph, a level count and an eps, split and checked
// against the Corollary 22 band.
func splitPropertyCase(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	d := 4 + 2*rng.Intn(5)
	n := 40 + rng.Intn(60)
	if n*d%2 == 1 {
		n++
	}
	g := graph.RandomRegular(n, d, rng)
	i := 1 + rng.Intn(2)
	eps := 0.1 + rng.Float64()*0.3
	edges := g.Edges()
	part, err := Split(local.New(g), g.N(), edges, i, eps)
	if err != nil {
		return err
	}
	return VerifyParts(g.N(), edges, part, i, eps)
}

// Property: splitting random regular graphs at various eps always meets the
// Corollary 22 band.
func TestSplitProperty(t *testing.T) {
	f := func(seed int64) bool { return splitPropertyCase(seed) == nil }
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSplitPropertyOddClosedTrails pins seeds on which the property used
// to fail every time: vertex 0 anchors two or three odd closed trails, and
// each puts its two same-colored edges there on every offset retry.
func TestSplitPropertyOddClosedTrails(t *testing.T) {
	for _, seed := range []int64{195, 473, 556, 1155} {
		if err := splitPropertyCase(seed); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// The paper's Phase 2 configuration: eps' = 1/100, i = 2 on a graph whose
// "+" vertices have degree >= 28; every vertex must keep at least 2 edges in
// part 0 and at most deg/4 + eps*deg + 4 in any part (Lemma 13 arithmetic).
func TestSplitLemma13Configuration(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	g := graph.RandomRegular(64, 28, rng)
	edges := g.Edges()
	part, err := Split(local.New(g), g.N(), edges, 2, 1.0/100)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	if err := VerifyParts(g.N(), edges, part, 2, 1.0/100); err != nil {
		t.Fatal(err)
	}
	inPart0 := make([]int, g.N())
	for e, p := range part {
		if p == 0 {
			inPart0[edges[e].U]++
			inPart0[edges[e].V]++
		}
	}
	for v, c := range inPart0 {
		if c < 2 {
			t.Fatalf("vertex %d kept only %d part-0 edges, Lemma 13 needs >= 2", v, c)
		}
	}
}
