package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"deltacoloring/internal/acd"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/local"
	"deltacoloring/internal/loophole"
)

func TestRandomizedHardCliqueBipartite(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g, _ := graph.HardCliqueBipartite(16, 16)
	res, err := ColorRandomized(local.New(g), TestRandomizedParams(), rng)
	if err != nil {
		t.Fatalf("ColorRandomized: %v", err)
	}
	requireColoring(t, g, &res.Result)
	if res.Rand.TNodesProposed == 0 {
		t.Fatal("no T-nodes proposed (expected ~half the cliques)")
	}
	if res.Rand.TNodesKept == 0 {
		t.Fatal("no T-nodes survived spacing")
	}
	if res.Rand.TNodesKept > res.Rand.TNodesProposed {
		t.Fatal("kept more T-nodes than proposed")
	}
}

// TestRandomizedInterruptReachesComponents: the post-shattering components
// run on forks of the run's network, so a cancellation raised once they
// start stops them, before the alg4/components span closes. The span's own
// closing Charge checks the interrupt once; a second check inside the span
// comes from a component's rounds.
func TestRandomizedInterruptReachesComponents(t *testing.T) {
	g, _ := graph.HardCliqueBipartite(16, 16)
	net := local.New(g)
	var closed []string
	net.SetSpanHook(func(s local.Span) { closed = append(closed, s.Name) })
	armed, checks := false, 0
	net.SetCheckHook(func(phase string, _ any) error {
		armed = armed || phase == "alg4/preshatter"
		return nil
	})
	errStop := errors.New("stop")
	net.SetInterrupt(func() error {
		if armed {
			if checks++; checks == 2 {
				return errStop
			}
		}
		return nil
	})
	err := func() (err error) {
		defer local.RecoverInterrupt(&err)
		_, err = ColorRandomized(net, TestRandomizedParams(), rand.New(rand.NewSource(1)))
		return err
	}()
	if !errors.Is(err, errStop) {
		t.Fatalf("err = %v, want the interrupt", err)
	}
	if slices.Contains(closed, "alg4/components") {
		t.Fatalf("the interrupt was seen only after the components finished; closed spans %v", closed)
	}
}

func TestRandomizedManySeeds(t *testing.T) {
	g, _ := graph.HardCliqueBipartite(16, 16)
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		res, err := ColorRandomized(local.New(g), TestRandomizedParams(), rng)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		requireColoring(t, g, &res.Result)
	}
}

func TestRandomizedEasyOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	g, _ := graph.EasyCliqueRing(8, 16)
	res, err := ColorRandomized(local.New(g), TestRandomizedParams(), rng)
	if err != nil {
		t.Fatalf("ColorRandomized: %v", err)
	}
	requireColoring(t, g, &res.Result)
	if res.Rand.TNodesProposed != 0 {
		t.Fatal("T-nodes proposed in a graph with no hard cliques")
	}
}

func TestRandomizedMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	g, _ := graph.HardWithEasyPatch(16, 16)
	res, err := ColorRandomized(local.New(g), TestRandomizedParams(), rng)
	if err != nil {
		t.Fatalf("ColorRandomized: %v", err)
	}
	requireColoring(t, g, &res.Result)
}

func TestRandomizedRejectsSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	g := graph.Torus(8, 8) // Δ = 4, all sparse
	if _, err := ColorRandomized(local.New(g), TestRandomizedParams(), rng); !errors.Is(err, ErrNotDense) {
		t.Fatalf("expected ErrNotDense, got %v", err)
	}
}

func TestRandomizedRejectsBrooks(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	g := graph.Union(graph.Complete(17), graph.Complete(17))
	if _, err := ColorRandomized(local.New(g), TestRandomizedParams(), rng); !errors.Is(err, ErrBrooks) {
		t.Fatalf("expected ErrBrooks, got %v", err)
	}
}

func TestRandomizedRejectsBadParams(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	g, _ := graph.HardCliqueBipartite(16, 16)
	p := TestRandomizedParams()
	p.TProb = 0
	if _, err := ColorRandomized(local.New(g), p, rng); err == nil {
		t.Fatal("accepted TProb = 0")
	}
	p = TestRandomizedParams()
	p.Spacing = 1
	if _, err := ColorRandomized(local.New(g), p, rng); err == nil {
		t.Fatal("accepted tiny spacing")
	}
}

// The spacing invariant: surviving T-node vertex sets are pairwise at
// distance >= Spacing.
func TestTNodeSpacing(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	g, _ := graph.HardCliqueBipartite(16, 16)
	net := local.New(g)
	a, cl, hardOf := classifyForTest(t, net)
	rp := TestRandomizedParams()
	pl := placeTNodes(g, a, cl, hardOf, rp, rng)
	if len(pl.kept) == 0 {
		t.Skip("no kept T-nodes for this seed")
	}
	for i := 0; i < len(pl.kept); i++ {
		for j := i + 1; j < len(pl.kept); j++ {
			for _, u := range []int{pl.kept[i].Slack, pl.kept[i].PairIn, pl.kept[i].PairOut} {
				for _, w := range []int{pl.kept[j].Slack, pl.kept[j].PairIn, pl.kept[j].PairOut} {
					if d := g.Dist(u, w); d >= 0 && d < rp.Spacing {
						t.Fatalf("kept T-nodes %d and %d at distance %d < %d", i, j, d, rp.Spacing)
					}
				}
			}
		}
	}
	// Every kept T-node is a valid slack triad.
	for _, tr := range pl.kept {
		if !g.HasEdge(tr.Slack, tr.PairIn) || !g.HasEdge(tr.Slack, tr.PairOut) {
			t.Fatalf("T-node %+v pair not adjacent to slack", tr)
		}
		if g.HasEdge(tr.PairIn, tr.PairOut) {
			t.Fatalf("T-node %+v pair adjacent", tr)
		}
	}
}

// keptSpacingViolation checks the RandomizedParams.Spacing promise with its
// own BFS: from every kept triad's three vertices, no other kept triad has a
// vertex closer than spacing hops. It returns a description of the first
// violation, or "".
func keptSpacingViolation(g *graph.Graph, kept []Triad, spacing int) string {
	owner := make(map[int]int) // vertex -> a kept triad containing it
	for i, tr := range kept {
		for _, v := range [3]int{tr.Slack, tr.PairIn, tr.PairOut} {
			if j, ok := owner[v]; ok && j != i {
				return fmt.Sprintf("kept triads %d and %d share vertex %d", j, i, v)
			}
			owner[v] = i
		}
	}
	dist := make([]int, g.N())
	for i, tr := range kept {
		for v := range dist {
			dist[v] = -1
		}
		queue := []int{tr.Slack, tr.PairIn, tr.PairOut}
		for _, v := range queue {
			dist[v] = 0
		}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			if j, ok := owner[v]; ok && j != i {
				return fmt.Sprintf("kept triads %d and %d at distance %d < %d", i, j, dist[v], spacing)
			}
			if dist[v] == spacing-1 {
				continue
			}
			for _, w := range g.Neighbors(v) {
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					queue = append(queue, int(w))
				}
			}
		}
	}
	return ""
}

// Proposals that share vertices: A's three vertices each also lie in a
// later proposal. A vertex -> proposal map that keeps only the last
// proposal per vertex hides A from B, C and D, and A and B then both
// survive although they share vertex 0.
func TestSpacedTNodesSharedVertex(t *testing.T) {
	b := graph.NewBuilder(9)
	for v := 0; v < 8; v++ {
		b.AddEdge(v, v+1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	props := []tnodeProposal{
		{tr: Triad{Slack: 1, PairIn: 0, PairOut: 2}, rank: 4},
		{tr: Triad{Slack: 0, PairIn: 3, PairOut: 4}, rank: 3},
		{tr: Triad{Slack: 1, PairIn: 5, PairOut: 6}, rank: 2},
		{tr: Triad{Slack: 2, PairIn: 7, PairOut: 8}, rank: 1},
	}
	kept := spacedTNodes(g, props, 4)
	if msg := keptSpacingViolation(g, kept, 4); msg != "" {
		t.Fatalf("%s: kept %+v", msg, kept)
	}
	if len(kept) != 1 || kept[0] != props[0].tr {
		t.Fatalf("kept %+v, want only the top-ranked proposal %+v", kept, props[0].tr)
	}
}

// relabel returns g with vertex v renamed perm[v].
func relabel(t *testing.T, g *graph.Graph, perm []int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(g.N())
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Neighbors(v) {
			if v < int(w) {
				b.AddEdge(perm[v], perm[w])
			}
		}
	}
	out, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// The Spacing promise as a property: over a seed sweep of relabeled graphs
// from the four families of the color_mix benchmark workload, the kept
// T-nodes are pairwise at least Spacing apart by an independent BFS.
func TestTNodeSpacingProperty(t *testing.T) {
	h16, _ := graph.HardCliqueBipartite(16, 16)
	h24, _ := graph.HardCliqueBipartite(24, 16)
	m20, _ := graph.HardWithEasyPatch(20, 16)
	e48, _ := graph.EasyCliqueRing(48, 16)
	seeds := 24
	if testing.Short() {
		seeds = 4
	}
	rp := TestRandomizedParams()
	kept := 0
	for fi, base := range []*graph.Graph{h16, h24, m20, e48} {
		for seed := int64(0); seed < int64(seeds); seed++ {
			rng := rand.New(rand.NewSource(seed))
			g := relabel(t, base, rng.Perm(base.N()))
			a, cl, hardOf := classifyForTest(t, local.New(g))
			pl := placeTNodes(g, a, cl, hardOf, rp, rng)
			if msg := keptSpacingViolation(g, pl.kept, rp.Spacing); msg != "" {
				t.Fatalf("family %d seed %d: %s", fi, seed, msg)
			}
			kept += len(pl.kept)
		}
	}
	if kept == 0 {
		t.Fatal("no T-node kept over the whole sweep")
	}
}

func classifyForTest(t *testing.T, net *local.Network) (*acd.ACD, *loophole.Classification, []int) {
	t.Helper()
	g := net.Graph()
	ac, err := acd.Compute(net, TestParams().Eps)
	if err != nil {
		t.Fatal(err)
	}
	c := loophole.Classify(g, ac)
	hardOf := make([]int, g.N())
	for v := range hardOf {
		hardOf[v] = -1
	}
	for ci, members := range ac.Cliques {
		if !c.Easy[ci] {
			for _, v := range members {
				hardOf[v] = ci
			}
		}
	}
	return ac, c, hardOf
}

// The randomized shattering should leave components much smaller than the
// graph on the hard family.
func TestRandomizedShatters(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling test")
	}
	rng := rand.New(rand.NewSource(38))
	g, _ := graph.HardCliqueBipartite(48, 16)
	res, err := ColorRandomized(local.New(g), TestRandomizedParams(), rng)
	if err != nil {
		t.Fatalf("ColorRandomized: %v", err)
	}
	requireColoring(t, g, &res.Result)
	if res.Rand.Components > 0 && res.Rand.MaxComponent >= g.N() {
		t.Fatalf("no shattering: max component %d of %d", res.Rand.MaxComponent, g.N())
	}
}

func TestDefaultRandomizedParamsValid(t *testing.T) {
	p := DefaultRandomizedParams()
	if err := p.Validate(126); err != nil {
		t.Fatalf("paper randomized params invalid at Δ=126: %v", err)
	}
	if p.TProb <= 0 || p.Spacing < 4 || p.HappyRadius < 2 {
		t.Fatalf("unexpected defaults: %+v", p)
	}
}

// At larger scale some shattered components must contain genuinely
// hard-like cliques, exercising the full Algorithm 2 machinery inside the
// post-shattering phase.
func TestRandomizedComponentsRunHardMachinery(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling test")
	}
	total := 0
	g, _ := graph.HardCliqueBipartite(64, 16)
	// A sparse T-node placement leaves large components whose interiors
	// are beyond every out-of-component slack source.
	p := TestRandomizedParams()
	p.TProb = 0.05
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		res, err := ColorRandomized(local.New(g), p, rng)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		requireColoring(t, g, &res.Result)
		total += res.Rand.HardLikeInComponents
	}
	if total == 0 {
		t.Fatal("no component ever contained a hard-like clique across 4 seeds")
	}
}
