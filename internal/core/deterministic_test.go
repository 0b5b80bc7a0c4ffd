package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"deltacoloring/internal/acd"
	"deltacoloring/internal/coloring"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/listcolor"
	"deltacoloring/internal/local"
	"deltacoloring/internal/loophole"
)

func requireColoring(t *testing.T, g *graph.Graph, res *Result) {
	t.Helper()
	if err := coloring.VerifyComplete(g, res.Coloring, g.MaxDegree()); err != nil {
		t.Fatalf("invalid Δ-coloring: %v", err)
	}
	if res.Rounds <= 0 {
		t.Fatal("no rounds charged")
	}
}

func TestDeterministicHardCliqueBipartite(t *testing.T) {
	g, _ := graph.HardCliqueBipartite(16, 16)
	net := local.New(g)
	res, err := ColorDeterministic(net, TestParams())
	if err != nil {
		t.Fatalf("ColorDeterministic: %v", err)
	}
	requireColoring(t, g, res)
	if res.Stats.HardCliques != 32 || res.Stats.EasyCliques != 0 {
		t.Fatalf("stats: %+v", res.Stats)
	}
	if res.Stats.TypeI != 32 {
		t.Fatalf("TypeI = %d, want 32", res.Stats.TypeI)
	}
	if res.Stats.Triads != 32 {
		t.Fatalf("Triads = %d, want 32", res.Stats.Triads)
	}
	if res.Stats.PairGraphMaxDeg > g.MaxDegree()-2 {
		t.Fatalf("Lemma 16: G_V degree %d > Δ-2", res.Stats.PairGraphMaxDeg)
	}
}

func TestDeterministicEasyCliqueRing(t *testing.T) {
	g, _ := graph.EasyCliqueRing(8, 16)
	res, err := ColorDeterministic(local.New(g), TestParams())
	if err != nil {
		t.Fatalf("ColorDeterministic: %v", err)
	}
	requireColoring(t, g, res)
	if res.Stats.HardCliques != 0 || res.Stats.EasyCliques != 8 {
		t.Fatalf("stats: %+v", res.Stats)
	}
}

func TestDeterministicMixedHardEasy(t *testing.T) {
	g, _ := graph.HardWithEasyPatch(16, 16)
	res, err := ColorDeterministic(local.New(g), TestParams())
	if err != nil {
		t.Fatalf("ColorDeterministic: %v", err)
	}
	requireColoring(t, g, res)
	if res.Stats.EasyCliques != 4 {
		t.Fatalf("easy cliques = %d, want 4", res.Stats.EasyCliques)
	}
	if res.Stats.HardCliques != 28 {
		t.Fatalf("hard cliques = %d, want 28", res.Stats.HardCliques)
	}
}

func TestDeterministicPermutedIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	base, _ := graph.HardCliqueBipartite(16, 16)
	g := graph.PermuteIDs(base, rng)
	res, err := ColorDeterministic(local.New(g), TestParams())
	if err != nil {
		t.Fatalf("ColorDeterministic: %v", err)
	}
	requireColoring(t, g, res)
}

func TestDeterministicBrooksException(t *testing.T) {
	// Disjoint K_17 components: Δ = 16, each component is a (Δ+1)-clique —
	// the Brooks exception, no Δ-coloring exists.
	g := graph.Union(graph.Complete(17), graph.Complete(17))
	res, err := ColorDeterministic(local.New(g), TestParams())
	if err == nil {
		t.Fatalf("expected Brooks exception, got coloring with %d rounds", res.Rounds)
	}
	if !errors.Is(err, ErrBrooks) {
		t.Fatalf("expected ErrBrooks, got %v", err)
	}
}

func TestDeterministicNearCliqueComponents(t *testing.T) {
	// K_17 minus one edge has Δ = 16 and no (Δ+1)-clique: 16-colorable
	// (the two non-adjacent vertices share a color). Two such components
	// exercise Algorithm 3 on disconnected loophole graphs.
	k := func() *graph.Graph {
		return graph.RemoveEdges(graph.Complete(17), []graph.Edge{{U: 0, V: 1}})
	}
	g := graph.Union(k(), k())
	res, err := ColorDeterministic(local.New(g), TestParams())
	if err != nil {
		t.Fatalf("ColorDeterministic: %v", err)
	}
	requireColoring(t, g, res)
}

func TestDeterministicRejectsSparseGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, g := range []*graph.Graph{
		graph.Cycle(30),
		graph.RandomTree(50, rng),
		graph.Torus(5, 5),
	} {
		_, err := ColorDeterministic(local.New(g), TestParams())
		if !errors.Is(err, ErrNotDense) {
			t.Fatalf("%v: expected ErrNotDense, got %v", g, err)
		}
	}
}

func TestDeterministicRejectsDeltaZero(t *testing.T) {
	g := graph.NewBuilder(3).MustBuild()
	if _, err := ColorDeterministic(local.New(g), TestParams()); err == nil {
		t.Fatal("accepted edgeless graph")
	}
}

func TestDeterministicEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0).MustBuild()
	res, err := ColorDeterministic(local.New(g), TestParams())
	if err != nil || res.Stats.N != 0 {
		t.Fatalf("empty graph: %v %v", res, err)
	}
}

func TestParamsValidate(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(126); err != nil {
		t.Fatalf("default params invalid at Δ=126: %v", err)
	}
	if err := TestParams().Validate(16); err != nil {
		t.Fatalf("test params invalid at Δ=16: %v", err)
	}
	bad := p
	bad.Eps = 0
	if bad.Validate(126) == nil {
		t.Fatal("accepted eps=0")
	}
	bad = p
	bad.Subcliques = 0
	if bad.Validate(126) == nil {
		t.Fatal("accepted 0 sub-cliques")
	}
	bad = p
	bad.Layers = 1
	if bad.Validate(126) == nil {
		t.Fatal("accepted layers < ruling radius")
	}
	// Lemma 11 slack: too many sub-cliques starves the proposals.
	bad = p
	bad.Subcliques = 1000
	if err := bad.Validate(126); err == nil {
		t.Fatal("accepted starved sub-cliques")
	} else if !errors.Is(err, ErrLemmaViolated) || !strings.Contains(err.Error(), "Lemma 11") {
		t.Fatalf("starved sub-cliques: %v, want a Lemma 11 refusal matching ErrLemmaViolated", err)
	}
	// Other parameter errors are not lemma refusals.
	bad = p
	bad.Layers = 1
	if errors.Is(bad.Validate(126), ErrLemmaViolated) {
		t.Fatal("a malformed loophole config matched ErrLemmaViolated")
	}
}

// TestLemma17RefusesOnlyShortLists: a Lemma 17 list-coloring failure is a
// refusal only when a list is shorter than deg+1; a broken invariant (here
// an already-colored active vertex) stays an unmarked fault.
func TestLemma17RefusesOnlyShortLists(t *testing.T) {
	g := graph.Path(2)
	net := local.New(g)
	defer net.Close()
	inst := listcolor.Instance{Active: []bool{true, true}, Lists: make([]coloring.Palette, 2)}
	for v := range inst.Lists {
		inst.Lists[v] = coloring.FullPalette(1)
	}
	short := refuseShortList(listcolor.Solve(net, inst, coloring.NewPartial(2)))
	if !errors.Is(short, ErrLemmaViolated) {
		t.Fatalf("one color for an active edge: %v, want a refusal matching ErrLemmaViolated", short)
	}
	out := coloring.NewPartial(2)
	out.Colors[0] = 0
	broken := refuseShortList(listcolor.Solve(net, inst, out))
	if broken == nil || errors.Is(broken, ErrLemmaViolated) {
		t.Fatalf("already-colored active vertex: %v, want an error not matching ErrLemmaViolated", broken)
	}
}

// Phase-level test: the pipeline intermediates satisfy the lemmas on the
// flagship hard instance.
func TestHardPipelinePhases(t *testing.T) {
	g, _ := graph.HardCliqueBipartite(16, 16)
	net := local.New(g)
	a, err := acd.Compute(net, TestParams().Eps)
	if err != nil {
		t.Fatal(err)
	}
	cl := loophole.Classify(g, a)
	out := coloring.NewPartial(g.N())
	var st Stats
	spec := instanceSpec{hardLike: make([]bool, len(a.Cliques)), witness: cl.Witness}
	for ci := range a.Cliques {
		spec.hardLike[ci] = !cl.Easy[ci]
	}
	hp := newHardPipeline(net, a, spec, TestParams(), out, &st)

	if got := count(hp.inHEG); got != 32 {
		t.Fatalf("C_HEG size = %d, want 32", got)
	}
	// Every vertex has exactly one external edge; E_hard is the perfect
	// matching between cliques.
	if len(hp.eHard) != g.N()/2 {
		t.Fatalf("E_hard = %d edges, want %d", len(hp.eHard), g.N()/2)
	}
	if err := hp.phase1Matching(); err != nil {
		t.Fatal(err)
	}
	// E_hard is itself a perfect matching, so F1 = E_hard.
	if len(hp.f1) != len(hp.eHard) {
		t.Fatalf("F1 = %d edges, want %d", len(hp.f1), len(hp.eHard))
	}
	if err := hp.phase1HEG(); err != nil {
		t.Fatal(err)
	}
	if st.HypergraphRank != 2 {
		t.Fatalf("rank = %d, want 2 (e_C = 1 instance)", st.HypergraphRank)
	}
	if st.HypergraphMinDeg != 4 {
		t.Fatalf("min degree = %d, want 4 (16/4 sub-cliques)", st.HypergraphMinDeg)
	}
	if len(hp.f2) != 32*4 {
		t.Fatalf("F2 = %d, want 128 (4 per clique)", len(hp.f2))
	}
	if err := hp.phase2Sparsify(); err != nil {
		t.Fatal(err)
	}
	if len(hp.f3) != 32*2 {
		t.Fatalf("F3 = %d, want 64", len(hp.f3))
	}
	if err := hp.phase3Triads(); err != nil {
		t.Fatal(err)
	}
	if len(hp.triads) != 32 {
		t.Fatalf("triads = %d, want 32", len(hp.triads))
	}
	seen := map[int]bool{}
	for _, tr := range hp.triads {
		for _, v := range [3]int{tr.Slack, tr.PairIn, tr.PairOut} {
			if seen[v] {
				t.Fatalf("triads overlap at vertex %d", v)
			}
			seen[v] = true
		}
		if g.HasEdge(tr.PairIn, tr.PairOut) {
			t.Fatal("slack pair adjacent")
		}
	}
	if err := hp.phase4APairs(); err != nil {
		t.Fatal(err)
	}
	for _, tr := range hp.triads {
		if out.Colors[tr.PairIn] != out.Colors[tr.PairOut] || out.Colors[tr.PairIn] == coloring.None {
			t.Fatal("slack pair not same-colored")
		}
	}
	if err := coloring.VerifyProper(g, out, g.MaxDegree()); err != nil {
		t.Fatalf("after pairs: %v", err)
	}
	if err := hp.phase4BRest(); err != nil {
		t.Fatal(err)
	}
	if err := coloring.VerifyComplete(g, out, g.MaxDegree()); err != nil {
		t.Fatalf("after Algorithm 2: %v", err)
	}
}

// Rounds should grow no faster than logarithmically in n on the hard
// family at fixed Δ.
func TestDeterministicRoundScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling test")
	}
	var prev int
	for _, m := range []int{16, 32, 64} {
		g, _ := graph.HardCliqueBipartite(m, 16)
		net := local.New(g)
		res, err := ColorDeterministic(net, TestParams())
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		requireColoring(t, g, res)
		if prev > 0 && res.Rounds > 2*prev {
			t.Fatalf("rounds jumped from %d to %d on doubling n — superlogarithmic", prev, res.Rounds)
		}
		prev = res.Rounds
	}
}

func TestDeterministicPaperParamsDelta126(t *testing.T) {
	if testing.Short() {
		t.Skip("large paper-exact instance")
	}
	g, _ := graph.HardCliqueBipartite(126, 126)
	net := local.New(g)
	res, err := ColorDeterministic(net, DefaultParams())
	if err != nil {
		t.Fatalf("ColorDeterministic(paper params): %v", err)
	}
	requireColoring(t, g, res)
	if res.Stats.HypergraphMinDeg != 4 {
		t.Fatalf("δ_H = %d, want 4 = floor(126/28)", res.Stats.HypergraphMinDeg)
	}
}

// EasyDenseBlocks gives almost cliques of size Δ-1 (two external edges per
// vertex) riddled with loopholes — the |C| < Δ shape of easy cliques.
func TestDeterministicEasyDenseBlocks(t *testing.T) {
	g, _ := graph.EasyDenseBlocks(8, 63, 1) // Δ = 64, cliques of 63
	p := TestParams()
	res, err := ColorDeterministic(local.New(g), p)
	if err != nil {
		t.Fatalf("ColorDeterministic: %v", err)
	}
	requireColoring(t, g, res)
	if res.Stats.EasyCliques != 8 || res.Stats.HardCliques != 0 {
		t.Fatalf("stats: %+v", res.Stats)
	}
}

// Property: the deterministic pipeline yields a verified Δ-coloring on
// random members of the hard family with random ID permutations and random
// easy patches.
func TestDeterministicProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 16 + rng.Intn(16)
		var g *graph.Graph
		if rng.Intn(2) == 0 {
			g, _ = graph.HardCliqueBipartite(m, 16)
		} else {
			g, _ = graph.HardWithEasyPatch(m, 16)
		}
		g = graph.PermuteIDs(g, rng)
		res, err := ColorDeterministic(local.New(g), TestParams())
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return coloring.VerifyComplete(g, res.Coloring, g.MaxDegree()) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: the randomized pipeline is seed-robust on mixed instances.
func TestRandomizedProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, _ := graph.HardWithEasyPatch(16+rng.Intn(8), 16)
		res, err := ColorRandomized(local.New(g), TestRandomizedParams(), rng)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return coloring.VerifyComplete(g, res.Coloring, g.MaxDegree()) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// With m > delta the patched instance has both Type I cliques (far from
// the easy patch, forming triads) and Type II cliques (adjacent to it),
// so all of Algorithm 2's branches and Algorithm 3 run in one execution.
func TestDeterministicMixedWithTriads(t *testing.T) {
	g, _ := graph.HardWithEasyPatch(24, 16)
	res, err := ColorDeterministic(local.New(g), TestParams())
	if err != nil {
		t.Fatalf("ColorDeterministic: %v", err)
	}
	requireColoring(t, g, res)
	if res.Stats.EasyCliques == 0 {
		t.Fatal("expected easy cliques")
	}
	if res.Stats.Triads == 0 {
		t.Fatal("expected Type I cliques with triads alongside the easy patch")
	}
	if res.Stats.TypeII == 0 {
		t.Fatal("expected Type II cliques adjacent to the easy patch")
	}
}

// MixedDenseRandom: e_C = 2 almost cliques (all easy at this scale — hard
// e_C=2 cliques need girth-8 super-graphs; see fproposal_test.go) driven
// end to end with an ε = 1/8 parameterization.
func TestDeterministicMixedDenseRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("larger random instance")
	}
	rng := rand.New(rand.NewSource(74))
	g, _ := graph.MixedDenseRandom(72, 31, rng)
	p := Params{Eps: 1.0 / 8, Subcliques: 3, SplitLevels: 0, SplitEps: 1.0 / 16, RulingR: 6, Layers: 40}
	res, err := ColorDeterministic(local.New(g), p)
	if err != nil {
		t.Fatalf("ColorDeterministic: %v", err)
	}
	requireColoring(t, g, res)
	if res.Stats.NumCliques != 72 {
		t.Fatalf("cliques = %d, want 72", res.Stats.NumCliques)
	}
}

// The whole pipeline must be bit-identical under parallel engine rounds
// (state functions are pure; this pins that contract).
func TestDeterministicParallelWorkersIdentical(t *testing.T) {
	g, _ := graph.HardWithEasyPatch(16, 16)
	seqNet := local.New(g)
	seq, err := ColorDeterministic(seqNet, TestParams())
	if err != nil {
		t.Fatal(err)
	}
	parNet := local.New(g)
	parNet.SetWorkers(8)
	par, err := ColorDeterministic(parNet, TestParams())
	if err != nil {
		t.Fatal(err)
	}
	for v := range seq.Coloring.Colors {
		if seq.Coloring.Colors[v] != par.Coloring.Colors[v] {
			t.Fatalf("parallel execution diverged at vertex %d", v)
		}
	}
	if seq.Rounds != par.Rounds {
		t.Fatalf("round counts diverged: %d vs %d", seq.Rounds, par.Rounds)
	}
}
