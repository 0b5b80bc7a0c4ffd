package core

import (
	"fmt"
	"math/rand"
	"slices"

	"deltacoloring/internal/acd"
	"deltacoloring/internal/coloring"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/listcolor"
	"deltacoloring/internal/local"
	"deltacoloring/internal/loophole"
)

// RandomizedParams configures Algorithm 4 (Theorem 2).
type RandomizedParams struct {
	Params
	// TProb is the probability with which each hard clique proposes a
	// T-node in the pre-shattering phase.
	TProb float64
	// Spacing is the parameter b: surviving T-nodes are pairwise at hop
	// distance at least Spacing, which limits "useless" vertices to at
	// most one per clique (Section 4, Step 6 discussion).
	Spacing int
	// HappyRadius is the number of layers around each T-node's slack
	// vertex that are set aside and colored inward at the end.
	HappyRadius int
}

// DefaultRandomizedParams mirrors the paper's constants (b is any constant;
// we default to 4).
func DefaultRandomizedParams() RandomizedParams {
	return RandomizedParams{Params: DefaultParams(), TProb: 0.5, Spacing: 4, HappyRadius: 5}
}

// TestRandomizedParams is the scaled-down preset (see TestParams).
func TestRandomizedParams() RandomizedParams {
	return RandomizedParams{Params: TestParams(), TProb: 0.5, Spacing: 4, HappyRadius: 5}
}

// RandStats extends Stats with shattering measurements.
type RandStats struct {
	// TNodesProposed and TNodesKept count the pre-shattering T-nodes.
	TNodesProposed, TNodesKept int
	// Components is the number of post-shattering components and
	// MaxComponent the largest component size.
	Components, MaxComponent int
	// ComponentRounds is the maximum rounds any single component consumed
	// (components run in parallel in LOCAL).
	ComponentRounds int
	// HardLikeInComponents counts cliques that went through the full
	// Algorithm 2 machinery inside a component (as opposed to leaning on
	// out-of-component slack).
	HardLikeInComponents int
}

// RandomizedResult bundles the coloring with both stat blocks.
type RandomizedResult struct {
	Result
	Rand RandStats
}

// ColorRandomized runs Theorem 2's randomized Δ-coloring (Algorithm 4):
// pre-shattering by random T-node placement (slack pairs colored with the
// reserved color 0), deterministic post-shattering on the small remaining
// components via the Algorithm 2/3 machinery with color space {1..Δ-1} for
// slack pairs, then inward coloring of the T-node layers and finally the
// easy cliques and loopholes. The graph must be dense with no (Δ+1)-clique.
//
// The Δ = ω(log²¹ n) branch of the paper (an O(log* n) algorithm from
// [FHM23]) is out of scope; the shattering path is taken for every Δ. See
// DESIGN.md, substitutions.
func ColorRandomized(net *local.Network, rp RandomizedParams, rng *rand.Rand) (*RandomizedResult, error) {
	g := net.Graph()
	delta := g.MaxDegree()
	if err := rp.Validate(delta); err != nil {
		return nil, err
	}
	if rp.TProb <= 0 || rp.TProb > 1 || rp.Spacing < 4 || rp.HappyRadius < 2 {
		return nil, fmt.Errorf("core: invalid randomized params %+v", rp)
	}
	res := &RandomizedResult{Result: Result{Coloring: coloring.NewPartial(g.N())}}
	res.Stats.N = g.N()
	res.Stats.Delta = delta
	if g.N() == 0 {
		return res, nil
	}
	if delta < 3 {
		return nil, fmt.Errorf("core: randomized algorithm needs Δ >= 3, got %d", delta)
	}
	out := res.Coloring

	// Shared preprocessing with Theorem 1 (ACD, Brooks, classification).
	a, cl, err := decompose(net, rp.Eps, "alg4", &res.Stats)
	if err != nil {
		return nil, err
	}
	hardOf := make([]int, g.N())
	for v := range hardOf {
		hardOf[v] = -1
	}
	hardCount := 0
	for ci, members := range a.Cliques {
		if !cl.Easy[ci] {
			hardCount++
			for _, v := range members {
				hardOf[v] = ci
			}
		}
	}
	res.Stats.HardCliques = hardCount
	res.Stats.EasyCliques = len(a.Cliques) - hardCount

	// Pre-shattering (Step 5): propose T-nodes, keep a spaced subset, and
	// color their slack pairs with the reserved color 0.
	donePre := net.Phase("alg4/preshatter")
	tnodes := placeTNodes(g, a, cl, hardOf, rp, rng)
	res.Rand.TNodesProposed = tnodes.proposed
	res.Rand.TNodesKept = len(tnodes.kept)
	for _, tr := range tnodes.kept {
		out.Colors[tr.PairIn] = 0
		out.Colors[tr.PairOut] = 0
	}
	net.Charge(rp.Spacing + 2)
	donePre()
	if err := coloring.VerifyProper(g, out, delta); err != nil {
		return nil, fmt.Errorf("core: T-node pair coloring improper: %w", err)
	}
	if err := net.Checkpoint("alg4/preshatter", &CkptColoring{C: out, NumColors: delta}); err != nil {
		return nil, err
	}

	// Happy region: hard vertices within HappyRadius of a kept slack
	// vertex (colored inward at the end).
	happy := happyLayers(g, out, rp.HappyRadius, tnodes.kept, hardOf).Reached

	// Post-shattering components: uncolored, unhappy hard vertices.
	inU := func(v int) bool { return hardOf[v] >= 0 && !out.Colored(v) && !happy[v] }
	comps := componentsOf(g, inU)
	res.Rand.Components = len(comps)
	for _, c := range comps {
		if len(c) > res.Rand.MaxComponent {
			res.Rand.MaxComponent = len(c)
		}
	}

	// Step 6: the modified deterministic algorithm on each component.
	// Components are vertex-disjoint and interact only through vertices
	// that stay uncolored throughout, so they run in parallel; we charge
	// the maximum component cost. Each runs on a fork of the run's network,
	// so the run's interrupt, checks, faults and workers reach it.
	doneComp := net.Phase("alg4/components")
	maxRounds := 0
	for _, comp := range comps {
		compNet := net.Fork()
		hardLike, err := colorComponent(compNet, a, cl, rp, out, comp)
		if err != nil {
			doneComp()
			return nil, fmt.Errorf("core: component of size %d: %w", len(comp), err)
		}
		res.Rand.HardLikeInComponents += hardLike
		if compNet.Rounds() > maxRounds {
			maxRounds = compNet.Rounds()
		}
	}
	net.Charge(maxRounds)
	res.Rand.ComponentRounds = maxRounds
	doneComp()

	// Post-processing I: color the happy layers inward (Step 7), then the
	// slack vertices (which keep permanent slack from their same-colored
	// pairs), using the full palette [0, Δ).
	doneHappy := net.Phase("alg4/happylayers")
	err = colorHappyLayers(net, g, out, delta, rp.HappyRadius, tnodes.kept, hardOf)
	if err == nil {
		err = net.Checkpoint("alg4/happylayers", &CkptColoring{C: out, NumColors: delta})
	}
	doneHappy()
	if err != nil {
		return nil, err
	}

	// Post-processing II: easy cliques and loopholes via Algorithm 3.
	var st2 Stats
	hp := newHardPipeline(net, a, wholeGraphSpec(a, cl), rp.Params, out, &st2)
	ec := &easyColorer{hp: hp}
	if err := ec.run(); err != nil {
		return nil, err
	}
	res.Stats.Layers = st2.Layers

	if err := finish(net, &res.Result); err != nil {
		return nil, err
	}
	return res, nil
}

// tnodePlacement is the outcome of the randomized T-node sampling.
type tnodePlacement struct {
	proposed int
	kept     []Triad
}

// tnodeProposal is one sampled T-node and its random priority.
type tnodeProposal struct {
	tr   Triad
	rank uint64
}

// placeTNodes samples one T-node proposal per hard clique with probability
// TProb and keeps a subset that is pairwise at distance >= Spacing, by
// local-maxima filtering on random priorities.
func placeTNodes(g *graph.Graph, a *acd.ACD, cl *loophole.Classification,
	hardOf []int, rp RandomizedParams, rng *rand.Rand) tnodePlacement {
	var pl tnodePlacement
	var props []tnodeProposal
	for ci, members := range a.Cliques {
		if cl.Easy[ci] || rng.Float64() >= rp.TProb {
			continue
		}
		// Random slack vertex u with an external hard partner w; PairIn is
		// a random other member (non-adjacent to w by Lemma 9.3).
		perm := rng.Perm(len(members))
		tr := Triad{Slack: -1, Clique: ci}
		for _, i := range perm {
			u := members[i]
			for _, w := range g.Neighbors(u) {
				if hardOf[w] >= 0 && hardOf[w] != ci {
					tr.Slack, tr.PairOut = u, int(w)
					break
				}
			}
			if tr.Slack >= 0 {
				break
			}
		}
		if tr.Slack < 0 {
			continue // no member with an external hard partner
		}
		for _, i := range perm {
			v := members[i]
			if v != tr.Slack {
				tr.PairIn = v
				break
			}
		}
		if g.HasEdge(tr.PairIn, tr.PairOut) {
			continue // defensive; Lemma 9.3 should rule this out
		}
		pl.proposed++
		props = append(props, tnodeProposal{tr: tr, rank: rng.Uint64()})
	}
	pl.kept = spacedTNodes(g, props, rp.Spacing)
	return pl
}

// spacedTNodes keeps a subset of the proposals whose vertices are pairwise
// more than spacing hops apart. Proposals may share vertices (one's PairOut
// can lie in another's clique), so every vertex maps to all the proposals
// containing it; that keeps the conflict relation symmetric.
func spacedTNodes(g *graph.Graph, props []tnodeProposal, spacing int) []Triad {
	at := make(map[int][]int32) // vertex -> indices of the proposals containing it
	for i, p := range props {
		for _, v := range [3]int{p.tr.Slack, p.tr.PairIn, p.tr.PairOut} {
			at[v] = append(at[v], int32(i))
		}
	}
	// Iterated local-maxima filtering (Luby-style, constant iterations):
	// each round, a still-live proposal joins the kept set iff no
	// higher-ranked live proposal and no already-kept proposal has a
	// vertex within Spacing of its own; its conflicting neighbors die.
	// Constant iterations keep the cost O(Spacing) rounds and already
	// select a near-maximal spaced subset, which is what shatters the
	// graph effectively.
	state := make([]int, len(props)) // 0 live, 1 kept, 2 dead
	// The filter queries each proposal's conflict set up to twice per
	// iteration; collecting the radius-Spacing balls once per proposal into
	// a conflict adjacency keeps the (profile-dominating) BFS work out of
	// the iteration loop. Deduplication does not change any outcome: the
	// per-query condition is a pure read of rank and state.
	adj := make([][]int32, len(props))
	var scratch []int32
	var ball []int
	for i, p := range props {
		scratch = scratch[:0]
		for _, v := range [3]int{p.tr.Slack, p.tr.PairIn, p.tr.PairOut} {
			// Unsorted ball: the hits are sorted below anyway, so the
			// per-vertex sort.Ints inside NeighborsWithin was pure overhead.
			ball = g.AppendBall(ball[:0], v, spacing)
			for _, w := range ball {
				for _, j := range at[w] {
					if int(j) != i {
						scratch = append(scratch, j)
					}
				}
			}
		}
		slices.Sort(scratch)
		for k, j := range scratch {
			if k == 0 || scratch[k-1] != j {
				adj[i] = append(adj[i], j)
			}
		}
	}
	conflicts := func(i int, cond func(j int) bool) bool {
		for _, j := range adj[i] {
			if cond(int(j)) {
				return true
			}
		}
		return false
	}
	for iter := 0; iter < 4; iter++ {
		var joined []int
		for i := range props {
			if state[i] != 0 {
				continue
			}
			beaten := conflicts(i, func(j int) bool {
				if state[j] == 1 {
					return true
				}
				if state[j] != 0 {
					return false
				}
				return props[j].rank > props[i].rank || (props[j].rank == props[i].rank && j < i)
			})
			if !beaten {
				joined = append(joined, i)
			}
		}
		if len(joined) == 0 {
			break
		}
		for _, i := range joined {
			state[i] = 1
		}
		for i := range props {
			if state[i] == 0 && conflicts(i, func(j int) bool { return state[j] == 1 }) {
				state[i] = 2
			}
		}
	}
	var kept []Triad
	for i, p := range props {
		if state[i] == 1 {
			kept = append(kept, p.tr)
		}
	}
	return kept
}

// happyLayers BFS-layers the uncolored hard vertices within radius of the
// kept T-nodes' slack vertices; the slack vertices are layer 0.
func happyLayers(g *graph.Graph, out *coloring.Partial, radius int, kept []Triad, hardOf []int) listcolor.Layering {
	seeds := make([]int, 0, len(kept))
	for _, tr := range kept {
		seeds = append(seeds, tr.Slack)
	}
	return listcolor.Layer(g, seeds, func(v int) bool { return hardOf[v] >= 0 && !out.Colored(v) }, radius)
}

// colorHappyLayers colors the set-aside layers around T-node slack
// vertices outside-in, then the slack vertices themselves.
func colorHappyLayers(net *local.Network, g *graph.Graph, out *coloring.Partial,
	delta, radius int, kept []Triad, hardOf []int) error {
	ly := happyLayers(g, out, radius, kept, hardOf)
	net.Charge(radius)
	for v := 0; v < g.N(); v++ {
		if hardOf[v] >= 0 && !out.Colored(v) && !ly.Reached[v] {
			return fmt.Errorf("core: uncolored hard vertex %d is neither in a component nor happy", v)
		}
	}
	if err := ly.ColorOutsideIn(net, 0, delta, out); err != nil {
		return fmt.Errorf("core: happy %w", err)
	}
	return nil
}

// componentsOf returns the connected components of the subgraph induced by
// the predicate.
func componentsOf(g *graph.Graph, in func(int) bool) [][]int {
	seen := make([]bool, g.N())
	var comps [][]int
	for s := 0; s < g.N(); s++ {
		if seen[s] || !in(s) {
			continue
		}
		comp := []int{s}
		seen[s] = true
		for q := 0; q < len(comp); q++ {
			for _, nw := range g.Neighbors(comp[q]) {
				w := int(nw)
				if !seen[w] && in(w) {
					seen[w] = true
					comp = append(comp, w)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// colorComponent runs the modified deterministic algorithm on one
// post-shattering component: cliques whose active members all lack outside
// slack stay hard-like (with one tolerated useless member); the rest are
// easy-like, witnessed by an external-slack singleton; slack pairs use the
// color space {1, ..., Δ-1}.
func colorComponent(compNet *local.Network, a *acd.ACD, cl *loophole.Classification,
	rp RandomizedParams, out *coloring.Partial, comp []int) (int, error) {
	g := compNet.Graph()
	active := make([]bool, g.N())
	for _, v := range comp {
		active[v] = true
	}
	spec := instanceSpec{
		hardLike:      make([]bool, len(a.Cliques)),
		witness:       make([]*loophole.Loophole, len(a.Cliques)),
		active:        active,
		pairColorBase: 1,
		extraLoss:     1,
	}
	for ci, members := range a.Cliques {
		anyActive := false
		slackVert := -1
		for _, v := range members {
			if !active[v] {
				continue
			}
			anyActive = true
			if slackVert >= 0 {
				continue
			}
			for _, w := range g.Neighbors(v) {
				if !active[w] && !out.Colored(int(w)) {
					slackVert = v
					break
				}
			}
		}
		if !anyActive {
			continue
		}
		if cl.Easy[ci] {
			return 0, fmt.Errorf("core: easy clique %d intersects a post-shattering component", ci)
		}
		if slackVert >= 0 {
			// Easy-like: a member with an uncolored inactive neighbor is a
			// slack source (the paper's extended loophole definition).
			spec.witness[ci] = loophole.NewExternalSlack(slackVert)
		} else {
			spec.hardLike[ci] = true
		}
	}
	hardLike := 0
	for _, h := range spec.hardLike {
		if h {
			hardLike++
		}
	}
	var st Stats
	hp := newHardPipeline(compNet, a, spec, rp.Params, out, &st)
	if err := hp.run((*hardPipeline).selectTriadsByHEG); err != nil {
		return hardLike, err
	}
	ec := &easyColorer{hp: hp}
	if err := ec.run(); err != nil {
		return hardLike, err
	}
	return hardLike, nil
}
