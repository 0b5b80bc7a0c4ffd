package core

import (
	"fmt"

	"deltacoloring/internal/coloring"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/local"
	"deltacoloring/internal/sinkless"
)

// ColorSimpleDense implements the Section 1.1 sketch for "extremely dense"
// graphs: every almost clique is a hard clique of size exactly Δ, so every
// vertex has exactly one external edge and the cliques form a simple graph
// H. Splitting each clique into two virtual halves and computing a sinkless
// orientation gives every clique two outgoing edges not claimed by the
// clique on the other side — immediately yielding one slack triad per
// clique, without the maximal-matching/HEG machinery of the general
// Algorithm 2.
//
// This is both a didactic implementation of the paper's own intuition and
// the ablation subject of experiment E15: on its (restricted) domain it
// replaces the matching+HEG phases by one sinkless-orientation call.
// ErrNotSimpleDense is returned when the structure does not apply; use
// ColorDeterministic then.
func ColorSimpleDense(net *local.Network, p Params) (*Result, error) {
	g := net.Graph()
	delta := g.MaxDegree()
	if err := p.Validate(delta); err != nil {
		return nil, err
	}
	res := &Result{Coloring: coloring.NewPartial(g.N())}
	res.Stats.N = g.N()
	res.Stats.Delta = delta
	if g.N() == 0 {
		return res, nil
	}
	if delta < 6 {
		return nil, fmt.Errorf("core: simple-dense path needs Δ >= 6 for the two-out orientation, got %d", delta)
	}

	a, cl, err := decompose(net, p.Eps, "simple", &res.Stats)
	if err != nil {
		return nil, err
	}
	for ci, members := range a.Cliques {
		if cl.Easy[ci] {
			return nil, fmt.Errorf("core: simple-dense path: clique %d is easy; use ColorDeterministic", ci)
		}
		if len(members) != delta {
			return nil, fmt.Errorf("core: simple-dense path: clique %d has size %d != Δ; use ColorDeterministic", ci, len(members))
		}
	}
	res.Stats.HardCliques = len(a.Cliques)

	hp := newHardPipeline(net, a, wholeGraphSpec(a, cl), p, res.Coloring, &res.Stats)

	// The clique graph H: one node per clique, one edge per external edge
	// of G. Hardness guarantees H is simple (two parallel matching edges
	// would form a 4-cycle loophole) and Δ-regular.
	doneOrient := net.Phase("simple/orientation")
	hEdges := map[graph.Edge]graph.Edge{} // clique pair -> underlying G edge
	b := graph.NewBuilder(len(a.Cliques))
	for _, e := range g.Edges() {
		cu, cv := a.CliqueOf[e.U], a.CliqueOf[e.V]
		if cu == cv {
			continue
		}
		key := graph.Edge{U: cu, V: cv}
		if cu > cv {
			key = graph.Edge{U: cv, V: cu}
		}
		if _, dup := hEdges[key]; dup {
			doneOrient()
			return nil, fmt.Errorf("core: clique pair %v joined twice; not a hard instance", key)
		}
		hEdges[key] = e
		b.AddEdge(key.U, key.V)
	}
	h, err := b.Build()
	if err != nil {
		doneOrient()
		return nil, fmt.Errorf("core: clique graph: %w", err)
	}
	// One round on H is simulated by clique-internal coordination
	// (diameter 1) plus the matching edge: dilation 2. A k-out orientation
	// with k > 2 gives the Section 1.1 sparsification step alternatives to
	// balance incoming edges with (the sketch's "property ii" fix).
	k := delta / 4
	if k < 2 {
		k = 2
	}
	if 3*k > delta {
		k = delta / 3
	}
	vnet := net.Virtual(h, 2)
	orientation, err := sinkless.OrientKOut(vnet, k)
	if err == nil {
		err = net.Checkpoint("simple/orientation", &CkptOrientation{G: h, O: orientation, K: k})
	}
	doneOrient()
	if err != nil {
		return nil, fmt.Errorf("core: %d-out orientation: %w", k, err)
	}

	// Outgoing H-edges become F3 candidates: the tail vertex is the
	// underlying endpoint inside the tail clique.
	doneTriads := net.Phase("simple/triads")
	byClique := make(map[int][]DirEdge)
	for i, he := range orientation.Edges {
		under := hEdges[he]
		tailClique := orientation.Tail[i]
		tail, head := under.U, under.V
		if a.CliqueOf[tail] != tailClique {
			tail, head = under.V, under.U
		}
		byClique[tailClique] = append(byClique[tailClique], DirEdge{Tail: tail, Head: head})
	}
	eligible := make([]bool, len(a.Cliques))
	for ci := range eligible {
		eligible[ci] = true
	}
	f3, typeI, err := hp.discardToTwo(byClique, eligible)
	if err != nil {
		doneTriads()
		return nil, err
	}
	hp.f3, hp.typeI = f3, typeI
	hp.stats.F3Size = len(f3)
	err = hp.phase3Triads()
	doneTriads()
	if err != nil {
		return nil, err
	}
	if err := hp.phase4APairs(); err != nil {
		return nil, err
	}
	if err := hp.phase4BRest(); err != nil {
		return nil, err
	}
	res.Stats.TypeI = count(typeI)

	if err := finish(net, res); err != nil {
		return nil, err
	}
	return res, nil
}
