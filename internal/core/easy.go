package core

import (
	"fmt"

	"deltacoloring/internal/coloring"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/listcolor"
	"deltacoloring/internal/loophole"
	"deltacoloring/internal/rulingset"
)

// easyColorer implements Algorithm 3: coloring the vertices of easy almost
// cliques and the remaining loophole vertices.
//
//  1. Each easy clique's witness loophole "votes" (line 1; one witness per
//     clique suffices for the coverage argument of Lemma 20).
//  2. The virtual loophole graph G_L joins loopholes that intersect or are
//     adjacent (line 2); a 6-ruling set is computed on it (line 3).
//  3. BFS from the ruling-set loopholes layers the remaining uncolored
//     vertices (line 4); layers are colored outside-in with one deg+1-list
//     instance each (lines 5-7) — every vertex has slack from an uncolored
//     neighbor one layer closer to the loophole.
//  4. The ruling-set loopholes themselves are colored by brute force
//     (line 8), which succeeds by their deg-list colorability (Lemma 7).
type easyColorer struct {
	hp *hardPipeline
}

func (ec *easyColorer) run() error {
	hp := ec.hp
	g, net, out := hp.g, hp.net, hp.out
	delta := hp.delta

	// Voted loopholes: the witness of each easy(-like) clique that
	// intersects the instance.
	var voted []*loophole.Loophole
	for ci := range hp.a.Cliques {
		if hp.spec.hardLike[ci] || len(hp.members(ci)) == 0 {
			continue
		}
		if hp.spec.witness[ci] == nil {
			return fmt.Errorf("core: easy clique %d has no witness loophole", ci)
		}
		voted = append(voted, hp.spec.witness[ci])
	}
	uncoloredCount := 0
	for v := 0; v < g.N(); v++ {
		if hp.isActive(v) && !out.Colored(v) {
			uncoloredCount++
		}
	}
	if uncoloredCount == 0 {
		return nil
	}
	if len(voted) == 0 {
		return fmt.Errorf("core: %d uncolored vertices but no loopholes to anchor them", uncoloredCount)
	}

	done := net.Phase("alg3/rulingset")
	// G_L: loopholes adjacent when they intersect or touch via an edge.
	lg, err := loopholeGraph(g, voted)
	if err != nil {
		done()
		return err
	}
	// One G_L round is simulated by loophole diameter (3) + 1 real rounds.
	vnet := net.Virtual(lg, 4)
	ruling, err := rulingset.RulingSet(vnet, hp.p.RulingR)
	if err == nil {
		err = net.Checkpoint("alg3/rulingset", &CkptRulingSet{G: lg, In: ruling, R: hp.p.RulingR})
	}
	done()
	if err != nil {
		return fmt.Errorf("core: loophole ruling set: %w", err)
	}
	var anchors []*loophole.Loophole
	for i, in := range ruling {
		if in {
			anchors = append(anchors, voted[i])
		}
	}

	// BFS layering from the anchor loopholes over uncolored vertices; each
	// BFS frontier is one layer, kept as its member list.
	done = net.Phase("alg3/layers")
	defer done()
	seen := make([]bool, g.N())
	var frontier []int
	for _, l := range anchors {
		for _, v := range l.Verts {
			if out.Colored(v) {
				return fmt.Errorf("core: anchor loophole vertex %d already colored", v)
			}
			if !seen[v] {
				seen[v] = true
				frontier = append(frontier, v)
			}
		}
	}
	layers := [][]int{frontier}
	for depth := 1; depth <= hp.p.Layers && len(frontier) > 0; depth++ {
		var next []int
		for _, v := range frontier {
			for _, nw := range g.Neighbors(v) {
				w := int(nw)
				if !seen[w] && hp.isActive(w) && !out.Colored(w) {
					seen[w] = true
					next = append(next, w)
				}
			}
		}
		if len(next) > 0 {
			layers = append(layers, next)
		}
		frontier = next
	}
	net.Charge(hp.p.Layers)
	for v := 0; v < g.N(); v++ {
		if hp.isActive(v) && !out.Colored(v) && !seen[v] {
			return fmt.Errorf("core: Lemma 20 coverage violated: uncolored vertex %d beyond %d layers of every anchor loophole",
				v, hp.p.Layers)
		}
	}
	hp.stats.Layers = len(layers) - 1

	// Color layers outside-in; every layer-i vertex has an uncolored
	// neighbor in layer i-1 (its BFS parent), hence slack. A layer's plan
	// (its induced subgraph and Linial slots) depends only on its members,
	// so the planner makes upcoming layers' plans ahead on other goroutines
	// when the network has more than one worker, while this goroutine sweeps
	// the current layer. Only the swept layer's lists are rebuilt, so a
	// layer costs O(its members + their edges), not O(n).
	outsideIn := make([][]int, 0, len(layers)-1)
	for depth := len(layers) - 1; depth >= 1; depth-- {
		outsideIn = append(outsideIn, layers[depth])
	}
	planner := listcolor.NewPlanner(net, outsideIn)
	defer planner.Close()
	var slab coloring.ListSlab
	lists := slab.Take(g.N(), delta)
	for i, members := range outsideIn {
		depth := len(layers) - 1 - i
		for _, v := range members {
			coloring.AvailableInto(&lists[v], g, out, v, delta)
		}
		plan, err := planner.Next()
		if err == nil {
			err = plan.Sweep(net, lists, out)
		}
		if err != nil {
			return fmt.Errorf("core: layer %d: %w", depth, err)
		}
	}

	// Brute-force the anchor loopholes (constant diameter, constant
	// rounds; anchors are pairwise non-adjacent so they complete
	// independently in parallel).
	net.Charge(4)
	for _, l := range anchors {
		if err := loophole.Complete(g, out, l, delta); err != nil {
			return fmt.Errorf("core: completing anchor loophole: %w", err)
		}
	}
	for v := 0; v < g.N(); v++ {
		if hp.isActive(v) && !out.Colored(v) {
			return fmt.Errorf("core: vertex %d uncolored after Algorithm 3", v)
		}
	}
	return net.Checkpoint("alg3/layers", &CkptColoring{C: out, NumColors: delta})
}

// loopholeGraph builds G_L: one node per voted loophole, an edge when two
// loopholes share a vertex or are joined by a graph edge.
func loopholeGraph(g *graph.Graph, voted []*loophole.Loophole) (*graph.Graph, error) {
	// byVertex indexes, in CSR form, the voted loopholes containing each
	// vertex: they are ids[off[v]:off[v+1]]. off[v] first counts v's
	// loopholes and is prefix-summed to the end of v's run; the fill walks
	// the loopholes backwards, decrementing it down to the run's start.
	off := make([]int32, g.N()+1)
	for _, l := range voted {
		for _, v := range l.Verts {
			off[v]++
		}
	}
	for v := 1; v <= g.N(); v++ {
		off[v] += off[v-1]
	}
	ids := make([]int32, off[g.N()])
	for i := len(voted) - 1; i >= 0; i-- {
		for _, v := range voted[i].Verts {
			off[v]--
			ids[off[v]] = int32(i)
		}
	}
	byVertex := func(v int32) []int32 { return ids[off[v]:off[v+1]] }

	// Build sorts and dedups each adjacency run, so emitting a pair more
	// than once or in any order yields the same G_L.
	b := graph.NewBuilder(len(voted))
	addPair := func(i, j int32) {
		if i != j {
			if i > j {
				i, j = j, i
			}
			b.AddEdge(int(i), int(j))
		}
	}
	for v := int32(0); v < int32(g.N()); v++ {
		ls := byVertex(v)
		for i := 0; i < len(ls); i++ {
			for j := i + 1; j < len(ls); j++ {
				addPair(ls[i], ls[j])
			}
		}
	}
	for i, l := range voted {
		for _, v := range l.Verts {
			for _, w := range g.Neighbors(v) {
				for _, j := range byVertex(w) {
					addPair(int32(i), j)
				}
			}
		}
	}
	return b.Build()
}
