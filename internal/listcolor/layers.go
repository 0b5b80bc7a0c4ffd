package listcolor

import (
	"fmt"

	"deltacoloring/internal/coloring"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/local"
)

// Layering is a BFS layering of the vertices an admit rule accepts, grown
// from a seed set: Layers[0] is the seeds, Layers[d] the admitted vertices
// first reached at hop distance d. Reached flags every vertex of a layer.
type Layering struct {
	Layers  [][]int
	Reached []bool
}

// Layer BFS-layers g from seeds (duplicates ignored, never filtered by
// admit) through the vertices admit accepts, up to maxDepth hops. The
// search stops at the first empty layer, which is dropped, so Layers[d]
// is non-empty for every d >= 1. It is the layering of Algorithm 3 (lines
// 4-5), of Algorithm 4's happy layers and of the loophole baseline.
func Layer(g *graph.Graph, seeds []int, admit func(v int) bool, maxDepth int) Layering {
	reached := make([]bool, g.N())
	var frontier []int
	for _, v := range seeds {
		if !reached[v] {
			reached[v] = true
			frontier = append(frontier, v)
		}
	}
	layers := [][]int{frontier}
	for depth := 1; depth <= maxDepth && len(frontier) > 0; depth++ {
		var next []int
		for _, v := range frontier {
			for _, nw := range g.Neighbors(v) {
				w := int(nw)
				if !reached[w] && admit(w) {
					reached[w] = true
					next = append(next, w)
				}
			}
		}
		if len(next) > 0 {
			layers = append(layers, next)
		}
		frontier = next
	}
	return Layering{Layers: layers, Reached: reached}
}

// ColorOutsideIn colors Layers[len-1], ..., Layers[from] in that order,
// one deg+1 instance per non-empty layer, writing into out. A vertex's list
// is the colors of [0, k) its colored neighbors leave free; a layer-d
// vertex has slack from its uncolored BFS parent in layer d-1, so every
// layer d >= 1 is a deg+1 instance by construction, while layer 0, when
// colored, needs its slack from elsewhere. A layer's plan depends only on
// its members, so a Planner makes upcoming layers' plans ahead while this
// goroutine sweeps, and only the swept layer's lists are rebuilt: a layer
// costs O(its members + their edges), not O(n).
// A failure is reported as "layer d: <Solve's error>".
func (ly Layering) ColorOutsideIn(net *local.Network, from, k int, out *coloring.Partial) error {
	g := net.Graph()
	var sets [][]int
	var depths []int
	for d := len(ly.Layers) - 1; d >= from; d-- {
		if len(ly.Layers[d]) > 0 {
			sets = append(sets, ly.Layers[d])
			depths = append(depths, d)
		}
	}
	planner := NewPlanner(net, sets)
	defer planner.Close()
	var slab coloring.ListSlab
	lists := slab.Take(g.N(), k)
	for i, members := range sets {
		for _, v := range members {
			coloring.AvailableInto(&lists[v], g, out, v, k)
		}
		plan, err := planner.Next()
		if err == nil {
			err = plan.Sweep(net, lists, out)
		}
		if err != nil {
			return fmt.Errorf("layer %d: %w", depths[i], err)
		}
	}
	return nil
}
