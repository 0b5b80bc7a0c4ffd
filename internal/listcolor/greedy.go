package listcolor

import (
	"fmt"

	"deltacoloring/internal/coloring"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/local"
)

// none is the uncolored engine state of the greedy rule.
const none = int32(coloring.None)

// Uniform returns the instance with all n vertices active on the list
// [0, k). Every list aliases one palette, so the instance costs O(n) headers
// rather than n palettes; callers must treat the lists as read-only.
func Uniform(n, k int) Instance {
	full := coloring.FullPalette(k)
	inst := Instance{Active: make([]bool, n), Lists: make([]coloring.Palette, n)}
	for v := range inst.Active {
		inst.Active[v] = true
		inst.Lists[v] = full
	}
	return inst
}

// GreedyRule returns the LOCAL state function of the repository's one greedy
// list-coloring rule over g, with ID-local-max symmetry breaking: an
// uncolored active vertex waits while any uncolored active neighbor has a
// larger ID, then takes the smallest color of its list that no neighbor
// holds. Inactive vertices keep their state, and an inactive uncolored
// neighbor neither blocks nor constrains. The tie-break reads g.ID, never the
// vertex index, so the rule computes the same trajectory on a subgraph that
// inherits IDs (a shard) as on the parent graph. The function is pure: its
// value depends only on the closed neighborhood's previous-round states.
func (inst Instance) GreedyRule(g *graph.Graph) func(v int, self int32, nbrs local.Nbrs[int32]) int32 {
	return func(v int, self int32, nbrs local.Nbrs[int32]) int32 {
		if !inst.Active[v] || self != none {
			return self
		}
		id := g.ID(v)
		p := palPool.Get().(*coloring.Palette)
		p.CopyFrom(inst.Lists[v])
		for i := 0; i < nbrs.Len(); i++ {
			if c := nbrs.State(i); c != none {
				p.Remove(int(c))
			} else if w := nbrs.At(i); inst.Active[w] && g.ID(w) > id {
				palPool.Put(p)
				return self // defer to the higher-ID uncolored neighbor
			}
		}
		c := p.Min()
		palPool.Put(p)
		if c >= 0 {
			return int32(c)
		}
		return self // empty list: unreachable under the deg+1 precondition
	}
}

// Greedy runs GreedyRule to quiescence on net's graph within maxRounds and
// writes the active vertices' colors into colors, which also supplies the
// starting states (coloring.None for uncolored). Each round commits at least
// the highest-ID uncolored active vertex of every component, so a fault-free
// run quiesces within |active|+2 rounds; the frontier engine keeps per-round
// work proportional to the shrinking uncolored region. Under injected faults
// the rule degrades safely — crashed vertices stay uncolored (an error here)
// and dropped messages can yield conflicts the caller's verification
// catches. Inactive entries of colors are never written, even if a fault
// scribbled over their engine state. Greedy returns the rounds executed.
func Greedy(net *local.Network, inst Instance, colors []int, maxRounds int) (int, error) {
	g := net.Graph()
	st := make([]int32, g.N())
	for v := range st {
		st[v] = int32(colors[v])
	}
	final, rounds, err := local.NewRunner(net, st).Run(maxRounds, inst.GreedyRule(g),
		func(v int, s int32) bool { return !inst.Active[v] || s != none })
	if err != nil {
		return rounds, err
	}
	for v, a := range inst.Active {
		if !a {
			continue
		}
		if final[v] == none {
			return rounds, fmt.Errorf("listcolor: vertex %d left uncolored after %d rounds", v, rounds)
		}
		colors[v] = int(final[v])
	}
	return rounds, nil
}
