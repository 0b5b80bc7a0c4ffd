package backend

import (
	"deltacoloring/internal/acd"
	"deltacoloring/internal/core"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/local"
	"deltacoloring/internal/loophole"
)

// Select picks a backend for g by structure: Δ, density, and the shape of
// the almost-clique decomposition. The probe computes the ACD and the
// hard/easy classification on a throwaway network (the choice is an
// engineering heuristic, not part of the algorithm, so its rounds are not
// charged to the caller's run):
//
//   - degenerate or low-Δ inputs, sparse graphs, and easy-dominated
//     decompositions go to the reference deterministic pipeline;
//   - the extremely dense shape (every almost clique a complete hard
//     clique of size exactly Δ) goes to the simple-dense route;
//   - hard-dominated decompositions go to the ruling-subgraph route,
//     which skips the matching/HEG/splitting machinery.
//
// Select never fails: anything it cannot confidently classify runs on the
// default backend, and the selected backend still enforces every runtime
// invariant itself.
func Select(g *graph.Graph, p Params) Backend {
	delta := g.MaxDegree()
	if g.N() == 0 || delta < 6 {
		return Default()
	}
	if p.Det.Eps <= 0 || p.Det.Eps >= 1 {
		p.Det = core.DefaultParams()
	}
	net := local.New(g)
	defer net.Close()
	a, err := acd.Compute(net, p.Det.Eps)
	if err != nil || !a.IsDense() {
		return Default()
	}
	cl := loophole.Classify(g, a)
	hard := 0
	simpleShape := true
	for ci, members := range a.Cliques {
		if !cl.Easy[ci] {
			hard++
		} else {
			simpleShape = false
		}
		if len(members) != delta || !g.IsClique(members) {
			simpleShape = false
		}
	}
	if simpleShape && hard == len(a.Cliques) {
		return mustGet("simple")
	}
	if 2*hard >= len(a.Cliques) && hard > 0 {
		return mustGet("ruling")
	}
	return Default()
}

func mustGet(name string) Backend {
	b, err := Get(name)
	if err != nil {
		panic(err) // registered in this package's init
	}
	return b
}
