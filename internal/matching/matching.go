// Package matching implements deterministic maximal matching in the LOCAL
// model, the Step-1 substrate of the paper's Algorithm 2.
//
// The algorithm is the classic reduction to coloring: Linial-color the line
// graph of the (sub-)edge set with Δ_L+1 colors (Δ_L <= 2Δ-2), then sweep
// the color classes; all edges of one class are pairwise non-adjacent and
// may join the matching simultaneously unless an incident edge already
// joined. Total cost O(log* n + Δ log Δ) rounds — for constant Δ this
// matches the O(Δ + log* n) bound the paper cites from [PR01, MT20] up to
// the Δ-dependence (see DESIGN.md, substitutions).
//
// Rounds on the line graph are charged with dilation 2: one line-graph round
// is simulated by the two endpoints of each edge exchanging state.
package matching

import (
	"fmt"

	"deltacoloring/internal/graph"
	"deltacoloring/internal/linial"
	"deltacoloring/internal/local"
)

// Maximal computes a maximal matching of the whole graph.
func Maximal(net *local.Network) ([]graph.Edge, error) {
	return MaximalOn(net, net.Graph().Edges())
}

// MaximalOn computes a maximal matching of the subgraph spanned by the given
// edge subset (the paper matches only E_hard, the edges between distinct
// hard cliques). The result is maximal with respect to `edges`: every edge
// of the subset shares an endpoint with some matched edge.
func MaximalOn(net *local.Network, edges []graph.Edge) ([]graph.Edge, error) {
	if len(edges) == 0 {
		return nil, nil
	}
	g := net.Graph()
	sub, err := graph.FromEdges(g.N(), edges)
	if err != nil {
		return nil, fmt.Errorf("matching: %w", err)
	}
	lg, lineEdges := graph.LineGraph(sub)
	lnet := net.Virtual(lg, 2)
	colors, err := linial.Color(lnet, lg.MaxDegree()+1)
	if err != nil {
		return nil, fmt.Errorf("matching: line-graph coloring: %w", err)
	}

	type state struct {
		color   int
		in      bool
		blocked bool
	}
	st := make([]state, lg.N())
	for i := range st {
		st[i] = state{color: colors[i]}
	}
	// Sweep the color classes frontier-scheduled: a vertex's output changes
	// for non-neighborhood reasons only in its own class's round (the seed),
	// and otherwise only when an incident edge joined (a neighbor state
	// change the frontier tracks).
	classes := lg.MaxDegree() + 1
	buckets := make([][]int32, classes)
	for i, c := range colors {
		buckets[c] = append(buckets[c], int32(i))
	}
	run := local.NewRunner(lnet, st)
	st = run.Sweep(classes, local.ReactiveSeed, func(c int, mark func(int)) {
		for _, v := range buckets[c] {
			mark(int(v))
		}
	}, func(c, v int, self state, nbrs local.Nbrs[state]) state {
		if self.in || self.blocked {
			return self
		}
		for i := 0; i < nbrs.Len(); i++ {
			if nbrs.State(i).in {
				self.blocked = true
				return self
			}
		}
		if self.color == c {
			self.in = true
		}
		return self
	})
	var out []graph.Edge
	for i := range st {
		if st[i].in {
			out = append(out, lineEdges[i])
		}
	}
	return out, nil
}

// Verify checks that `matched` is a matching in g and, when `edges` is
// non-nil, that it is maximal with respect to that edge set.
func Verify(g *graph.Graph, matched []graph.Edge, edges []graph.Edge) error {
	used := make([]bool, g.N())
	for _, e := range matched {
		if !g.HasEdge(e.U, e.V) {
			return fmt.Errorf("matching: edge (%d,%d): not a graph edge", e.U, e.V)
		}
		if used[e.U] || used[e.V] {
			return fmt.Errorf("matching: edge (%d,%d): endpoint reused", e.U, e.V)
		}
		used[e.U] = true
		used[e.V] = true
	}
	if edges == nil {
		return nil
	}
	for _, e := range edges {
		if !used[e.U] && !used[e.V] {
			return fmt.Errorf("matching: edge (%d,%d): free edge, matching not maximal", e.U, e.V)
		}
	}
	return nil
}
