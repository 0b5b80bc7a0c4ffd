// Package matching implements deterministic maximal matching in the LOCAL
// model, the Step-1 substrate of the paper's Algorithm 2.
//
// A maximal matching is a maximal independent set of the line graph, so
// MaximalOn runs rulingset.MIS on the line graph of the (sub-)edge set:
// Linial-color it with Δ_L+1 colors (Δ_L <= 2Δ-2), then sweep the color
// classes. Total cost O(log* n + Δ log Δ) rounds — for constant Δ this
// matches the O(Δ + log* n) bound the paper cites from [PR01, MT20] up to
// the Δ-dependence (see DESIGN.md, substitutions).
//
// Rounds on the line graph are charged with dilation 2: one line-graph round
// is simulated by the two endpoints of each edge exchanging state.
package matching

import (
	"fmt"

	"deltacoloring/internal/graph"
	"deltacoloring/internal/local"
	"deltacoloring/internal/rulingset"
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
	in, err := rulingset.MIS(net.Virtual(lg, 2))
	if err != nil {
		return nil, fmt.Errorf("matching: line graph: %w", err)
	}
	var out []graph.Edge
	for i, ok := range in {
		if ok {
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
