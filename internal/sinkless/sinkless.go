// Package sinkless implements the sinkless orientation problem discussed in
// the paper's technical overview (Section 1.1): orient all edges so that
// every vertex of degree at least 3 has an outgoing edge. The problem has
// deterministic complexity Θ(log n) and is the conceptual ancestor of
// hyperedge grabbing, so the implementation simply reduces to internal/heg:
// each degree-≥3 vertex must grab a private incident edge, which it orients
// outward (rank 2, minimum degree ≥ 3 > 1.1·2).
//
// OrientKOut implements the paper's vertex-splitting trick: splitting
// every vertex of degree ≥ 3k into k virtual parts guarantees k outgoing
// edges per such vertex (k=1 is plain sinkless orientation). k=2 is
// exactly the device Algorithm 2 uses at clique granularity to reserve two
// slack-triad edges per clique.
package sinkless

import (
	"fmt"

	"deltacoloring/internal/graph"
	"deltacoloring/internal/heg"
	"deltacoloring/internal/local"
)

// Orientation assigns each edge (by index into the edge list) an oriented
// direction: Away[e] is the tail vertex (edge points from Away[e] to the
// other endpoint).
type Orientation struct {
	Edges []graph.Edge
	Tail  []int
}

// solveRestricted runs HEG over only the participating vertices by
// compacting indices.
func solveRestricted(net *local.Network, n int, participating []bool, edges [][]int) ([]int, error) {
	compact := make([]int, n)
	var back []int
	for v := 0; v < n; v++ {
		if participating[v] {
			compact[v] = len(back)
			back = append(back, v)
		} else {
			compact[v] = -1
		}
	}
	sub := make([][]int, 0, len(edges))
	edgeBack := make([]int, 0, len(edges))
	for i, verts := range edges {
		var keep []int
		for _, v := range verts {
			if participating[v] {
				keep = append(keep, compact[v])
			}
		}
		if len(keep) > 0 {
			sub = append(sub, keep)
			edgeBack = append(edgeBack, i)
		}
	}
	grab := make([]int, n)
	for v := range grab {
		grab[v] = -1
	}
	if len(back) == 0 {
		return grab, nil
	}
	h, err := heg.NewHypergraph(len(back), sub)
	if err != nil {
		return nil, err
	}
	sol, _, err := heg.Solve(net, h)
	if err != nil {
		return nil, err
	}
	for cv, e := range sol {
		grab[back[cv]] = edgeBack[e]
	}
	return grab, nil
}

// OrientKOut generalizes the splitting trick: every vertex of degree at
// least 3k is split into k virtual parts, each owning a 1/k share of its
// incident edges (so each part has degree >= 3) and each grabbing one edge
// to orient outward — k guaranteed out-edges per such vertex. Vertices of
// smaller degree do not participate.
func OrientKOut(net *local.Network, k int) (*Orientation, error) {
	if k < 1 {
		return nil, fmt.Errorf("sinkless: k must be >= 1, got %d", k)
	}
	g := net.Graph()
	edges := g.Edges()
	minDeg := 3 * k
	participate := make([]bool, k*g.N())
	seenAt := make([]int, g.N()) // incidence counter per vertex
	hyper := make([][]int, len(edges))
	edgeIdx := make(map[graph.Edge]int, len(edges))
	for i, e := range edges {
		edgeIdx[e] = i
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) < minDeg {
			continue
		}
		for j := 0; j < k; j++ {
			participate[k*v+j] = true
		}
	}
	for v := 0; v < g.N(); v++ {
		for _, nw := range g.Neighbors(v) {
			w := int(nw)
			if v > w {
				continue
			}
			i := edgeIdx[graph.Edge{U: v, V: w}]
			for _, end := range [2]int{v, w} {
				if g.Degree(end) >= minDeg {
					part := k*end + seenAt[end]%k
					hyper[i] = append(hyper[i], part)
				}
				seenAt[end]++
			}
		}
	}
	grab, err := solveRestricted(net, k*g.N(), participate, hyper)
	if err != nil {
		return nil, fmt.Errorf("sinkless: %d-out: %w", k, err)
	}
	o := &Orientation{Edges: edges, Tail: make([]int, len(edges))}
	for i, e := range edges {
		o.Tail[i] = e.V
		if g.ID(e.U) > g.ID(e.V) {
			o.Tail[i] = e.U
		}
	}
	for part, e := range grab {
		if e >= 0 {
			o.Tail[e] = part / k
		}
	}
	return o, nil
}

// VerifyKOut checks that every vertex of degree >= 3k has at least k
// outgoing edges.
func VerifyKOut(g *graph.Graph, o *Orientation, k int) error {
	if len(o.Tail) != len(o.Edges) {
		return fmt.Errorf("sinkless: %d tails for %d edges", len(o.Tail), len(o.Edges))
	}
	outs := make([]int, g.N())
	for i, e := range o.Edges {
		t := o.Tail[i]
		if t != e.U && t != e.V {
			return fmt.Errorf("sinkless: edge (%d,%d): tail %d is not an endpoint", e.U, e.V, t)
		}
		outs[t]++
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) >= 3*k && outs[v] < k {
			return fmt.Errorf("sinkless: vertex %d: %d outgoing edges at degree %d, want >= %d",
				v, outs[v], g.Degree(v), k)
		}
	}
	return nil
}
