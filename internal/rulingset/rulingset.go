// Package rulingset implements maximal independent sets and distance-r
// ruling sets in the LOCAL model.
//
// MIS uses the standard deterministic recipe: Linial-color the graph with
// Δ+1 colors in O(log* n + Δ log Δ) rounds, then sweep the color classes —
// each class is an independent set, so all its vertices can join the MIS
// simultaneously unless a neighbor already joined. Ruling sets are MIS on
// the r-th power graph, executed as a virtual network with dilation r
// (simulating one power-graph round costs r real rounds).
//
// The paper consumes ruling sets through Lemma 19 ([Mau21, SEW13],
// O(Δ^{2/(r+2)} + log* n) rounds). Our MIS-on-power-graph substitution has a
// larger Δ-dependence but the identical output contract: selected vertices
// are pairwise at distance > r and every vertex is within distance r of a
// selected one. DESIGN.md records the substitution.
package rulingset

import (
	"fmt"

	"deltacoloring/internal/graph"
	"deltacoloring/internal/linial"
	"deltacoloring/internal/local"
)

// misState is the per-vertex state of the class sweep.
type misState struct {
	color   int
	in      bool // joined the MIS
	blocked bool // a neighbor joined
}

// MIS computes a maximal independent set of net's graph deterministically.
func MIS(net *local.Network) ([]bool, error) {
	g := net.Graph()
	if g.N() == 0 {
		return nil, nil
	}
	k := g.MaxDegree() + 1
	colors, err := linial.Color(net, k)
	if err != nil {
		return nil, fmt.Errorf("mis: %w", err)
	}
	st := make([]misState, g.N())
	for v := range st {
		st[v] = misState{color: colors[v]}
	}
	// Frontier-scheduled class sweep: only round c's class can change state
	// for non-neighborhood reasons (the seed); everything else changes only
	// in reaction to a neighbor joining, which the frontier tracks.
	buckets := make([][]int32, k)
	for v, c := range colors {
		buckets[c] = append(buckets[c], int32(v))
	}
	run := local.NewRunner(net, st)
	st = run.Sweep(k, local.ReactiveSeed, func(c int, mark func(int)) {
		for _, v := range buckets[c] {
			mark(int(v))
		}
	}, func(c, v int, self misState, nbrs local.Nbrs[misState]) misState {
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
	out := make([]bool, g.N())
	for v := range st {
		out[v] = st[v].in
	}
	return out, nil
}

// RulingSet computes a set S such that any two members are at distance
// greater than r and every vertex is within distance r of S (a
// (r+1, r)-ruling set, which is in particular a (2, r)-ruling set as used
// by the paper's Algorithm 3).
func RulingSet(net *local.Network, r int) ([]bool, error) {
	if r < 1 {
		return nil, fmt.Errorf("rulingset: r must be >= 1, got %d", r)
	}
	if r == 1 {
		return MIS(net)
	}
	power := graph.Power(net.Graph(), r)
	vnet := net.Virtual(power, r)
	return MIS(vnet)
}

// VerifyMIS checks independence and maximality.
func VerifyMIS(g *graph.Graph, in []bool) error {
	if len(in) != g.N() {
		return fmt.Errorf("rulingset: %d flags for %d vertices", len(in), g.N())
	}
	for v := 0; v < g.N(); v++ {
		anyIn := in[v]
		for _, w := range g.Neighbors(v) {
			if in[v] && in[w] {
				return fmt.Errorf("rulingset: edge (%d,%d): both endpoints in the MIS", v, w)
			}
			if in[w] {
				anyIn = true
			}
		}
		if !anyIn {
			return fmt.Errorf("rulingset: vertex %d: undominated", v)
		}
	}
	return nil
}

// VerifyRulingSet checks the (r+1, r) ruling property.
func VerifyRulingSet(g *graph.Graph, in []bool, r int) error {
	if len(in) != g.N() {
		return fmt.Errorf("rulingset: %d flags for %d vertices", len(in), g.N())
	}
	var members []int
	for v, ok := range in {
		if ok {
			members = append(members, v)
		}
	}
	for i := 0; i < len(members); i++ {
		for j := i + 1; j < len(members); j++ {
			if d := g.Dist(members[i], members[j]); d >= 0 && d <= r {
				return fmt.Errorf("rulingset: vertex %d: member at distance %d <= r=%d from member %d",
					members[i], d, r, members[j])
			}
		}
	}
	for v := 0; v < g.N(); v++ {
		if in[v] {
			continue
		}
		ok := false
		for _, w := range g.NeighborsWithin(v, r) {
			if in[w] {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("rulingset: vertex %d: not within distance %d of the set", v, r)
		}
	}
	return nil
}
