// Package listcolor implements deterministic (deg+1)-list coloring in the
// LOCAL model (the paper's Lemma 24 substrate, [MT20]).
//
// Contract: a set of active vertices, each with a color list strictly larger
// than its number of active neighbors (its degree in the instance). Inactive
// neighbors' colors must already be excluded from the lists by the caller.
// The algorithm Linial-colors the induced active subgraph with Δ'+1 "slots"
// and sweeps the slot classes; when a vertex's class comes up it adopts the
// smallest list color unused by its already-colored active neighbors, which
// exists by the deg+1 invariant. Cost O(log* n + Δ' log Δ') rounds.
// [MT20] achieves O(√(Δ log Δ) + log* n); the substitution is recorded in
// DESIGN.md and only affects the Δ-dependence of the round counts.
//
// GreedyRule (greedy.go) is the repository's one greedy round rule over the
// same Instance type, with ID-local-max symmetry breaking instead of slots:
// the sharded wire algorithm, the greedy backend, and the dynamic store's
// incremental and full recolors all run it.
package listcolor

import (
	"errors"
	"fmt"
	"sync"

	"deltacoloring/internal/coloring"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/linial"
	"deltacoloring/internal/local"
)

// palPool recycles the per-recolor working palette of Solve's sweep callback
// and of GreedyRule. The callbacks may run concurrently across the runner's
// workers, so the scratch cannot live on the solver; a pooled palette with
// CopyFrom reuses its word storage and makes the steady-state recolor
// allocation-free.
var palPool = sync.Pool{New: func() any { return new(coloring.Palette) }}

// ErrListTooShort marks a failed deg+1 precondition: an active vertex's list
// has no more colors than it has active neighbors. Solve's other failures
// are broken invariants, not bad instances.
var ErrListTooShort = errors.New("list not longer than active degree")

// Instance is one deg+1-list-coloring instance on a subset of vertices.
type Instance struct {
	// Active flags the vertices to color.
	Active []bool
	// Lists holds each active vertex's available colors. Lists of inactive
	// vertices are ignored.
	Lists []coloring.Palette
}

// Solve colors every active vertex with a color from its list, writing into
// out, and returns an error if the deg+1 precondition fails (matching
// ErrListTooShort) or internal invariants break. Already-colored active vertices are an error.
func Solve(net *local.Network, inst Instance, out *coloring.Partial) error {
	g := net.Graph()
	if len(inst.Active) != g.N() || len(inst.Lists) != g.N() {
		return fmt.Errorf("listcolor: instance size mismatch (n=%d)", g.N())
	}
	var activeVerts []int
	for v, a := range inst.Active {
		if !a {
			continue
		}
		if out.Colored(v) {
			return fmt.Errorf("listcolor: active vertex %d already colored", v)
		}
		activeVerts = append(activeVerts, v)
	}
	if len(activeVerts) == 0 {
		return nil
	}
	sub := graph.Induced(g, activeVerts)
	for i, p := range sub.ToParent {
		if inst.Lists[p].Size() < sub.G.Degree(i)+1 {
			return fmt.Errorf("listcolor: vertex %d has %d colors for active degree %d: %w",
				p, inst.Lists[p].Size(), sub.G.Degree(i), ErrListTooShort)
		}
	}
	snet := net.Virtual(sub.G, 1)
	k := sub.G.MaxDegree() + 1
	slots, err := linial.Color(snet, k)
	if err != nil {
		return fmt.Errorf("listcolor: %w", err)
	}

	type state struct {
		slot  int
		color int
	}
	st := make([]state, sub.G.N())
	for i := range st {
		st[i] = state{slot: slots[i], color: coloring.None}
	}
	// Frontier-scheduled slot sweep: a vertex acts only in its own slot's
	// round (the seed); all other rounds return self unchanged.
	buckets := make([][]int32, k)
	for i, s := range slots {
		buckets[s] = append(buckets[s], int32(i))
	}
	run := local.NewRunner(snet, st)
	st = run.Sweep(k, func(c int, mark func(int)) {
		for _, i := range buckets[c] {
			mark(int(i))
		}
	}, func(c, i int, self state, nbrs local.Nbrs[state]) state {
		if self.color != coloring.None || self.slot != c {
			return self
		}
		p := palPool.Get().(*coloring.Palette)
		p.CopyFrom(inst.Lists[sub.ToParent[i]])
		for j := 0; j < nbrs.Len(); j++ {
			if nc := nbrs.State(j).color; nc != coloring.None {
				p.Remove(nc)
			}
		}
		col := p.Min()
		palPool.Put(p)
		if col < 0 {
			panic(fmt.Sprintf("listcolor: empty palette at vertex %d despite deg+1 precondition", sub.ToParent[i]))
		}
		self.color = col
		return self
	})
	for i, s := range st {
		if s.color == coloring.None {
			return fmt.Errorf("listcolor: vertex %d left uncolored", sub.ToParent[i])
		}
		out.Colors[sub.ToParent[i]] = s.color
	}
	return nil
}

// GreedyLists builds per-vertex lists from a base palette [0, k) minus the
// colors of already-colored neighbors — the standard way the paper
// constructs deg+1 instances from a partial coloring.
func GreedyLists(g *graph.Graph, out *coloring.Partial, k int) []coloring.Palette {
	var slab coloring.ListSlab
	lists := slab.Take(g.N(), k)
	for v := range lists {
		coloring.AvailableInto(&lists[v], g, out, v, k)
	}
	return lists
}
