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
// Solve is two halves. A Plan (the induced subgraph and its slots) depends
// only on which vertices are active; Plan.Sweep checks the lists and sweeps
// the slot classes, the one sweep body. The slot class is an exact seed
// (local.ExactSeed): a vertex acts only in its own slot's round. A caller
// that knows a sequence of instances' active sets in advance, as the
// layered colorer knows its layers, hands them to a Planner (planner.go),
// which on a network with several workers makes upcoming plans on other
// goroutines while the caller sweeps.
//
// Layer and Layering.ColorOutsideIn (layers.go) are the repository's one
// layered colorer: BFS layers grown from a seed set, colored outermost
// first with one deg+1 instance per layer through a Planner. Algorithm 3's
// easy-clique layers, Algorithm 4's happy layers around T-nodes and the
// loophole baseline all run it.
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
// ErrListTooShort) or internal invariants break. Already-colored active
// vertices are an error. It is NewPlan followed by Plan.Sweep.
func Solve(net *local.Network, inst Instance, out *coloring.Partial) error {
	g := net.Graph()
	if len(inst.Active) != g.N() || len(inst.Lists) != g.N() {
		return fmt.Errorf("listcolor: instance size mismatch (n=%d)", g.N())
	}
	var activeVerts []int
	for v, a := range inst.Active {
		if a {
			activeVerts = append(activeVerts, v)
		}
	}
	if len(activeVerts) == 0 {
		return nil
	}
	plan, err := NewPlan(net, activeVerts)
	if err != nil {
		return err
	}
	return plan.Sweep(net, inst.Lists, out)
}

// Plan is the color-independent half of one instance: the subgraph induced
// by its active vertices and a Linial coloring of it with Δ'+1 slots. Both
// depend only on which vertices are active, never on colors or lists, so a
// caller that knows several instances' active sets in advance (Algorithm 3's
// layers) can plan them early, on other goroutines (see Planner).
type Plan struct {
	sub   *graph.Sub
	slots []int
	k     int
}

// NewPlan plans the instance whose active vertices are members (any order,
// duplicates ignored) on net's graph, charging the Linial rounds to net.
func NewPlan(net *local.Network, members []int) (*Plan, error) {
	sub := graph.Induced(net.Graph(), members)
	k := sub.G.MaxDegree() + 1
	slots, err := linial.Color(net.Virtual(sub.G, 1), k)
	if err != nil {
		return nil, fmt.Errorf("listcolor: %w", err)
	}
	return &Plan{sub: sub, slots: slots, k: k}, nil
}

// Sweep colors the plan's vertices from lists (indexed by net's vertices),
// writing into out: it checks the deg+1 precondition, then sweeps the slot
// classes. net must be the network the plan was made for, or one over the
// same graph; the sweep runs at net's worker count. The errors are Solve's.
func (pl *Plan) Sweep(net *local.Network, lists []coloring.Palette, out *coloring.Partial) error {
	sub := pl.sub
	if len(lists) != net.Graph().N() {
		return fmt.Errorf("listcolor: instance size mismatch (n=%d)", net.Graph().N())
	}
	for _, p := range sub.ToParent {
		if out.Colored(p) {
			return fmt.Errorf("listcolor: active vertex %d already colored", p)
		}
	}
	for i, p := range sub.ToParent {
		if lists[p].Size() < sub.G.Degree(i)+1 {
			return fmt.Errorf("listcolor: vertex %d has %d colors for active degree %d: %w",
				p, lists[p].Size(), sub.G.Degree(i), ErrListTooShort)
		}
	}

	type state struct {
		slot  int
		color int
	}
	st := make([]state, sub.G.N())
	for i := range st {
		st[i] = state{slot: pl.slots[i], color: coloring.None}
	}
	// Frontier-scheduled slot sweep: a vertex acts only in its own slot's
	// round and otherwise returns self whatever its neighbors hold, so the
	// slot class is an exact seed.
	buckets := make([][]int32, pl.k)
	for i, s := range pl.slots {
		buckets[s] = append(buckets[s], int32(i))
	}
	run := local.NewRunner(net.Virtual(sub.G, 1), st)
	st = run.Sweep(pl.k, local.ExactSeed, func(c int, mark func(int)) {
		for _, i := range buckets[c] {
			mark(int(i))
		}
	}, func(c, i int, self state, nbrs local.Nbrs[state]) state {
		if self.color != coloring.None || self.slot != c {
			return self
		}
		p := palPool.Get().(*coloring.Palette)
		p.CopyFrom(lists[sub.ToParent[i]])
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
