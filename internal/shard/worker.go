package shard

import (
	"fmt"
	"slices"

	"deltacoloring/internal/listcolor"
	"deltacoloring/internal/local"
)

// Update carries one vertex's color across the cut, addressed by the
// parent-graph vertex index (the one namespace all shards share).
type Update struct {
	V int32
	C int32
}

// StepResult is one worker's contribution to one LOCAL round.
type StepResult struct {
	// Changed lists the boundary locals that took a color this round,
	// ascending by parent vertex; the coordinator routes each to every
	// shard holding its ghost.
	Changed []Update
	// NotDone is the number of still-uncolored locals.
	NotDone int
}

// Worker executes one shard's side of the protocol: it owns the shard
// subgraph, applies the coordinator's ghost updates between rounds, and
// evaluates the wire rule on exactly the local vertices whose closed
// neighborhood changed — the frontier engine's activation-set idea applied
// across the cut, so a quiet boundary costs no evaluations at all. The rule
// is listcolor's greedy rule with every vertex active, ghosts included, so a
// ghost blocks by ID exactly as it does on the parent graph. The palette is
// [0, Δ_sub+1) for the shard subgraph's own maximum degree: a local keeps its
// full parent degree there, so its smallest free color is the one the
// parent's [0, Δ+1) yields, and no allocation is sized by a wire field.
type Worker struct {
	part  *Part
	delta int
	net   *local.Network
	run   *local.Runner[int32]
	rule  func(v int, self int32, nbrs local.Nbrs[int32]) int32

	isBoundary []bool
	active     []int32 // sub-local indices to evaluate next round
	inActive   []bool
	changed    []int32 // scratch reused across rounds
	notDone    int
}

// NewWorker builds the worker for one shard. delta is the parent graph's
// maximum degree, bounding every legal color.
func NewWorker(part *Part, delta int) *Worker {
	g := part.Sub.G
	st := make([]int32, g.N())
	for v := range st {
		st[v] = none
	}
	net := local.New(g)
	w := &Worker{
		part:       part,
		delta:      delta,
		net:        net,
		run:        local.NewRunner(net, st),
		rule:       listcolor.Uniform(g.N(), g.MaxDegree()+1).GreedyRule(g),
		isBoundary: make([]bool, g.N()),
		inActive:   make([]bool, g.N()),
		notDone:    len(part.Locals),
	}
	for _, i := range part.Boundary {
		w.isBoundary[i] = true
	}
	// Round one evaluates every local, exactly like the dense first round.
	w.active = append(w.active, part.Locals...)
	for _, i := range part.Locals {
		w.inActive[i] = true
	}
	return w
}

// Close releases the worker's network resources.
func (w *Worker) Close() { w.net.Close() }

// Step applies the coordinator's ghost updates, runs one sparse LOCAL round
// over the activated locals, and reports the boundary vertices that took a
// color. Updates are validated against the exchange contract first — a
// corrupted message surfaces as *ExchangeViolation, never as a silently
// wrong coloring.
func (w *Worker) Step(shard int, updates []Update) (*StepResult, error) {
	g := w.part.Sub.G
	states := w.run.States()
	for _, u := range updates {
		if u.V < 0 || int(u.V) >= len(w.part.Sub.FromParent) {
			return nil, &ExchangeViolation{Shard: shard, Vertex: int(u.V), Reason: "unknown parent vertex"}
		}
		i := w.part.Sub.FromParent[u.V]
		if i < 0 {
			return nil, &ExchangeViolation{Shard: shard, Vertex: int(u.V), Reason: "vertex has no copy in this shard"}
		}
		if w.part.IsLocal[i] {
			return nil, &ExchangeViolation{Shard: shard, Vertex: int(u.V), Reason: "update addresses a local vertex, not a ghost"}
		}
		if u.C < 0 || int(u.C) > w.delta {
			return nil, &ExchangeViolation{Shard: shard, Vertex: int(u.V),
				Reason: fmt.Sprintf("color %d outside [0,%d]", u.C, w.delta)}
		}
		if prev := states[i]; prev != none && prev != u.C {
			return nil, &ExchangeViolation{Shard: shard, Vertex: int(u.V),
				Reason: fmt.Sprintf("ghost recolored from %d to %d", prev, u.C)}
		}
		states[i] = u.C
		// A ghost's new color can unblock its still-uncolored local
		// neighbors: activate them for this round.
		for _, j := range g.Neighbors(int(i)) {
			if w.part.IsLocal[j] && states[j] == none && !w.inActive[j] {
				w.inActive[j] = true
				w.active = append(w.active, j)
			}
		}
	}
	// Ascending evaluation order gives canonical Changed messages; results
	// are order-independent (SparseStep is two-phase), this is for the wire.
	slices.Sort(w.active)
	w.changed = w.run.SparseStep(w.active, w.changed[:0], w.rule)
	for _, v := range w.active {
		w.inActive[v] = false
	}
	w.active = w.active[:0]
	res := &StepResult{}
	for _, v := range w.changed {
		w.notDone--
		if w.isBoundary[v] {
			res.Changed = append(res.Changed, Update{V: int32(w.part.Sub.ToParent[v]), C: states[v]})
		}
		// A newly colored local constrains its uncolored local neighbors:
		// activate them for the next round.
		for _, j := range g.Neighbors(int(v)) {
			if w.part.IsLocal[j] && states[j] == none && !w.inActive[j] {
				w.inActive[j] = true
				w.active = append(w.active, j)
			}
		}
	}
	res.NotDone = w.notDone
	return res, nil
}

// Finish returns every local vertex's final color, ascending by parent
// vertex. An uncolored local means the coordinator stopped too early.
func (w *Worker) Finish() ([]Update, error) {
	states := w.run.States()
	out := make([]Update, 0, len(w.part.Locals))
	for _, i := range w.part.Locals {
		if states[i] == none {
			return nil, fmt.Errorf("shard: vertex %d finished uncolored", w.part.Sub.ToParent[i])
		}
		out = append(out, Update{V: int32(w.part.Sub.ToParent[i]), C: states[i]})
	}
	return out, nil
}
