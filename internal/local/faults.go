package local

// Fault injection. The LOCAL engine is fault-free by default; installing a
// FaultHook on a network makes every subsequent engine round on that network
// (Step, Run, Sweep, SparseStep: they share one round body) consult a
// per-round fault view before, during, and after the state computation.
// The hook is deliberately an interface so the engine stays free of any
// policy: concrete schedules (seeded random plans, scripted scenarios) live
// in internal/faults.
//
// Semantics, per round:
//
//   - Crashed(v): v is crash-stop faulty as of this round. Its state is
//     frozen (next[v] = cur[v], the state function is not invoked) and it
//     sends nothing — every neighbor's view omits it. A crashed vertex is
//     treated as done by quiescence detection, since it can never progress.
//   - Dropped(u, v): the round's message from u to v is lost; v's neighbor
//     view omits u this round (u still sees v unless the reverse direction
//     is dropped too — directions are independent, like real links).
//   - Duplicated(u, v): the message from u to v is delivered twice; u
//     appears twice in v's neighbor view, which perturbs any algorithm that
//     counts or aggregates over neighbors.
//   - Corrupted(v) = (src, true): after v computes its next state, its
//     memory is overwritten with src's current-round state (src is chosen by
//     the plan, typically a neighbor). Reading cur rather than next keeps
//     the outcome independent of scheduling order.
//
// All decisions must be pure functions of (round, vertices) for a fixed
// plan: the engine evaluates them from worker goroutines in arbitrary order
// and promises bit-identical outcomes at any worker count.
//
// Fault views apply only to the network the hook is installed on. Virtual
// child networks are unaffected: their nodes are simulated constant-diameter
// sets of real nodes, and faults are a property of the real communication
// layer, not of the simulation bookkeeping.

// RoundFaults is the fault view of one synchronous round.
type RoundFaults interface {
	// Crashed reports whether v is crash-stop faulty in (or before) this
	// round.
	Crashed(v int) bool
	// Dropped reports whether the message from `from` to `to` is lost this
	// round.
	Dropped(from, to int) bool
	// Duplicated reports whether the message from `from` to `to` is
	// delivered twice this round.
	Duplicated(from, to int) bool
	// Corrupted reports whether v's freshly computed state is overwritten
	// this round, and with which vertex's current state.
	Corrupted(v int) (src int, ok bool)
}

// FaultHook supplies one RoundFaults view per engine round. NextRound is
// called exactly once at the start of every engine round on
// the network the hook is installed on, in round order, from the round's
// calling goroutine; returning nil marks the round fault-free and keeps the
// engine on its zero-overhead path.
type FaultHook interface {
	NextRound() RoundFaults
}

// SetFaults installs (or, with nil, removes) a fault hook on this network.
// The hook does not propagate to Virtual children: fault injection models
// the real communication layer. Results under a fixed plan remain
// bit-identical at any worker count, because every fault decision is a pure
// function of (round, vertex) pairs.
func (n *Network) SetFaults(h FaultHook) { n.faults = h }
