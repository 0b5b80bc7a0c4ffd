package local

import "slices"

// SparseStep runs one synchronous round restricted to an explicit
// activation set: the round body evaluates f — against the pre-round
// states, exactly like Step — only on the listed vertices, in one chunk on
// the calling goroutine; every other vertex keeps its state. The indices
// whose state actually changed are appended to changed (which may be nil)
// in list order and returned. One call charges exactly one round and
// records a sparse engine round, so span and frontier accounting line up
// with the frontier scheduler's.
//
// The evaluation is two-phase (compute every listed vertex's next state,
// then apply the changed ones in place), so results are independent of the
// order of the active list; duplicate entries are the caller's
// responsibility to avoid. Unlike Step, the buffers do not flip: States
// keeps returning the same slice, which is what lets callers that
// interleave external state writes (the shard workers applying ghost
// updates between rounds) hold one stable view. An installed fault hook or
// interrupt applies as in every round; the shard workers install neither,
// since sharded runs inject faults at the transport layer.
func (r *Runner[S]) SparseStep(active []int32, changed []int32,
	f func(v int, self S, nbrs Nbrs[S]) S) []int32 {
	rd := r.beginRound(f)
	r.net.counter.recordEngineRound(true, int64(len(active)), int64(len(r.cur)-len(active)))
	base := len(changed)
	changed = slices.Grow(changed, len(active))[:base+len(active)]
	rd.list, rd.changed = active, changed[base:]
	cnt, _ := rd.eval(0, len(active))
	rd.raise()
	changed = changed[:base+int(cnt)]
	for _, v := range changed[base:] {
		r.cur[v] = r.next[v]
	}
	return changed
}
