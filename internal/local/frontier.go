// Frontier-scheduled execution for the LOCAL state engine.
//
// # Why skipping is sound
//
// One engine round computes next[v] = f(v, cur[v], cur states of N(v)) with f
// pure. If neither v nor any neighbor of v changed state in the previous
// round, then f sees exactly the inputs it saw last time and must return
// cur[v] again — so the round may skip v entirely. Run therefore executes its
// first round densely (there is no "last time" yet) and afterwards activates
// only changed vertices plus their CSR neighbors; Sweep, whose round function
// additionally depends on the round index, takes a caller-supplied seed that
// marks every vertex whose output could change for non-neighborhood reasons
// (e.g. its color class coming up in a class sweep).
//
// # Seed contracts
//
// A Sweep's caller states how far its seed reaches. Under ReactiveSeed (the
// MIS and maximal-matching sweeps) an unseeded vertex may still change in
// reaction to a neighbor's change — a neighbor joined, so it is blocked — and
// the engine wakes every neighbor of every changed vertex, as Run does. Under
// ExactSeed (the list-coloring slot sweep and Linial's class reduction) only
// seeded vertices can change in a round, whatever their neighbors did, so the
// engine re-marks only each changed vertex itself: it must run once more so
// that its new state reaches the other buffer (the skip invariant below),
// but its neighbors have nothing to react to. Both contracts share one round
// body; they differ only in the post-pass's marking.
//
// # Direction switching and fallbacks
//
// Each round the engine extracts the activation bitmap into a sorted int32
// frontier with a degree prefix sum. If the frontier's vertex+edge weight
// exceeds 1/densitySwitchFraction of the whole graph's, the round runs on the
// dense path (Ligra-style direction switching) — still change-tracked, so the
// engine can switch back to sparse later. Rounds with an active fault view
// run dense, and so does the round immediately after one: faulty views alter
// a vertex's *inputs* (drops, duplicates, corrupted reads) without any
// neighbor state change, which breaks the skipping argument for one round.
//
// # What must not change
//
// Rounds are charged identically (one Charge(1) per engine round, before the
// round body, exactly like exchangeInto), the interrupt is re-checked every
// interruptStride vertices on both paths, fault semantics replicate
// exchangeInto's, and quiescence is maintained incrementally through a done
// bitmap whose updates are confined to evaluated vertices (purity of done
// makes that equal to the dense engine's full recount). The cross-check tests
// and FuzzFrontier in frontier_test.go enforce bit-identical states, round
// counts, and span totals against the dense engine.
package local

import (
	"math/bits"
	"sync/atomic"

	"deltacoloring/internal/graph"
)

// FrontierStats aggregates engine-round accounting across a network tree
// (shared with Virtual children, like Rounds).
type FrontierStats struct {
	// EngineRounds counts state-engine rounds (Exchange, Step, Run, Sweep).
	EngineRounds int
	// SparseRounds counts engine rounds executed on the sparse frontier path.
	SparseRounds int
	// ActiveVertices counts per-vertex state evaluations performed.
	ActiveVertices int64
	// SkippedVertices counts evaluations avoided by frontier scheduling.
	SkippedVertices int64
}

// densitySwitchFraction is the Ligra-style direction-switching threshold: a
// round runs sparse only while the frontier's vertex+edge weight is below
// 1/densitySwitchFraction of the whole graph's. The dense path pays the same
// change-tracking post-pass as the sparse one, so sparse stays profitable up
// to large frontiers; only near-full frontiers lose to the dense scan
// (extraction overhead, no saved evaluations).
const densitySwitchFraction = 2

// SetFrontier enables (the default) or disables frontier scheduling for
// Runner.Run and Runner.Sweep on this network. Results are bit-identical
// either way — the switch exists for cross-checking and benchmarking the two
// engines. Virtual children created afterwards inherit the setting.
func (n *Network) SetFrontier(on bool) { n.noFrontier = !on }

// FrontierStats returns the accumulated engine-round statistics for the whole
// network tree sharing this counter.
func (n *Network) FrontierStats() FrontierStats {
	n.counter.mu.Lock()
	defer n.counter.mu.Unlock()
	return n.counter.frontier
}

// recordEngineRound folds one engine round into the global stats and every
// open span. Called once per round, alongside Charge.
func (c *counter) recordEngineRound(sparse bool, active, skipped int64) {
	c.mu.Lock()
	c.frontier.EngineRounds++
	c.frontier.ActiveVertices += active
	c.frontier.SkippedVertices += skipped
	if sparse {
		c.frontier.SparseRounds++
	}
	for _, i := range c.open {
		sp := &c.spans[i]
		sp.EngineRounds++
		sp.ActiveVertices += active
		sp.SkippedVertices += skipped
		if sparse {
			sp.SparseRounds++
		}
	}
	c.mu.Unlock()
}

// frontier holds the activation state of one Runner: a bitmap collecting the
// next round's active set, the current round's extracted sorted list with a
// degree prefix sum (for edge-balanced sparse chunking), per-chunk changed
// buffers, and the incremental done bitmap for Run. All buffers are allocated
// once, on the Runner's first Run or Sweep.
type frontier struct {
	words          []uint64 // activation bitmap for the NEXT round
	wordLo, wordHi int      // inclusive touched word range; lo > hi when clean
	list           []int32  // current round's frontier, sorted ascending
	cum            []int64  // prefix weights of list; cum[i+1]-cum[i] = deg+1
	changed        []int32  // per-round changed vertices, chunk-regioned
	counts         []int32  // per-chunk changed counts
	deltas         []int64  // per-chunk notDone deltas
	bounds         []int32  // scratch chunk boundaries for sparse rounds
	doneBits       []bool   // per-vertex done status (Run only)
	forceDense     bool     // next round must run dense (first round of Run)
	lastFaulty     bool     // previous round had a non-nil fault view
	markFn         func(int)
}

func newFrontier(n int) *frontier {
	fr := &frontier{
		words:    make([]uint64, (n+63)/64),
		list:     make([]int32, 0, n),
		cum:      make([]int64, 1, n+1),
		changed:  make([]int32, n),
		doneBits: make([]bool, n),
		wordLo:   1,
	}
	fr.markFn = fr.mark
	return fr
}

func (r *Runner[S]) ensureFrontier() *frontier {
	if r.fr == nil {
		r.fr = newFrontier(r.net.g.N())
	}
	return r.fr
}

// mark sets v's activation bit, tracking the touched word range so clearing
// and extraction cost O(frontier), not O(n).
func (fr *frontier) mark(v int) {
	w := v >> 6
	fr.words[w] |= 1 << (uint(v) & 63)
	if fr.wordLo > fr.wordHi {
		fr.wordLo, fr.wordHi = w, w
		return
	}
	if w < fr.wordLo {
		fr.wordLo = w
	}
	if w > fr.wordHi {
		fr.wordHi = w
	}
}

// clearActivation zeroes the touched bitmap range.
func (fr *frontier) clearActivation() {
	for i := fr.wordLo; i <= fr.wordHi; i++ {
		fr.words[i] = 0
	}
	fr.wordLo, fr.wordHi = 1, 0
}

// reset prepares the frontier for a fresh Run or Sweep.
func (fr *frontier) reset(forceDense bool) {
	fr.clearActivation()
	fr.forceDense = forceDense
	fr.lastFaulty = false
}

// extract drains the activation bitmap into the sorted frontier list and its
// prefix-weight array (weight(v) = degree+1), leaving the bitmap clean for
// the next round's marks. Returns the total frontier weight.
func (fr *frontier) extract(g *graph.Graph) int64 {
	fr.list = fr.list[:0]
	fr.cum = fr.cum[:1]
	w := int64(0)
	for wi := fr.wordLo; wi <= fr.wordHi; wi++ {
		word := fr.words[wi]
		if word == 0 {
			continue
		}
		fr.words[wi] = 0
		base := wi << 6
		for word != 0 {
			v := base + bits.TrailingZeros64(word)
			word &= word - 1
			fr.list = append(fr.list, int32(v))
			w += int64(g.Degree(v)) + 1
			fr.cum = append(fr.cum, w)
		}
	}
	fr.wordLo, fr.wordHi = 1, 0
	return w
}

// sizeChunks readies the per-chunk changed/delta regions.
func (fr *frontier) sizeChunks(chunks int) {
	if cap(fr.counts) < chunks {
		fr.counts = make([]int32, chunks)
		fr.deltas = make([]int64, chunks)
	}
	fr.counts = fr.counts[:chunks]
	fr.deltas = fr.deltas[:chunks]
	for i := range fr.counts {
		fr.counts[i] = 0
		fr.deltas[i] = 0
	}
}

// trackedRound runs one engine round from r.cur into r.next with activation
// tracking, choosing the sparse or dense path per the package comment. done
// may be nil (Sweep); when non-nil the frontier's done bitmap is updated
// incrementally and the new notDone count returned. wakeNbrs selects the
// post-pass's marking: every changed vertex and its neighbors (Run and
// ReactiveSeed sweeps), or the changed vertex alone (ExactSeed sweeps). The
// caller flips the buffers afterwards.
func (r *Runner[S]) trackedRound(f func(v int, self S, nbrs Nbrs[S]) S,
	done func(v int, s S) bool, notDone int, wakeNbrs bool) int {
	n := r.net
	fr := r.fr
	g := n.g
	nv := g.N()
	n.Charge(1)
	var rf RoundFaults
	if n.faults != nil {
		rf = n.faults.NextRound()
	}
	// Faulty rounds (and the round right after one) must run dense: faults
	// change a vertex's inputs without any neighbor state change.
	dense := fr.forceDense || rf != nil || fr.lastFaulty
	fr.forceDense = false
	fr.lastFaulty = rf != nil
	var weight int64
	if !dense {
		weight = fr.extract(g)
		if weight*densitySwitchFraction >= int64(2*g.M())+int64(nv) {
			dense = true // frontier too heavy; list is ignored, bitmap is clean
		}
	} else {
		fr.clearActivation() // stale marks are irrelevant on the dense path
	}
	items := nv
	if !dense {
		items = len(fr.list)
		n.counter.recordEngineRound(true, int64(items), int64(nv-items))
	} else {
		n.counter.recordEngineRound(false, int64(nv), 0)
	}
	n.counter.mu.Lock()
	check := n.counter.interrupt
	n.counter.mu.Unlock()
	cur, next := r.cur, r.next
	var tripped atomic.Pointer[Interrupt]

	runChunk := func(ci, lo, hi int) {
		cnt := int32(0)
		delta := int64(0)
		region := fr.changed[lo:hi]
		var scratch []int32
		if rf != nil {
			// Duplication can at most double a neighborhood.
			scratch = make([]int32, 0, 2*g.MaxDegree())
		}
		for p := lo; p < hi; p++ {
			if check != nil && (p-lo)%interruptStride == interruptStride-1 {
				if tripped.Load() != nil {
					return // another chunk already tripped; abandon the round
				}
				if err := check(); err != nil {
					tripped.CompareAndSwap(nil, &Interrupt{Err: err})
					return
				}
			}
			v := p
			if !dense {
				v = int(fr.list[p])
			}
			if rf != nil && rf.Crashed(v) {
				// Crash-stop: the state freezes and, being unable to make
				// progress, the vertex no longer counts toward quiescence.
				next[v] = cur[v]
				if done != nil && !fr.doneBits[v] {
					fr.doneBits[v] = true
					delta--
				}
				continue
			}
			list := g.Neighbors(v)
			if rf != nil {
				scratch = scratch[:0]
				faulty := false
				for _, w := range list {
					wi := int(w)
					if rf.Crashed(wi) || rf.Dropped(wi, v) {
						faulty = true
						continue
					}
					scratch = append(scratch, w)
					if rf.Duplicated(wi, v) {
						scratch = append(scratch, w)
						faulty = true
					}
				}
				if faulty {
					list = scratch
				}
			}
			s := f(v, cur[v], Nbrs[S]{list: list, st: cur})
			if rf != nil {
				if src, ok := rf.Corrupted(v); ok {
					s = cur[src]
				}
			}
			next[v] = s
			if s != cur[v] {
				region[cnt] = int32(v)
				cnt++
			}
			if done != nil {
				if nd := done(v, s); nd != fr.doneBits[v] {
					fr.doneBits[v] = nd
					if nd {
						delta--
					} else {
						delta++
					}
				}
			}
		}
		fr.counts[ci] = cnt
		fr.deltas[ci] = delta
	}

	// Choose chunk boundaries: cached CSR-balanced bounds for dense rounds,
	// prefix-weight splits of the frontier for sparse ones, a single chunk
	// when the round is too small to parallelize.
	var bounds []int32
	w := n.workers
	switch {
	case dense && w > 1 && nv >= parallelThreshold:
		bounds = n.chunkBounds(nv, w)
	case !dense && w > 1 && weight >= parallelThreshold:
		fr.bounds = graph.SplitPrefix(fr.bounds[:0], fr.cum, w)
		bounds = fr.bounds
	}
	if bounds == nil {
		fr.sizeChunks(1)
		runChunk(0, 0, items)
	} else {
		fr.sizeChunks(len(bounds) - 1)
		n.runBounds(bounds, runChunk)
	}
	if ip := tripped.Load(); ip != nil {
		panic(*ip) // re-raise on the calling goroutine, like exchangeInto
	}

	// Sequential post-pass: activate every changed vertex (and, unless the
	// seed is exact, its neighbors) for the next round, and fold the
	// per-chunk done deltas.
	chunkLo := 0
	for ci := range fr.counts {
		if bounds != nil {
			chunkLo = int(bounds[ci])
		}
		for k := int32(0); k < fr.counts[ci]; k++ {
			v := int(fr.changed[chunkLo+int(k)])
			fr.mark(v)
			if wakeNbrs {
				for _, u := range g.Neighbors(v) {
					fr.mark(int(u))
				}
			}
		}
		notDone += int(fr.deltas[ci])
	}
	return notDone
}

// SeedContract states how far a Sweep's seed reaches; see the package
// comment's "Seed contracts".
type SeedContract uint8

const (
	// ReactiveSeed: the seed marks every vertex whose output might change
	// with an unchanged neighborhood, and any other vertex may change in
	// reaction to a neighbor's change in the previous round.
	ReactiveSeed SeedContract = iota
	// ExactSeed: the seed marks every vertex whose output might change in
	// the round at all; an unseeded vertex returns its own state whatever
	// its neighbors hold.
	ExactSeed
)

// Sweep runs exactly rounds synchronous rounds of the round-indexed state
// function f, frontier-scheduled, and returns the final states. It is the
// engine behind class sweeps: loops that would otherwise call Step once per
// color class, re-evaluating every vertex each time.
//
// Because f depends on the round index, skipping a vertex is only sound if
// its output cannot change for reasons other than neighborhood state changes.
// seed encodes those reasons: it is called at the start of each round and
// must mark every vertex whose f(round, ...) output might differ from its
// current state even with an unchanged neighborhood (for a class sweep, the
// members of round's class). contract says whether that is all (ExactSeed)
// or whether vertices also react to neighbors' changes (ReactiveSeed), which
// the engine then tracks. Vertices that are neither seeded nor woken are
// skipped; the contract makes that bit-identical to calling Step rounds
// times, which the dense path (SetFrontier(false)) does verbatim. One call
// charges exactly rounds rounds.
func (r *Runner[S]) Sweep(rounds int, contract SeedContract, seed func(round int, mark func(v int)),
	f func(round, v int, self S, nbrs Nbrs[S]) S) []S {
	if r.net.noFrontier {
		for round := 0; round < rounds; round++ {
			rr := round
			exchangeInto(r.net, r.cur, r.next, func(v int, self S, nbrs Nbrs[S]) S {
				return f(rr, v, self, nbrs)
			}, nil)
			r.cur, r.next = r.next, r.cur
		}
		return r.cur
	}
	fr := r.ensureFrontier()
	fr.reset(false)
	// Establish the skip invariant for round 0: a skipped vertex's next entry
	// must already equal its current state. Later rounds maintain it for free
	// (a vertex absent from the frontier did not change in the prior round,
	// so the stale buffer entry it left behind is still its current state).
	copy(r.next, r.cur)
	for round := 0; round < rounds; round++ {
		seed(round, fr.markFn)
		rr := round
		r.trackedRound(func(v int, self S, nbrs Nbrs[S]) S {
			return f(rr, v, self, nbrs)
		}, nil, 0, contract == ReactiveSeed)
		r.cur, r.next = r.next, r.cur
	}
	return r.cur
}
