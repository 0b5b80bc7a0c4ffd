// Package local implements a simulator for the LOCAL model of distributed
// computing (Linial 1992): an n-node network, synchronous rounds, unbounded
// messages, and unbounded local computation. An r-round LOCAL algorithm is
// exactly a function of each node's radius-r neighborhood, and the simulator
// is built around that fact.
//
// # Execution model and round accounting
//
// The one engine is Exchange: one call runs one synchronous round in
// which every node computes its next state from its own state and the full
// current states of its neighbors (legitimate in LOCAL because message size
// is unbounded). Rounds are counted automatically.
//
// Multi-round algorithms should hold a Runner, which owns a pair of state
// buffers and flips them each Step: a whole run then costs one buffer
// allocation regardless of round count. The state function must be pure —
// it may read any neighbor state of the current round but must not mutate
// shared structures — which is what makes the result independent of the
// worker count. SetWorkers enables parallel rounds executed on a persistent
// per-network worker pool (started once, reused by every subsequent round);
// Close releases the pool early, and a finalizer covers networks that are
// simply dropped.
//
// Constant-radius steps that are awkward to phrase as repeated Exchange
// calls (collecting a radius-r ball and brute-forcing over it, as the paper
// does for loopholes and ruling sets) instead call Charge(r) and then read
// the graph directly. The contract is: any direct read of global structure
// must be preceded by a Charge covering the radius actually inspected.
// Tests in this package and the algorithm packages enforce the contract for
// the shipped algorithms by checking round totals against known bounds.
//
// # Virtual graphs
//
// The paper's pipeline repeatedly builds virtual graphs whose nodes are
// constant-diameter sets of real nodes (sub-cliques, slack pairs,
// loopholes). One round on such a virtual graph is simulated by O(dilation)
// real rounds. Virtual returns a child network that multiplies every
// charged round by the dilation factor and adds it to the parent's counter.
package local

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"deltacoloring/internal/graph"
)

// Network wraps a graph with a shared round counter and phase tracing.
type Network struct {
	g        *graph.Graph
	counter  *counter
	dilation int
	workers  int
	faults   FaultHook
	// noFrontier forces Runner.Run/Sweep onto the dense engine; see
	// SetFrontier. Inherited by Virtual children created afterwards.
	noFrontier bool
	// bounds caches the edge-balanced chunk boundaries for the last
	// (total, parts) pair handed to run; recomputed lazily when SetWorkers
	// changes the chunk count. Only the algorithm goroutine touches it.
	bounds  []int32
	boundsW int
	boundsN int
}

type counter struct {
	mu        sync.Mutex
	rounds    int
	spans     []Span
	open      []int // indices into spans of currently open phases
	interrupt func() error
	spanHook  func(Span)
	checkHook func(phase string, artifact any) error
	pool      *workerPool
	frontier  FrontierStats
}

// workerPool is a persistent chunked executor shared by a network and all
// its Virtual children: a fixed set of goroutines parked on a job channel,
// started once and reused by every subsequent Exchange/Runner round
// instead of spawning fresh goroutines per round.
type workerPool struct {
	jobs chan poolJob
	stop sync.Once
}

type poolJob struct {
	ci     int // chunk index, for per-chunk result regions
	lo, hi int
	run    func(ci, lo, hi int)
	wg     *sync.WaitGroup
}

func newWorkerPool(size int) *workerPool {
	p := &workerPool{jobs: make(chan poolJob, 2*size)}
	for i := 0; i < size; i++ {
		// Workers capture only the channel, never p, so the finalizer below
		// can fire once all networks sharing the pool become unreachable.
		go func(jobs <-chan poolJob) {
			for j := range jobs {
				j.run(j.ci, j.lo, j.hi)
				j.wg.Done()
			}
		}(p.jobs)
	}
	// Backstop for callers that never Close: release the parked goroutines
	// when the owning network tree is garbage collected.
	runtime.SetFinalizer(p, func(p *workerPool) { p.close() })
	return p
}

func (p *workerPool) close() {
	p.stop.Do(func() { close(p.jobs) })
}

// getPool returns the shared pool, starting it on first use.
func (c *counter) getPool() *workerPool {
	c.mu.Lock()
	if c.pool == nil {
		c.pool = newWorkerPool(runtime.NumCPU())
	}
	p := c.pool
	c.mu.Unlock()
	return p
}

// parallelThreshold is the vertex count below which chunked execution is not
// worth the synchronization overhead and rounds run sequentially.
const parallelThreshold = 256

// run executes fn over [0, total) — sequentially when parallelism is off or
// the graph is small, otherwise as one edge-balanced chunk per configured
// worker on the persistent pool. fn must only write to disjoint per-index
// data, which is what makes results independent of the worker count.
func (n *Network) run(total int, fn func(ci, lo, hi int)) {
	w := n.workers
	if w <= 1 || total < parallelThreshold {
		fn(0, 0, total)
		return
	}
	n.runBounds(n.chunkBounds(total, w), fn)
}

// ForVertexChunks runs fn over the vertex range [0, N) in the chunks an
// exchange round uses: one edge-balanced chunk per worker on the persistent
// pool, or the single chunk [0, N) when the network runs one worker or the
// graph is small. It returns when every chunk has finished. Chunk indices
// are below Workers() and ascend with the vertex range, so per-chunk results
// read in chunk order are in vertex order; fn must write only to per-chunk
// or per-vertex data. Call it from the algorithm's goroutine.
func (n *Network) ForVertexChunks(fn func(ci, lo, hi int)) { n.run(n.g.N(), fn) }

// chunkBounds returns (and caches) parts+1 chunk boundaries over [0, total).
// Work shaped like the graph — one unit per vertex plus one per incident
// edge, which is what every exchange round costs — is cut on the CSR offset
// prefix sum so hub-heavy neighborhoods spread across workers instead of
// piling into one chunk; any other total falls back to uniform ranges.
func (n *Network) chunkBounds(total, parts int) []int32 {
	if n.boundsW != parts || n.boundsN != total || n.bounds == nil {
		n.bounds = n.bounds[:0]
		if total == n.g.N() {
			n.bounds = n.g.AppendChunkBounds(n.bounds, parts)
		} else {
			for k := 0; k <= parts; k++ {
				n.bounds = append(n.bounds, int32(total*k/parts))
			}
		}
		n.boundsW, n.boundsN = parts, total
	}
	return n.bounds
}

// runBounds executes fn once per non-empty chunk [bounds[i], bounds[i+1])
// on the persistent pool and waits for all chunks to finish.
func (n *Network) runBounds(bounds []int32, fn func(ci, lo, hi int)) {
	pool := n.counter.getPool()
	var wg sync.WaitGroup
	for ci := 0; ci+1 < len(bounds); ci++ {
		lo, hi := int(bounds[ci]), int(bounds[ci+1])
		if lo == hi {
			continue
		}
		wg.Add(1)
		pool.jobs <- poolJob{ci: ci, lo: lo, hi: hi, run: fn, wg: &wg}
	}
	wg.Wait()
}

// Close releases the persistent worker pool, if one was started. The network
// stays usable — the next parallel round simply starts a fresh pool — so it
// is safe (and recommended) to defer Close right after New when running with
// SetWorkers > 1. Networks that never enable parallelism hold no resources.
func (n *Network) Close() {
	n.counter.mu.Lock()
	p := n.counter.pool
	n.counter.pool = nil
	n.counter.mu.Unlock()
	if p != nil {
		p.close()
	}
}

// Span records the rounds consumed by one named phase, for reporting.
//
// Beyond the round total, a span carries frontier-scheduling observability:
// EngineRounds counts the state-engine rounds (Exchange/Runner) inside the
// phase — Charge-only accounting contributes none — SparseRounds counts how
// many of those ran on the sparse frontier path, and ActiveVertices /
// SkippedVertices count the per-vertex state evaluations performed / avoided.
// The extra fields do not affect Rounds and are zero when no engine round
// runs during the phase.
type Span struct {
	Name            string
	Rounds          int
	EngineRounds    int
	SparseRounds    int
	ActiveVertices  int64
	SkippedVertices int64
}

// New creates a network over g with dilation 1 and sequential execution.
func New(g *graph.Graph) *Network {
	return &Network{g: g, counter: &counter{}, dilation: 1, workers: 1}
}

// Graph returns the underlying graph.
func (n *Network) Graph() *graph.Graph { return n.g }

// Rounds returns the total rounds charged so far (across the whole tree of
// virtual networks sharing this counter).
func (n *Network) Rounds() int {
	n.counter.mu.Lock()
	defer n.counter.mu.Unlock()
	return n.counter.rounds
}

// Charge adds r rounds (times this network's dilation) to the counter.
// It is how ball-collection steps account for their radius.
func (n *Network) Charge(r int) {
	if r <= 0 {
		return
	}
	n.counter.mu.Lock()
	n.counter.rounds += r * n.dilation
	for _, i := range n.counter.open {
		n.counter.spans[i].Rounds += r * n.dilation
	}
	check := n.counter.interrupt
	n.counter.mu.Unlock()
	if check != nil {
		if err := check(); err != nil {
			panic(Interrupt{Err: err})
		}
	}
}

// Interrupt is the panic value raised by Charge when the interrupt check
// installed via SetInterrupt reports an error. It unwinds a running
// algorithm at its next round boundary; entry points that install an
// interrupt recover it and surface Err as an ordinary error.
type Interrupt struct{ Err error }

// SetInterrupt installs a check invoked after every Charge (and therefore
// after every Exchange round and every phase of the pipeline). A non-nil
// return aborts the run by panicking with Interrupt{err}. The check is
// shared with all Virtual children and must be fast and safe to call from
// the algorithm's goroutine; pass nil to remove it.
func (n *Network) SetInterrupt(check func() error) {
	n.counter.mu.Lock()
	defer n.counter.mu.Unlock()
	n.counter.interrupt = check
}

// InterruptOn installs ctx's cancellation as the interrupt check, so a run
// aborts with ctx.Err() at its next round boundary. A nil ctx, or one that
// can never be done, installs nothing.
func (n *Network) InterruptOn(ctx context.Context) {
	if ctx != nil && ctx.Done() != nil {
		n.SetInterrupt(func() error { return ctx.Err() })
	}
}

// RecoverInterrupt, deferred by a run entry point, converts the Interrupt
// panic back into an ordinary error stored in *err; any other panic
// propagates.
func RecoverInterrupt(err *error) {
	if r := recover(); r != nil {
		ip, ok := r.(Interrupt)
		if !ok {
			panic(r)
		}
		*err = ip.Err
	}
}

// SetSpanHook installs an export hook invoked with each span's final value
// as its phase closes (outside the counter lock). Consumers such as the
// serving layer use it to harvest per-phase round totals live, including
// from runs that later fail; pass nil to remove it.
func (n *Network) SetSpanHook(hook func(Span)) {
	n.counter.mu.Lock()
	defer n.counter.mu.Unlock()
	n.counter.spanHook = hook
}

// SetCheckHook installs a conformance hook invoked by Checkpoint with each
// intermediate artifact a pipeline publishes at its span boundaries. The
// hook runs on the algorithm's goroutine, outside the counter lock, and is
// shared with all Virtual children; a non-nil return aborts the publishing
// phase with that error. Pass nil to remove it.
func (n *Network) SetCheckHook(hook func(phase string, artifact any) error) {
	n.counter.mu.Lock()
	defer n.counter.mu.Unlock()
	n.counter.checkHook = hook
}

// Checkpoint publishes an intermediate artifact under a phase tag to the
// installed check hook, returning the hook's verdict. With no hook installed
// it is a no-op, so pipelines call it unconditionally at span boundaries.
func (n *Network) Checkpoint(phase string, artifact any) error {
	n.counter.mu.Lock()
	hook := n.counter.checkHook
	n.counter.mu.Unlock()
	if hook == nil {
		return nil
	}
	return hook(phase, artifact)
}

// Virtual returns a network over vg whose rounds are charged to this
// network's counter multiplied by dilation. Use it when vg's nodes are
// simulated by constant-diameter sets of real nodes.
func (n *Network) Virtual(vg *graph.Graph, dilation int) *Network {
	if dilation < 1 {
		panic(fmt.Sprintf("local: dilation must be >= 1, got %d", dilation))
	}
	return &Network{g: vg, counter: n.counter, dilation: n.dilation * dilation,
		workers: n.workers, noFrontier: n.noFrontier}
}

// SetWorkers sets the number of goroutines used by Exchange (1 = fully
// sequential). State functions must be pure, so results are identical for
// any worker count; tests cross-check this.
func (n *Network) SetWorkers(w int) {
	if w < 1 {
		w = runtime.NumCPU()
	}
	n.workers = w
}

// Workers returns the worker count set by SetWorkers (1 by default).
func (n *Network) Workers() int { return n.workers }

// Phase opens a named accounting span; the returned func closes it.
// Typical use: defer net.Phase("matching")().
func (n *Network) Phase(name string) func() {
	n.counter.mu.Lock()
	idx := len(n.counter.spans)
	n.counter.spans = append(n.counter.spans, Span{Name: name})
	n.counter.open = append(n.counter.open, idx)
	n.counter.mu.Unlock()
	return func() {
		n.counter.mu.Lock()
		var closed *Span
		for i, j := range n.counter.open {
			if j == idx {
				n.counter.open = append(n.counter.open[:i], n.counter.open[i+1:]...)
				closed = &n.counter.spans[idx]
				break
			}
		}
		hook := n.counter.spanHook
		var final Span
		if closed != nil {
			final = *closed
		}
		n.counter.mu.Unlock()
		if hook != nil && closed != nil {
			hook(final)
		}
	}
}

// Spans returns the recorded phase spans in open order.
func (n *Network) Spans() []Span {
	n.counter.mu.Lock()
	defer n.counter.mu.Unlock()
	out := make([]Span, len(n.counter.spans))
	copy(out, n.counter.spans)
	return out
}

// Nbrs exposes the neighbor states of one vertex during an Exchange round.
// The neighbor list is captured once per vertex per round, so every access
// is a single index into the graph's flat CSR edge array.
type Nbrs[S any] struct {
	list []int32
	st   []S
}

// Len returns the degree of the vertex.
func (nb Nbrs[S]) Len() int { return len(nb.list) }

// At returns the vertex index of the i-th neighbor.
func (nb Nbrs[S]) At(i int) int { return int(nb.list[i]) }

// State returns the (previous-round) state of the i-th neighbor.
func (nb Nbrs[S]) State(i int) S { return nb.st[nb.list[i]] }

// interruptStride is how many vertices a worker processes between mid-round
// interrupt checks. Round boundaries always check (via Charge); the stride
// bounds how much extra work a long parallel round performs after a
// cancellation arrives.
const interruptStride = 1 << 10

// exchangeInto runs one synchronous round from cur into next (which must be
// distinct slices of equal length). When done is non-nil it is evaluated on
// each next state as it is produced, and the number of not-yet-done vertices
// is returned — fused into the same pass so Runner.Run needs no O(n) rescan.
//
// If a fault hook is installed the round first obtains its RoundFaults view
// and applies crash/drop/duplicate/corrupt semantics (see faults.go); a nil
// view keeps the round on the fault-free fast path. An installed interrupt
// is additionally re-checked every interruptStride vertices inside the
// round, so cancellation is observed mid-round on large instances rather
// than only at the next round boundary.
func exchangeInto[S any](n *Network, cur, next []S,
	f func(v int, self S, nbrs Nbrs[S]) S, done func(v int, s S) bool) int {
	if len(cur) != n.g.N() {
		panic(fmt.Sprintf("local: state slice has %d entries, graph has %d vertices", len(cur), n.g.N()))
	}
	n.Charge(1)
	g := n.g
	var rf RoundFaults
	if n.faults != nil {
		rf = n.faults.NextRound()
	}
	n.counter.mu.Lock()
	check := n.counter.interrupt
	n.counter.mu.Unlock()
	n.counter.recordEngineRound(false, int64(len(cur)), 0)
	var tripped atomic.Pointer[Interrupt]
	var notDone atomic.Int64
	n.run(len(cur), func(_, lo, hi int) {
		pending := 0
		var scratch []int32
		if rf != nil {
			// Duplication can at most double a neighborhood.
			scratch = make([]int32, 0, 2*g.MaxDegree())
		}
		for v := lo; v < hi; v++ {
			if check != nil && (v-lo)%interruptStride == interruptStride-1 {
				if tripped.Load() != nil {
					return // another chunk already tripped; abandon the round
				}
				if err := check(); err != nil {
					tripped.CompareAndSwap(nil, &Interrupt{Err: err})
					return
				}
			}
			if rf != nil && rf.Crashed(v) {
				// Crash-stop: the state freezes and, being unable to make
				// progress, the vertex no longer counts toward quiescence.
				next[v] = cur[v]
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
			if done != nil && !done(v, s) {
				pending++
			}
		}
		if pending != 0 {
			notDone.Add(int64(pending))
		}
	})
	if ip := tripped.Load(); ip != nil {
		// Re-raise on the calling goroutine, exactly like Charge does at
		// round boundaries; entry points recover it into an error.
		panic(*ip)
	}
	return int(notDone.Load())
}

// Exchange runs one synchronous round: every vertex v computes
// f(v, cur[v], neighbors' cur states) into a fresh state slice. One call
// charges exactly one round. f must be pure (no shared mutation), which
// also makes parallel execution deterministic.
//
// Exchange allocates a new state slice per round; loops that run many
// rounds should use a Runner, which double-buffers two slices for the whole
// run.
func Exchange[S any](n *Network, cur []S, f func(v int, self S, nbrs Nbrs[S]) S) []S {
	next := make([]S, len(cur))
	exchangeInto(n, cur, next, f, nil)
	return next
}

// Runner owns the double-buffered state of one simulation run: a current
// and a next slice that flip after every round, so an entire multi-round
// algorithm performs exactly one state-slice allocation. The state function
// must be pure — it may read any cur state but write nothing shared — which
// is also what makes results bit-identical for any worker count.
//
// States are constrained to comparable because Run and Sweep detect per-round
// change via next[v] != cur[v] to drive frontier scheduling (see frontier.go);
// the comparison is also what lets the sparse path skip quiescent vertices
// without altering results.
//
// The Runner takes ownership of the initial slice passed to NewRunner; the
// caller must not retain it. States returns the live buffer after any
// number of Step/Run calls.
type Runner[S comparable] struct {
	net  *Network
	cur  []S
	next []S
	fr   *frontier
}

// NewRunner creates a runner over init (one entry per vertex of n's graph).
func NewRunner[S comparable](n *Network, init []S) *Runner[S] {
	if len(init) != n.g.N() {
		panic(fmt.Sprintf("local: state slice has %d entries, graph has %d vertices", len(init), n.g.N()))
	}
	return &Runner[S]{net: n, cur: init, next: make([]S, len(init))}
}

// States returns the current state slice (owned by the runner; valid until
// the next Step or Run call).
func (r *Runner[S]) States() []S { return r.cur }

// Step runs one synchronous round and flips the buffers, returning the new
// current states. One call charges exactly one round.
func (r *Runner[S]) Step(f func(v int, self S, nbrs Nbrs[S]) S) []S {
	exchangeInto(r.net, r.cur, r.next, f, nil)
	r.cur, r.next = r.next, r.cur
	return r.cur
}

// Run steps until done reports true for every vertex or maxRounds is
// exhausted, returning the final states and the number of rounds executed.
// done must be pure, like f; it is evaluated inside the exchange pass so a
// round costs no separate all-vertices scan. A remaining not-done count is
// carried across rounds, so quiescence detection is O(1) per round.
//
// Unless SetFrontier(false) forced the dense engine, Run schedules rounds on
// an activation frontier (see frontier.go): after the first round only
// vertices whose closed neighborhood changed are re-evaluated. Because f and
// done are pure, rounds, states, and span totals are bit-identical to the
// dense engine.
func (r *Runner[S]) Run(maxRounds int,
	f func(v int, self S, nbrs Nbrs[S]) S, done func(v int, s S) bool) ([]S, int, error) {
	notDone := 0
	if !r.net.noFrontier {
		fr := r.ensureFrontier()
		fr.reset(true)
		for v, s := range r.cur {
			d := done(v, s)
			fr.doneBits[v] = d
			if !d {
				notDone++
			}
		}
		return r.runRounds(maxRounds, notDone, f, done)
	}
	for v, s := range r.cur {
		if !done(v, s) {
			notDone++
		}
	}
	for round := 0; round < maxRounds; round++ {
		if notDone == 0 {
			return r.cur, round, nil
		}
		notDone = exchangeInto(r.net, r.cur, r.next, f, done)
		r.cur, r.next = r.next, r.cur
	}
	return r.finish(maxRounds, notDone, done)
}

// runRounds is Run's frontier-scheduled loop; notDone is maintained
// incrementally by trackedRound through the frontier's done bitmap.
func (r *Runner[S]) runRounds(maxRounds, notDone int,
	f func(v int, self S, nbrs Nbrs[S]) S, done func(v int, s S) bool) ([]S, int, error) {
	for round := 0; round < maxRounds; round++ {
		if notDone == 0 {
			return r.cur, round, nil
		}
		notDone = r.trackedRound(f, done, notDone, true)
		r.cur, r.next = r.next, r.cur
	}
	return r.finish(maxRounds, notDone, done)
}

// finish is Run's shared budget-exhausted epilogue.
func (r *Runner[S]) finish(maxRounds, notDone int, done func(v int, s S) bool) ([]S, int, error) {
	if notDone == 0 {
		return r.cur, maxRounds, nil
	}
	for v, s := range r.cur {
		if !done(v, s) {
			return r.cur, maxRounds, fmt.Errorf("local: vertex %d not done after %d rounds", v, maxRounds)
		}
	}
	return r.cur, maxRounds, nil
}
