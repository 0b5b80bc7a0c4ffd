// Package local implements a simulator for the LOCAL model of distributed
// computing (Linial 1992): an n-node network, synchronous rounds, unbounded
// messages, and unbounded local computation. An r-round LOCAL algorithm is
// exactly a function of each node's radius-r neighborhood, and the simulator
// is built around that fact.
//
// # Execution model and round accounting
//
// The one engine is the Runner: one Step runs one synchronous round in
// which every node computes its next state from its own state and the full
// current states of its neighbors (legitimate in LOCAL because message size
// is unbounded). Rounds are counted automatically. A Runner owns a pair of
// state buffers and flips them each Step, so a whole run costs one buffer
// allocation regardless of round count; Run and Sweep schedule many rounds
// on an activation frontier (frontier.go), and SparseStep runs one round
// over an explicit vertex list. All four evaluate vertices through one
// round body (type roundBody), which alone holds the interrupt stride and the
// fault semantics. The state function must be pure — it may read any
// neighbor state of the current round but must not mutate shared
// structures — which is what makes the result independent of the worker
// count. SetWorkers enables parallel rounds executed on a persistent
// per-network worker pool (started once, reused by every subsequent round);
// Close releases the pool early, and a finalizer covers networks that are
// simply dropped.
//
// Constant-radius steps that are awkward to phrase as repeated Steps
// (collecting a radius-r ball and brute-forcing over it, as the paper
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
	// noFrontier runs every Runner.Run/Sweep round on the dense path; see
	// SetFrontier. Inherited by Virtual children created afterwards.
	noFrontier bool
	// bounds caches vertexChunks' boundaries for boundsW workers;
	// recomputed lazily when SetWorkers changes the chunk count. Only the
	// algorithm goroutine touches it.
	bounds  []int32
	boundsW int
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
	// poolOf, when set, is the counter whose pool this one borrows (a
	// Fork's); Close on the borrower leaves the pool running.
	poolOf   *counter
	frontier FrontierStats
}

// workerPool is a persistent chunked executor shared by a network and all
// its Virtual children: a fixed set of goroutines parked on a job channel,
// started once and reused by every subsequent Runner round
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
	if c.poolOf != nil {
		return c.poolOf.getPool()
	}
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

// ForVertexChunks runs fn over the vertex range [0, N) in the chunks an
// engine round uses: one edge-balanced chunk per worker on the persistent
// pool, or the single chunk [0, N) when the network runs one worker or the
// graph is small. It returns when every chunk has finished. Chunk indices
// are below Workers() and ascend with the vertex range, so per-chunk results
// read in chunk order are in vertex order; fn must write only to per-chunk
// or per-vertex data. Call it from the algorithm's goroutine.
func (n *Network) ForVertexChunks(fn func(ci, lo, hi int)) {
	n.runChunks(n.vertexChunks(), n.g.N(), fn)
}

// vertexChunks returns (and caches) the Workers()+1 chunk boundaries of a
// round over every vertex, or nil when such a round runs as one sequential
// chunk (one worker, or a graph below parallelThreshold). The cut is on the
// CSR offset prefix sum — one unit per vertex plus one per incident edge,
// which is what every round costs — so hub-heavy neighborhoods spread
// across workers instead of piling into one chunk.
func (n *Network) vertexChunks() []int32 {
	w := n.workers
	if w <= 1 || n.g.N() < parallelThreshold {
		return nil
	}
	if n.boundsW != w {
		n.bounds = n.g.AppendChunkBounds(n.bounds[:0], w)
		n.boundsW = w
	}
	return n.bounds
}

// runChunks executes fn over [0, items): as the single chunk (0, 0, items)
// when bounds is nil, otherwise once per non-empty chunk
// [bounds[i], bounds[i+1]) on the persistent pool, waiting for all chunks
// to finish. fn must only write to disjoint per-index data, which is what
// makes results independent of the worker count.
func (n *Network) runChunks(bounds []int32, items int, fn func(ci, lo, hi int)) {
	if bounds == nil {
		fn(0, 0, items)
		return
	}
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
// EngineRounds counts the state-engine rounds (Runner steps) inside the
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
// after every engine round and every phase of the pipeline). A non-nil
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

// Fork returns a network over n's graph with a counter of its own: its
// rounds and spans start at zero and stay off n's books, and n's span hook
// does not see them. Everything else is n's run: the interrupt, the check
// hook, the fault hook, the worker count and pool, and the frontier switch.
// It is for independent sub-runs, such as Algorithm 4's post-shattering
// components, whose rounds the caller charges to n as it sees fit.
func (n *Network) Fork() *Network {
	n.counter.mu.Lock()
	c := &counter{interrupt: n.counter.interrupt, checkHook: n.counter.checkHook, poolOf: n.counter}
	n.counter.mu.Unlock()
	return &Network{g: n.g, counter: c, dilation: 1, workers: n.workers, faults: n.faults, noFrontier: n.noFrontier}
}

// SetWorkers sets the number of goroutines used by Runner rounds (1 = fully
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

// Nbrs exposes the neighbor states of one vertex during a Runner round.
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

// roundBody is the one body of an engine round, behind Step, Run, Sweep and
// SparseStep: eval computes next[v] = f(v, cur[v], N(v)) for one chunk of
// vertices. The callers differ only in which vertices they hand it, how they
// chunk them and what they do with the changes it reports.
//
// If the round drew a fault view, eval applies its crash, drop, duplicate
// and corruption semantics (see faults.go); a nil view keeps the round on
// the fault-free path. An installed interrupt is re-checked every
// interruptStride vertices, so cancellation is observed mid-round on large
// instances rather than only at the next round boundary.
type roundBody[S comparable] struct {
	g         *graph.Graph
	cur, next []S
	f         func(v int, self S, nbrs Nbrs[S]) S
	rf        RoundFaults
	check     func() error
	tripped   atomic.Pointer[Interrupt]
	// list, when non-nil, names the vertices to evaluate: eval's [lo, hi)
	// is then a range of list positions rather than of vertices.
	list []int32
	// changed, when non-nil, receives the vertices whose state changed:
	// eval writes a chunk's into changed[lo:hi] and returns their count.
	changed []int32
	// done, when non-nil, is evaluated on every new state with doneBits
	// kept in step, and eval returns the chunk's net change in not-done
	// vertices. A crashed vertex counts as done.
	done     func(v int, s S) bool
	doneBits []bool
}

// beginRound charges one engine round, draws its fault view and returns
// r's round body, reset for this round over r's buffers.
func (r *Runner[S]) beginRound(f func(v int, self S, nbrs Nbrs[S]) S) *roundBody[S] {
	n := r.net
	n.Charge(1)
	rd := &r.body
	*rd = roundBody[S]{g: n.g, cur: r.cur, next: r.next, f: f}
	if n.faults != nil {
		rd.rf = n.faults.NextRound()
	}
	n.counter.mu.Lock()
	rd.check = n.counter.interrupt
	n.counter.mu.Unlock()
	return rd
}

// eval runs the round over positions [lo, hi) and returns how many changed
// vertices it wrote and the change in the not-done count. It reads the
// round's fields through rd instead of caching them in locals, and the
// fault and interrupt paths are separate functions: the shard coordinator
// runs each worker step on a fresh goroutine, and a larger frame outgrows
// that goroutine's starting stack, a stack copy on every step.
func (rd *roundBody[S]) eval(lo, hi int) (changed int32, delta int64) {
	var scratch []int32
	for p := lo; p < hi; p++ {
		if rd.check != nil && (p-lo)%interruptStride == interruptStride-1 && rd.interrupted() {
			return changed, delta // this or another chunk tripped; abandon the round
		}
		v := p
		if rd.list != nil {
			v = int(rd.list[p])
		}
		nb := rd.g.Neighbors(v)
		if rd.rf != nil {
			if rd.rf.Crashed(v) {
				// Crash-stop: the state freezes and, being unable to make
				// progress, the vertex no longer counts toward quiescence.
				rd.next[v] = rd.cur[v]
				if rd.done != nil && !rd.doneBits[v] {
					rd.doneBits[v] = true
					delta--
				}
				continue
			}
			nb, scratch = faultyNbrs(rd.rf, v, nb, scratch)
		}
		s := rd.f(v, rd.cur[v], Nbrs[S]{list: nb, st: rd.cur})
		if rd.rf != nil {
			if src, ok := rd.rf.Corrupted(v); ok {
				s = rd.cur[src]
			}
		}
		rd.next[v] = s
		if rd.changed != nil && s != rd.cur[v] {
			rd.changed[lo+int(changed)] = int32(v)
			changed++
		}
		if rd.done != nil {
			if nd := rd.done(v, s); nd != rd.doneBits[v] {
				rd.doneBits[v] = nd
				if nd {
					delta--
				} else {
					delta++
				}
			}
		}
	}
	return changed, delta
}

// faultyNbrs is v's neighbor view under fault view rf: crashed senders and
// dropped messages are left out and duplicated ones appear twice. It
// returns nb itself when no message to v is faulty, else the view built in
// scratch, and scratch for reuse.
func faultyNbrs(rf RoundFaults, v int, nb, scratch []int32) (view, reuse []int32) {
	scratch = scratch[:0]
	faulty := false
	for _, w := range nb {
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
		return scratch, scratch
	}
	return nb, scratch
}

// interrupted reports whether the round's interrupt has tripped, in this
// chunk or another, calling the check once more and latching its error if
// it had not.
func (rd *roundBody[S]) interrupted() bool {
	if rd.tripped.Load() != nil {
		return true
	}
	if err := rd.check(); err != nil {
		rd.tripped.CompareAndSwap(nil, &Interrupt{Err: err})
		return true
	}
	return false
}

// raise re-raises an interrupt a chunk observed mid-round on the calling
// goroutine, exactly like Charge does at round boundaries; entry points
// recover it into an error.
func (rd *roundBody[S]) raise() {
	if ip := rd.tripped.Load(); ip != nil {
		panic(*ip)
	}
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
	body roundBody[S] // the round body, reset by every round's beginRound
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

// Step runs one dense, untracked round and flips the buffers, returning
// the new current states. One call charges exactly one round.
func (r *Runner[S]) Step(f func(v int, self S, nbrs Nbrs[S]) S) []S {
	rd := r.beginRound(f)
	r.net.counter.recordEngineRound(false, int64(len(r.cur)), 0)
	r.net.runChunks(r.net.vertexChunks(), len(r.cur), func(_, lo, hi int) { rd.eval(lo, hi) })
	rd.raise()
	r.cur, r.next = r.next, r.cur
	return r.cur
}

// Run steps until done reports true for every vertex or maxRounds is
// exhausted, returning the final states and the number of rounds executed.
// done must be pure, like f; it is evaluated inside the round body so a
// round costs no separate all-vertices scan. A not-done count is carried
// across rounds, so quiescence detection is O(1) per round.
//
// Run schedules rounds on an activation frontier (see frontier.go): after
// the first round only vertices whose closed neighborhood changed are
// re-evaluated, unless SetFrontier(false) forced every round dense. Because
// f and done are pure, rounds, states, and span totals are bit-identical
// either way.
func (r *Runner[S]) Run(maxRounds int,
	f func(v int, self S, nbrs Nbrs[S]) S, done func(v int, s S) bool) ([]S, int, error) {
	fr := r.ensureFrontier()
	fr.reset(true)
	notDone := 0
	for v, s := range r.cur {
		d := done(v, s)
		fr.doneBits[v] = d
		if !d {
			notDone++
		}
	}
	for round := 0; round < maxRounds; round++ {
		if notDone == 0 {
			return r.cur, round, nil
		}
		notDone = r.trackedRound(f, done, notDone, true)
		r.cur, r.next = r.next, r.cur
	}
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
