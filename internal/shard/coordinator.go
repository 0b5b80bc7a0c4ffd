package shard

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"deltacoloring/internal/coloring"
	"deltacoloring/internal/core"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/local"
)

// Transport moves the protocol between the coordinator and one shard's
// worker. Implementations: InProcess (direct calls), HTTPTransport (the
// service's /v1/shard/stream endpoint), and ChaosTransport (seeded fault
// injection around either). Step and Finish honor ctx's deadline; a
// transport error fails the whole run — the coordinator never merges a
// partial coloring. Run steps a round's shards concurrently, one Step call
// each, unless the transport steps whole rounds itself (roundStepper).
type Transport interface {
	Init(ctx context.Context, shard int, part *Part, delta, parentN int) error
	Step(ctx context.Context, shard int, updates []Update) (*StepResult, error)
	Finish(ctx context.Context, shard int) ([]Update, error)
	Abort(shard int)
}

// Config tunes one sharded run.
type Config struct {
	// K is the shard count (default 1; clamped to the vertex count).
	K int
	// Transport carries the protocol (default: a fresh InProcess).
	Transport Transport
	// NetHook observes the coordinator's fully configured network before
	// the run starts — the seam for the conformance harness.
	NetHook func(*local.Network)
	// SpanHook receives each phase span as it closes.
	SpanHook func(local.Span)
	// CallTimeout bounds every transport call, and a round stepped as one
	// batch as a whole (default 30s): a hung worker fails the run cleanly
	// instead of wedging the coordinator.
	CallTimeout time.Duration
	// Session is a label for the run. Run reads it nowhere: a transport
	// that needs one, like HTTPTransport, takes it when built.
	Session string
}

// Traffic counts what actually crossed the cut.
type Traffic struct {
	// CutEdges is the number of parent edges cut by the partition.
	CutEdges int `json:"cut_edges"`
	// Ghosts is the total ghost copies across shards.
	Ghosts int `json:"ghosts"`
	// BoundaryUpdates is the total boundary-state messages routed through
	// the coordinator over the whole run.
	BoundaryUpdates int `json:"boundary_updates"`
	// StepCalls is the total worker Step calls; quiet shards (nothing
	// active, nothing incoming) are skipped, so this undercounts K×rounds
	// exactly when the frontier idea saves wire traffic.
	StepCalls int `json:"step_calls"`
}

// Result is the outcome of one sharded run.
type Result struct {
	Colors    []int
	NumColors int
	// Rounds is the number of cross-cut LOCAL rounds executed — equal, by
	// the bit-identity contract, to the single-process engine's rounds.
	Rounds  int
	K       int
	Traffic Traffic
	Spans   []local.Span
}

// Run executes the wire algorithm on g across cfg.K shards: partition,
// fan-out, synchronous cross-cut rounds exchanging only changed boundary
// states, then merge and re-verify. The result is bit-identical to
// SolveSingle on the same graph at any shard count.
func Run(ctx context.Context, g *graph.Graph, cfg Config) (res *Result, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	k := cfg.K
	if k < 1 {
		k = 1
	}
	timeout := cfg.CallTimeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	net := local.New(g)
	defer net.Close()
	net.InterruptOn(ctx)
	if cfg.SpanHook != nil {
		net.SetSpanHook(cfg.SpanHook)
	}
	if cfg.NetHook != nil {
		cfg.NetHook(net)
	}
	defer local.RecoverInterrupt(&err)

	endPart := net.Phase("shard/partition")
	p, err := BuildPartition(g, k)
	if err != nil {
		return nil, err
	}
	if err := net.Checkpoint("shard/partition", p); err != nil {
		return nil, err
	}
	endPart()
	k = p.K

	tr := cfg.Transport
	if tr == nil {
		tr = NewInProcess()
	}
	call := func(fn func(context.Context) error) error {
		cctx, cancel := context.WithTimeout(ctx, timeout)
		defer cancel()
		return fn(cctx)
	}
	abortAll := func() {
		for s := 0; s < k; s++ {
			tr.Abort(s)
		}
	}
	for s := 0; s < k; s++ {
		part := &p.Parts[s]
		if err := call(func(c context.Context) error {
			return tr.Init(c, s, part, g.MaxDegree(), g.N())
		}); err != nil {
			abortAll()
			return nil, fmt.Errorf("shard %d init: %w", s, err)
		}
	}

	// ghostAt routes a boundary vertex to every shard holding its ghost.
	ghostAt := make(map[int32][]int32)
	for s := 0; s < k; s++ {
		part := &p.Parts[s]
		for _, i := range part.Ghosts {
			pv := int32(part.Sub.ToParent[i])
			ghostAt[pv] = append(ghostAt[pv], int32(s))
		}
	}

	endSolve := net.Phase("shard/solve")
	var traffic Traffic
	traffic.CutEdges = p.CutEdges
	traffic.Ghosts = p.Ghosts()
	pending := make([][]Update, k)
	next := make([][]Update, k)
	notDone := make([]int, k)
	total := 0
	for s := 0; s < k; s++ {
		notDone[s] = len(p.Parts[s].Locals)
		total += notDone[s]
	}
	maxRounds := g.N() + 2
	rounds := 0
	r := &round{steps: make([]*StepResult, k), errs: make([]error, k)}
	for total > 0 {
		if rounds >= maxRounds {
			abortAll()
			return nil, fmt.Errorf("shard: %d vertices uncolored after %d rounds", total, rounds)
		}
		r.active, r.updates = r.active[:0], pending
		for s := 0; s < k; s++ {
			r.steps[s], r.errs[s] = nil, nil
			if notDone[s] == 0 && len(pending[s]) == 0 {
				continue // quiet shard: no active locals, no incoming states
			}
			r.active = append(r.active, s)
		}
		traffic.StepCalls += len(r.active)
		runRound(ctx, tr, timeout, r)
		net.Charge(1) // one synchronous LOCAL round across the whole cut
		rounds++
		for s := 0; s < k; s++ {
			if r.errs[s] != nil {
				abortAll()
				return nil, fmt.Errorf("shard %d round %d: %w", s, rounds, r.errs[s])
			}
		}
		for s := 0; s < k; s++ {
			next[s] = next[s][:0]
		}
		for s := 0; s < k; s++ {
			if r.steps[s] == nil {
				continue
			}
			notDone[s] = r.steps[s].NotDone
			for _, u := range r.steps[s].Changed {
				for _, t := range ghostAt[u.V] {
					next[t] = append(next[t], u)
					traffic.BoundaryUpdates++
				}
			}
		}
		pending, next = next, pending
		total = 0
		for s := 0; s < k; s++ {
			total += notDone[s]
		}
	}
	endSolve()

	endMerge := net.Phase("shard/merge")
	colors := make([]int, g.N())
	for v := range colors {
		colors[v] = coloring.None
	}
	for s := 0; s < k; s++ {
		var finals []Update
		if err := call(func(c context.Context) error {
			var ferr error
			finals, ferr = tr.Finish(c, s)
			return ferr
		}); err != nil {
			abortAll()
			return nil, fmt.Errorf("shard %d finish: %w", s, err)
		}
		for _, u := range finals {
			if u.V < 0 || int(u.V) >= g.N() {
				abortAll()
				return nil, &MergeViolation{Vertex: int(u.V), Reason: "vertex outside the parent graph"}
			}
			if p.Owner[u.V] != int32(s) {
				abortAll()
				return nil, &MergeViolation{Vertex: int(u.V),
					Reason: fmt.Sprintf("reported by shard %d, owned by shard %d", s, p.Owner[u.V])}
			}
			if colors[u.V] != coloring.None {
				abortAll()
				return nil, &MergeViolation{Vertex: int(u.V), Reason: "color reported twice"}
			}
			colors[u.V] = int(u.C)
		}
	}
	for v, c := range colors {
		if c == coloring.None && g.N() > 0 {
			return nil, &MergeViolation{Vertex: v, Reason: "no shard reported a color"}
		}
	}
	if err := verifyMerged(g, colors); err != nil {
		return nil, err
	}
	if err := net.Checkpoint("final", &core.CkptColoring{
		C: &coloring.Partial{Colors: colors}, NumColors: g.MaxDegree() + 1, Complete: true,
	}); err != nil {
		return nil, err
	}
	endMerge()
	return &Result{
		Colors:    colors,
		NumColors: g.MaxDegree() + 1,
		Rounds:    rounds,
		K:         k,
		Traffic:   traffic,
		Spans:     net.Spans(),
	}, nil
}

// round is one synchronous round's steps: updates[s] goes to each shard s
// in active, in ascending order, and its reply or error lands in steps[s]
// or errs[s].
type round struct {
	active  []int
	updates [][]Update
	steps   []*StepResult
	errs    []error
}

// roundStepper is a transport that steps a whole round itself, each call
// bounded by timeout.
type roundStepper interface {
	stepRound(ctx context.Context, timeout time.Duration, r *round)
}

// runRound runs one round on tr: as one batch when tr can, else one Step
// per shard, each on its own goroutine under its own deadline.
func runRound(ctx context.Context, tr Transport, timeout time.Duration, r *round) {
	if rs, ok := tr.(roundStepper); ok {
		rs.stepRound(ctx, timeout, r)
		return
	}
	var wg sync.WaitGroup
	for _, s := range r.active {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			cctx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			r.steps[s], r.errs[s] = tr.Step(cctx, s, r.updates[s])
		}(s)
	}
	wg.Wait()
}

// InProcess runs every worker inside the coordinator's process: the
// zero-serialization transport behind in-memory ?shards= requests and the
// conformance suites, and the worker table of one stream on a Host.
// Methods are safe for the coordinator's concurrent per-shard fan-out (each
// shard's worker is only ever called sequentially).
type InProcess struct {
	mu      sync.Mutex
	workers map[int]*Worker
	live    *atomic.Int64 // when set, counts the workers held (a Host's gauge)
}

// NewInProcess returns an empty in-process transport.
func NewInProcess() *InProcess {
	return &InProcess{workers: make(map[int]*Worker)}
}

func (t *InProcess) get(shard int) (*Worker, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	w, ok := t.workers[shard]
	if !ok {
		return nil, fmt.Errorf("shard %d not initialized", shard)
	}
	return w, nil
}

// Init builds the shard's worker directly over the partition's Part.
func (t *InProcess) Init(_ context.Context, shard int, part *Part, delta, _ int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if w, dup := t.workers[shard]; dup {
		w.Close()
	} else if t.live != nil {
		t.live.Add(1)
	}
	t.workers[shard] = NewWorker(part, delta)
	return nil
}

// Step runs one worker round.
func (t *InProcess) Step(_ context.Context, shard int, updates []Update) (*StepResult, error) {
	w, err := t.get(shard)
	if err != nil {
		return nil, err
	}
	return w.Step(shard, updates)
}

// Finish collects the worker's final local colors.
func (t *InProcess) Finish(_ context.Context, shard int) ([]Update, error) {
	w, err := t.get(shard)
	if err != nil {
		return nil, err
	}
	return w.Finish()
}

// Abort drops the worker.
func (t *InProcess) Abort(shard int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dropLocked(shard)
}

// abortAll drops every worker still held.
func (t *InProcess) abortAll() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for shard := range t.workers {
		t.dropLocked(shard)
	}
}

func (t *InProcess) dropLocked(shard int) {
	if w, ok := t.workers[shard]; ok {
		w.Close()
		delete(t.workers, shard)
		if t.live != nil {
			t.live.Add(-1)
		}
	}
}
