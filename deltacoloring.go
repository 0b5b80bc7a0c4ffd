// Package deltacoloring is the public API of this repository: distributed
// Δ-coloring of dense graphs in the LOCAL model, implementing
//
//	Manuel Jakob, Yannic Maus. "Towards Optimal Distributed Delta
//	Coloring." PODC 2025 (brief announcement).
//
// The package wraps the internal algorithm stack (almost-clique
// decomposition, slack triads, hyperedge grabbing, degree splitting,
// loophole machinery) behind three entry points:
//
//   - Deterministic: Theorem 1's min{Õ(log^{5/3} n), O(Δ + log n)}-round
//     deterministic algorithm (O(log n) at constant Δ).
//   - Randomized: Theorem 2's shattering-based algorithm
//     (O(Δ + log log n) rounds).
//   - Verify: checks a proper complete Δ-coloring.
//
// Both colorers require a *dense* graph (Definition 4: the almost-clique
// decomposition has no sparse vertices) without a (Δ+1)-clique; they return
// ErrNotDense / ErrBrooks otherwise. Every lemma-level invariant of the
// paper is verified during a run, so a returned coloring is machine-checked
// end to end.
//
// Use the Gen* constructors for the dense graph families studied in the
// evaluation, or NewGraph for custom inputs.
package deltacoloring

import (
	"context"
	"fmt"
	"io"

	"deltacoloring/internal/backend"
	"deltacoloring/internal/coloring"
	"deltacoloring/internal/core"
	"deltacoloring/internal/dynamic"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/invariant"
	"deltacoloring/internal/local"
	"deltacoloring/internal/repair"
)

// Graph is an immutable undirected simple graph.
type Graph = graph.Graph

// Params configures the pipeline; see DefaultParams and ScaledParams.
type Params = core.Params

// RandomizedParams configures the randomized algorithm.
type RandomizedParams = core.RandomizedParams

// Stats reports structural measurements of a run.
type Stats = core.Stats

// RandStats reports shattering measurements of a randomized run.
type RandStats = core.RandStats

// Span is a named round-accounting segment.
type Span = local.Span

// FrontierStats aggregates the engine's activation accounting: how many
// rounds ran on the sparse (frontier-scheduled) path and how many vertex
// evaluations the frontier skipped. See DESIGN.md, "Frontier scheduling
// contract".
type FrontierStats = local.FrontierStats

// Sentinel errors.
var (
	// ErrNotDense marks inputs outside the paper's dense-graph class.
	ErrNotDense = core.ErrNotDense
	// ErrBrooks marks the Brooks exception: a (Δ+1)-clique exists.
	ErrBrooks = core.ErrBrooks
	// ErrLemmaViolated marks a deterministic refusal of the hard-clique
	// pipeline: a Lemma 10–17 bound fails at the chosen parameters.
	ErrLemmaViolated = core.ErrLemmaViolated
)

// DefaultParams returns the paper's exact parameterization (ε = 1/63,
// 28 sub-cliques, 4-way splitting). Its constant arithmetic requires
// Δ ⪆ 85; see ScaledParams for smaller degrees.
func DefaultParams() Params { return core.DefaultParams() }

// ScaledParams returns a scaled-down parameterization usable from Δ ≈ 16,
// with all invariants still verified at runtime (see DESIGN.md, "parameter
// presets").
func ScaledParams() Params { return core.TestParams() }

// DefaultRandomizedParams returns the paper parameterization of Theorem 2.
func DefaultRandomizedParams() RandomizedParams { return core.DefaultRandomizedParams() }

// ScaledRandomizedParams returns the scaled-down randomized preset.
func ScaledRandomizedParams() RandomizedParams { return core.TestRandomizedParams() }

// Result is the outcome of a coloring run.
type Result struct {
	// Colors assigns each vertex a color in [0, Δ).
	Colors []int
	// Rounds is the total number of LOCAL rounds charged.
	Rounds int
	// Spans breaks the rounds down by phase.
	Spans []Span
	// Frontier reports sparse/dense engine rounds and skipped evaluations.
	Frontier FrontierStats
	// Stats carries structural measurements.
	Stats Stats
}

// RandomizedResult extends Result with shattering statistics.
type RandomizedResult struct {
	Result
	Rand RandStats
}

// NewGraph builds a graph on n vertices from an edge list.
func NewGraph(n int, edges [][2]int) (*Graph, error) {
	b := graph.NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// RunOptions tunes a context-aware run. The zero value (or a nil pointer)
// means: no span export, default sequential execution.
type RunOptions struct {
	// SpanHook, when non-nil, receives each phase span as it closes, even
	// if the run later fails or is cancelled. See local.Network.SetSpanHook.
	SpanHook func(Span)
	// Workers sets the Exchange worker count (0 keeps the default of 1;
	// negative picks GOMAXPROCS-style automatic parallelism).
	Workers int
}

// Deterministic runs Theorem 1's algorithm with the given parameters.
func Deterministic(g *Graph, p Params) (*Result, error) {
	return DeterministicContext(context.Background(), g, p, nil)
}

// DeterministicContext is Deterministic with cancellation and run options:
// the context's deadline/cancellation is checked at every LOCAL round
// boundary (and so between all pipeline phases), aborting the run with
// ctx.Err(). opts may be nil.
func DeterministicContext(ctx context.Context, g *Graph, p Params, opts *RunOptions) (*Result, error) {
	res, err := backend.Det.Color(ctx, g, backend.Params{Det: p}, backendOpts(opts))
	if err != nil {
		return nil, err
	}
	return fromBackend(res), nil
}

// Randomized runs Theorem 2's algorithm with the given parameters and seed.
func Randomized(g *Graph, p RandomizedParams, seed int64) (*RandomizedResult, error) {
	return RandomizedContext(context.Background(), g, p, seed, nil)
}

// RandomizedContext is Randomized with cancellation and run options; see
// DeterministicContext for the contract.
func RandomizedContext(ctx context.Context, g *Graph, p RandomizedParams, seed int64, opts *RunOptions) (*RandomizedResult, error) {
	res, err := backend.Rand.Color(ctx, g, backend.Params{Rand: p, Seed: seed}, backendOpts(opts))
	if err != nil {
		return nil, err
	}
	return &RandomizedResult{Result: *fromBackend(res), Rand: *res.Rand}, nil
}

// backendOpts converts the public run options to the backend seam's; all
// network setup, interrupt recovery, and close boilerplate lives behind
// backend.Exec (see internal/backend).
func backendOpts(opts *RunOptions) *backend.RunOptions {
	if opts == nil {
		return nil
	}
	return &backend.RunOptions{SpanHook: opts.SpanHook, Workers: opts.Workers}
}

// fromBackend converts a backend result to the public shape.
func fromBackend(res *backend.Result) *Result {
	return &Result{
		Colors:   res.Colors,
		Rounds:   res.Rounds,
		Spans:    res.Spans,
		Frontier: res.Frontier,
		Stats:    res.Stats,
	}
}

// CheckReport summarizes the invariant validation of a checked run: which
// pipeline phases published intermediate state and how many conformance
// checkers fired on it, the closing oracle pass counted as one more check.
// See DESIGN.md §10 for the checker catalogue.
type CheckReport = invariant.Report

// RunCheckedContext is DeterministicContext with the conformance harness
// attached: every pipeline phase checkpoints its intermediate state (ACD,
// classification, matching, hypergraph grab, split, triads, partial
// colorings) and the registered invariant checkers validate it mid-run. The
// final coloring is additionally cross-checked against the independent
// sequential oracle. A violation aborts the run with an *invariant.Violation
// naming the phase and the invariant. Checked runs are bit-identical to
// unchecked ones — the harness only observes.
func RunCheckedContext(ctx context.Context, g *Graph, p Params, opts *RunOptions) (*Result, *CheckReport, error) {
	h := invariant.NewHarness(g)
	res, err := backend.Det.Color(ctx, g, backend.Params{Det: p}, withHarness(opts, h))
	if err != nil {
		return nil, nil, err
	}
	rep, err := h.Oracle(res.Colors, g.MaxDegree())
	if err != nil {
		return nil, nil, fmt.Errorf("deltacoloring: %w", err)
	}
	return fromBackend(res), rep, nil
}

// RunCheckedRandomizedContext is RandomizedContext with the conformance
// harness attached; see RunCheckedContext for the contract.
func RunCheckedRandomizedContext(ctx context.Context, g *Graph, p RandomizedParams, seed int64, opts *RunOptions) (*RandomizedResult, *CheckReport, error) {
	h := invariant.NewHarness(g)
	bres, err := backend.Rand.Color(ctx, g, backend.Params{Rand: p, Seed: seed}, withHarness(opts, h))
	if err != nil {
		return nil, nil, err
	}
	rep, err := h.Oracle(bres.Colors, g.MaxDegree())
	if err != nil {
		return nil, nil, fmt.Errorf("deltacoloring: %w", err)
	}
	return &RandomizedResult{Result: *fromBackend(bres), Rand: *bres.Rand}, rep, nil
}

// withHarness wires the conformance harness into a run's network hook.
func withHarness(opts *RunOptions, h *invariant.Harness) *backend.RunOptions {
	bo := backendOpts(opts)
	if bo == nil {
		bo = &backend.RunOptions{}
	}
	bo.NetHook = h.Attach
	return bo
}

// Verify checks that colors is a complete proper coloring of g with colors
// in [0, Δ).
func Verify(g *Graph, colors []int) error {
	if len(colors) != g.N() {
		return fmt.Errorf("deltacoloring: %d colors for %d vertices", len(colors), g.N())
	}
	c := coloring.NewPartial(g.N())
	copy(c.Colors, colors)
	return coloring.VerifyComplete(g, c, g.MaxDegree())
}

// VerifyWithin checks that colors is a complete proper coloring of g with
// colors in [0, k). Repaired colorings use k = Δ+1: repair keeps Δ colors
// outside the damaged region and spends at most one extra color inside it.
func VerifyWithin(g *Graph, colors []int, k int) error {
	if len(colors) != g.N() {
		return fmt.Errorf("deltacoloring: %d colors for %d vertices", len(colors), g.N())
	}
	c := coloring.NewPartial(g.N())
	copy(c.Colors, colors)
	return coloring.VerifyComplete(g, c, k)
}

// RepairResult reports what a Repair call did; see internal/repair for the
// full fault model and repair contract (also documented in DESIGN.md).
type RepairResult struct {
	// Colors is the repaired coloring (the input slice, repaired in place).
	Colors []int
	// Damaged lists the vertices the 1-round distributed detector flagged
	// (uncolored, out-of-range, or endpoint of a monochromatic edge).
	Damaged []int
	// RepairSet lists the vertices actually recolored: the damaged set, or
	// its closed 1-hop neighborhood when growth was needed.
	RepairSet []int
	// Grown reports whether the repair had to grow the damaged region and
	// enable the extra color Δ.
	Grown bool
	// ExtraColorUsed counts repaired vertices left on color Δ (0 unless
	// Grown).
	ExtraColorUsed int
	// Rounds is the LOCAL round cost of detection plus recoloring.
	Rounds int
}

// Repair restores a fault-damaged Δ-coloring: it detects the damaged region
// distributedly (monochromatic edges, uncolored or out-of-range vertices)
// and recolors it with deg+1 list coloring, keeping the original Δ colors
// outside the damaged region and using at most one extra color (Δ, so Δ+1
// colors total) inside it. Undamaged colorings are returned unchanged.
// The input slice is repaired in place.
func Repair(g *Graph, colors []int) (*RepairResult, error) {
	return RepairContext(context.Background(), g, colors, nil)
}

// RepairContext is Repair with cancellation and run options; see
// DeterministicContext for the contract.
func RepairContext(ctx context.Context, g *Graph, colors []int, opts *RunOptions) (*RepairResult, error) {
	var res *RepairResult
	err := backend.Exec(ctx, g, backendOpts(opts), func(net *local.Network) error {
		rres, rerr := repair.Repair(net, colors, g.MaxDegree())
		if rerr != nil {
			return rerr
		}
		res = &RepairResult{
			Colors:         colors,
			Damaged:        rres.Damaged,
			RepairSet:      rres.RepairSet,
			Grown:          rres.Grown,
			ExtraColorUsed: rres.ExtraColorUsed,
			Rounds:         rres.Rounds,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Dynamic is a long-lived graph store with a maintained deg+1 coloring: it
// accepts batched mutations, recolors incrementally from the batch's
// frontier seeds when the dirty region is small, and falls back to a full
// recompute otherwise. Every returned snapshot is a verified proper
// coloring; see internal/dynamic and DESIGN.md §11 for the full contract
// (valid-or-unhealthy semantics, last-known-good serving, palette bounds).
type Dynamic = dynamic.Live

// DynamicOptions tunes a Dynamic store; the zero value is usable.
type DynamicOptions = dynamic.Options

// Mutation is one entry of a dynamic mutation batch.
type Mutation = dynamic.Mutation

// MutationOp names one kind of graph mutation.
type MutationOp = dynamic.Op

// The dynamic mutation vocabulary.
const (
	OpAddEdge      = dynamic.OpAddEdge
	OpRemoveEdge   = dynamic.OpRemoveEdge
	OpAddVertex    = dynamic.OpAddVertex
	OpRemoveVertex = dynamic.OpRemoveVertex
)

// DynamicResult reports what maintaining one mutation batch did.
type DynamicResult = dynamic.ApplyResult

// DynamicSnapshot is one immutable version of a Dynamic store.
type DynamicSnapshot = dynamic.Snapshot

// DynamicStats aggregates a Dynamic store's lifetime maintenance accounting.
type DynamicStats = dynamic.Stats

// DynamicInfo summarizes a Dynamic store's current structure and health.
type DynamicInfo = dynamic.Info

// NewDynamic creates a Dynamic store over g and colors it from scratch with
// at most Δ+1 colors. The store is safe for concurrent use: mutation batches
// (Apply) serialize, reads (Snapshot, Info, Stats) never wait behind an
// in-flight recoloring.
func NewDynamic(g *Graph, opts DynamicOptions) (*Dynamic, error) {
	return dynamic.New(g, opts)
}

// GenHardCliqueBipartite builds the adversarial dense family where every
// almost clique is hard: 2m cliques of size delta joined by a bipartite,
// triangle-free perfect-matching super-graph (n = 2·m·delta, requires
// m >= delta >= 2).
func GenHardCliqueBipartite(m, delta int) *Graph {
	g, _ := graph.HardCliqueBipartite(m, delta)
	return g
}

// GenEasyCliqueRing builds a ring of k cliques of size delta joined by
// parallel matchings; every clique contains 4-cycle loopholes (requires
// k >= 4, even delta >= 4).
func GenEasyCliqueRing(k, delta int) *Graph {
	g, _ := graph.EasyCliqueRing(k, delta)
	return g
}

// GenHardWithEasyPatch builds the hard family with a rewired corner that
// turns four cliques easy, mixing both pipeline paths (requires m >= 4,
// delta >= 3).
func GenHardWithEasyPatch(m, delta int) *Graph {
	g, _ := graph.HardWithEasyPatch(m, delta)
	return g
}

// WriteDOT renders g in Graphviz DOT format, filling vertices by the given
// colors (pass nil for an uncolored rendering). Pipe through `dot -Tsvg`
// to visualize small instances.
func WriteDOT(w io.Writer, g *Graph, colors []int) error {
	return graph.WriteDOT(w, g, colors, nil)
}
