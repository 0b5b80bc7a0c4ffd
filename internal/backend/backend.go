// Package backend is the one table of complete Δ-coloring pipelines: the
// paper's deterministic and randomized pipelines, the simple-dense
// ablation, the ruling-subgraph route and the greedy wire algorithm are
// fixed Backend values, so the public API, the service, the dynamic store,
// the benchmark arena, and the conformance matrix all run them the same
// way. See DESIGN.md §12 for the backend contract.
package backend

import (
	"context"
	"fmt"
	"strings"

	"deltacoloring/internal/core"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/local"
)

// Params bundles the parameterizations a backend may need. Deterministic
// backends read Det; randomized backends read Rand and Seed. Presets fills
// both.
type Params struct {
	// Det parameterizes the deterministic pipelines.
	Det core.Params
	// Rand parameterizes randomized backends.
	Rand core.RandomizedParams
	// Seed drives randomized backends; deterministic ones ignore it.
	Seed int64
}

// RunOptions tunes one Color call. A nil pointer means defaults.
type RunOptions struct {
	// SpanHook receives each phase span as it closes, even on failure.
	SpanHook func(local.Span)
	// Workers sets the engine's worker count (0 keeps the default of 1).
	Workers int
	// DisableFrontier forces every state-engine round onto the dense path.
	DisableFrontier bool
	// NetHook, when non-nil, observes the freshly configured network before
	// the run starts. It is the seam for attaching the conformance harness
	// (invariant.Harness.Attach) or fault plans without the backend package
	// importing those layers.
	NetHook func(*local.Network)
}

// Result is the outcome of a backend run.
type Result struct {
	// Colors assigns each vertex a color in [0, Δ).
	Colors []int
	// Rounds is the total number of LOCAL rounds charged.
	Rounds int
	// Spans breaks the rounds down by phase.
	Spans []local.Span
	// Frontier reports sparse/dense engine rounds and skipped evaluations.
	Frontier local.FrontierStats
	// Stats carries structural measurements.
	Stats core.Stats
	// Rand carries shattering statistics for randomized backends, nil
	// otherwise.
	Rand *core.RandStats
}

// Backend is one complete Δ-coloring pipeline: an entry in the fixed
// table below, never built outside this package.
type Backend struct {
	// Name is the table key (also the `?backend=` / -backend value).
	Name string
	// PaletteSlack is how many colors beyond Δ the backend's results may
	// use: verification bounds are MaxDegree() + PaletteSlack. The paper
	// pipelines keep the strict Δ-coloring contract (0); the greedy/sharded
	// wire algorithm declares 1 (it is a Δ+1 coloring).
	PaletteSlack int
	run          func(net *local.Network, p Params) (*Result, error)
}

// Color runs the pipeline on g. The context's deadline/cancellation is
// checked at every LOCAL round boundary; opts may be nil.
func (b *Backend) Color(ctx context.Context, g *graph.Graph, p Params, opts *RunOptions) (*Result, error) {
	var res *Result
	err := Exec(ctx, g, opts, func(net *local.Network) (err error) {
		res, err = b.run(net, p)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// table lists every backend, sorted by name.
var table = []*Backend{Det, Greedy, Rand, Ruling, Simple}

// Get looks up a backend by name. The error lists the table's names so
// CLI flags and HTTP handlers can fail fast with an actionable message.
func Get(name string) (*Backend, error) {
	for _, b := range table {
		if b.Name == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("backend: unknown backend %q (registered: %s)",
		name, strings.Join(Names(), ", "))
}

// Names returns the backend names, sorted.
func Names() []string {
	names := make([]string, len(table))
	for i, b := range table {
		names[i] = b.Name
	}
	return names
}

// Presets returns the parameters every backend runs under: the scaled
// presets usable from Δ ≈ 16, or the paper's with paper set, the
// randomized preset sharing the deterministic one.
func Presets(paper bool, seed int64) Params {
	p := Params{Det: core.TestParams(), Rand: core.TestRandomizedParams(), Seed: seed}
	if paper {
		p.Det = core.DefaultParams()
		p.Rand = core.DefaultRandomizedParams()
	}
	p.Rand.Params = p.Det
	return p
}

// Resolve turns a requested name into the backend that runs g: "auto"
// asks Select, the empty name is the default (Det), and any other name
// must be in the table.
func Resolve(name string, g *graph.Graph, p Params) (*Backend, error) {
	switch name {
	case "auto":
		return Select(g, p), nil
	case "":
		return Det, nil
	}
	return Get(name)
}

// NewNetwork builds a local.Network for g wired per ctx and opts: the
// context's cancellation becomes a round-boundary interrupt, then the span
// hook, worker count, frontier switch, and finally NetHook are applied (in
// that order, so NetHook observes the fully configured network). This is
// the one place the repository configures run networks; every entry point
// goes through it.
func NewNetwork(ctx context.Context, g *graph.Graph, opts *RunOptions) *local.Network {
	net := local.New(g)
	net.InterruptOn(ctx)
	if opts != nil {
		if opts.SpanHook != nil {
			net.SetSpanHook(opts.SpanHook)
		}
		if opts.Workers != 0 {
			net.SetWorkers(opts.Workers)
		}
		if opts.DisableFrontier {
			net.SetFrontier(false)
		}
		if opts.NetHook != nil {
			opts.NetHook(net)
		}
	}
	return net
}

// Exec runs fn on a freshly configured network for g, closing it on the
// way out and translating interrupt panics into errors. It is the shared
// context/panic-recovery boilerplate of every run entry point.
func Exec(ctx context.Context, g *graph.Graph, opts *RunOptions, fn func(*local.Network) error) (err error) {
	net := NewNetwork(ctx, g, opts)
	defer net.Close()
	defer local.RecoverInterrupt(&err)
	return fn(net)
}
