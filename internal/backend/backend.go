// Package backend defines the pluggable Δ-coloring pipeline seam: every
// complete-coloring algorithm in the repository (the paper's deterministic
// and randomized pipelines, the simple-dense ablation, the ruling-subgraph
// route) is published as a Backend behind a process-global registry, so the
// public API, the service, the dynamic store, the benchmark arena, and the
// conformance matrix all dispatch by name instead of hard-wiring entry
// points. See DESIGN.md §12 for the backend contract.
package backend

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"deltacoloring/internal/core"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/local"
)

// Params bundles the parameterizations a backend may need. Deterministic
// backends read Det; randomized backends read Rand and Seed. Callers that
// dispatch by name should fill both presets.
type Params struct {
	// Det parameterizes the deterministic pipelines.
	Det core.Params
	// Rand parameterizes randomized backends.
	Rand core.RandomizedParams
	// Seed drives randomized backends; deterministic ones ignore it.
	Seed int64
}

// Caps are a backend's capability flags. They are advisory: layers use them
// to decide what a backend's runs can be asked to do (attach the
// conformance harness, cross-check frontier scheduling, replay fault
// plans), not to change the backend's own behavior.
type Caps struct {
	// Checkpoints: the backend publishes phase checkpoints consumable by
	// the internal/invariant harness (including the "final" artifact).
	Checkpoints bool
	// Frontier: the backend's runs are bit-identical with frontier
	// scheduling on and off, so engine cross-checks apply.
	Frontier bool
	// Faults: the backend participates in fault-injection replay suites.
	Faults bool
	// Randomized: the backend consumes Params.Rand/Params.Seed.
	Randomized bool
	// PaletteSlack is how many colors beyond Δ the backend's results may
	// use: verification bounds are MaxDegree() + PaletteSlack. The zero
	// value keeps the paper pipelines' strict Δ-coloring contract; the
	// greedy/sharded wire algorithm declares 1 (it is a Δ+1 coloring).
	PaletteSlack int
}

// RunOptions tunes one Color call. A nil pointer means defaults.
type RunOptions struct {
	// SpanHook receives each phase span as it closes, even on failure.
	SpanHook func(local.Span)
	// Workers sets the Exchange worker count (0 keeps the default of 1).
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

// Backend is one complete Δ-coloring pipeline.
type Backend interface {
	// Name is the registry key (also the `?backend=` / -backend value).
	Name() string
	// Caps reports the backend's capability flags.
	Caps() Caps
	// Color runs the pipeline on g. The context's deadline/cancellation is
	// checked at every LOCAL round boundary; opts may be nil.
	Color(ctx context.Context, g *graph.Graph, p Params, opts *RunOptions) (*Result, error)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Backend{}
)

// Register adds b to the process-global registry. It panics on an empty
// name or a duplicate registration: backends are wired at init time and a
// name collision is a programming error, not a runtime condition.
func Register(b Backend) {
	name := b.Name()
	if name == "" {
		panic("backend: Register with empty name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("backend: duplicate registration of %q", name))
	}
	registry[name] = b
}

// Get looks up a backend by name. The error lists the registered names so
// CLI flags and HTTP handlers can fail fast with an actionable message.
func Get(name string) (Backend, error) {
	regMu.RLock()
	b, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("backend: unknown backend %q (registered: %s)",
			name, strings.Join(Names(), ", "))
	}
	return b, nil
}

// Names returns the registered backend names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// DefaultName is the registry entry used when no backend is requested: the
// paper's deterministic pipeline.
const DefaultName = "det"

// Default returns the default backend.
func Default() Backend {
	b, err := Get(DefaultName)
	if err != nil {
		panic(err) // registered in this package's init
	}
	return b
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
