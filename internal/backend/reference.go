package backend

import (
	"context"
	"math/rand"

	"deltacoloring/internal/core"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/local"
	"deltacoloring/internal/shard"
)

// pipelineBackend adapts one pipeline to the Backend interface: every
// registered backend shares the network lifecycle in Exec and differs only
// in the entry point it calls.
type pipelineBackend struct {
	name string
	caps Caps
	run  func(net *local.Network, p Params) (*Result, error)
}

func (b *pipelineBackend) Name() string { return b.name }
func (b *pipelineBackend) Caps() Caps   { return b.caps }

func (b *pipelineBackend) Color(ctx context.Context, g *graph.Graph, p Params, opts *RunOptions) (*Result, error) {
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

// fromCore lifts a core pipeline's outcome into a backend Result.
func fromCore(res *core.Result, rs *core.RandStats, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	return &Result{
		Colors:   res.Coloring.Colors,
		Rounds:   res.Rounds,
		Spans:    res.Spans,
		Frontier: res.Frontier,
		Stats:    res.Stats,
		Rand:     rs,
	}, nil
}

func init() {
	// det: Theorem 1's deterministic pipeline (Algorithm 1-3); the default
	// and the reference for bit-identity contracts.
	Register(&pipelineBackend{
		name: "det",
		caps: Caps{Checkpoints: true, Frontier: true, Faults: true},
		run: func(net *local.Network, p Params) (*Result, error) {
			res, err := core.ColorDeterministic(net, p.Det)
			return fromCore(res, nil, err)
		},
	})
	// rand: Theorem 2's shattering-based pipeline (Algorithm 4).
	Register(&pipelineBackend{
		name: "rand",
		caps: Caps{Checkpoints: true, Frontier: true, Faults: true, Randomized: true},
		run: func(net *local.Network, p Params) (*Result, error) {
			res, err := core.ColorRandomized(net, p.Rand, rand.New(rand.NewSource(p.Seed)))
			if err != nil {
				return nil, err
			}
			rs := res.Rand
			return fromCore(&res.Result, &rs, nil)
		},
	})
	// simple: the Section 1.1 sketch for extremely dense graphs (every
	// almost clique hard of size exactly Δ); see core.ColorSimpleDense.
	Register(&pipelineBackend{
		name: "simple",
		caps: Caps{Checkpoints: true, Frontier: true},
		run: func(net *local.Network, p Params) (*Result, error) {
			res, err := core.ColorSimpleDense(net, p.Det)
			return fromCore(res, nil, err)
		},
	})
	// ruling: the ruling-subgraph route (arXiv 2503.04320): triad selection
	// coordinated by a ruling set on the hard-clique graph instead of the
	// matching + HEG + splitting machinery; see core.ColorRuling.
	Register(&pipelineBackend{
		name: "ruling",
		caps: Caps{Checkpoints: true, Frontier: true},
		run: func(net *local.Network, p Params) (*Result, error) {
			res, err := core.ColorRuling(net, p.Det)
			return fromCore(res, nil, err)
		},
	})
	// greedy: the sharded subsystem's wire algorithm, greedy deg+1 coloring
	// with ID-local-max symmetry breaking. It is the one backend whose runs
	// shard across processes bit-identically (see internal/shard and
	// DESIGN.md §15), and the oracle the sharded conformance suite compares
	// clusters against. Unlike the paper pipelines it uses Δ+1 colors,
	// declared via Caps.PaletteSlack.
	Register(&pipelineBackend{
		name: "greedy",
		caps: Caps{Checkpoints: true, Frontier: true, PaletteSlack: 1},
		run: func(net *local.Network, _ Params) (*Result, error) {
			colors, rounds, err := shard.SolveSingle(net)
			if err != nil {
				return nil, err
			}
			return &Result{Colors: colors, Rounds: rounds, Spans: net.Spans(), Frontier: net.FrontierStats()}, nil
		},
	})
}
