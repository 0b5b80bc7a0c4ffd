package backend

import (
	"math/rand"

	"deltacoloring/internal/core"
	"deltacoloring/internal/local"
	"deltacoloring/internal/shard"
)

// The five backends share the network lifecycle in Exec and differ only in
// the entry point they call.
var (
	// Det is Theorem 1's deterministic pipeline (Algorithm 1-3); the
	// default and the reference for bit-identity contracts.
	Det = &Backend{Name: "det", run: func(net *local.Network, p Params) (*Result, error) {
		res, err := core.ColorDeterministic(net, p.Det)
		return fromCore(res, nil, err)
	}}
	// Rand is Theorem 2's shattering-based pipeline (Algorithm 4).
	Rand = &Backend{Name: "rand", run: func(net *local.Network, p Params) (*Result, error) {
		res, err := core.ColorRandomized(net, p.Rand, rand.New(rand.NewSource(p.Seed)))
		if err != nil {
			return nil, err
		}
		rs := res.Rand
		return fromCore(&res.Result, &rs, nil)
	}}
	// Simple is the Section 1.1 sketch for extremely dense graphs (every
	// almost clique hard of size exactly Δ); see core.ColorSimpleDense.
	Simple = &Backend{Name: "simple", run: func(net *local.Network, p Params) (*Result, error) {
		res, err := core.ColorSimpleDense(net, p.Det)
		return fromCore(res, nil, err)
	}}
	// Ruling is the ruling-subgraph route (arXiv 2503.04320): triad
	// selection coordinated by a ruling set on the hard-clique graph
	// instead of the matching + HEG + splitting machinery; see
	// core.ColorRuling.
	Ruling = &Backend{Name: "ruling", run: func(net *local.Network, p Params) (*Result, error) {
		res, err := core.ColorRuling(net, p.Det)
		return fromCore(res, nil, err)
	}}
	// Greedy is the sharded subsystem's wire algorithm, greedy deg+1
	// coloring with ID-local-max symmetry breaking. It is the one backend
	// whose runs shard across processes bit-identically (see internal/shard
	// and DESIGN.md §15), and the oracle the sharded conformance suite
	// compares clusters against. Unlike the paper pipelines it uses Δ+1
	// colors, declared via PaletteSlack.
	Greedy = &Backend{Name: "greedy", PaletteSlack: 1, run: func(net *local.Network, _ Params) (*Result, error) {
		colors, rounds, err := shard.SolveSingle(net)
		if err != nil {
			return nil, err
		}
		return &Result{Colors: colors, Rounds: rounds, Spans: net.Spans(), Frontier: net.FrontierStats()}, nil
	}}
)

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
