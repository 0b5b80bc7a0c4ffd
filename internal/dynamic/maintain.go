package dynamic

import (
	"fmt"

	"deltacoloring/internal/backend"
	"deltacoloring/internal/coloring"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/listcolor"
	"deltacoloring/internal/repair"
)

// runOpts carries the store's process-level option (NetHook) into every
// maintenance network and backend run, so chaos hooks and the conformance
// harness perturb and observe each of them alike.
func (l *Live) runOpts() *backend.RunOptions {
	return &backend.RunOptions{NetHook: l.opts.NetHook}
}

// maintainIncremental runs the frontier-seeded maintenance path on the
// post-batch graph g2: scoped damage detection over the batch's touched
// closed neighborhoods, tight/grow recolor planning (internal/repair), and
// listcolor's greedy rule on the planned region, frontier-scheduled in
// sparse rounds on the root network — so installed fault hooks perturb
// exactly these rounds. colors is updated in place on success; any error
// (including a panic from a corrupted engine state) leaves the caller to
// fall back to a recompute.
func (l *Live) maintainIncremental(g2 *graph.Graph, colors []int, p *batchPlan, prevK int, res *ApplyResult) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("maintenance panic: %v", r)
		}
	}()
	net := backend.NewNetwork(nil, g2, l.runOpts())
	defer net.Close()
	defer net.Phase("dynamic/maintain")()
	start := net.Rounds()

	// The working palette bound follows the *current* snapshot's Δ (the
	// repair palette fix): edge insertions may have grown a degree past the
	// tracked numColors mid-stream.
	bound := prevK
	if d := g2.MaxDegree(); bound < d {
		bound = d
	}
	damaged, err := repair.DetectSeeded(net, colors, bound, p.touched)
	if err != nil {
		return err
	}
	res.Damaged = len(damaged)

	kNew := prevK
	scoped := p.touched
	if len(damaged) > 0 {
		part := coloring.NewPartial(g2.N())
		copy(part.Colors, colors)
		plan := repair.PlanRecolor(net, part, damaged, bound)
		activeCount := 0
		for _, a := range plan.Active {
			if a {
				activeCount++
			}
		}
		inst := listcolor.Instance{Active: plan.Active, Lists: plan.Lists}
		if _, err := listcolor.Greedy(net, inst, part.Colors, activeCount+2); err != nil {
			return err
		}
		res.Recolored = activeCount
		scoped = make([]int, 0, len(p.touched)+activeCount)
		scoped = append(scoped, p.touched...)
		for v, a := range plan.Active {
			if a {
				scoped = append(scoped, v)
				if part.Colors[v]+1 > kNew {
					kNew = part.Colors[v] + 1
				}
			}
		}
		copy(colors, part.Colors)
	}

	if err := verifyScoped(g2, colors, kNew, scoped); err != nil {
		return err
	}
	res.NumColors = kNew
	res.Rounds = net.Rounds() - start
	return net.Checkpoint("dynamic/maintain", &Snapshot{
		G:         g2,
		Colors:    append([]int(nil), colors...),
		NumColors: kNew,
		Version:   res.Version,
	})
}

// recompute colors g2 from scratch through the backend table: the
// configured Options.Backend first — on dense structures it maintains a true
// Δ-coloring — then the greedy backend, whose rule over [0, Δ+1) applies to
// every structure (tombstones included: they are isolated and cost nothing).
// A backend failure — the structure drifted out of its domain (sparse
// vertices, a (Δ+1)-clique), an injected fault, an invalid coloring — falls
// through to the next. NetHook applies to every attempt, so chaos hooks
// perturb the recompute exactly as the incremental path. colors is
// overwritten on success.
func (l *Live) recompute(g2 *graph.Graph, colors []int, res *ApplyResult) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("recompute panic: %v", r)
		}
	}()
	names := []string{"greedy"}
	if l.opts.Backend != "" && l.opts.Backend != "greedy" {
		names = []string{l.opts.Backend, "greedy"}
	}
	var bres *backend.Result
	kNew := 0
	for _, name := range names {
		if bres, kNew, err = l.colorWith(name, g2, res.Version); err == nil {
			break
		}
	}
	if err != nil {
		return err
	}
	copy(colors, bres.Colors)
	res.Recolored += g2.N()
	res.NumColors = kNew
	res.Rounds += bres.Rounds
	// Publish the maintenance checkpoint on a hooked network so an attached
	// harness validates the installed snapshot like any other batch.
	net := backend.NewNetwork(nil, g2, l.runOpts())
	defer net.Close()
	return net.Checkpoint("dynamic/maintain", &Snapshot{
		G:         g2,
		Colors:    append([]int(nil), colors...),
		NumColors: kNew,
		Version:   res.Version,
	})
}

// colorWith runs one backend over g2 and verifies its coloring
// complete and proper within the palette it spent, which it returns.
func (l *Live) colorWith(name string, g2 *graph.Graph, version int64) (*backend.Result, int, error) {
	b, err := backend.Get(name)
	if err != nil {
		return nil, 0, err
	}
	bres, err := b.Color(nil, g2, backend.Presets(false, version), l.runOpts())
	if err != nil {
		return nil, 0, err
	}
	k := 1
	for _, c := range bres.Colors {
		if c+1 > k {
			k = c + 1
		}
	}
	if err := coloring.VerifyComplete(g2, &coloring.Partial{Colors: bres.Colors}, k); err != nil {
		return nil, 0, fmt.Errorf("recomputed coloring invalid: %w", err)
	}
	return bres, k, nil
}

// verifyScoped checks the maintained coloring on the scoped vertex set:
// every vertex must carry a color in [0, k) that no neighbor shares. Given
// a coloring that was valid before the batch, all possible damage lies in
// the batch's touched neighborhoods plus the recolored region, so passing
// the scoped check implies the full coloring verifies (the conformance
// suite cross-checks that implication with the whole-graph oracle).
func verifyScoped(g *graph.Graph, colors []int, k int, scoped []int) error {
	for _, v := range scoped {
		c := colors[v]
		if c == coloring.None || c < 0 || c >= k {
			return fmt.Errorf("maintained color %d at vertex %d outside [0,%d)", c, v, k)
		}
		for _, w := range g.Neighbors(v) {
			if colors[w] == c {
				return fmt.Errorf("maintained coloring has monochromatic edge {%d,%d}", v, int(w))
			}
		}
	}
	return nil
}
