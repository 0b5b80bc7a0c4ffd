package bench

import (
	"fmt"
	"math/rand"

	"deltacoloring/internal/core"
	"deltacoloring/internal/faults"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/local"
	"deltacoloring/internal/repair"
	"deltacoloring/internal/rulingset"
)

// frontierWorkload is one E19 measurement subject: a graph plus a runner
// executed once per engine (frontier-scheduled and dense).
type frontierWorkload struct {
	name string
	g    *graph.Graph
	run  func(net *local.Network) error
}

// E19 — frontier occupancy: for each flagship workload, how many state-engine
// rounds ran on the sparse (frontier-scheduled) path and how many vertex
// evaluations the frontier skipped. Every workload is executed twice, once
// per engine, and E19 fails if the round counts diverge — the
// result-preservation cross-check CI runs. E19 backs DESIGN.md's "Frontier
// scheduling contract" section. It is in Experiments, so the default
// `deltabench` report runs it; `deltabench -only E19` runs it alone.
func E19(s Scale) (*Table, error) {
	t := &Table{
		ID:     "E19",
		Title:  "frontier occupancy: sparse rounds and skipped evaluations per workload",
		Header: []string{"workload", "n", "Δ", "rounds", "engine rounds", "sparse", "sparse%", "evaluated", "skipped", "skipped%"},
	}
	m := 32
	if s == Quick {
		m = 16
	} else if s == Full {
		m = 64
	}
	hard, _ := graph.HardCliqueBipartite(m, 16)
	ring, _ := graph.EasyCliqueRing(2*m, 16)

	workloads := []frontierWorkload{
		{"deterministic/hard", hard, func(net *local.Network) error {
			_, err := core.ColorDeterministic(net, core.TestParams())
			return err
		}},
		{"deterministic/easy-ring", ring, func(net *local.Network) error {
			_, err := core.ColorDeterministic(net, core.TestParams())
			return err
		}},
		{"randomized/hard", hard, func(net *local.Network) error {
			_, err := core.ColorRandomized(net, core.TestRandomizedParams(), rand.New(rand.NewSource(1)))
			return err
		}},
		{"mis/hard", hard, func(net *local.Network) error {
			_, err := rulingset.MIS(net)
			return err
		}},
	}

	// Repair workload: a fixed damaged coloring, recolored with the Δ+1
	// palette (the tight-contract row of E18).
	{
		net := local.New(hard)
		res, err := core.ColorDeterministic(net, core.TestParams())
		net.Close()
		if err != nil {
			return nil, fmt.Errorf("E19 base coloring: %w", err)
		}
		plan, err := faults.NewPlan(hard, faults.Config{Seed: 1, CrashRate: 0.025, CorruptRate: 0.025})
		if err != nil {
			return nil, fmt.Errorf("E19 fault plan: %w", err)
		}
		clean := res.Coloring.Colors
		workloads = append(workloads, frontierWorkload{"repair/hard-5pct", hard, func(net *local.Network) error {
			dmg, _ := plan.Damage(clean)
			_, err := repair.Repair(net, dmg, hard.MaxDegree()+1)
			return err
		}})
	}

	for _, wl := range workloads {
		rounds := [2]int{}
		var fs local.FrontierStats
		for pass, frontier := range []bool{true, false} {
			net := local.New(wl.g)
			net.SetFrontier(frontier)
			err := wl.run(net)
			rounds[pass] = net.Rounds()
			if frontier {
				fs = net.FrontierStats()
			}
			net.Close()
			if err != nil {
				return nil, fmt.Errorf("E19 %s (frontier=%v): %w", wl.name, frontier, err)
			}
		}
		if rounds[0] != rounds[1] {
			return nil, fmt.Errorf("E19 %s: engine divergence: frontier charged %d rounds, dense %d",
				wl.name, rounds[0], rounds[1])
		}
		total := fs.ActiveVertices + fs.SkippedVertices
		t.AddRow(wl.name, wl.g.N(), wl.g.MaxDegree(), rounds[0],
			fs.EngineRounds, fs.SparseRounds, pct(fs.SparseRounds, fs.EngineRounds),
			fs.ActiveVertices, fs.SkippedVertices, pct64(fs.SkippedVertices, total))
	}
	t.Notes = append(t.Notes,
		"each workload ran once per engine; round counts matched exactly (the run fails otherwise), so the occupancy figures come with a result-preservation certificate",
		"'engine rounds' counts state-engine evaluation rounds (Step/Run/Sweep), a subset of the LOCAL rounds charged; 'sparse' is the fraction executed on the frontier path",
		"'skipped' counts vertex evaluations the activation set proved redundant (closed neighborhood unchanged); class sweeps (Linial reduction, MIS, slot coloring) dominate the skips",
		"rounds carrying fault views, and the round after, always run dense by design — see DESIGN.md, 'Frontier scheduling contract'")
	return t, nil
}

func pct(a, b int) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", 100*float64(a)/float64(b))
}

func pct64(a, b int64) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", 100*float64(a)/float64(b))
}
