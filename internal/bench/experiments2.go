package bench

import (
	"errors"
	"fmt"
	"math/rand"

	"deltacoloring/internal/acd"
	"deltacoloring/internal/baseline"
	"deltacoloring/internal/coloring"
	"deltacoloring/internal/core"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/linial"
	"deltacoloring/internal/local"
	"deltacoloring/internal/matching"
)

// E7 — Lemmas 15/16: slack triads are vertex-disjoint, one per Type I⁺
// clique, and the slack-pair conflict graph G_V has degree at most Δ-2.
func E7(s Scale) (*Table, error) {
	t := &Table{
		ID:     "E7",
		Title:  "slack triads and the pair conflict graph (Lemma 15: disjoint triads; Lemma 16: deg(G_V) <= Δ-2)",
		Header: []string{"instance", "Δ", "hard cliques", "triads", "G_V maxdeg", "Δ-2", "ok"},
	}
	insts := []struct {
		name     string
		m, delta int
	}{
		{"hard m=16", 16, 16},
		{"hard m=32", 32, 16},
		{"hard m=24 Δ=24", 24, 24},
	}
	if s == Full {
		insts = append(insts, struct {
			name     string
			m, delta int
		}{"paper Δ=126", 126, 126})
	}
	for _, in := range insts {
		g, _ := graph.HardCliqueBipartite(in.m, in.delta)
		p := core.TestParams()
		if in.delta >= 126 {
			p = core.DefaultParams()
		}
		res, err := core.ColorDeterministic(local.New(g), p)
		if err != nil {
			return nil, fmt.Errorf("E7 %s: %w", in.name, err)
		}
		ok := res.Stats.PairGraphMaxDeg <= in.delta-2 && res.Stats.Triads == res.Stats.TypeI
		t.AddRow(in.name, in.delta, res.Stats.HardCliques, res.Stats.Triads,
			res.Stats.PairGraphMaxDeg, in.delta-2, ok)
	}
	t.Notes = append(t.Notes,
		"triad disjointness and pair non-adjacency are hard runtime checks inside the pipeline; a run only succeeds if they hold")
	return t, nil
}

// E8 — Lemmas 12/13: the matching rebalancing gives every C_HEG clique
// exactly P outgoing F2 edges; after sparsification exactly 2 outgoing and
// bounded incoming edges remain.
func E8(s Scale) (*Table, error) {
	t := &Table{
		ID:     "E8",
		Title:  "balanced matching pipeline (Lemma 12: P outgoing per clique; Lemma 13: 2 outgoing, bounded incoming)",
		Header: []string{"n", "Δ", "|F1|", "|F2|", "|F3|", "F2/clique", "F3/clique", "incoming bound"},
	}
	ms := []int{16, 32}
	if s != Quick {
		ms = append(ms, 64)
	}
	for _, m := range ms {
		g, _ := graph.HardCliqueBipartite(m, 16)
		res, err := core.ColorDeterministic(local.New(g), core.TestParams())
		if err != nil {
			return nil, fmt.Errorf("E8 m=%d: %w", m, err)
		}
		cliques := res.Stats.HardCliques
		bound := (16.0 - 2*core.TestParams().Eps*16 - 1) / 2
		t.AddRow(g.N(), 16, res.Stats.F1Size, res.Stats.F2Size, res.Stats.F3Size,
			float64(res.Stats.F2Size)/float64(cliques),
			float64(res.Stats.F3Size)/float64(cliques),
			fmt.Sprintf("< %.1f (checked)", bound))
	}
	return t, nil
}

// E9 — ablation: without the HEG rebalancing, the raw maximal matching
// leaves cliques without enough outgoing edges to form slack triads —
// the failure mode motivating Phase 1's proposal algorithm.
func E9(s Scale) (*Table, error) {
	t := &Table{
		ID:     "E9",
		Title:  "ablation — naive edge claiming vs HEG rebalancing (cliques left without 2 private matched edges)",
		Header: []string{"n", "cliques", "starved (naive, adversarial IDs)", "starved (after HEG)", "naive worst grabs/clique"},
	}
	ms := []int{16, 32}
	if s != Quick {
		ms = append(ms, 64, 128)
	}
	for _, m := range ms {
		g, _ := graph.HardCliqueBipartite(m, 16)
		// Adversarial IDs: every left-side vertex outranks every right-side
		// vertex, so under "higher ID claims the edge" the entire right
		// side is starved. (IDs only permute; the graph is unchanged.)
		adv := adversarialIDs(g)
		net := local.New(adv)
		a, err := acd.Compute(net, core.TestParams().Eps)
		if err != nil {
			return nil, err
		}
		var ext []graph.Edge
		for _, e := range adv.Edges() {
			if a.CliqueOf[e.U] != a.CliqueOf[e.V] {
				ext = append(ext, e)
			}
		}
		f1, err := matching.MaximalOn(net, ext)
		if err != nil {
			return nil, err
		}
		grabs := make([]int, len(a.Cliques))
		for _, e := range f1 {
			winner := e.U
			if adv.ID(e.V) > adv.ID(e.U) {
				winner = e.V
			}
			grabs[a.CliqueOf[winner]]++
		}
		starved, worst := 0, 1<<30
		for _, c := range grabs {
			if c < 2 {
				starved++
			}
			if c < worst {
				worst = c
			}
		}
		// The full pipeline on the same adversarial instance: Lemma 12/13
		// guarantee 2 private edges per clique or the run errors out.
		res, err := core.ColorDeterministic(local.New(adv), core.TestParams())
		if err != nil {
			return nil, err
		}
		starvedAfter := res.Stats.HardCliques - res.Stats.TypeI
		t.AddRow(adv.N(), len(a.Cliques), starved, starvedAfter, worst)
	}
	t.Notes = append(t.Notes,
		"half of all cliques are starved by the naive rule on this instance; the HEG-based proposal algorithm leaves none (column 4 counts only Type II cliques, which lean on easy neighbors instead)")
	return t, nil
}

// adversarialIDs gives the left half of the vertex range strictly larger
// IDs than the right half.
func adversarialIDs(g *graph.Graph) *graph.Graph {
	b := graph.NewBuilder(g.N())
	half := g.N() / 2
	for v := 0; v < g.N(); v++ {
		if v < half {
			b.SetID(v, uint64(g.N()+v))
		} else {
			b.SetID(v, uint64(v-half))
		}
		for _, w := range g.Neighbors(v) {
			if v < int(w) {
				b.AddEdge(v, int(w))
			}
		}
	}
	return b.MustBuild()
}

// E10 — the introduction's motivation: one-round random color trials give
// permanent slack to sparse vertices but almost none to dense ones.
func E10(s Scale) (*Table, error) {
	t := &Table{
		ID:     "E10",
		Title:  "permanent slack after one random color trial (sparse vs dense neighborhoods)",
		Header: []string{"family", "n", "Δ", "slack fraction", "colored fraction"},
	}
	rng := rand.New(rand.NewSource(57))
	type fam struct {
		name string
		g    *graph.Graph
	}
	var fams []fam
	hard, _ := graph.HardCliqueBipartite(16, 16)
	fams = append(fams,
		fam{"dense (hard cliques)", hard},
		fam{"sparse (random 16-regular)", graph.RandomRegular(512, 16, rng)},
		fam{"sparse (G(n,p), avg deg 12)", graph.ErdosRenyi(512, 12.0/511, rng)},
	)
	trials := 3
	if s == Quick {
		trials = 1
	}
	for _, f := range fams {
		slackSum, coloredSum := 0.0, 0.0
		for i := 0; i < trials; i++ {
			net := local.New(f.g)
			c := coloring.NewPartial(f.g.N())
			baseline.TrialColoring(net, c, f.g.MaxDegree(), 1, rng)
			slackSum += float64(baseline.PermanentSlack(f.g, c)) / float64(f.g.N())
			coloredSum += float64(c.CountColored()) / float64(f.g.N())
		}
		t.AddRow(f.name, f.g.N(), f.g.MaxDegree(), slackSum/float64(trials), coloredSum/float64(trials))
	}
	t.Notes = append(t.Notes,
		"slack fraction = vertices with two same-colored neighbors after ONE trial round; sparse vertices get slack for free, dense ones require the paper's coordinated slack triads")
	return t, nil
}

// E11 — the Figure 1 landscape: Δ+1-coloring is a greedy problem
// (log*-scale rounds, flat in n), Δ-coloring is not (logarithmic growth),
// and the loophole-layering baseline fails outright on hard instances.
func E11(s Scale) (*Table, error) {
	t := &Table{
		ID:     "E11",
		Title:  "problem landscape: Δ+1 (greedy regime) vs Δ-coloring (this paper) vs loophole baseline",
		Header: []string{"n", "Δ+1 rounds", "Δ rounds (ours)", "baseline outcome"},
	}
	for _, m := range s.sizesE1() {
		g, _ := graph.HardCliqueBipartite(m, 16)
		netPlus := local.New(g)
		if _, err := baseline.DeltaPlusOne(netPlus); err != nil {
			return nil, err
		}
		res, err := core.ColorDeterministic(local.New(g), core.TestParams())
		if err != nil {
			return nil, err
		}
		_, _, berr := baseline.LoopholeLayered(local.New(g), 60)
		outcome := "colored"
		if berr != nil {
			if errors.Is(berr, baseline.ErrStuck) {
				outcome = "stuck (no loopholes)"
			} else {
				outcome = "error"
			}
		}
		t.AddRow(g.N(), netPlus.Rounds(), res.Rounds, outcome)
	}
	t.Notes = append(t.Notes,
		"Δ+1 rounds are n-independent up to log* n; Δ-coloring pays the additional Θ(log n) global phases; the loophole-only baseline (prior deterministic approach, cf. [GHKM21]) cannot start on hard graphs")
	return t, nil
}

// E12 — Algorithm 3 / Lemma 20: easy cliques and loopholes are colored
// within the layer budget; the loophole baseline agrees on easy inputs.
func E12(s Scale) (*Table, error) {
	t := &Table{
		ID:     "E12",
		Title:  "easy cliques and loopholes (Lemma 20: layered coloring completes within the layer budget)",
		Header: []string{"family", "n", "layers used", "budget", "rounds", "baseline rounds"},
	}
	ks := []int{8, 16}
	if s != Quick {
		ks = append(ks, 32, 64)
	}
	for _, k := range ks {
		g, _ := graph.EasyCliqueRing(k, 16)
		res, err := core.ColorDeterministic(local.New(g), core.TestParams())
		if err != nil {
			return nil, fmt.Errorf("E12 k=%d: %w", k, err)
		}
		bnet := local.New(g)
		_, _, berr := baseline.LoopholeLayered(bnet, 80)
		baseRounds := "-"
		if berr == nil {
			baseRounds = fmt.Sprintf("%d", bnet.Rounds())
		}
		t.AddRow(fmt.Sprintf("easy ring k=%d", k), g.N(), res.Stats.Layers,
			core.TestParams().Layers, res.Rounds, baseRounds)
	}
	// Mixed instance: hard cliques force Algorithm 2, easy patch exercises
	// Algorithm 3 in the same run.
	g, _ := graph.HardWithEasyPatch(16, 16)
	res, err := core.ColorDeterministic(local.New(g), core.TestParams())
	if err != nil {
		return nil, err
	}
	t.AddRow("hard+easy patch", g.N(), res.Stats.Layers, core.TestParams().Layers, res.Rounds, "-")
	t.Notes = append(t.Notes,
		"the baseline greedily anchors at every non-overlapping loophole, which is cheap on benign instances; Algorithm 3's 6-ruling set costs more rounds but bounds the layer depth on adversarially overlapping loophole sets (and composes with Algorithm 2 on mixed instances, where the baseline cannot run at all)")
	return t, nil
}

// EDelta63 — reproduction finding: the brief announcement's Lemma 11
// arithmetic needs floor(|C|/28) > 1.05·r_H, which integer rounding breaks
// at exactly Δ=63; Δ >= 85 restores it. This runner demonstrates both.
func EDelta63(s Scale) (*Table, error) {
	t := &Table{
		ID:     "E13",
		Title:  "reproduction finding — Lemma 11 integer rounding at the paper's ε = 1/63",
		Header: []string{"Δ", "floor(|C|/28)", "r_H", "Lemma 11 check", "run outcome"},
	}
	if s == Quick {
		t.Notes = append(t.Notes, "skipped at quick scale (instances need n = 2Δ²)")
		return t, nil
	}
	for _, d := range []int{63, 85, 126} {
		if s != Full && d > 90 {
			continue
		}
		g, _ := graph.HardCliqueBipartite(d, d)
		res, err := core.ColorDeterministic(local.New(g), core.DefaultParams())
		subSize := d / core.DefaultSubcliques
		check := float64(subSize) > core.HEGSlack*2.0 // r_H = 2 on this family
		outcome := "colored"
		if err != nil {
			outcome = "rejected: " + errString(err)
		} else if res == nil {
			outcome = "?"
		}
		t.AddRow(d, subSize, 2, check, outcome)
	}
	t.Notes = append(t.Notes,
		"at Δ=63 each sub-clique has only floor(63/28)=2 members versus rank 2: the claimed δ_H > 1.1·r_H fails by integer rounding; the implementation detects this and refuses, while Δ >= 85 satisfies the lemma as stated")
	return t, nil
}

func errString(err error) string {
	s := err.Error()
	if len(s) > 60 {
		return s[:57] + "..."
	}
	return s
}

// E15 — ablation: the Section 1.1 "extremely dense" sketch (slack triads
// from a k-out sinkless orientation of the clique graph) versus the general
// Algorithm 2 pipeline (matching + HEG + splitting) on the family where
// both apply.
func E15(s Scale) (*Table, error) {
	t := &Table{
		ID:     "E15",
		Title:  "ablation — Section 1.1 sketch (sinkless orientation) vs full Algorithm 2 on |C| = Δ instances",
		Header: []string{"n", "sketch rounds", "alg2 rounds", "sketch triads", "alg2 triads"},
	}
	ms := []int{16, 32}
	if s != Quick {
		ms = append(ms, 64, 128)
	}
	for _, m := range ms {
		g, _ := graph.HardCliqueBipartite(m, 16)
		simple, err := core.ColorSimpleDense(local.New(g), core.TestParams())
		if err != nil {
			return nil, fmt.Errorf("E15 m=%d simple: %w", m, err)
		}
		general, err := core.ColorDeterministic(local.New(g), core.TestParams())
		if err != nil {
			return nil, fmt.Errorf("E15 m=%d general: %w", m, err)
		}
		t.AddRow(g.N(), simple.Rounds, general.Rounds, simple.Stats.Triads, general.Stats.Triads)
	}
	t.Notes = append(t.Notes,
		"the sketch replaces matching + hyperedge grabbing + degree splitting by one k-out sinkless orientation; it only works when every almost clique is a hard clique of size exactly Δ, which is why the paper generalizes it")
	return t, nil
}

// Reduction sanity used by E11's note: log* growth demonstration for the
// Δ+1 substrate on cycles.
func LogStarDemo(s Scale) (*Table, error) {
	t := &Table{
		ID:     "E14",
		Title:  "Θ(log* n) substrate check — Linial coloring rounds on cycles",
		Header: []string{"n", "rounds", "colors"},
	}
	ns := []int{1 << 8, 1 << 12}
	if s != Quick {
		ns = append(ns, 1<<16, 1<<20)
	}
	for _, n := range ns {
		net := local.New(graph.Cycle(n))
		colors, err := linial.Color(net, 3)
		rounds := net.Rounds()
		net.Close()
		if err != nil {
			return nil, err
		}
		max := 0
		for _, c := range colors {
			if c > max {
				max = c
			}
		}
		t.AddRow(n, rounds, max+1)
	}
	t.Notes = append(t.Notes, "rounds are essentially flat across four orders of magnitude — the log* regime of Figure 1's greedy problems")
	return t, nil
}

// E16 — sensitivity: the pre-shattering T-node density (TProb) against
// shattering quality and total rounds. The paper leaves the placement
// probability as a tunable; this sweep shows the tradeoff between the
// pre-shattering work (more T-nodes) and the post-shattering component
// sizes (fewer T-nodes).
func E16(s Scale) (*Table, error) {
	t := &Table{
		ID:     "E16",
		Title:  "sensitivity — T-node density vs shattering (Δ=16 hard family)",
		Header: []string{"TProb", "seed", "T-kept", "components", "max comp", "comp rounds", "total rounds"},
	}
	m := 32
	if s == Full {
		m = 64
	}
	g, _ := graph.HardCliqueBipartite(m, 16)
	probs := []float64{0.05, 0.25, 0.5, 1.0}
	for _, prob := range probs {
		for _, seed := range s.seeds() {
			rng := rand.New(rand.NewSource(seed))
			p := core.TestRandomizedParams()
			p.TProb = prob
			res, err := core.ColorRandomized(local.New(g), p, rng)
			if err != nil {
				return nil, fmt.Errorf("E16 p=%.2f seed=%d: %w", prob, seed, err)
			}
			t.AddRow(prob, seed, res.Rand.TNodesKept, res.Rand.Components,
				res.Rand.MaxComponent, res.Rand.ComponentRounds, res.Rounds)
		}
	}
	t.Notes = append(t.Notes,
		"sparser T-nodes leave larger components whose deterministic post-shattering dominates the rounds; dense T-nodes shrink components at a small pre-shattering cost — any constant probability works asymptotically, which is the paper's point")
	return t, nil
}
