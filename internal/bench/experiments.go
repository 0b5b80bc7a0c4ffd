package bench

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"deltacoloring/internal/core"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/heg"
	"deltacoloring/internal/local"
	"deltacoloring/internal/split"
)

// Experiments lists every experiment of EXPERIMENTS.md, in report order,
// each under the ID its table carries.
var Experiments = []struct {
	ID  string
	Run func(Scale) (*Table, error)
}{
	{"E1", E1}, {"E2", E2}, {"E3", E3}, {"E4", E4},
	{"E5", E5}, {"E6", E6}, {"E7", E7}, {"E8", E8},
	{"E9", E9}, {"E10", E10}, {"E11", E11}, {"E12", E12},
	{"E13", EDelta63}, {"E14", LogStarDemo}, {"E15", E15},
	{"E16", E16}, {"E18", E18}, {"E19", E19},
}

// spanRounds extracts the rounds of the first span whose name has the given
// prefix (0 if absent).
func spanRounds(spans []local.Span, prefix string) int {
	total := 0
	for _, s := range spans {
		if len(s.Name) >= len(prefix) && s.Name[:len(prefix)] == prefix {
			total += s.Rounds
		}
	}
	return total
}

// E1 — Theorem 1: deterministic round complexity scales as O(log n) at
// constant Δ on the hard dense family.
func E1(s Scale) (*Table, error) {
	t := &Table{
		ID:     "E1",
		Title:  "deterministic rounds vs n at Δ=16 (claim: O(log n); hard clique family)",
		Header: []string{"n", "log2(n)", "rounds", "alg2:match", "alg2:heg", "alg2:sparsify", "alg2:color", "rounds/log2(n)"},
	}
	const delta = 16
	for _, m := range s.sizesE1() {
		g, _ := graph.HardCliqueBipartite(m, delta)
		net := local.New(g)
		res, err := core.ColorDeterministic(net, core.TestParams())
		if err != nil {
			return nil, fmt.Errorf("E1 m=%d: %w", m, err)
		}
		lg := math.Log2(float64(g.N()))
		colorRounds := spanRounds(res.Spans, "alg2/pairs") + spanRounds(res.Spans, "alg2/rest")
		t.AddRow(g.N(), lg, res.Rounds,
			spanRounds(res.Spans, "alg2/matching"),
			spanRounds(res.Spans, "alg2/heg"),
			spanRounds(res.Spans, "alg2/sparsify"),
			colorRounds,
			float64(res.Rounds)/lg)
	}
	t.Notes = append(t.Notes,
		"the symmetry-breaking subroutines contribute a large n-independent constant (our deg+1 substrate is O(Δ² + log* n)); the n-dependence lives in the HEG and sparsify columns",
		"shape check: total rounds grow by a bounded additive amount per doubling of n (logarithmic), never multiplicatively")
	return t, nil
}

// E2 — Theorem 1: the O(Δ + log n) branch; rounds vs Δ at (near-)fixed n.
func E2(s Scale) (*Table, error) {
	t := &Table{
		ID:     "E2",
		Title:  "deterministic rounds vs Δ (claim: polynomial in Δ, no n blow-up; paper branch is O(Δ + log n))",
		Header: []string{"Δ", "n", "rounds", "G_V maxdeg", "bound Δ-2"},
	}
	deltas := []int{16, 24, 32}
	if s == Full {
		deltas = append(deltas, 48, 64)
	}
	for _, d := range deltas {
		m := d
		if m < 24 {
			m = 24
		}
		g, _ := graph.HardCliqueBipartite(m, d)
		p := core.TestParams()
		res, err := core.ColorDeterministic(local.New(g), p)
		if err != nil {
			return nil, fmt.Errorf("E2 Δ=%d: %w", d, err)
		}
		t.AddRow(d, g.N(), res.Rounds, res.Stats.PairGraphMaxDeg, d-2)
	}
	t.Notes = append(t.Notes,
		"our deg+1-list substrate costs O(Δ² ) instead of the paper's O(√(Δ log Δ)) [MT20], so the Δ-dependence here is quadratic; the claim preserved is that rounds depend on Δ and log n only")
	return t, nil
}

// E3 — Theorem 2: randomized rounds and shattering behaviour vs n.
func E3(s Scale) (*Table, error) {
	t := &Table{
		ID:     "E3",
		Title:  "randomized algorithm vs n at Δ=16 (claim: shattered components stay small; rounds ~ O(Δ + log log n))",
		Header: []string{"n", "seed", "rounds", "T-kept", "components", "max comp", "comp rounds"},
	}
	const delta = 16
	for _, m := range s.sizesE1() {
		g, _ := graph.HardCliqueBipartite(m, delta)
		for _, seed := range s.seeds() {
			rng := rand.New(rand.NewSource(seed))
			res, err := core.ColorRandomized(local.New(g), core.TestRandomizedParams(), rng)
			if err != nil {
				return nil, fmt.Errorf("E3 m=%d seed=%d: %w", m, seed, err)
			}
			t.AddRow(g.N(), seed, res.Rounds, res.Rand.TNodesKept,
				res.Rand.Components, res.Rand.MaxComponent, res.Rand.ComponentRounds)
		}
	}
	t.Notes = append(t.Notes,
		"max component size should grow far slower than n (poly Δ · log n in the paper's analysis)")
	return t, nil
}

// E4 — validity: every run on every supported family yields a verified
// Δ-coloring; unsupported inputs fail loudly.
func E4(s Scale) (*Table, error) {
	t := &Table{
		ID:     "E4",
		Title:  "validity across graph families (claim: proper complete Δ-colorings, machine-verified)",
		Header: []string{"family", "n", "Δ", "algorithm", "outcome", "rounds"},
	}
	type inst struct {
		name string
		g    *graph.Graph
	}
	hard, _ := graph.HardCliqueBipartite(16, 16)
	easy, _ := graph.EasyCliqueRing(8, 16)
	mixed, _ := graph.HardWithEasyPatch(16, 16)
	k17 := graph.RemoveEdges(graph.Complete(17), []graph.Edge{{U: 0, V: 1}})
	families := []inst{
		{"hard-bipartite", hard},
		{"easy-ring", easy},
		{"hard+easy-patch", mixed},
		{"K17-minus-edge", k17},
	}
	for _, f := range families {
		res, err := core.ColorDeterministic(local.New(f.g), core.TestParams())
		if err != nil {
			return nil, fmt.Errorf("E4 %s: %w", f.name, err)
		}
		t.AddRow(f.name, f.g.N(), f.g.MaxDegree(), "deterministic", "valid", res.Rounds)
		for _, seed := range s.seeds() {
			rng := rand.New(rand.NewSource(seed))
			rres, err := core.ColorRandomized(local.New(f.g), core.TestRandomizedParams(), rng)
			if err != nil {
				return nil, fmt.Errorf("E4 %s rand: %w", f.name, err)
			}
			t.AddRow(f.name, f.g.N(), f.g.MaxDegree(), fmt.Sprintf("randomized(%d)", seed), "valid", rres.Rounds)
		}
	}
	// Negative controls.
	brooks := graph.Union(graph.Complete(17), graph.Complete(17))
	if _, err := core.ColorDeterministic(local.New(brooks), core.TestParams()); !errors.Is(err, core.ErrBrooks) {
		return nil, fmt.Errorf("E4: Brooks control not rejected: %v", err)
	}
	t.AddRow("2xK17 (Brooks)", brooks.N(), brooks.MaxDegree(), "deterministic", "rejected (ErrBrooks)", "-")
	sparse := graph.Torus(10, 10)
	if _, err := core.ColorDeterministic(local.New(sparse), core.TestParams()); !errors.Is(err, core.ErrNotDense) {
		return nil, fmt.Errorf("E4: sparse control not rejected: %v", err)
	}
	t.AddRow("torus (sparse)", sparse.N(), sparse.MaxDegree(), "deterministic", "rejected (ErrNotDense)", "-")
	return t, nil
}

// E5 — Lemma 5/11: hyperedge grabbing solves in logarithmic rounds when
// δ > 1.05·r, and the pipeline's instances satisfy the slack.
func E5(s Scale) (*Table, error) {
	t := &Table{
		ID:     "E5",
		Title:  "hyperedge grabbing vs n and slack δ/r (Lemma 5: O(log_{δ/r} n) rounds; Lemma 11: pipeline instances have slack)",
		Header: []string{"instance", "n(H)", "rank", "minDeg", "δ/r", "proposal rds", "aug waves", "max path"},
	}
	rng := rand.New(rand.NewSource(55))
	sizes := []int{200, 1000}
	if s == Full {
		sizes = append(sizes, 5000, 20000)
	}
	for _, n := range sizes {
		for _, cfg := range []struct{ r, del int }{{3, 4}, {4, 6}, {4, 9}} {
			h := randomHypergraph(n, 3*n, cfg.del, cfg.r, rng)
			net := local.New(graph.Path(2))
			grab, st, err := heg.Solve(net, h)
			if err != nil {
				return nil, fmt.Errorf("E5 n=%d: %w", n, err)
			}
			if err := heg.Verify(h, grab); err != nil {
				return nil, err
			}
			ratio := float64(h.MinDegree()) / float64(h.Rank())
			t.AddRow(fmt.Sprintf("synthetic r=%d δ=%d", cfg.r, cfg.del), n, h.Rank(), h.MinDegree(),
				ratio, st.ProposalRounds, st.AugmentWaves, st.MaxPathLen)
		}
	}
	// Pipeline-extracted instance.
	g, _ := graph.HardCliqueBipartite(32, 16)
	res, err := core.ColorDeterministic(local.New(g), core.TestParams())
	if err != nil {
		return nil, err
	}
	t.AddRow("pipeline Δ=16 m=32", "-", res.Stats.HypergraphRank, res.Stats.HypergraphMinDeg,
		float64(res.Stats.HypergraphMinDeg)/float64(res.Stats.HypergraphRank),
		res.Stats.HEG.ProposalRounds, res.Stats.HEG.AugmentWaves, res.Stats.HEG.MaxPathLen)
	t.Notes = append(t.Notes,
		"higher δ/r slack shrinks both the proposal rounds and the augmenting-path lengths, matching the O(log_{δ/r} n) bound")
	return t, nil
}

func randomHypergraph(n, numEdges, del, r int, rng *rand.Rand) *heg.Hypergraph {
	edges := make([][]int, numEdges)
	for v := 0; v < n; v++ {
		placed := 0
		for tries := 0; placed < del && tries < 100000; tries++ {
			e := rng.Intn(numEdges)
			if len(edges[e]) < r && !containsInt(edges[e], v) {
				edges[e] = append(edges[e], v)
				placed++
			}
		}
	}
	var nonEmpty [][]int
	for _, e := range edges {
		if len(e) > 0 {
			nonEmpty = append(nonEmpty, e)
		}
	}
	h, err := heg.NewHypergraph(n, nonEmpty)
	if err != nil {
		panic(err)
	}
	return h
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// E6 — Lemma 21/Corollary 22: degree-splitting discrepancy stays within the
// ε·d + a band.
func E6(s Scale) (*Table, error) {
	t := &Table{
		ID:     "E6",
		Title:  "degree splitting discrepancy (Cor. 22 band: deg/2^i ± (ε·deg + a))",
		Header: []string{"d", "n", "levels", "ε", "worst |dev|", "band", "ok"},
	}
	rng := rand.New(rand.NewSource(56))
	ns := []int{100}
	if s != Quick {
		ns = append(ns, 400)
	}
	for _, n := range ns {
		for _, d := range []int{8, 16, 28} {
			for _, cfg := range []struct {
				levels int
				eps    float64
			}{{1, 0.25}, {2, 0.1}, {2, 1.0 / 100}} {
				g := graph.RandomRegular(n, d, rng)
				edges := g.Edges()
				part, err := split.Split(local.New(g), g.N(), edges, cfg.levels, cfg.eps)
				if err != nil {
					return nil, fmt.Errorf("E6 n=%d d=%d: %w", n, d, err)
				}
				if err := split.VerifyParts(g.N(), edges, part, cfg.levels, cfg.eps); err != nil {
					return nil, err
				}
				worst := worstDeviation(g.N(), edges, part, cfg.levels)
				a := 0.0
				for j := 0; j < cfg.levels; j++ {
					a += 2 * math.Pow(0.5+cfg.eps/4, float64(j))
				}
				band := cfg.eps*float64(d) + a
				t.AddRow(d, n, cfg.levels, fmt.Sprintf("%.3f", cfg.eps), worst, band, worst <= band)
			}
		}
	}
	return t, nil
}

func worstDeviation(n int, edges []graph.Edge, part []int, levels int) float64 {
	k := 1 << levels
	deg := make([]int, n)
	cnt := make([][]int, k)
	for p := range cnt {
		cnt[p] = make([]int, n)
	}
	for e, lbl := range part {
		deg[edges[e].U]++
		deg[edges[e].V]++
		cnt[lbl][edges[e].U]++
		cnt[lbl][edges[e].V]++
	}
	worst := 0.0
	for v := 0; v < n; v++ {
		want := float64(deg[v]) / float64(k)
		for p := 0; p < k; p++ {
			if dev := math.Abs(float64(cnt[p][v]) - want); dev > worst {
				worst = dev
			}
		}
	}
	return worst
}
