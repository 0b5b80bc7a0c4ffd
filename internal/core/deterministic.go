package core

import (
	"fmt"

	"deltacoloring/internal/acd"
	"deltacoloring/internal/coloring"
	"deltacoloring/internal/heg"
	"deltacoloring/internal/local"
	"deltacoloring/internal/loophole"
)

// Stats reports structural and algorithmic measurements of one run; the
// experiment harness consumes these.
type Stats struct {
	N, Delta    int
	NumCliques  int
	HardCliques int
	EasyCliques int
	TypeI       int
	TypeII      int
	F1Size      int
	F2Size      int
	F3Size      int
	Triads      int
	// PairGraphMaxDeg is the maximum degree of the slack-pair conflict
	// graph G_V (Lemma 16 bounds it by Δ-2).
	PairGraphMaxDeg int
	// HypergraphRank and HypergraphMinDeg describe the HEG instance
	// (Lemma 11: minDeg > 1.05 * rank).
	HypergraphRank   int
	HypergraphMinDeg int
	HEG              heg.Stats
	// Layers is the deepest BFS layer used by Algorithm 3.
	Layers int
}

// Result is the outcome of a Δ-coloring run.
type Result struct {
	// Coloring is a complete proper coloring with colors in [0, Δ).
	Coloring *coloring.Partial
	// Rounds is the total LOCAL rounds charged.
	Rounds int
	// Spans is the per-phase round breakdown.
	Spans []local.Span
	// Frontier aggregates the engine's activation accounting (sparse vs
	// dense rounds, evaluations performed vs skipped).
	Frontier local.FrontierStats
	// Stats carries structural measurements.
	Stats Stats
}

// ColorDeterministic runs Theorem 1's deterministic Δ-coloring algorithm
// (Algorithm 1) on net's graph, which must be dense (Definition 4 at
// p.Eps) and contain no (Δ+1)-clique. Every lemma-level invariant is
// verified during the run; violations surface as errors rather than bad
// colorings.
func ColorDeterministic(net *local.Network, p Params) (*Result, error) {
	return colorAlgorithm1(net, p, "alg1", (*hardPipeline).selectTriadsByHEG)
}

// colorAlgorithm1 runs Algorithm 1 with a pluggable triad selection for
// Algorithm 2. The deterministic driver and the ruling-subgraph route
// differ only in that step and in the prefix of their front-half spans.
func colorAlgorithm1(net *local.Network, p Params, prefix string, selectTriads func(*hardPipeline) error) (*Result, error) {
	g := net.Graph()
	delta := g.MaxDegree()
	if err := p.Validate(delta); err != nil {
		return nil, err
	}
	res := &Result{Coloring: coloring.NewPartial(g.N())}
	res.Stats.N = g.N()
	res.Stats.Delta = delta
	if g.N() == 0 {
		return res, nil
	}
	if delta == 0 {
		// Isolated vertices: Δ-coloring needs at least one color; Δ = 0
		// means the empty palette.
		return nil, fmt.Errorf("core: Δ = 0 graph has no colors to assign")
	}

	// Algorithm 1, line 1: the ACD and the hard/easy classification.
	a, cl, err := decompose(net, p.Eps, prefix, &res.Stats)
	if err != nil {
		return nil, err
	}

	// Algorithm 1, line 2: color hard cliques (Algorithm 2).
	hp := newHardPipeline(net, a, wholeGraphSpec(a, cl), p, res.Coloring, &res.Stats)
	if err := hp.run(selectTriads); err != nil {
		return nil, err
	}

	// Algorithm 1, line 3: color easy cliques and loopholes (Algorithm 3).
	ec := &easyColorer{hp: hp}
	if err := ec.run(); err != nil {
		return nil, err
	}
	if err := finish(net, res); err != nil {
		return nil, err
	}
	return res, nil
}

// decompose is the front half every driver shares. It computes the ACD
// (Algorithm 1, line 1), rejects sparse inputs and Brooks exceptions, and
// classifies the almost cliques hard or easy (Definition 8) behind the
// Lemma 9 safety net. The two steps run under the spans and checkpoints
// prefix/acd and prefix/classify.
func decompose(net *local.Network, eps float64, prefix string, st *Stats) (*acd.ACD, *loophole.Classification, error) {
	g := net.Graph()
	doneACD := net.Phase(prefix + "/acd")
	a, err := acd.Compute(net, eps)
	if err == nil {
		err = net.Checkpoint(prefix+"/acd", &CkptACD{A: a})
	}
	doneACD()
	if err != nil {
		return nil, nil, err
	}
	if !a.IsDense() {
		return nil, nil, fmt.Errorf("%w: %d sparse vertices", ErrNotDense, a.SparseCount())
	}
	st.NumCliques = len(a.Cliques)

	// Brooks exception: a (Δ+1)-clique admits no Δ-coloring.
	for _, members := range a.Cliques {
		if len(members) == g.MaxDegree()+1 && g.IsClique(members) {
			return nil, nil, ErrBrooks
		}
	}

	doneCl := net.Phase(prefix + "/classify")
	cl := loophole.Classify(g, a)
	err = loophole.VerifyHard(g, a, cl)
	if err == nil {
		err = net.Checkpoint(prefix+"/classify", &CkptClassification{A: a, Cl: cl})
	}
	net.Charge(3) // loophole detection inspects radius-3 balls
	doneCl()
	if err != nil {
		return nil, nil, err
	}
	return a, cl, nil
}

// wholeGraphSpec is the instance of the whole classified graph: the hard
// cliques go to Algorithm 2, the easy ones to Algorithm 3 with their
// loophole witnesses.
func wholeGraphSpec(a *acd.ACD, cl *loophole.Classification) instanceSpec {
	spec := instanceSpec{hardLike: make([]bool, len(a.Cliques)), witness: cl.Witness}
	for ci := range a.Cliques {
		spec.hardLike[ci] = !cl.Easy[ci]
	}
	return spec
}

// finish is the epilogue every driver shares: it verifies the complete
// Δ-coloring, publishes the "final" checkpoint, and records the run's
// rounds, spans and frontier accounting in res.
func finish(net *local.Network, res *Result) error {
	if err := coloring.VerifyComplete(net.Graph(), res.Coloring, res.Stats.Delta); err != nil {
		return fmt.Errorf("core: final verification: %w", err)
	}
	if err := net.Checkpoint("final", &CkptColoring{C: res.Coloring, NumColors: res.Stats.Delta, Complete: true}); err != nil {
		return err
	}
	res.Rounds = net.Rounds()
	res.Spans = net.Spans()
	res.Frontier = net.FrontierStats()
	return nil
}

// TestParams returns a scaled-down parameterization for graphs with
// moderate Δ (around 16-32), where the paper's ε = 1/63 constants are
// unsatisfiable. The runtime invariant checks still guard every lemma, so
// a successful run remains a machine-checked certificate; only the
// worst-case constant guarantees of Lemmas 11/13 are weakened. See
// DESIGN.md ("parameter presets").
func TestParams() Params {
	return Params{
		Eps:         1.0 / 16.0,
		Subcliques:  4,
		SplitLevels: 0,
		SplitEps:    1.0 / 16.0,
		RulingR:     DefaultRulingR,
		Layers:      DefaultLayers,
	}
}
