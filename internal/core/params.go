// Package core implements the paper's main contribution: deterministic
// (Theorem 1, Algorithms 1-3) and randomized (Theorem 2, Algorithm 4)
// Δ-coloring of dense graphs in the LOCAL model.
//
// The deterministic pipeline follows Algorithm 1:
//
//  1. compute the almost-clique decomposition (internal/acd),
//  2. classify cliques hard/easy (internal/loophole) and color all hard
//     cliques via the slack-triad machinery of Algorithm 2 (hard.go),
//  3. color easy cliques and loopholes via Algorithm 3 (easy.go).
//
// Every lemma-level invariant the proofs rely on (Lemmas 9-17) is checked
// at runtime and turned into an error when violated, so a successful run is
// a machine-checked certificate for the instance at hand.
package core

import (
	"errors"
	"fmt"
)

// Default parameter values from the paper.
const (
	// DefaultEps is ε = 1/63 (Lemma 2, Definition 4).
	DefaultEps = 1.0 / 63.0
	// DefaultSubcliques is the number of sub-cliques each hard clique is
	// partitioned into for the HEG instance (Section 3.3). The value 28
	// is what makes Lemma 11's arithmetic work at ε = 1/63.
	DefaultSubcliques = 28
	// DefaultSplitLevels is i = 2 in Corollary 22: split into 2² = 4 parts.
	DefaultSplitLevels = 2
	// DefaultSplitEps is ε' = 1/100 (Lemma 13).
	DefaultSplitEps = 1.0 / 100.0
	// DefaultRulingR is the ruling-set radius for the loophole graph
	// (Algorithm 3, line 3).
	DefaultRulingR = 6
	// DefaultLayers is the BFS depth around ruling-set loopholes
	// (Algorithm 3, line 4; the paper uses 25, we allow a little margin
	// because our loophole-graph adjacency is defined on witness sets of
	// diameter up to 3).
	DefaultLayers = 30
	// HEGSlack is the required ratio δ_H / r_H (Lemma 11 proves 1.1 at the
	// default parameters).
	HEGSlack = 1.05
)

// Params configures the pipeline. The zero value is not valid; start from
// DefaultParams. Non-default values break the paper's constant arithmetic
// for small Δ and are intended for experiments only — Validate enforces the
// relations the proofs need.
type Params struct {
	// Eps is the ACD parameter ε.
	Eps float64
	// Subcliques is P, the per-clique partition size of the HEG instance.
	Subcliques int
	// SplitLevels is i of Corollary 22 (2^i parts).
	SplitLevels int
	// SplitEps is ε' of Lemma 13.
	SplitEps float64
	// RulingR is the ruling-set radius on the loophole graph.
	RulingR int
	// Layers is the BFS layering depth of Algorithm 3.
	Layers int
}

// DefaultParams returns the paper's parameterization.
func DefaultParams() Params {
	return Params{
		Eps:         DefaultEps,
		Subcliques:  DefaultSubcliques,
		SplitLevels: DefaultSplitLevels,
		SplitEps:    DefaultSplitEps,
		RulingR:     DefaultRulingR,
		Layers:      DefaultLayers,
	}
}

// Validate checks internal consistency of the parameters for a graph with
// maximum degree delta.
func (p Params) Validate(delta int) error {
	if p.Eps <= 0 || p.Eps >= 1 {
		return fmt.Errorf("core: Eps must be in (0,1), got %v", p.Eps)
	}
	if p.Subcliques < 1 {
		return fmt.Errorf("core: Subcliques must be positive, got %d", p.Subcliques)
	}
	// SplitLevels 0 skips Phase 2's splitting entirely (scaled-down test
	// preset); the Lemma 13 incoming bound is still verified at runtime.
	if p.SplitLevels < 0 || p.SplitEps <= 0 || p.SplitEps >= 1 {
		return fmt.Errorf("core: invalid split config (levels=%d, eps=%v)", p.SplitLevels, p.SplitEps)
	}
	if p.RulingR < 1 || p.Layers < p.RulingR {
		return fmt.Errorf("core: invalid loophole config (r=%d, layers=%d)", p.RulingR, p.Layers)
	}
	// Lemma 11 arithmetic: each sub-clique must send enough proposals:
	// (Δ - εΔ)/P must exceed the HEG slack times the max rank 2εΔ.
	if delta > 0 {
		proposals := (float64(delta) - p.Eps*float64(delta)) / float64(p.Subcliques)
		rank := 2 * p.Eps * float64(delta)
		if rank >= 1 && proposals <= HEGSlack*rank {
			return refuse(fmt.Errorf("core: Lemma 11 slack violated: %d sub-cliques give %.2f proposals vs rank %.2f",
				p.Subcliques, proposals, rank))
		}
	}
	return nil
}

// MaxPairVertices is the Lemma 15(iii) bound on slack-pair vertices per
// clique: (Δ - 2εΔ - 1)/2 + 1.
func (p Params) MaxPairVertices(delta int) float64 {
	return (float64(delta)-2*p.Eps*float64(delta)-1)/2 + 1
}

// Errors the driver distinguishes for callers.
var (
	// ErrNotDense is returned when the ACD finds sparse vertices
	// (Definition 4 fails); the paper's algorithm only covers dense
	// graphs.
	ErrNotDense = errors.New("core: graph is not dense (ACD has sparse vertices)")
	// ErrBrooks is returned for Brooks exceptions: the graph contains a
	// (Δ+1)-clique and admits no Δ-coloring.
	ErrBrooks = errors.New("core: graph contains a (Δ+1)-clique; no Δ-coloring exists")
	// ErrLemmaViolated marks a deterministic refusal: a bound of Lemmas
	// 10–17 does not hold for these parameters on this instance (the
	// scaled presets' constants are looser than the paper's). The same
	// input and parameters refuse the same way every time; each refusal
	// keeps its own message naming the lemma.
	ErrLemmaViolated = errors.New("core: a lemma's bound does not hold at these parameters")
)

// refuse marks err, a failed Lemma 10–17 bound, as ErrLemmaViolated
// without changing its message.
func refuse(err error) error { return lemmaError{err} }

type lemmaError struct{ error }

func (e lemmaError) Unwrap() []error { return []error{e.error, ErrLemmaViolated} }
