package core

import (
	"deltacoloring/internal/acd"
	"deltacoloring/internal/coloring"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/heg"
	"deltacoloring/internal/loophole"
	"deltacoloring/internal/sinkless"
)

// Checkpoint artifacts: the intermediate state the pipelines publish to
// local.Network.Checkpoint at their span boundaries, so an installed check
// hook (internal/invariant's Harness) can validate mid-run guarantees
// against the paper's lemmas instead of only seeing the final coloring.
//
// Artifacts wrap live pipeline state — the hook runs synchronously on the
// algorithm's goroutine, so reading (but not retaining) the slices is safe.
// With no hook installed, Checkpoint is a no-op and the wrappers cost one
// small allocation per phase per run.

// CkptACD is the almost-clique decomposition of Algorithm 1 line 1
// (phase <prefix>/acd of every driver). Invariant: acd.(*ACD).Verify.
type CkptACD struct {
	A *acd.ACD
}

// CkptClassification is the hard/easy clique classification with loophole
// witnesses (phase <prefix>/classify of every driver).
// Invariant: loophole.VerifyHard (Lemma 9).
type CkptClassification struct {
	A  *acd.ACD
	Cl *loophole.Classification
}

// CkptMatching is the maximal matching F1 on E_hard (phase alg2/matching).
// Invariant: matching.Verify (Step 1).
type CkptMatching struct {
	Matched []graph.Edge
	Within  []graph.Edge
}

// CkptHEG is the solved hypergraph-edge-grabbing instance (phase alg2/heg).
// Invariant: heg.Verify (Section 3.3).
type CkptHEG struct {
	H    *heg.Hypergraph
	Grab []int
}

// CkptSplit is the degree splitting of the virtual multigraph G_Q
// (phase alg2/sparsify). Invariant: split.VerifyParts (Corollary 22); with
// Levels == 0 the single trivial part always satisfies the band.
type CkptSplit struct {
	N      int
	Edges  []graph.Edge
	Part   []int
	Levels int
	Eps    float64
}

// CkptTriads is the slack-triad selection (phases alg2/triads,
// simple/triads). Invariant: Definition 14 plus Lemma 15(ii) disjointness.
type CkptTriads struct {
	Triads []Triad
}

// CkptColoring is a snapshot of the (partial or complete) coloring over the
// real graph (phases alg2/pairs, alg2/rest, alg3/layers, alg4/preshatter,
// alg4/happylayers, final). Invariants: coloring.VerifyProper, and
// coloring.VerifyComplete when Complete is set.
type CkptColoring struct {
	C         *coloring.Partial
	NumColors int
	Complete  bool
}

// CkptRulingSet is the ruling set over the virtual loophole graph G_L
// (phase alg3/rulingset). Invariant: rulingset.VerifyRulingSet at radius R.
type CkptRulingSet struct {
	G  *graph.Graph
	In []bool
	R  int
}

// CkptOrientation is the k-out orientation of the virtual clique graph H
// (phase simple/orientation). Invariant: sinkless.VerifyKOut.
type CkptOrientation struct {
	G *graph.Graph
	O *sinkless.Orientation
	K int
}
