// Package invariant ("deltacheck") is the unified conformance harness for
// the Δ-coloring pipelines. It registers every Verify* function in the
// repository behind one Checker interface with phase tags, consumes the
// intermediate artifacts the pipelines publish via local.Network.Checkpoint
// at their span boundaries, replays workloads against sequential reference
// oracles, and asserts metamorphic relations (worker count, engine choice,
// fault-plan replay). See DESIGN.md §10 for the contract.
package invariant

import (
	"fmt"
	"sort"
	"sync"

	"deltacoloring/internal/core"
	"deltacoloring/internal/dynamic"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/heg"
	"deltacoloring/internal/local"
	"deltacoloring/internal/loophole"
	"deltacoloring/internal/matching"
	"deltacoloring/internal/repair"
	"deltacoloring/internal/rulingset"
	"deltacoloring/internal/shard"
	"deltacoloring/internal/sinkless"
	"deltacoloring/internal/split"

	"deltacoloring/internal/coloring"
)

// Checker adapts one Verify* function to the harness. A checker fires when
// a checkpoint's phase tag is in Phases (nil matches every phase) and its
// Check recognizes the artifact type.
type Checker struct {
	// Invariant names the guarantee, e.g. "matching/maximal".
	Invariant string
	// Phases lists the span names whose checkpoints this checker consumes;
	// nil means every phase publishing a recognized artifact.
	Phases []string
	// Check validates one artifact against the run's root graph g. The
	// boolean reports whether the artifact type was recognized at all; a
	// non-nil error is an invariant violation.
	Check func(g *graph.Graph, artifact any) (bool, error)
}

// Violation is the harness's error type: it names the pipeline phase and
// the invariant that failed, wrapping the verifier's own (vertex- or
// edge-naming) error.
type Violation struct {
	Phase     string
	Invariant string
	Err       error
}

func (v *Violation) Error() string {
	return fmt.Sprintf("invariant: phase %s: %s: %v", v.Phase, v.Invariant, v.Err)
}

func (v *Violation) Unwrap() error { return v.Err }

// Record is one checker firing.
type Record struct {
	Phase     string
	Invariant string
}

// Harness validates one run: attach it to the run's Network and every
// checkpoint the pipeline publishes is dispatched to the registered
// checkers. The zero value is not usable; call NewHarness.
type Harness struct {
	g        *graph.Graph
	checkers []Checker

	mu      sync.Mutex
	records []Record
	// corrupt names a phase whose next artifact is deliberately damaged
	// before checking (the negative-control self-test); corruptMiss records
	// that the artifact was empty and could not be damaged.
	corrupt     string
	corruptMiss bool
}

// NewHarness returns a harness over the run's root graph with the default
// checker registry (every Verify* in the repository).
func NewHarness(g *graph.Graph) *Harness {
	return &Harness{g: g, checkers: DefaultCheckers()}
}

// Register appends extra checkers.
func (h *Harness) Register(cs ...Checker) { h.checkers = append(h.checkers, cs...) }

// Attach installs the harness as net's check hook. Artifacts published on
// net are checked against net's own graph, so one harness can follow a
// dynamic store whose maintenance networks run over successive snapshots.
func (h *Harness) Attach(net *local.Network) {
	g := net.Graph()
	net.SetCheckHook(func(phase string, artifact any) error { return h.observe(g, phase, artifact) })
}

// CorruptPhase arms the negative control: the next artifact published under
// the given phase tag is damaged in place before checking, so a healthy
// pipeline run must end in a *Violation naming that phase.
func (h *Harness) CorruptPhase(phase string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.corrupt = phase
}

// Observe dispatches the artifact, published over the harness's root graph,
// to every matching checker and converts the first failure into a
// *Violation.
func (h *Harness) Observe(phase string, artifact any) error { return h.observe(h.g, phase, artifact) }

func (h *Harness) observe(g *graph.Graph, phase string, artifact any) error {
	h.mu.Lock()
	if h.corrupt == phase {
		h.corrupt = ""
		h.mu.Unlock()
		if !Corrupt(artifact) {
			h.mu.Lock()
			h.corruptMiss = true
			h.mu.Unlock()
		}
	} else {
		h.mu.Unlock()
	}
	for i := range h.checkers {
		c := &h.checkers[i]
		if len(c.Phases) > 0 && !contains(c.Phases, phase) {
			continue
		}
		ok, err := c.Check(g, artifact)
		if !ok {
			continue
		}
		if err != nil {
			return &Violation{Phase: phase, Invariant: c.Invariant, Err: err}
		}
		h.mu.Lock()
		h.records = append(h.records, Record{Phase: phase, Invariant: c.Invariant})
		h.mu.Unlock()
	}
	return nil
}

// CorruptMissed reports whether an armed corruption found only an empty
// artifact it could not damage.
func (h *Harness) CorruptMissed() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.corruptMiss
}

// Checks returns the number of checker firings so far.
func (h *Harness) Checks() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.records)
}

// Records returns a copy of the checker firings in order.
func (h *Harness) Records() []Record {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]Record, len(h.records))
	copy(out, h.records)
	return out
}

// Report summarizes a checked run, closing oracle pass included.
type Report struct {
	// Checks is the total number of checker firings across the run.
	Checks int
	// Phases lists the distinct phase tags validated, sorted, then "oracle".
	Phases []string
}

// Oracle closes a checked run: it cross-checks the final coloring against
// the sequential oracle at palette bound k, independent of every
// distributed verifier, and counts that pass as one more check. An oracle
// rejection means a verifier bug slipped through and fails the run.
func (h *Harness) Oracle(colors []int, k int) (*Report, error) {
	if err := ReferenceComplete(h.g, colors, k); err != nil {
		return nil, fmt.Errorf("differential oracle rejected the final coloring: %w", err)
	}
	return &Report{Checks: h.Checks() + 1, Phases: append(h.Phases(), "oracle")}, nil
}

// Phases returns the sorted distinct phase tags that produced at least one
// check.
func (h *Harness) Phases() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	set := map[string]bool{}
	for _, r := range h.records {
		set[r.Phase] = true
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

// DefaultCheckers returns the full registry: every Verify* function in the
// repository, tagged with the pipeline phases that publish its artifact.
func DefaultCheckers() []Checker {
	return []Checker{
		{
			Invariant: "acd/lemma2",
			Phases:    []string{"alg1/acd", "alg4/acd", "simple/acd", "ruling/acd"},
			Check: func(g *graph.Graph, a any) (bool, error) {
				ck, ok := a.(*core.CkptACD)
				if !ok {
					return false, nil
				}
				return true, ck.A.Verify(g)
			},
		},
		{
			Invariant: "loophole/lemma9",
			Phases:    []string{"alg1/classify", "alg4/classify", "simple/classify", "ruling/classify"},
			Check: func(g *graph.Graph, a any) (bool, error) {
				ck, ok := a.(*core.CkptClassification)
				if !ok {
					return false, nil
				}
				return true, loophole.VerifyHard(g, ck.A, ck.Cl)
			},
		},
		{
			Invariant: "matching/maximal",
			Phases:    []string{"alg2/matching"},
			Check: func(g *graph.Graph, a any) (bool, error) {
				ck, ok := a.(*core.CkptMatching)
				if !ok {
					return false, nil
				}
				return true, matching.Verify(g, ck.Matched, ck.Within)
			},
		},
		{
			Invariant: "heg/grab",
			Phases:    []string{"alg2/heg"},
			Check: func(g *graph.Graph, a any) (bool, error) {
				ck, ok := a.(*core.CkptHEG)
				if !ok {
					return false, nil
				}
				return true, heg.Verify(ck.H, ck.Grab)
			},
		},
		{
			Invariant: "split/corollary22",
			Phases:    []string{"alg2/sparsify"},
			Check: func(g *graph.Graph, a any) (bool, error) {
				ck, ok := a.(*core.CkptSplit)
				if !ok {
					return false, nil
				}
				return true, split.VerifyParts(ck.N, ck.Edges, ck.Part, ck.Levels, ck.Eps)
			},
		},
		{
			Invariant: "triads/definition14",
			Phases:    []string{"alg2/triads", "simple/triads"},
			Check: func(g *graph.Graph, a any) (bool, error) {
				ck, ok := a.(*core.CkptTriads)
				if !ok {
					return false, nil
				}
				return true, verifyTriads(g, ck.Triads)
			},
		},
		{
			Invariant: "coloring/proper",
			// Any phase publishing a coloring snapshot: alg2/pairs,
			// alg2/rest, alg3/layers, alg4/preshatter, alg4/happylayers,
			// final.
			Check: func(g *graph.Graph, a any) (bool, error) {
				ck, ok := a.(*core.CkptColoring)
				if !ok {
					return false, nil
				}
				return true, coloring.VerifyProper(g, ck.C, ck.NumColors)
			},
		},
		{
			Invariant: "coloring/complete",
			Check: func(g *graph.Graph, a any) (bool, error) {
				ck, ok := a.(*core.CkptColoring)
				if !ok || !ck.Complete {
					return false, nil
				}
				return true, coloring.VerifyComplete(g, ck.C, ck.NumColors)
			},
		},
		{
			Invariant: "rulingset/ruling",
			Phases:    []string{"alg3/rulingset", "ruling/rulingset"},
			Check: func(g *graph.Graph, a any) (bool, error) {
				ck, ok := a.(*core.CkptRulingSet)
				if !ok {
					return false, nil
				}
				// The ruling set lives on a virtual graph (the loophole
				// graph G_L, or the hard-clique graph H on the
				// ruling-subgraph route), so the artifact carries its own
				// graph.
				if ck.R == 1 {
					return true, rulingset.VerifyMIS(ck.G, ck.In)
				}
				return true, rulingset.VerifyRulingSet(ck.G, ck.In, ck.R)
			},
		},
		{
			Invariant: "sinkless/k-out",
			Phases:    []string{"simple/orientation"},
			Check: func(g *graph.Graph, a any) (bool, error) {
				ck, ok := a.(*core.CkptOrientation)
				if !ok {
					return false, nil
				}
				// The orientation lives on the virtual clique graph H.
				return true, sinkless.VerifyKOut(ck.G, ck.O, ck.K)
			},
		},
		{
			Invariant: "shard/edge-cut",
			Phases:    []string{"shard/partition"},
			Check: func(g *graph.Graph, a any) (bool, error) {
				p, ok := a.(*shard.Partition)
				if !ok {
					return false, nil
				}
				return true, shard.VerifyPartition(g, p)
			},
		},
		{
			Invariant: "repair/complete",
			Phases:    []string{"repair"},
			Check: func(g *graph.Graph, a any) (bool, error) {
				ck, ok := a.(*repair.Snapshot)
				if !ok {
					return false, nil
				}
				c := coloring.Partial{Colors: ck.Colors}
				return true, coloring.VerifyComplete(g, &c, ck.NumColors)
			},
		},
		{
			Invariant: "dynamic/maintained-complete",
			Phases:    []string{"dynamic/maintain"},
			Check: func(g *graph.Graph, a any) (bool, error) {
				ck, ok := a.(*dynamic.Snapshot)
				if !ok {
					return false, nil
				}
				// The store's graph evolves across batches, so the snapshot
				// carries its own graph; the run's root graph is only the
				// initial version.
				c := coloring.Partial{Colors: ck.Colors}
				return true, coloring.VerifyComplete(ck.G, &c, ck.NumColors)
			},
		},
	}
}

// verifyTriads checks Definition 14 and Lemma 15(ii) directly: both pair
// vertices neighbor the slack vertex, the pair is non-adjacent, and triads
// are vertex-disjoint.
func verifyTriads(g *graph.Graph, triads []core.Triad) error {
	used := map[int]int{}
	for i, tr := range triads {
		if !g.HasEdge(tr.Slack, tr.PairIn) {
			return fmt.Errorf("triads: edge (%d,%d): missing slack-pair edge", tr.Slack, tr.PairIn)
		}
		if !g.HasEdge(tr.Slack, tr.PairOut) {
			return fmt.Errorf("triads: edge (%d,%d): missing slack-pair edge", tr.Slack, tr.PairOut)
		}
		if g.HasEdge(tr.PairIn, tr.PairOut) {
			return fmt.Errorf("triads: edge (%d,%d): pair vertices adjacent", tr.PairIn, tr.PairOut)
		}
		for _, v := range [3]int{tr.Slack, tr.PairIn, tr.PairOut} {
			if j, dup := used[v]; dup {
				return fmt.Errorf("triads: vertex %d: shared by triads %d and %d", v, j, i)
			}
			used[v] = i
		}
	}
	return nil
}

// Corrupt damages an artifact in place so that its checker must report a
// violation; the negative-control self-test uses it to prove the harness
// actually fails loudly. Unknown artifact types are left untouched and the
// function reports false.
func Corrupt(artifact any) bool {
	switch ck := artifact.(type) {
	case *core.CkptACD:
		if len(ck.A.CliqueOf) > 0 {
			ck.A.CliqueOf[0] = len(ck.A.Cliques) + 1
			return true
		}
	case *core.CkptClassification:
		// Every easy clique must carry a witness loophole; dropping one is
		// detected regardless of the instance's hard/easy mix.
		for ci, easy := range ck.Cl.Easy {
			if easy {
				ck.Cl.Witness[ci] = nil
				return true
			}
		}
		if len(ck.Cl.Easy) > 0 {
			// All-hard instance: declare one easy with no witness.
			ck.Cl.Easy[0] = true
			ck.Cl.Witness[0] = nil
			return true
		}
	case *core.CkptMatching:
		if len(ck.Matched) > 0 {
			ck.Matched = append(ck.Matched, ck.Matched[0])
			return true
		}
	case *core.CkptHEG:
		if len(ck.Grab) > 0 {
			ck.Grab[0] = len(ck.H.Edges)
			return true
		}
	case *core.CkptSplit:
		if len(ck.Part) > 0 {
			ck.Part[0] = 1 << ck.Levels
			return true
		}
	case *core.CkptTriads:
		if len(ck.Triads) > 0 {
			ck.Triads[0].PairIn = ck.Triads[0].Slack
			return true
		}
	case *core.CkptColoring:
		if len(ck.C.Colors) > 0 {
			ck.C.Colors[0] = ck.NumColors
			return true
		}
	case *core.CkptRulingSet:
		if len(ck.In) > 0 {
			for i := range ck.In {
				ck.In[i] = false
			}
			return true
		}
	case *core.CkptOrientation:
		if len(ck.O.Tail) > 0 {
			// Flip every edge of one tail's vertex so it goes deficient.
			t := ck.O.Tail[0]
			for i, e := range ck.O.Edges {
				if ck.O.Tail[i] == t {
					ck.O.Tail[i] = e.U + e.V - t
				}
			}
			return true
		}
	case *shard.Partition:
		// Reassign one vertex's owner without updating the parts: the
		// exactly-one-ownership invariant breaks. A 1-shard partition has no
		// other owner to blame, so it cannot be damaged this way.
		if ck.K > 1 && len(ck.Owner) > 0 {
			ck.Owner[0] = (ck.Owner[0] + 1) % int32(ck.K)
			return true
		}
	case *repair.Snapshot:
		if len(ck.Colors) > 0 {
			ck.Colors[0] = ck.NumColors
			return true
		}
	case *dynamic.Snapshot:
		if len(ck.Colors) > 0 {
			ck.Colors[0] = ck.NumColors
			return true
		}
	}
	return false
}
