package invariant

import (
	"math/rand"

	"deltacoloring/internal/core"
	"deltacoloring/internal/graph"
)

// Workload is one row of the deterministic generator matrix.
type Workload struct {
	Name  string
	Graph *graph.Graph
	// Params configures the pipelines (ignored for primitive workloads).
	Params core.Params
	// Det / Simple / Rand / Ruling select the registered backends to run
	// and check (see internal/backend and algosOf).
	Det, Simple, Rand, Ruling bool
	// Primitive workloads skip the dense pipelines and instead exercise the
	// MIS and matching building blocks against their sequential oracles.
	Primitive bool
	// Brute additionally runs the exact Δ-colorability oracle (n <= BruteMaxN).
	Brute bool
	// ExpectErr, when non-empty, is a substring the deterministic run must
	// fail with; such workloads skip oracles, metamorphic relations, and
	// negative controls.
	ExpectErr string
	// PermRounds additionally asserts exact round-count invariance under ID
	// permutation (the flagship contract pinned by csr_test.go); on other
	// families the matching schedule may legitimately shift with IDs.
	PermRounds bool
	// Seed drives the randomized pipeline and the fault plans.
	Seed int64
}

// Matrix returns the standing conformance matrix: dense families from the
// paper's constructions, sparse primitives, exact-oracle miniatures, and the
// Δ = 63 Lemma-11 rounding edge documented by experiment E13. Every graph is
// generated from fixed seeds, so the matrix is fully deterministic.
func Matrix() []Workload {
	scaled := core.TestParams()
	ring, _ := graph.EasyCliqueRing(8, 16)
	blocks, _ := graph.EasyDenseBlocks(8, 63, 1)
	hardBip, _ := graph.HardCliqueBipartite(16, 16)
	patch, _ := graph.HardWithEasyPatch(16, 16)
	delta63, _ := graph.HardCliqueBipartite(63, 63)
	return []Workload{
		// The missing edge makes the one clique easy, which the simple
		// backend refuses by design, as on clique-ring.
		{Name: "near-critical", Graph: nearCritical(16), Params: scaled, Det: true, Rand: true, Ruling: true, Seed: 34},
		{Name: "tiny-near-critical", Graph: nearCritical(10), Primitive: true, Brute: true, Seed: 18},
		{Name: "clique-ring", Graph: ring, Params: scaled, Det: true, Rand: true, Ruling: true, Seed: 32},
		{Name: "dense-blocks", Graph: blocks, Params: scaled, Det: true, Ruling: true, Seed: 7},
		{Name: "hard-bipartite", Graph: hardBip, Params: scaled, Det: true, Simple: true, Rand: true, Ruling: true, Seed: 31, PermRounds: true},
		{Name: "hard-easy-patch", Graph: patch, Params: scaled, Det: true, Rand: true, Ruling: true, Seed: 33},
		{Name: "tree", Graph: graph.RandomTree(96, rand.New(rand.NewSource(11))), Primitive: true, Seed: 11},
		{Name: "cycle", Graph: graph.Cycle(48), Primitive: true, Seed: 12},
		{Name: "random-regular", Graph: graph.RandomRegular(96, 6, rand.New(rand.NewSource(13))), Primitive: true, Seed: 13},
		{Name: "tiny-even-cycle", Graph: graph.Cycle(8), Primitive: true, Brute: true, Seed: 14},
		{Name: "tiny-odd-cycle", Graph: graph.Cycle(9), Primitive: true, Brute: true, Seed: 15},
		{Name: "tiny-clique", Graph: graph.Complete(5), Primitive: true, Brute: true, Seed: 16},
		{Name: "tiny-grid", Graph: graph.Grid(3, 4), Primitive: true, Brute: true, Seed: 17},
		// E13: Δ = 63 satisfies the continuous Lemma 11 arithmetic but the
		// integer sub-clique sizes round down to the rejection threshold;
		// the pipeline must refuse rather than silently weaken the slack.
		{Name: "delta63-rounding", Graph: delta63, Params: core.DefaultParams(), Det: true, ExpectErr: "Lemma 11"},
	}
}

// QuickMatrix is Matrix without the Δ = 63 instance (n = 7938), for callers
// on a time budget such as the race-enabled CI conformance step.
func QuickMatrix() []Workload {
	var out []Workload
	for _, w := range Matrix() {
		if w.Name != "delta63-rounding" {
			out = append(out, w)
		}
	}
	return out
}

// nearCritical is K_{Δ+1} minus one edge: one short of the Brooks
// obstruction. Its only Δ-colorings give the two ends of the missing edge
// the same color.
func nearCritical(delta int) *graph.Graph {
	b := graph.NewBuilder(delta + 1)
	for u := 0; u <= delta; u++ {
		for v := u + 1; v <= delta; v++ {
			if u != 0 || v != delta {
				b.AddEdge(u, v)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
