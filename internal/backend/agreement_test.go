package backend_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"deltacoloring/internal/backend"
	"deltacoloring/internal/core"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/invariant"
)

// TestCrossBackendAgreement runs every backend over the dense
// generator zoo with the conformance harness attached: each backend either
// refuses an out-of-scope instance with a structural error, or produces a
// coloring that the phase checkpoints and the differential oracle both
// accept. Backends never disagree on what a valid answer is. Which cells
// refuse, and how many colors each completed cell spends, are pinned below
// to the values the retired backend arena snapshot recorded (EXPERIMENTS.md
// E22), at the arena's seed and one other.
func TestCrossBackendAgreement(t *testing.T) {
	type instance struct {
		name string
		g    *graph.Graph
		// colors is the color count each backend spends; 0 marks a cell
		// the backend must refuse.
		colors map[string]int
	}
	ring, _ := graph.EasyCliqueRing(8, 16)
	blocks, _ := graph.EasyDenseBlocks(8, 63, 1)
	hardBip, _ := graph.HardCliqueBipartite(16, 16)
	patch, _ := graph.HardWithEasyPatch(16, 16)
	zoo := []instance{
		{"clique-ring", ring, map[string]int{"det": 16, "greedy": 16, "rand": 16, "ruling": 16, "simple": 0}},
		{"dense-blocks", blocks, map[string]int{"det": 64, "greedy": 63, "rand": 64, "ruling": 64, "simple": 0}},
		{"hard-bipartite", hardBip, map[string]int{"det": 16, "greedy": 16, "rand": 16, "ruling": 16, "simple": 16}},
		{"hard-easy-patch", patch, map[string]int{"det": 16, "greedy": 16, "rand": 16, "ruling": 16, "simple": 0}},
	}
	for _, seed := range []int64{41, 1} {
		p := backend.Params{Det: core.TestParams(), Rand: core.TestRandomizedParams(), Seed: seed}
		p.Rand.Params = p.Det
		for _, inst := range zoo {
			for _, name := range backend.Names() {
				checkArenaCell(t, fmt.Sprintf("seed=%d/%s/%s", seed, inst.name, name), inst.g, name, p, inst.colors)
			}
		}
	}
}

// checkArenaCell runs one backend on one instance and holds the outcome to
// the cell's pinned refusal or color count.
func checkArenaCell(t *testing.T, cell string, g *graph.Graph, name string, p backend.Params, colors map[string]int) {
	t.Helper()
	want, pinned := colors[name]
	if !pinned {
		t.Errorf("%s: backend has no pinned arena outcome; add it to the zoo", cell)
		return
	}
	b, err := backend.Get(name)
	if err != nil {
		t.Fatalf("Get(%q): %v", name, err)
	}
	h := invariant.NewHarness(g)
	res, err := b.Color(nil, g, p, &backend.RunOptions{NetHook: h.Attach})
	if err != nil {
		if !structural(err) {
			t.Errorf("%s: non-structural failure: %v", cell, err)
		} else if want != 0 {
			t.Errorf("%s: refused (%v), the arena pins %d colors", cell, err, want)
		}
		return
	}
	if want == 0 {
		t.Errorf("%s: completed, the arena pins a refusal", cell)
	}
	if h.Checks() == 0 {
		t.Errorf("%s: backend published no checkpoints", cell)
	}
	// Each backend is verified against its own declared palette: the
	// paper pipelines at Δ (zero slack), the greedy wire algorithm at
	// Δ + 1 via PaletteSlack.
	bound := g.MaxDegree() + b.PaletteSlack
	if err := invariant.ReferenceComplete(g, res.Colors, bound); err != nil {
		t.Errorf("%s: oracle rejected the coloring: %v", cell, err)
	}
	if got := slices.Max(res.Colors) + 1; want != 0 && got != want {
		t.Errorf("%s: %d colors, the arena pins %d", cell, got, want)
	}
}

// structural reports a refusal a backend is allowed on an instance outside
// its domain (e.g. simple on graphs that are not uniformly hard).
func structural(err error) bool {
	return errors.Is(err, core.ErrNotDense) || errors.Is(err, core.ErrBrooks) ||
		strings.Contains(err.Error(), "use ColorDeterministic")
}
