package backend

import (
	"sort"
	"strings"
	"testing"

	"deltacoloring/internal/core"
	"deltacoloring/internal/graph"
)

// TestRegistryNamesSorted holds the backend table to its order and
// lookup: Names is sorted, Get finds each entry under its own name, and
// the default (the empty name) is det.
func TestRegistryNamesSorted(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
	for _, n := range names {
		b, err := Get(n)
		if err != nil {
			t.Fatalf("Get(%q): %v", n, err)
		}
		if b.Name != n {
			t.Fatalf("Get(%q).Name = %q", n, b.Name)
		}
	}
	if b, err := Resolve("", graph.Cycle(8), Params{}); err != nil || b != Det {
		t.Fatalf(`Resolve("") = %v, %v; want det`, b, err)
	}
}

// TestRegisterDuplicatePanics keeps the name it had when backends were
// registered at run time and a duplicate name panicked. The table is fixed
// now, so the test checks the property itself: no two entries share a name.
func TestRegisterDuplicatePanics(t *testing.T) {
	seen := map[string]bool{}
	for _, n := range Names() {
		if seen[n] {
			t.Fatalf("name %q repeated in %v", n, Names())
		}
		seen[n] = true
	}
}

// TestRegisterEmptyNamePanics keeps the name it had when registering an
// empty name panicked; it checks the fixed table has no empty name.
func TestRegisterEmptyNamePanics(t *testing.T) {
	for _, n := range Names() {
		if n == "" {
			t.Fatalf("empty name in %v", Names())
		}
	}
}

func TestGetUnknownListsRegistered(t *testing.T) {
	_, err := Get("nonesuch")
	if err == nil {
		t.Fatal("Get(nonesuch) succeeded")
	}
	for _, frag := range []string{`unknown backend "nonesuch"`, "det", "rand", "ruling", "simple"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("error %q does not mention %q", err, frag)
		}
	}
}

func TestSelectHeuristic(t *testing.T) {
	p := Params{Det: core.TestParams()}

	sparse := graph.Cycle(32)
	if got := Select(sparse, p).Name; got != "det" {
		t.Fatalf("sparse graph selected %q, want det", got)
	}

	hardBip, _ := graph.HardCliqueBipartite(16, 16)
	if got := Select(hardBip, p).Name; got != "simple" && got != "ruling" {
		t.Fatalf("all-hard graph selected %q, want simple or ruling", got)
	}

	ring, _ := graph.EasyCliqueRing(8, 16)
	if got := Select(ring, p).Name; got != "det" {
		t.Fatalf("all-easy graph selected %q, want det", got)
	}

	patch, _ := graph.HardWithEasyPatch(16, 16)
	if got := Select(patch, p).Name; got != "ruling" {
		t.Fatalf("hard-dominated graph selected %q, want ruling", got)
	}

	// On dense instances the selected backend must actually color its graph
	// (sparse inputs are rejected by every pipeline with ErrNotDense).
	for _, g := range []*graph.Graph{hardBip, ring, patch} {
		b := Select(g, p)
		res, err := b.Color(nil, g, p, nil)
		if err != nil {
			t.Fatalf("selected backend %q failed: %v", b.Name, err)
		}
		if len(res.Colors) != g.N() {
			t.Fatalf("backend %q returned %d colors for %d vertices", b.Name, len(res.Colors), g.N())
		}
	}
}

func TestSelectZeroParams(t *testing.T) {
	hardBip, _ := graph.HardCliqueBipartite(16, 16)
	// A zero Params must not crash the probe; Select falls back to defaults.
	if b := Select(hardBip, Params{}); b == nil {
		t.Fatal("Select returned nil backend")
	}
}

// TestFrontierMatchesSpans holds every backend to one accounting: the
// engine rounds a run reports equal the sum over its phase spans. The five
// backends that accept the graph are pinned by name and engine rounds; any
// other backend must refuse it.
func TestFrontierMatchesSpans(t *testing.T) {
	g, _ := graph.HardCliqueBipartite(16, 16)
	p := Params{Det: core.TestParams(), Rand: core.TestRandomizedParams(), Seed: 1}
	want := map[string]int{"det": 135, "rand": 271, "ruling": 158, "simple": 133, "greedy": 17}
	for _, name := range Names() {
		b, _ := Get(name)
		res, err := b.Color(nil, g, p, nil)
		rounds, accepts := want[name]
		if !accepts {
			if err == nil {
				t.Errorf("%s: accepted the graph; add it to the table", name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if res.Frontier.EngineRounds != rounds {
			t.Errorf("%s: Frontier.EngineRounds = %d, want %d", name, res.Frontier.EngineRounds, rounds)
		}
		spans := 0
		for _, sp := range res.Spans {
			spans += sp.EngineRounds
		}
		if res.Frontier.EngineRounds != spans {
			t.Errorf("%s: Frontier.EngineRounds = %d, spans sum to %d", name, res.Frontier.EngineRounds, spans)
		}
	}
}
