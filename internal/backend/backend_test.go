package backend

import (
	"sort"
	"strings"
	"testing"

	"deltacoloring/internal/core"
	"deltacoloring/internal/graph"
)

func TestRegistryNamesSorted(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
	for _, want := range []string{"det", "rand", "ruling", "simple"} {
		if _, err := Get(want); err != nil {
			t.Fatalf("reference backend %q not registered: %v", want, err)
		}
	}
	if Default().Name() != DefaultName {
		t.Fatalf("Default() = %q, want %q", Default().Name(), DefaultName)
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("duplicate Register did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, `duplicate registration of "det"`) {
			t.Fatalf("unexpected panic value: %v", r)
		}
	}()
	Register(&pipelineBackend{name: "det"})
}

func TestRegisterEmptyNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty-name Register did not panic")
		}
	}()
	Register(&pipelineBackend{})
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
	if got := Select(sparse, p).Name(); got != "det" {
		t.Fatalf("sparse graph selected %q, want det", got)
	}

	hardBip, _ := graph.HardCliqueBipartite(16, 16)
	if got := Select(hardBip, p).Name(); got != "simple" && got != "ruling" {
		t.Fatalf("all-hard graph selected %q, want simple or ruling", got)
	}

	ring, _ := graph.EasyCliqueRing(8, 16)
	if got := Select(ring, p).Name(); got != "det" {
		t.Fatalf("all-easy graph selected %q, want det", got)
	}

	patch, _ := graph.HardWithEasyPatch(16, 16)
	if got := Select(patch, p).Name(); got != "ruling" {
		t.Fatalf("hard-dominated graph selected %q, want ruling", got)
	}

	// On dense instances the selected backend must actually color its graph
	// (sparse inputs are rejected by every pipeline with ErrNotDense).
	for _, g := range []*graph.Graph{hardBip, ring, patch} {
		b := Select(g, p)
		res, err := b.Color(nil, g, p, nil)
		if err != nil {
			t.Fatalf("selected backend %q failed: %v", b.Name(), err)
		}
		if len(res.Colors) != g.N() {
			t.Fatalf("backend %q returned %d colors for %d vertices", b.Name(), len(res.Colors), g.N())
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
		res, err := mustGet(name).Color(nil, g, p, nil)
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
