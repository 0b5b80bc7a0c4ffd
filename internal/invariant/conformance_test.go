package invariant

import (
	"strings"
	"testing"

	"deltacoloring/internal/graph"
)

func TestMatrixShape(t *testing.T) {
	m := Matrix()
	if len(m) < 10 {
		t.Fatalf("matrix has only %d workloads", len(m))
	}
	names := map[string]bool{}
	hasReject, hasBrute, hasPrimitive, hasPipeline := false, false, false, false
	for _, w := range m {
		if names[w.Name] {
			t.Fatalf("duplicate workload name %s", w.Name)
		}
		names[w.Name] = true
		if w.Graph == nil {
			t.Fatalf("%s: nil graph", w.Name)
		}
		if w.ExpectErr != "" {
			hasReject = true
		}
		if w.Brute {
			hasBrute = true
			if w.Graph.N() > BruteMaxN {
				t.Fatalf("%s: brute workload has n=%d > %d", w.Name, w.Graph.N(), BruteMaxN)
			}
		}
		if w.Primitive {
			hasPrimitive = true
		}
		if w.Det || w.Simple || w.Rand {
			hasPipeline = true
		}
	}
	if !hasReject || !hasBrute || !hasPrimitive || !hasPipeline {
		t.Fatalf("matrix lacks a workload class: reject=%v brute=%v primitive=%v pipeline=%v",
			hasReject, hasBrute, hasPrimitive, hasPipeline)
	}
	quick := QuickMatrix()
	if len(quick) != len(m)-1 {
		t.Fatalf("QuickMatrix has %d workloads, want %d", len(quick), len(m)-1)
	}
	for _, w := range quick {
		if w.Name == "delta63-rounding" {
			t.Fatal("QuickMatrix kept the Δ=63 instance")
		}
	}
}

// TestRunMatrixSubset drives the full conformance machinery — pipeline,
// differential oracle, metamorphic sweep, fault replay, negative controls,
// primitives, brute force, and the rejection row — over a fast subset.
func TestRunMatrixSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("conformance subset is heavy; skipped under -short")
	}
	var subset []Workload
	for _, w := range Matrix() {
		switch w.Name {
		case "clique-ring", "hard-bipartite", "tiny-clique", "tiny-even-cycle", "delta63-rounding":
			subset = append(subset, w)
		}
	}
	if len(subset) != 5 {
		t.Fatalf("subset selection found %d workloads", len(subset))
	}
	var logged bool
	results := RunMatrix(subset, Options{
		Workers: []int{1, 2},
		Log:     func(format string, args ...any) { logged = true },
	})
	if len(results) != len(subset) {
		t.Fatalf("got %d results for %d workloads", len(results), len(subset))
	}
	if Failed(results) {
		for _, r := range results {
			for _, s := range r.Suites {
				if s.Err != nil {
					t.Errorf("%s/%s: %v", r.Name, s.Suite, s.Err)
				}
			}
		}
		t.Fatal("conformance subset failed")
	}
	if !logged {
		t.Fatal("Options.Log never invoked")
	}
	for _, r := range results {
		if r.Err() != nil {
			t.Fatalf("%s: Err() nonzero on passing workload: %v", r.Name, r.Err())
		}
		if len(r.Suites) == 0 {
			t.Fatalf("%s: no suites ran", r.Name)
		}
	}
	// The rejection row must have run exactly the rejection suite.
	for _, r := range results {
		if r.Name != "delta63-rounding" {
			continue
		}
		if len(r.Suites) != 1 || r.Suites[0].Suite != "pipeline" {
			t.Fatalf("rejection workload ran suites %+v", r.Suites)
		}
		if !strings.Contains(r.Suites[0].Detail, "rejected") {
			t.Fatalf("rejection detail %q", r.Suites[0].Detail)
		}
	}
}

// SkipNegative must drop the corruption controls and nothing else.
func TestRunMatrixSkipNegative(t *testing.T) {
	if testing.Short() {
		t.Skip("conformance run is heavy; skipped under -short")
	}
	var subset []Workload
	for _, w := range QuickMatrix() {
		if w.Name == "dense-blocks" {
			subset = append(subset, w)
		}
	}
	results := RunMatrix(subset, Options{Workers: []int{1}, SkipNegative: true})
	if Failed(results) {
		t.Fatalf("dense-blocks failed: %+v", results)
	}
	for _, s := range results[0].Suites {
		if s.Suite == "negative" {
			t.Fatal("negative suite ran despite SkipNegative")
		}
	}
}

// TestOracleSuiteEdgeless: on an edgeless miniature (Δ = 0) the brute-force
// branch still needs one color, and both verifiers accept it.
func TestOracleSuiteEdgeless(t *testing.T) {
	w := Workload{Name: "edgeless", Graph: graph.NewBuilder(3).MustBuild(), Brute: true}
	s := oracleSuite(w)
	if s.Err != nil {
		t.Fatal(s.Err)
	}
	if s.Detail != "greedy+brute ok (Δ-colorable)" {
		t.Fatalf("detail %q", s.Detail)
	}
}
