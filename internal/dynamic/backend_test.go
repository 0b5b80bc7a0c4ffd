package dynamic

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"deltacoloring/internal/graph"
	"deltacoloring/internal/local"
	"deltacoloring/internal/shard"
)

func TestNewRejectsUnknownBackend(t *testing.T) {
	g := graph.Cycle(10)
	_, err := New(g, Options{Backend: "nonesuch"})
	if err == nil {
		t.Fatal("New accepted an unknown backend")
	}
	if !strings.Contains(err.Error(), `unknown backend "nonesuch"`) {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestBackendRecomputeDeltaColoring pins the backend-assisted recompute: on
// a dense structure the configured pipeline maintains a true Δ-coloring
// (NumColors == Δ), one color tighter than the greedy deg+1 path.
func TestBackendRecomputeDeltaColoring(t *testing.T) {
	g, _ := graph.HardCliqueBipartite(16, 16)
	for _, name := range []string{"det", "ruling"} {
		l, err := New(g, Options{Backend: name, FallbackDirtyFraction: -1})
		if err != nil {
			t.Fatalf("backend %s: %v", name, err)
		}
		snap := checkSnapshot(t, l)
		if snap.NumColors != g.MaxDegree() {
			t.Fatalf("backend %s: NumColors = %d, want Δ = %d", name, snap.NumColors, g.MaxDegree())
		}
		if info := l.Info(); info.Backend != name {
			t.Fatalf("Info.Backend = %q, want %q", info.Backend, name)
		}
	}
	// The greedy-only store promises only the deg+1 bound; the backends
	// above guarantee exactly Δ.
	plain, err := New(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if snap := checkSnapshot(t, plain); snap.NumColors > g.MaxDegree()+1 {
		t.Fatalf("greedy NumColors = %d exceeds Δ+1 = %d", snap.NumColors, g.MaxDegree()+1)
	}
}

// TestBackendRecomputeFallsBackOffDomain: a backend-configured store over a
// sparse graph (outside every dense pipeline's domain) silently falls back
// to the greedy path and stays healthy.
func TestBackendRecomputeFallsBackOffDomain(t *testing.T) {
	g := graph.Torus(8, 8)
	l, err := New(g, Options{Backend: "det", FallbackDirtyFraction: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	snap := checkSnapshot(t, l)
	if snap.NumColors > g.MaxDegree()+1 {
		t.Fatalf("fallback palette %d exceeds Δ+1", snap.NumColors)
	}
	// Mutations keep flowing through the fallback recompute path.
	if _, err := l.Apply([]Mutation{{Op: OpAddEdge, U: 0, V: 9}}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	checkSnapshot(t, l)
}

// TestBackendRecomputeSurvivesMutationDrift: a store born dense under a
// backend keeps serving valid colorings as mutations push the structure out
// of the backend's domain (valid-or-unhealthy does not depend on which
// recompute path runs).
func TestBackendRecomputeSurvivesMutationDrift(t *testing.T) {
	g, _ := graph.HardCliqueBipartite(8, 8)
	l, err := New(g, Options{Backend: "ruling", FallbackDirtyFraction: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if snap := checkSnapshot(t, l); snap.NumColors != g.MaxDegree() {
		t.Fatalf("initial NumColors = %d, want Δ", snap.NumColors)
	}
	// Deleting edges strips the dense structure; every batch must still end
	// healthy with a verified coloring.
	edges := g.Edges()
	for i := 0; i < 6; i++ {
		e := edges[i*7]
		if _, err := l.Apply([]Mutation{{Op: OpRemoveEdge, U: e.U, V: e.V}}); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		checkSnapshot(t, l)
	}
}

// solveSingle is the wire algorithm's one-process coloring of g.
func solveSingle(t *testing.T, g *graph.Graph) []int {
	t.Helper()
	net := local.New(g)
	defer net.Close()
	colors, _, err := shard.SolveSingle(net)
	if err != nil {
		t.Fatal(err)
	}
	return colors
}

// TestRecomputeFollowsWireRule: on a graph whose IDs are not its indices,
// every greedy recompute — New, Recompute, and a batch forced off the
// incremental path — colors exactly as the sharded wire algorithm does,
// because both run listcolor's ID-local-max rule.
func TestRecomputeFollowsWireRule(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := graph.PermuteIDs(graph.ErdosRenyi(400, 0.02, rng), rng)
	want := solveSingle(t, g)
	l, err := New(g, Options{FallbackDirtyFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	if snap := checkSnapshot(t, l); !reflect.DeepEqual(snap.Colors, want) {
		t.Fatal("New diverges from shard.SolveSingle")
	}
	if _, err := l.Recompute(); err != nil {
		t.Fatal(err)
	}
	if snap := checkSnapshot(t, l); !reflect.DeepEqual(snap.Colors, want) {
		t.Fatal("Recompute diverges from shard.SolveSingle")
	}
	e := g.Edges()[0]
	if _, err := l.Apply([]Mutation{{Op: OpRemoveEdge, U: e.U, V: e.V}}); err != nil {
		t.Fatal(err)
	}
	snap := checkSnapshot(t, l)
	if !reflect.DeepEqual(snap.Colors, solveSingle(t, snap.G)) {
		t.Fatal("recomputing batch diverges from shard.SolveSingle")
	}
}
