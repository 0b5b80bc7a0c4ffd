package deltacoloring

import (
	"errors"
	"os"
	"strconv"
	"strings"
	"testing"

	"deltacoloring/internal/graph"
)

func TestPublicDeterministic(t *testing.T) {
	g := GenHardCliqueBipartite(16, 16)
	res, err := Deterministic(g, ScaledParams())
	if err != nil {
		t.Fatalf("Deterministic: %v", err)
	}
	if err := Verify(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	if res.Rounds <= 0 || len(res.Spans) == 0 {
		t.Fatalf("missing accounting: rounds=%d spans=%d", res.Rounds, len(res.Spans))
	}
	if res.Stats.Delta != 16 || res.Stats.N != g.N() {
		t.Fatalf("stats: %+v", res.Stats)
	}
}

func TestPublicRandomized(t *testing.T) {
	g := GenHardWithEasyPatch(16, 16)
	res, err := Randomized(g, ScaledRandomizedParams(), 7)
	if err != nil {
		t.Fatalf("Randomized: %v", err)
	}
	if err := Verify(g, res.Colors); err != nil {
		t.Fatal(err)
	}
}

func TestPublicRandomizedDeterministicGivenSeed(t *testing.T) {
	g := GenHardCliqueBipartite(16, 16)
	a, err := Randomized(g, ScaledRandomizedParams(), 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Randomized(g, ScaledRandomizedParams(), 99)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Colors {
		if a.Colors[v] != b.Colors[v] {
			t.Fatal("same seed produced different colorings")
		}
	}
	if a.Rounds != b.Rounds {
		t.Fatal("same seed produced different round counts")
	}
}

func TestPublicNewGraphAndErrors(t *testing.T) {
	g, err := NewGraph(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 4 {
		t.Fatalf("graph shape wrong: %v", g)
	}
	if _, err := NewGraph(2, [][2]int{{0, 5}}); err == nil {
		t.Fatal("accepted bad edge")
	}
	// A cycle is sparse.
	if _, err := Deterministic(g, ScaledParams()); !errors.Is(err, ErrNotDense) {
		t.Fatalf("expected ErrNotDense, got %v", err)
	}
}

func TestPublicVerifyRejects(t *testing.T) {
	g := GenEasyCliqueRing(4, 16)
	res, err := Deterministic(g, ScaledParams())
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]int(nil), res.Colors...)
	bad[0] = bad[g.Neighbors(0)[0]]
	if err := Verify(g, bad); err == nil {
		t.Fatal("monochromatic edge accepted")
	}
	if err := Verify(g, bad[:3]); err == nil {
		t.Fatal("short color slice accepted")
	}
}

// A pinned Theorem 2 failure: HardCliqueBipartite(16,16) relabeled by the
// permutation in testdata, with this seed, once drew T-node proposals that
// share a vertex, and the spacing filter kept two of them ("T-node pair
// coloring improper", edge (59,283) monochromatic).
func TestRandomizedSharedTNodeVertexRegression(t *testing.T) {
	raw, err := os.ReadFile("testdata/tnode_shared_vertex_perm.txt")
	if err != nil {
		t.Fatal(err)
	}
	var perm []int
	for _, f := range strings.Fields(string(raw)) {
		v, err := strconv.Atoi(f)
		if err != nil {
			t.Fatal(err)
		}
		perm = append(perm, v)
	}
	base, _ := graph.HardCliqueBipartite(16, 16)
	if len(perm) != base.N() {
		t.Fatalf("permutation has %d entries, want %d", len(perm), base.N())
	}
	var edges [][2]int
	for v := 0; v < base.N(); v++ {
		for _, w := range base.Neighbors(v) {
			if v < int(w) {
				edges = append(edges, [2]int{perm[v], perm[w]})
			}
		}
	}
	g, err := NewGraph(base.N(), edges)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Randomized(g, ScaledRandomizedParams(), 6852509263569950322)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, res.Colors); err != nil {
		t.Fatal(err)
	}
}
