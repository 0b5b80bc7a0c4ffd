package listcolor

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"deltacoloring/internal/coloring"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/local"
)

// TestLayerShape pins the layering contract on a path 0-1-...-5: seeds are
// deduplicated and never filtered by admit, the admit rule and the depth
// bound stop the search, the empty last layer is dropped, and Reached flags
// exactly the layered vertices.
func TestLayerShape(t *testing.T) {
	g := graph.Path(6)
	all := func(int) bool { return true }
	cases := []struct {
		name     string
		seeds    []int
		admit    func(int) bool
		maxDepth int
		want     [][]int
	}{
		{"whole path", []int{0, 0}, all, 10, [][]int{{0}, {1}, {2}, {3}, {4}, {5}}},
		{"depth bound", []int{2}, all, 1, [][]int{{2}, {1, 3}}},
		{"admit stops", []int{0, 1}, func(v int) bool { return v != 3 }, 10, [][]int{{0, 1}, {2}}},
		{"seed not admitted", []int{3}, func(v int) bool { return v != 3 }, 1, [][]int{{3}, {2, 4}}},
		{"no seeds", nil, all, 3, [][]int{nil}},
	}
	for _, c := range cases {
		ly := Layer(g, c.seeds, c.admit, c.maxDepth)
		if !slices.EqualFunc(ly.Layers, c.want, slices.Equal[[]int]) {
			t.Errorf("%s: layers %v, want %v", c.name, ly.Layers, c.want)
		}
		for v, r := range ly.Reached {
			in := slices.ContainsFunc(c.want, func(l []int) bool { return slices.Contains(l, v) })
			if r != in {
				t.Errorf("%s: Reached[%d] = %v, want %v", c.name, v, r, in)
			}
		}
	}
}

// TestColorOutsideIn colors a path's layers from depth 1 outward-in with
// two colors, leaving the seed for its caller; an empty layer charges no
// rounds; and a failing layer is named in the error, which keeps Solve's
// ErrListTooShort.
func TestColorOutsideIn(t *testing.T) {
	g := graph.Path(6)
	ly := Layer(g, []int{0}, func(int) bool { return true }, 10)
	out := coloring.NewPartial(g.N())
	if err := ly.ColorOutsideIn(local.New(g), 1, 2, out); err != nil {
		t.Fatal(err)
	}
	if out.Colored(0) {
		t.Fatal("layer 0 colored though from = 1")
	}
	for v := 1; v < g.N(); v++ {
		if !out.Colored(v) || (v > 1 && out.Colors[v] == out.Colors[v-1]) {
			t.Fatalf("path colored %v", out.Colors)
		}
	}

	net := local.New(g)
	empty := Layering{Layers: [][]int{nil}, Reached: make([]bool, g.N())}
	if err := empty.ColorOutsideIn(net, 0, 2, coloring.NewPartial(g.N())); err != nil || net.Rounds() != 0 {
		t.Fatalf("empty layering: err %v, %d rounds", err, net.Rounds())
	}

	k4 := graph.Complete(4)
	ly = Layer(k4, []int{0}, func(int) bool { return true }, 1)
	err := ly.ColorOutsideIn(local.New(k4), 1, 2, coloring.NewPartial(4))
	if !errors.Is(err, ErrListTooShort) || !strings.HasPrefix(err.Error(), "layer 1: ") {
		t.Fatalf("K4 with 2 colors: got %v, want a layer 1 ErrListTooShort", err)
	}
}
