package coloring

import (
	"math/rand"
	"testing"
	"testing/quick"

	"deltacoloring/internal/graph"
)

func TestPartialBasics(t *testing.T) {
	c := NewPartial(3)
	if c.Colored(0) || c.CountColored() != 0 {
		t.Fatal("fresh partial not empty")
	}
	c.Colors[1] = 4
	if !c.Colored(1) || c.CountColored() != 1 {
		t.Fatal("Colored/CountColored wrong")
	}
}

func TestVerifyProper(t *testing.T) {
	g := graph.Cycle(4)
	c := NewPartial(4)
	c.Colors[0], c.Colors[1] = 0, 1
	if err := VerifyProper(g, c, 2); err != nil {
		t.Fatalf("valid partial rejected: %v", err)
	}
	c.Colors[1] = 0
	if err := VerifyProper(g, c, 2); err == nil {
		t.Fatal("monochromatic edge accepted")
	}
	c.Colors[1] = 5
	if err := VerifyProper(g, c, 2); err == nil {
		t.Fatal("out-of-range color accepted")
	}
	bad := NewPartial(3)
	if err := VerifyProper(g, bad, 2); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestVerifyComplete(t *testing.T) {
	g := graph.Cycle(4)
	c := NewPartial(4)
	c.Colors = []int{0, 1, 0, 1}
	if err := VerifyComplete(g, c, 2); err != nil {
		t.Fatalf("valid 2-coloring rejected: %v", err)
	}
	c.Colors[3] = None
	if err := VerifyComplete(g, c, 2); err == nil {
		t.Fatal("incomplete coloring accepted")
	}
}

func TestVerifyLists(t *testing.T) {
	g := graph.Path(3)
	lists := []Palette{FullPalette(2), FullPalette(3), FullPalette(2)}
	c := NewPartial(3)
	c.Colors = []int{0, 2, 0}
	if err := VerifyLists(g, c, lists); err != nil {
		t.Fatalf("valid list coloring rejected: %v", err)
	}
	c.Colors[0] = 1
	c.Colors[1] = 0
	c.Colors[2] = 1
	if err := VerifyLists(g, c, lists); err != nil {
		t.Fatalf("valid list coloring rejected: %v", err)
	}
	c.Colors[2] = 2 // not in list of vertex 2
	if err := VerifyLists(g, c, lists); err == nil {
		t.Fatal("off-list color accepted")
	}
}

func TestPaletteOps(t *testing.T) {
	p := FullPalette(5)
	if p.Size() != 5 || p.Min() != 0 || p.Max() != 4 {
		t.Fatalf("FullPalette(5) wrong: size=%d min=%d max=%d", p.Size(), p.Min(), p.Max())
	}
	p.Remove(0)
	p.Remove(4)
	if p.Size() != 3 || p.Min() != 1 || p.Max() != 3 {
		t.Fatalf("after removals: size=%d min=%d max=%d", p.Size(), p.Min(), p.Max())
	}
	if p.Has(0) || !p.Has(2) {
		t.Fatal("Has wrong")
	}
	p.Add(100)
	if !p.Has(100) || p.Max() != 100 {
		t.Fatal("Add beyond word boundary failed")
	}
	var empty Palette
	if empty.Min() != -1 || empty.Max() != -1 || empty.Size() != 0 || empty.Has(3) {
		t.Fatal("zero palette not empty")
	}
	empty.Remove(7) // no-op, must not panic
	got := p.Colors()
	want := []int{1, 2, 3, 100}
	if len(got) != len(want) {
		t.Fatalf("Colors() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Colors() = %v, want %v", got, want)
		}
	}
}

func TestAvailable(t *testing.T) {
	g := graph.Star(4)
	c := NewPartial(4)
	c.Colors[1], c.Colors[2] = 0, 2
	p := Available(g, c, 0, 3)
	if p.Size() != 1 || !p.Has(1) {
		t.Fatalf("available = %v", p.Colors())
	}
	// Colors beyond k are ignored.
	c.Colors[3] = 9
	p = Available(g, c, 0, 3)
	if p.Size() != 1 {
		t.Fatalf("available = %v", p.Colors())
	}
}

func TestGreedyComplete(t *testing.T) {
	g := graph.Complete(5)
	c := NewPartial(5)
	if err := GreedyComplete(g, c, 5); err != nil {
		t.Fatalf("greedy on K5 with 5 colors: %v", err)
	}
	if err := VerifyComplete(g, c, 5); err != nil {
		t.Fatalf("greedy produced invalid coloring: %v", err)
	}
	c2 := NewPartial(5)
	if err := GreedyComplete(g, c2, 4); err == nil {
		t.Fatal("greedy on K5 with 4 colors should fail")
	}
	// The deg+1 sweep on a streamed 8-regular circulant completes within
	// its palette; a palette too small fails loudly rather than wrapping.
	circ, err := graph.Circulant(2048, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	c3 := NewPartial(circ.N())
	if err := GreedyComplete(circ, c3, 9); err != nil {
		t.Fatalf("greedy on the circulant with deg+1 colors: %v", err)
	}
	if err := VerifyComplete(circ, c3, 9); err != nil {
		t.Fatalf("greedy produced invalid coloring on the circulant: %v", err)
	}
	if err := GreedyComplete(circ, NewPartial(circ.N()), 2); err == nil {
		t.Fatal("greedy on the circulant with 2 colors should fail")
	}
}

// Property: greedy with Δ+1 colors always completes and is proper.
func TestGreedyDeltaPlusOneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		g := graph.ErdosRenyi(n, 0.25, rng)
		c := NewPartial(n)
		k := g.MaxDegree() + 1
		if err := GreedyComplete(g, c, k); err != nil {
			return false
		}
		return VerifyComplete(g, c, k) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: palette operations behave like a set of small ints.
func TestPaletteSetSemantics(t *testing.T) {
	f := func(ops []uint8) bool {
		var p Palette
		ref := map[int]bool{}
		for i, op := range ops {
			x := int(op) % 130
			if i%2 == 0 {
				p.Add(x)
				ref[x] = true
			} else {
				p.Remove(x)
				delete(ref, x)
			}
		}
		if p.Size() != len(ref) {
			return false
		}
		for x := 0; x < 130; x++ {
			if p.Has(x) != ref[x] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
