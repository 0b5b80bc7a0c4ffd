package arena

import "testing"

func TestTakeZeroedAndDisjoint(t *testing.T) {
	var a Arena
	x := a.Ints(8)
	y := a.Ints(8)
	for i := range x {
		x[i] = i + 1
	}
	for i, v := range y {
		if v != 0 {
			t.Fatalf("y[%d] = %d, want 0", i, v)
		}
	}
	y[0] = 99
	if x[0] != 1 {
		t.Fatalf("slices overlap: x[0] = %d", x[0])
	}
}

func TestResetReusesAndRezeroes(t *testing.T) {
	var a Arena
	x := a.Int32s(16)
	for i := range x {
		x[i] = -1
	}
	a.Reset()
	y := a.Int32s(16)
	if &x[0] != &y[0] {
		t.Fatalf("reset did not reuse the slab")
	}
	for i, v := range y {
		if v != 0 {
			t.Fatalf("y[%d] = %d after reset, want 0", i, v)
		}
	}
}

func TestFillHelpers(t *testing.T) {
	var a Arena
	s := a.IntsFill(5, -1)
	for i, v := range s {
		if v != -1 {
			t.Fatalf("IntsFill[%d] = %d", i, v)
		}
	}
	q := a.Int32sFill(5, 7)
	for i, v := range q {
		if v != 7 {
			t.Fatalf("Int32sFill[%d] = %d", i, v)
		}
	}
}

func TestGrowthKeepsHandedOutSlices(t *testing.T) {
	var a Arena
	x := a.Bools(4)
	x[3] = true
	// Force growth well past the initial slab.
	_ = a.Bools(1 << 20)
	if !x[3] {
		t.Fatal("growth corrupted a handed-out slice")
	}
}

func TestPoolRoundTrip(t *testing.T) {
	a := Get()
	s := a.Ints(32)
	s[0] = 1
	Put(a)
	b := Get()
	w := b.Ints(32)
	if w[0] != 0 {
		t.Fatalf("pooled arena returned dirty memory: %d", w[0])
	}
	Put(b)
}

// TestColdTakesAreExactAndResetConsolidates pins the growth policy: a take
// that overflows gets a buffer of its own size rather than a doubled one,
// and after a reset the same takes come from one buffer, back to back.
func TestColdTakesAreExactAndResetConsolidates(t *testing.T) {
	var a Arena
	sizes := []int{3000, 5000, 70000}
	for _, n := range sizes {
		if s := a.Int32s(n); cap(s) != n {
			t.Fatalf("take of %d: cap %d", n, cap(s))
		}
	}
	if got := len(a.i32s.buf); got != sizes[2] {
		t.Fatalf("cold overflow allocated a %d-element buffer, want %d", got, sizes[2])
	}
	a.Reset()
	off := 0
	for _, n := range sizes {
		s := a.Int32s(n)
		if &s[0] != &a.i32s.buf[off] {
			t.Fatalf("take of %d after reset is not at offset %d of one buffer", n, off)
		}
		off += n
	}
	if got := len(a.i32s.buf); got != off {
		t.Fatalf("consolidated buffer has %d elements, want %d", got, off)
	}
}
