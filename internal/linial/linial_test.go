package linial

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"deltacoloring/internal/coloring"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/local"
)

func properIntColoring(t *testing.T, g *graph.Graph, colors []int, k int) {
	t.Helper()
	c := coloring.NewPartial(g.N())
	copy(c.Colors, colors)
	if err := coloring.VerifyComplete(g, c, k); err != nil {
		t.Fatalf("coloring invalid: %v", err)
	}
}

func TestColorCycle(t *testing.T) {
	g := graph.Cycle(101)
	colors, rounds, err := ColorGraph(g, 3)
	if err != nil {
		t.Fatalf("ColorGraph: %v", err)
	}
	properIntColoring(t, g, colors, 3)
	if rounds > 40 {
		t.Fatalf("cycle coloring took %d rounds, expected O(log* n) + O(Δ log)", rounds)
	}
}

func TestColorVariousGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"Path", graph.Path(64)},
		{"Torus", graph.Torus(9, 11)},
		{"Complete", graph.Complete(17)},
		{"Star", graph.Star(30)},
		{"RandomRegular", graph.RandomRegular(60, 6, rng)},
		{"Tree", graph.RandomTree(200, rng)},
		{"ER", graph.ErdosRenyi(80, 0.1, rng)},
		{"Singleton", graph.Path(1)},
		{"EdgeOnly", graph.Path(2)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k := c.g.MaxDegree() + 1
			colors, _, err := ColorGraph(c.g, k)
			if err != nil {
				t.Fatalf("ColorGraph: %v", err)
			}
			properIntColoring(t, c.g, colors, k)
		})
	}
}

func TestColorWithPermutedIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := graph.PermuteIDs(graph.Torus(8, 8), rng)
	colors, _, err := ColorGraph(g, 5)
	if err != nil {
		t.Fatalf("ColorGraph: %v", err)
	}
	properIntColoring(t, g, colors, 5)
}

func TestColorRejectsTooFewColors(t *testing.T) {
	g := graph.Complete(4)
	if _, _, err := ColorGraph(g, 3); err == nil {
		t.Fatal("accepted target < Δ+1")
	}
}

func TestColorTargetAboveDeltaPlusOne(t *testing.T) {
	g := graph.Cycle(33)
	colors, _, err := ColorGraph(g, 10)
	if err != nil {
		t.Fatalf("ColorGraph: %v", err)
	}
	properIntColoring(t, g, colors, 10)
}

// Round scaling: coloring a path should cost far fewer rounds than its
// length (log* behaviour, not linear).
func TestColorRoundsSublinear(t *testing.T) {
	for _, n := range []int{1 << 8, 1 << 12, 1 << 16} {
		g := graph.Cycle(n)
		_, rounds, err := ColorGraph(g, 3)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if rounds > 60 {
			t.Fatalf("n=%d took %d rounds; expected log*-scale", n, rounds)
		}
	}
}

func TestReduce(t *testing.T) {
	g := graph.Complete(6)
	net := local.New(g)
	// A proper coloring with widely spread colors.
	cur := []int{0, 17, 34, 51, 68, 85}
	out, err := Reduce(net, cur, 100, 6)
	if err != nil {
		t.Fatalf("Reduce: %v", err)
	}
	properIntColoring(t, g, out, 6)
	if net.Rounds() == 0 {
		t.Fatal("reduction charged no rounds")
	}
}

// A target above 64 puts the free-slot search across several 64-slot
// windows: on K_150 the late recolors find the first window full.
func TestReduceWideTarget(t *testing.T) {
	for _, n := range []int{65, 100, 150} {
		g := graph.Complete(n)
		net := local.New(g)
		cur := make([]int, n)
		for v := range cur {
			cur[v] = 7*v + 3
		}
		out, err := Reduce(net, cur, 7*n+3, n)
		if err != nil {
			t.Fatalf("n=%d: Reduce: %v", n, err)
		}
		properIntColoring(t, g, out, n)
	}
}

// TestReduceFrontierMatchesDense cross-checks Reduce's exact-seed sweeps
// against the dense engine, from spread-out proper colorings over several
// halvings and targets both below and above one 64-slot window.
func TestReduceFrontierMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		var g *graph.Graph
		if trial%3 == 2 {
			g = graph.Complete(66 + rng.Intn(20))
		} else {
			g = graph.ErdosRenyi(150+rng.Intn(250), 0.02+0.05*rng.Float64(), rng)
		}
		target := g.MaxDegree() + 1 + rng.Intn(4)
		m := target * (4 + rng.Intn(40))
		// A proper coloring in [0, m): greedy over a random order, each
		// vertex taking a random free color.
		cur := make([]int, g.N())
		for v := range cur {
			cur[v] = -1
		}
		for _, v := range rng.Perm(g.N()) {
			for {
				c := rng.Intn(m)
				ok := true
				for _, w := range g.Neighbors(v) {
					if cur[w] == c {
						ok = false
						break
					}
				}
				if ok {
					cur[v] = c
					break
				}
			}
		}
		run := func(workers int, frontier bool) ([]int, int) {
			net := local.New(g)
			defer net.Close()
			net.SetWorkers(workers)
			net.SetFrontier(frontier)
			out, err := Reduce(net, append([]int(nil), cur...), m, target)
			if err != nil {
				t.Fatalf("trial %d workers=%d frontier=%v: %v", trial, workers, frontier, err)
			}
			return out, net.Rounds()
		}
		want, wantRounds := run(1, false)
		properIntColoring(t, g, want, target)
		for _, w := range []int{1, 4} {
			got, rounds := run(w, true)
			if rounds != wantRounds {
				t.Fatalf("trial %d workers=%d: rounds %d, dense %d", trial, w, rounds, wantRounds)
			}
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("trial %d workers=%d: vertex %d got %d, dense %d", trial, w, v, got[v], want[v])
				}
			}
		}
	}
}

func TestReduceRejectsBadInput(t *testing.T) {
	g := graph.Complete(4)
	net := local.New(g)
	if _, err := Reduce(net, []int{0, 1, 2, 3}, 4, 3); err == nil {
		t.Fatal("accepted target < Δ+1")
	}
	if _, err := Reduce(net, []int{0, 1, 2, 9}, 4, 4); err == nil {
		t.Fatal("accepted color >= m")
	}
}

func TestPlanStepsReachFixedPoint(t *testing.T) {
	steps := planSteps(64, 63)
	if len(steps) == 0 {
		t.Fatal("no reduction steps planned for 64-bit IDs")
	}
	// Bit-length must strictly decrease along the schedule.
	prev := 64.0
	for _, s := range steps {
		if s.q <= s.d*63 {
			t.Fatalf("step %+v: q not above dΔ", s)
		}
		if !isPrime(s.q) {
			t.Fatalf("step %+v: q not prime", s)
		}
		bits := 2 * log2(float64(s.q))
		if bits >= prev {
			t.Fatalf("step %+v does not shrink the color space (%f -> %f bits)", s, prev, bits)
		}
		prev = bits
	}
}

func log2(x float64) float64 {
	// small helper to avoid importing math in tests twice
	l := 0.0
	for x >= 2 {
		x /= 2
		l++
	}
	return l + x - 1 // adequate monotone approximation for the test
}

func TestPrimes(t *testing.T) {
	primes := []uint64{2, 3, 5, 7, 11, 127, 65537}
	for _, p := range primes {
		if !isPrime(p) {
			t.Fatalf("%d should be prime", p)
		}
	}
	composites := []uint64{0, 1, 4, 9, 100, 65536}
	for _, c := range composites {
		if isPrime(c) {
			t.Fatalf("%d should not be prime", c)
		}
	}
	if nextPrime(0) != 2 || nextPrime(8) != 11 || nextPrime(11) != 11 {
		t.Fatal("nextPrime wrong")
	}
}

// digitsBaseQ returns the d+1 base-q digits of c (little-endian) — the
// coefficients of the polynomial representing color c. With evalPoly it is
// the reference form of polyAt.
func digitsBaseQ(c, q uint64, d uint64) []uint64 {
	coeffs := make([]uint64, d+1)
	for i := range coeffs {
		coeffs[i] = c % q
		c /= q
	}
	return coeffs
}

// evalPoly evaluates the polynomial with the given coefficients at x mod q
// by Horner's rule.
func evalPoly(coeffs []uint64, x, q uint64) uint64 {
	var acc uint64
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc = (acc*x + coeffs[i]) % q
	}
	return acc
}

// refPick is the reference round rule: the first x in F_q at which self's
// digit polynomial, evaluated by Horner's rule, differs from every
// neighbor's, and the color (x, p(x)). ok is false when no x works.
func refPick(self uint64, nbrs []uint64, s step) (color uint64, ok bool) {
	mine := digitsBaseQ(self, s.q, s.d)
	for x := uint64(0); x < s.q; x++ {
		y := evalPoly(mine, x, s.q)
		free := true
		for _, other := range nbrs {
			if other == self || evalPoly(digitsBaseQ(other, s.q, s.d), x, s.q) == y {
				free = false
				break
			}
		}
		if free {
			return x*s.q + y, true
		}
	}
	return 0, false
}

func TestPolyEval(t *testing.T) {
	// p(x) = 3 + 2x + x^2 over F_5
	coeffs := []uint64{3, 2, 1}
	want := []uint64{3, 1, 1, 3, 2} // p(0..4) mod 5
	for x, w := range want {
		if got := evalPoly(coeffs, uint64(x), 5); got != w {
			t.Fatalf("p(%d) = %d, want %d", x, got, w)
		}
		if got := polyAt(3+2*5+1*25, newModulus(5), powersInto(make([]uint64, 3), uint64(x), newModulus(5))); got != w {
			t.Fatalf("polyAt(%d) = %d, want %d", x, got, w)
		}
	}
	d := digitsBaseQ(3+2*5+1*25, 5, 2)
	for i, c := range coeffs {
		if d[i] != c {
			t.Fatalf("digits = %v, want %v", d, coeffs)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for _, s := range []step{{1, 17}, {2, 127}, {3, 65537}, {7, 4294967291}, {maxDegree, 4294967291}} {
		for i := 0; i < 200; i++ {
			c, x := rng.Uint64(), rng.Uint64()%s.q
			q := newModulus(s.q)
			if got, want := polyAt(c, q, powersInto(make([]uint64, s.d+1), x, q)), evalPoly(digitsBaseQ(c, s.q, s.d), x, s.q); got != want {
				t.Fatalf("step %+v c=%d x=%d: polyAt %d, Horner %d", s, c, x, got, want)
			}
		}
	}
}

// starRound runs one linialRound on a star whose center holds self and
// whose leaves hold nbrs, and returns every vertex's new color.
func starRound(self uint64, nbrs []uint64, s step) []uint64 {
	states := append([]uint64{self}, nbrs...)
	run := local.NewRunner(local.New(graph.Star(len(states))), states)
	return linialRound(run, s)
}

// TestLinialRoundMatchesReference holds the allocation-free round kernel to
// the digits-and-Horner rule it replaced: over random stars, for every
// (d, q) step that planSteps schedules from 10- to 64-bit color spaces and
// Δ from 1 to 126, the center and every leaf must pick exactly the color
// the reference picks. States include raw IDs at or above 2³², neighbors
// forced to collide with the center at x = 0 (same lowest digit), and a
// neighbor equal to the center, on which the round must panic.
func TestLinialRoundMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	steps := 0
	for _, mBits := range []float64{10, 20, 32, 33, 40, 48, 64} {
		for _, delta := range []int{1, 2, 3, 5, 16, 63, 126} {
			in := mBits
			for _, s := range planSteps(mBits, delta) {
				steps++
				// Colors entering this step lie in [0, 2^in).
				draw := func() uint64 {
					if in >= 64 {
						return rng.Uint64()
					}
					return rng.Uint64() % (uint64(1) << uint(in))
				}
				for trial := 0; trial < 40; trial++ {
					self := draw()
					if trial%4 == 0 && in > 32 {
						self |= 1 << 32 // a raw ID at or above 2^32
					}
					deg := 1 + rng.Intn(delta)
					nbrs := make([]uint64, 0, deg)
					for len(nbrs) < deg {
						c := draw()
						if trial%2 == 1 {
							// Force an x = 0 collision: same lowest digit.
							c = c - c%s.q + self%s.q
						}
						if c != self {
							nbrs = append(nbrs, c)
						}
					}
					got := starRound(self, nbrs, s)
					want, ok := refPick(self, nbrs, s)
					if !ok || got[0] != want {
						t.Fatalf("step %+v center %d nbrs %v: kernel %d, reference %d (ok=%v)", s, self, nbrs, got[0], want, ok)
					}
					for i, c := range nbrs {
						want, _ := refPick(c, []uint64{self}, s)
						if got[i+1] != want {
							t.Fatalf("step %+v leaf %d: kernel %d, reference %d", s, c, got[i+1], want)
						}
					}
				}
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("step %+v: a neighbor equal to self did not panic", s)
						}
					}()
					self := draw()
					starRound(self, []uint64{draw() | 1, self}, s)
				}()
				in = 2 * math.Log2(float64(s.q))
			}
		}
	}
	if steps == 0 {
		t.Fatal("no steps planned")
	}
}

// Property: Color yields a proper Δ+1 coloring on random graphs with random
// ID permutations.
func TestColorProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(60)
		g := graph.PermuteIDs(graph.ErdosRenyi(n, 0.15, rng), rng)
		k := g.MaxDegree() + 1
		colors, _, err := ColorGraph(g, k)
		if err != nil {
			return false
		}
		c := coloring.NewPartial(n)
		copy(c.Colors, colors)
		return coloring.VerifyComplete(g, c, k) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestModulusMatchesDivision checks the Barrett quotient and remainder
// against the hardware division at the edges of both operands' ranges.
func TestModulusMatchesDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	qs := []uint64{1, 2, 3, 17, 34, 149, 1 << 16, 65537, 1<<32 - 1, 4294967291}
	for i := 0; i < 20; i++ {
		qs = append(qs, 1+rng.Uint64()%(1<<32-1))
	}
	for _, q := range qs {
		md := newModulus(q)
		cs := []uint64{0, 1, q - 1, q, q + 1, 2*q - 1, q * q, ^uint64(0), ^uint64(0) - 1}
		for i := 0; i < 200; i++ {
			cs = append(cs, rng.Uint64(), rng.Uint64()>>uint(rng.Intn(64)))
		}
		for _, c := range cs {
			if qt, r := md.divmod(c); qt != c/q || r != c%q {
				t.Fatalf("q=%d c=%d: divmod (%d, %d), want (%d, %d)", q, c, qt, r, c/q, c%q)
			}
		}
	}
}
