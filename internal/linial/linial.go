// Package linial implements Linial's classic O(log* n)-round coloring
// algorithm [Lin92] together with the standard color-class reduction, the
// symmetry-breaking substrate used by the maximal-matching, MIS, ruling-set,
// and list-coloring packages.
//
// One Linial step reduces a proper m-coloring to a proper q²-coloring
// (q ≈ dΔ) in a single round using the algebraic cover-free family: color c
// is interpreted as a polynomial p_c of degree ≤ d over F_q (its base-q
// digits); two distinct polynomials agree on at most d points, so among the
// q > dΔ evaluation points each vertex finds an x where its polynomial
// differs from those of all ≤ Δ neighbors and adopts (x, p_c(x)) as its new
// color. Iterating reaches O(Δ² log² Δ) colors in O(log* m) rounds, after
// which class-by-class reduction yields the target palette in O(Δ²)
// additional rounds.
package linial

import (
	"fmt"
	"math"
	"math/bits"

	"deltacoloring/internal/graph"
	"deltacoloring/internal/local"
)

// step describes one Linial reduction round: colors in [0, m) shrink to
// [0, q*q) via degree-d polynomials over F_q.
type step struct {
	d, q uint64
}

// planSteps precomputes the deterministic (d, q) schedule for reducing
// colors from an initial space of mBits bits down to the fixed point. The
// schedule is a pure function of (mBits, Δ), so every node knows it.
func planSteps(mBits float64, delta int) []step {
	if delta < 1 {
		return nil
	}
	var steps []step
	for iter := 0; iter < 64; iter++ {
		s, ok := chooseStep(mBits, delta)
		if !ok {
			break
		}
		newBits := 2 * math.Log2(float64(s.q))
		if newBits >= mBits {
			break // fixed point reached; further steps make it worse
		}
		steps = append(steps, s)
		mBits = newBits
	}
	return steps
}

// maxDegree bounds the polynomial degree d of a step.
const maxDegree = 80

// chooseStep picks the smallest degree d (hence smallest q and output space)
// such that q^(d+1) can encode all current colors.
func chooseStep(mBits float64, delta int) (step, bool) {
	for d := uint64(1); d <= maxDegree; d++ {
		q := nextPrime(d*uint64(delta) + 1)
		if float64(d+1)*math.Log2(float64(q)) >= mBits {
			return step{d: d, q: q}, true
		}
	}
	return step{}, false
}

func nextPrime(n uint64) uint64 {
	if n < 2 {
		return 2
	}
	for {
		if isPrime(n) {
			return n
		}
		n++
	}
}

func isPrime(n uint64) bool {
	if n < 2 {
		return false
	}
	for d := uint64(2); d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// modulus divides by a fixed q in [1, 2³²) with one 64×64→128-bit
// multiplication (Barrett reduction) in place of a hardware division: the
// Linial round reduces every neighbor's color modulo its step's q, on the
// hottest loop of the algorithm.
type modulus struct{ q, m uint64 }

// newModulus precomputes m = ⌊(2⁶⁴−1)/q⌋.
func newModulus(q uint64) modulus { return modulus{q: q, m: ^uint64(0) / q} }

// divmod returns c/q and c%q. The estimate ⌊c·m/2⁶⁴⌋ undershoots c/q by at
// most one, so one conditional correction makes both exact.
func (md modulus) divmod(c uint64) (uint64, uint64) {
	qt, _ := bits.Mul64(c, md.m)
	r := c - qt*md.q
	if r >= md.q {
		r -= md.q
		qt++
	}
	return qt, r
}

// mod returns c%q.
func (md modulus) mod(c uint64) uint64 {
	_, r := md.divmod(c)
	return r
}

// powersInto fills pw with x^0, ..., x^(len(pw)-1) mod q and returns it.
func powersInto(pw []uint64, x uint64, q modulus) []uint64 {
	xp := uint64(1)
	for i := range pw {
		pw[i] = xp
		xp = q.mod(xp * x)
	}
	return pw
}

// polyAt evaluates over F_q the polynomial p_c whose coefficients are the
// len(pw) little-endian base-q digits of c, at the point whose powers are
// pw (see powersInto). The digits are peeled off c as the sum runs, so no
// coefficient slice is built, and the sum is carried in 128 bits and
// reduced once; the value is the one Horner's rule gives. Each term is
// below q², which fits a uint64 for q < 2³².
func polyAt(c uint64, q modulus, pw []uint64) uint64 {
	var hi, lo, carry uint64
	for _, xp := range pw {
		var digit uint64
		c, digit = q.divmod(c)
		lo, carry = bits.Add64(lo, digit*xp, 0)
		hi += carry
	}
	return bits.Rem64(hi, lo, q.q)
}

// Color computes a proper coloring of net's graph with at most
// max(target, Δ+1) colors, starting from the graph's unique IDs, in
// O(log* n + Δ² ) rounds. target must be at least Δ+1.
func Color(net *local.Network, target int) ([]int, error) {
	g := net.Graph()
	delta := g.MaxDegree()
	if target < delta+1 {
		return nil, fmt.Errorf("linial: target %d below Δ+1 = %d", target, delta+1)
	}
	if g.N() == 0 {
		return nil, nil
	}
	if delta == 0 {
		return make([]int, g.N()), nil
	}

	// Initial colors: the 64-bit unique IDs.
	cur := make([]uint64, g.N())
	var maxID uint64
	for v := range cur {
		cur[v] = g.ID(v)
		if cur[v] > maxID {
			maxID = cur[v]
		}
	}
	mBits := math.Log2(float64(maxID) + 2)

	// Phase 1: Linial reduction rounds (the schedule is globally known).
	m := maxID + 1
	run := local.NewRunner(net, cur)
	for _, s := range planSteps(mBits, delta) {
		cur = linialRound(run, s)
		m = s.q * s.q
	}

	// Phase 2: batched Kuhn–Wattenhofer reduction from m colors to target.
	colors, err := Reduce(net, toInts(cur), int(m), target)
	if err != nil {
		return nil, err
	}
	return colors, nil
}

func toInts(cur []uint64) []int {
	out := make([]int, len(cur))
	for i, c := range cur {
		out[i] = int(c)
	}
	return out
}

// linialRound performs one algebraic reduction round on the state engine.
// Each vertex adopts the first x in F_q where its polynomial differs from
// every neighbor's, as (x, p_c(x)). The round allocates nothing.
func linialRound(run *local.Runner[uint64], s step) []uint64 {
	q := newModulus(s.q)
	return run.Step(func(v int, self uint64, nbrs local.Nbrs[uint64]) uint64 {
		// x = 0 first, where p_c(0) is c's lowest digit; most vertices stop
		// here. A neighbor equal to self (an improper input) fails every x.
		y := q.mod(self)
		ok := true
		for i := 0; i < nbrs.Len(); i++ {
			if q.mod(nbrs.State(i)) == y {
				ok = false
				break
			}
		}
		if ok {
			return y
		}
		var buf [maxDegree + 1]uint64
		for x := uint64(1); x < s.q; x++ {
			pw := powersInto(buf[:s.d+1], x, q)
			y := polyAt(self, q, pw)
			ok := true
			for i := 0; i < nbrs.Len(); i++ {
				if other := nbrs.State(i); other == self || polyAt(other, q, pw) == y {
					ok = false
					break
				}
			}
			if ok {
				return x*s.q + y
			}
		}
		// Unreachable when the invariant holds: ≤ dΔ < q bad points.
		panic(fmt.Sprintf("linial: no free evaluation point at vertex %d (improper input coloring?)", v))
	})
}

// Reduce lowers a proper coloring with colors in [0, m) to a proper
// coloring with colors in [0, target), target >= Δ+1, using the batched
// Kuhn–Wattenhofer scheme: the color space is cut into blocks of 2·target
// colors; in parallel over blocks, the top `target` colors of each block are
// retired one per round (vertices recolor greedily inside their block, which
// is safe because same-round recolorers in different blocks land in disjoint
// ranges and same-block classes are independent sets). Each halving costs
// `target` rounds, so the total is O(target · log(m/target)) rounds.
func Reduce(net *local.Network, cur []int, m, target int) ([]int, error) {
	g := net.Graph()
	if target < g.MaxDegree()+1 {
		return nil, fmt.Errorf("linial: reduction target %d below Δ+1 = %d", target, g.MaxDegree()+1)
	}
	for v, c := range cur {
		if c < 0 || c >= m {
			return nil, fmt.Errorf("linial: vertex %d has color %d outside [0,%d)", v, c, m)
		}
	}
	out := make([]int, len(cur))
	copy(out, cur)
	run := local.NewRunner(net, out)
	for m > target {
		blockSize := 2 * target
		// Colors >= m exist nowhere; since m is global knowledge the
		// schedule can skip classes that are empty in every block.
		firstTop := blockSize - 1
		if m-1 < firstTop {
			firstTop = m - 1
		}
		// One halving retires tops firstTop..target as a frontier-scheduled
		// sweep. Seeding by the in-block slot at the halving's start is
		// exact (local.ExactSeed): a vertex recolors only in its own slot's
		// round and lands strictly below target, so it can never match a
		// later top, and no vertex changes in reaction to a neighbor.
		bs := newModulus(uint64(blockSize))
		states := run.States()
		buckets := make([][]int32, blockSize)
		for v, c := range states {
			if slot := int(bs.mod(uint64(c))); slot >= target {
				buckets[slot] = append(buckets[slot], int32(v))
			}
		}
		out = run.Sweep(firstTop-target+1, local.ExactSeed, func(r int, mark func(int)) {
			for _, v := range buckets[firstTop-r] {
				mark(int(v))
			}
		}, func(r, v int, self int, nbrs local.Nbrs[int]) int {
			block, slot := bs.divmod(uint64(self))
			if int(slot) != firstTop-r {
				return self
			}
			// The smallest in-block slot below target that no neighbor
			// holds, searched one 64-slot window at a time with a mask and a
			// trailing-zeros count, so a recolor allocates nothing. Fewer
			// than target neighbors leave a free slot by the window holding
			// slot deg. A window lies inside the block (base+width <=
			// target < blockSize), so a neighbor's offset from the window's
			// first color decides both block and slot without a division.
			blockStart := int(block) * blockSize
			for base := 0; base < target; base += 64 {
				width := min(64, target-base)
				lo := blockStart + base
				var used uint64
				for i := 0; i < nbrs.Len(); i++ {
					if off := nbrs.State(i) - lo; uint(off) < uint(width) {
						used |= 1 << off
					}
				}
				if free := ^used & (1<<width - 1); free != 0 {
					return lo + bits.TrailingZeros64(free)
				}
			}
			panic("linial: no free slot during reduction (degree invariant violated)")
		})
		// Compact: every color now has slot < target within its block.
		numBlocks := (m + blockSize - 1) / blockSize
		for v, c := range out {
			block, slot := bs.divmod(uint64(c))
			out[v] = int(block)*target + int(slot)
		}
		m = numBlocks * target
	}
	return out, nil
}

// ColorGraph is a convenience wrapper building a throwaway network; it
// returns the coloring and the number of rounds consumed.
func ColorGraph(g *graph.Graph, target int) ([]int, int, error) {
	net := local.New(g)
	colors, err := Color(net, target)
	return colors, net.Rounds(), err
}
