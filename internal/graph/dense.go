package graph

import (
	"fmt"
	"math/rand"
)

// This file contains the dense-graph families from the paper (Section 2,
// Definition 4): graphs whose almost-clique decomposition has no sparse
// vertices. Three flavors are provided:
//
//   - HardCliqueBipartite: every almost clique is a *hard* clique
//     (Definition 8) — the adversarial case driving Algorithm 2.
//   - EasyCliqueRing / EasyDenseBlocks: cliques riddled with non-clique
//     4-cycle loopholes — the case handled by Algorithm 3.
//   - HardWithEasyPatch: hard construction with one clique weakened into an
//     easy clique, exercising the Type II path of Lemma 12.
//
// Hardness rationale for HardCliqueBipartite: with clique size exactly Δ,
// every vertex has exactly one external ("matching") edge. Any non-clique
// cycle on at most 6 vertices projects (contracting intra-clique edges) to a
// closed walk of length <= 6 in the super-graph H of cliques. Walks of
// length 2 need a multi-edge, length 3 a triangle, length 4 a four-cycle or
// a reused edge, odd lengths are impossible in bipartite H, and a length-6
// walk that is a 6-cycle of external edges would need a vertex with two
// external edges (impossible for clique size Δ). Choosing H simple,
// bipartite, and triangle-free therefore eliminates every loophole, and all
// vertices have degree exactly Δ, so no degree-deficient loopholes exist
// either. TestHardCliqueBipartiteIsHard verifies this with the loophole
// detector.

// CliquePartition describes a graph built from vertex-disjoint cliques.
// Generators in this file return it alongside the graph so tests can compare
// the ground-truth partition with the ACD computed distributively.
type CliquePartition struct {
	// Member maps each vertex to its clique index.
	Member []int
	// Cliques lists the vertex sets, sorted.
	Cliques [][]int
}

// DenseFamily builds a dense paper family by name from arguments nobody
// has checked: "hard" is HardCliqueBipartite(m, delta), "easy"
// EasyCliqueRing(m, delta) and "mixed" HardWithEasyPatch(m, delta). An
// unknown family, a graph of more than maxN vertices (when maxN > 0), or
// arguments outside the family's domain are an error, never a panic; the
// checks run in that order, and the size check cannot overflow.
func DenseFamily(family string, m, delta, maxN int) (*Graph, error) {
	var build func(m, delta int) (*Graph, *CliquePartition)
	switch family {
	case "hard":
		build = HardCliqueBipartite
	case "easy":
		build = EasyCliqueRing
	case "mixed":
		build = HardWithEasyPatch
	default:
		return nil, denseFamilyErr(family, m, delta)
	}
	// Cap m and delta individually first so n <= 2*m*delta cannot overflow.
	if maxN > 0 && (m > maxN || delta > maxN || (m > 0 && delta > 0 && 2*m*delta > maxN)) {
		return nil, fmt.Errorf("gen %s m=%d delta=%d exceeds the %d-vertex limit", family, m, delta, maxN)
	}
	if err := denseFamilyErr(family, m, delta); err != nil {
		return nil, err
	}
	g, _ := build(m, delta)
	return g, nil
}

// denseFamilyErr says why (m, delta) is outside the named dense family's
// domain, or returns nil. It is the one statement of each family's
// preconditions: DenseFamily returns it and the generators panic with it.
func denseFamilyErr(family string, m, delta int) error {
	var ok bool
	var need string
	switch family {
	case "hard":
		ok, need = delta >= 2 && m >= delta, "2 <= delta <= m"
	case "easy":
		ok, need = m >= 4 && delta >= 4 && delta%2 == 0, "m >= 4 and even delta >= 4"
	case "mixed":
		ok, need = m >= 4 && delta >= 3 && m >= delta, "m >= max(4, delta) and delta >= 3"
	default:
		return fmt.Errorf("unknown gen family %q (want hard, easy, or mixed)", family)
	}
	if ok {
		return nil
	}
	return fmt.Errorf("gen %s needs %s, got m=%d delta=%d", family, need, m, delta)
}

// mustDenseFamily panics when (m, delta) is outside the named family's
// domain; the generators take trusted arguments.
func mustDenseFamily(family string, m, delta int) {
	if err := denseFamilyErr(family, m, delta); err != nil {
		panic("graph: " + err.Error())
	}
}

// emitCliques emits the edges of k disjoint copies of K_size, clique c on
// the vertices [c*size, (c+1)*size). Every clique-built generator starts
// from it; cliquePartition is the matching partition.
func emitCliques(k, size int, emit func(u, v int)) {
	for c := 0; c < k; c++ {
		base := c * size
		for u := 0; u < size; u++ {
			for v := u + 1; v < size; v++ {
				emit(base+u, base+v)
			}
		}
	}
}

// cliquePartition returns the partition of k*size vertices into the k
// cliques emitCliques lays out.
func cliquePartition(k, size int) *CliquePartition {
	part := &CliquePartition{Member: make([]int, k*size), Cliques: make([][]int, k)}
	for c := range part.Cliques {
		members := make([]int, size)
		for u := range members {
			members[u] = c*size + u
			part.Member[c*size+u] = c
		}
		part.Cliques[c] = members
	}
	return part
}

// HardCliqueBipartite builds a dense graph in which every almost clique is a
// hard clique. It places 2m cliques of size delta (m per side of a bipartite
// super-graph) and connects vertex j of left clique i to vertex j of right
// clique (i+j) mod m, realizing a delta-regular, triangle-free, simple
// super-graph. Every vertex has degree exactly delta = Δ. Requires m >= delta
// >= 2. Total size n = 2*m*delta.
func HardCliqueBipartite(m, delta int) (*Graph, *CliquePartition) {
	mustDenseFamily("hard", m, delta)
	// Clique c occupies [c*delta, (c+1)*delta). Left cliques are 0..m-1,
	// right cliques m..2m-1.
	b := NewBuilder(2 * m * delta)
	emitCliques(2*m, delta, b.AddEdge)
	for i := 0; i < m; i++ {
		for j := 0; j < delta; j++ {
			left := i*delta + j
			right := (m+(i+j)%m)*delta + j
			b.AddEdge(left, right)
		}
	}
	return b.MustBuild(), cliquePartition(2*m, delta)
}

// EasyCliqueRing builds a ring of k cliques of size delta where each clique
// is matched to its two ring neighbors with delta/2 parallel matching edges
// each. Adjacent matched pairs create non-clique 4-cycles, so every clique
// is easy (Definition 8). Requires k >= 4 and even delta >= 4. The edges are
// EasyCliqueRingStream's, on one worker.
func EasyCliqueRing(k, delta int) (*Graph, *CliquePartition) {
	mustDenseFamily("easy", k, delta)
	g, err := EasyCliqueRingStream(k, delta, 1)
	if err != nil {
		panic(err)
	}
	return g, cliquePartition(k, delta)
}

// EasyDenseBlocks builds a dense graph of k cliques of size `size` where
// each vertex has e = 2*spread external edges: clique i is joined to cliques
// i±s (s = 1..spread) by full rotated perfect matchings. The resulting
// almost cliques have size < Δ and abundant 4-cycle loopholes. Max degree is
// Δ = size-1+2*spread. Requires k > 2*spread >= 2 and size > 2*spread (so
// intra-clique edges dominate and the ACD classifies every vertex as dense
// for reasonable parameters).
func EasyDenseBlocks(k, size, spread int) (*Graph, *CliquePartition) {
	if spread < 1 || k <= 2*spread || size <= 2*spread {
		panic(fmt.Sprintf("graph: EasyDenseBlocks needs k > 2*spread >= 2 and size > 2*spread, got k=%d size=%d spread=%d", k, size, spread))
	}
	b := NewBuilder(k * size)
	emitCliques(k, size, b.AddEdge)
	for c := 0; c < k; c++ {
		for s := 1; s <= spread; s++ {
			next := (c + s) % k
			for v := 0; v < size; v++ {
				// Rotate by s so different bundles of the same clique pair
				// never coincide and the graph stays simple.
				b.AddEdge(c*size+v, next*size+(v+s)%size)
			}
		}
	}
	return b.MustBuild(), cliquePartition(k, size)
}

// HardWithEasyPatch builds HardCliqueBipartite(m, delta) and rewires two
// matching edges so that left clique 0 and right clique 0 are joined by two
// parallel matching edges — creating a non-clique 4-cycle loophole between
// them — while every degree stays exactly Δ and the clique partition is
// unchanged. The displaced edges are rejoined as a second matching edge
// between two other cliques, making those easy as well. The result is a
// dense graph mixing hard cliques with a few easy ones, where hard cliques
// adjacent to easy cliques exercise the Type II branch of Lemma 12.
// Requires m >= max(4, delta) and delta >= 3.
func HardWithEasyPatch(m, delta int) (*Graph, *CliquePartition) {
	mustDenseFamily("mixed", m, delta)
	g, part := HardCliqueBipartite(m, delta)
	right := func(i, slot int) int { return (m+i%m)*delta + slot }
	left := func(i, slot int) int { return (i%m)*delta + slot }
	// Original matching edges: L0 slot1 -> R1 slot1, and R0 slot1's partner
	// L_{m-1} slot1 (since L_{m-1}+1 = R0 at slot 1).
	v1, x := left(0, 1), right(1, 1)
	y, w1 := left(m-1, 1), right(0, 1)
	// New edges: v1-w1 doubles the L0-R0 connection (4-cycle with the slot-0
	// edge), x-y doubles the L_{m-1}-R1 connection (slot 2 already joins
	// them). ApplyEdits is strict: both removed edges must be present and
	// both added edges absent.
	g, err := ApplyEdits(g, g.N(), []Edge{{U: v1, V: w1}, {U: x, V: y}},
		[]Edge{{U: v1, V: x}, {U: y, V: w1}})
	if err != nil {
		panic(err)
	}
	return g, part
}

// MixedDenseRandom builds a dense graph of k cliques of size `size` where
// every vertex has exactly two external edges (e_C = 2, so Δ = size+1),
// wired by a random pairing of external slots subject to: no edge inside a
// clique and at most one edge between any clique pair (which needs
// k > 2*size). Some cliques come out hard and some easy (random slot
// coincidences create small-cycle loopholes); callers classify with the
// loophole package. This family exercises the pipeline paths that only
// arise when the maximal matching F1 is not a perfect matching — e.g. the
// f(v) != v proposals of Section 3.3.
//
// The ACD conditions need ε·Δ >= 4 for e_C = 2, so pair it with ε = 1/8
// and size >= 31 (Δ = size+1). Requires k > 2*size and even k*size.
func MixedDenseRandom(k, size int, rng *rand.Rand) (*Graph, *CliquePartition) {
	if size < 4 || k <= 2*size || (k*size)%2 != 0 {
		panic(fmt.Sprintf("graph: MixedDenseRandom needs k > 2*size >= 8 and k*size even; got k=%d size=%d", k, size))
	}
	n := k * size
	for attempt := 0; attempt < 400; attempt++ {
		g, part, ok := tryMixedDense(k, size, n, rng)
		if ok {
			return g, part
		}
	}
	panic("graph: MixedDenseRandom failed to converge; increase k")
}

func tryMixedDense(k, size, n int, rng *rand.Rand) (*Graph, *CliquePartition, bool) {
	b := NewBuilder(n)
	emitCliques(k, size, b.AddEdge)
	part := cliquePartition(k, size)
	// Two external slots per vertex, paired randomly under the constraints.
	slots := make([]int, 0, 2*n)
	for v := 0; v < n; v++ {
		slots = append(slots, v, v)
	}
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	superAdj := make([]map[int]bool, k) // clique super-graph adjacency
	for c := range superAdj {
		superAdj[c] = map[int]bool{}
	}
	// Greedy pairing with local repair: walk the shuffled slots, pair each
	// with the first later slot that satisfies all constraints.
	taken := make([]bool, len(slots))
	for i := range slots {
		if taken[i] {
			continue
		}
		paired := false
		for j := i + 1; j < len(slots); j++ {
			if taken[j] {
				continue
			}
			u, v := slots[i], slots[j]
			cu, cv := part.Member[u], part.Member[v]
			if u == v || cu == cv || superAdj[cu][cv] {
				continue
			}
			superAdj[cu][cv] = true
			superAdj[cv][cu] = true
			b.AddEdge(u, v)
			taken[i], taken[j] = true, true
			paired = true
			break
		}
		if !paired {
			return nil, nil, false
		}
	}
	return b.MustBuild(), part, true
}

// RemoveEdges returns a copy of g with the given edges deleted. Unknown
// edges are ignored. IDs are preserved.
func RemoveEdges(g *Graph, del []Edge) *Graph {
	drop := make(map[Edge]bool, len(del))
	for _, e := range del {
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		drop[e] = true
	}
	b := NewBuilder(g.N())
	for v := 0; v < g.N(); v++ {
		b.SetID(v, g.ID(v))
		for _, w := range g.Neighbors(v) {
			if v < int(w) && !drop[Edge{U: v, V: int(w)}] {
				b.AddEdge(v, int(w))
			}
		}
	}
	return b.MustBuild()
}
