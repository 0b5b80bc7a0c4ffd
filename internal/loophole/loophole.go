// Package loophole implements the paper's loophole machinery (Definition 6,
// Lemma 7, Definition 8): detection of constant-size slack sources, the
// hard/easy classification of almost cliques, and brute-force completion of
// partial colorings on loopholes.
//
// A loophole is (1) a vertex of degree < Δ, or (2) an even-length cycle on
// at most 6 vertices whose vertex set does not induce a clique. An almost
// clique is *hard* when no loophole of at most 6 vertices intersects it
// (Definition 8), which forces the strong structure of Lemma 9: the AC is a
// true clique, every member has degree exactly Δ, and no outsider has two
// neighbors in it.
//
// Two detectors are provided. FindForVertex enumerates cycles through one
// vertex and is exact but O(Δ^5) per vertex — fine for tests and small
// graphs. Classify exploits the ACD structure to classify every clique and
// produce witness loopholes in near-linear time; its case analysis (see
// classify.go) is exactly the contrapositive of the Lemma 9/Lemma 10 proofs.
package loophole

import (
	"fmt"
	"sort"
	"sync"

	"deltacoloring/internal/graph"
)

// Loophole is a constant-size slack source.
type Loophole struct {
	// Verts lists the loophole's vertices, sorted. A single vertex means a
	// degree-deficient loophole; 4 or 6 vertices mean an even non-clique
	// cycle given in cycle order by Cycle.
	Verts []int
	// Cycle lists the vertices in cycle order (nil for singletons).
	Cycle []int
	// ExternalSlack marks a singleton whose slack comes from an uncolored
	// neighbor outside the current instance rather than a degree deficit —
	// the extended loophole notion of the randomized post-shattering phase
	// (Section 4, Step 6).
	ExternalSlack bool
}

func newSingleton(v int) *Loophole {
	return &Loophole{Verts: []int{v}}
}

// NewExternalSlack returns a singleton loophole backed by out-of-instance
// slack. Its validity is contextual (the caller guarantees an uncolored
// neighbor outside the instance), so Validate only checks the shape.
func NewExternalSlack(v int) *Loophole {
	return &Loophole{Verts: []int{v}, ExternalSlack: true}
}

func newCycle(cycle []int) *Loophole {
	vs := append([]int(nil), cycle...)
	sort.Ints(vs)
	return &Loophole{Verts: vs, Cycle: append([]int(nil), cycle...)}
}

// Validate checks that l is a genuine loophole of g with respect to maximum
// degree delta.
func (l *Loophole) Validate(g *graph.Graph, delta int) error {
	switch len(l.Verts) {
	case 1:
		if !l.ExternalSlack && g.Degree(l.Verts[0]) >= delta {
			return fmt.Errorf("loophole: vertex %d: full degree %d", l.Verts[0], delta)
		}
		return nil
	case 4, 6:
		if len(l.Cycle) != len(l.Verts) {
			return fmt.Errorf("loophole: cycle order missing")
		}
		seen := map[int]bool{}
		for i, v := range l.Cycle {
			if seen[v] {
				return fmt.Errorf("loophole: vertex %d: repeated in cycle", v)
			}
			seen[v] = true
			w := l.Cycle[(i+1)%len(l.Cycle)]
			if !g.HasEdge(v, w) {
				return fmt.Errorf("loophole: edge (%d,%d): missing cycle edge", v, w)
			}
		}
		if g.IsClique(l.Verts) {
			return fmt.Errorf("loophole: cycle %v induces a clique", l.Verts)
		}
		return nil
	default:
		return fmt.Errorf("loophole: unsupported size %d", len(l.Verts))
	}
}

// FindForVertex returns some loophole containing v, or nil. It is exact:
// it checks degree deficiency, then enumerates 4-cycles and 6-cycles
// through v. Intended for tests and modest graphs (cost up to ~Δ^5 per
// call).
func FindForVertex(g *graph.Graph, delta, v int) *Loophole {
	if g.Degree(v) < delta {
		return newSingleton(v)
	}
	if c := fourCycleThrough(g, v); c != nil {
		return c
	}
	return sixCycleThrough(g, v)
}

// fourCycleThrough searches for a non-clique 4-cycle v-a-x-b.
func fourCycleThrough(g *graph.Graph, v int) *Loophole {
	nv := g.Neighbors(v)
	for i := 0; i < len(nv); i++ {
		a := int(nv[i])
		for j := i + 1; j < len(nv); j++ {
			b := int(nv[j])
			for _, nx := range g.Neighbors(a) {
				x := int(nx)
				if x == v || x == b || !g.HasEdge(x, b) {
					continue
				}
				cand := []int{v, a, x, b}
				if !g.IsClique(cand) {
					return newCycle(cand)
				}
			}
		}
	}
	return nil
}

// Adjacency marks of the 6-cycle search, one bit per fixed path vertex.
const (
	nearV uint8 = 1 << iota
	nearA
	nearE
)

// markPool holds the n-sized mark arrays of the 6-cycle search; between
// uses every entry is zero.
var markPool = sync.Pool{New: func() any { return new([]uint8) }}

// sixCycleThrough searches for a non-clique 6-cycle v-a-b-c-d-e by
// extending paths a-b-c-d to e, over every ordered neighbor pair (a, e) of
// v. It returns the first such cycle in that order. Adjacency to v, a and e
// is read from marks on their neighbors, so a closing path costs O(1) plus
// at most one search (b-d), where a binary search per vertex pair would
// cost fifteen.
func sixCycleThrough(g *graph.Graph, v int) *Loophole {
	buf := markPool.Get().(*[]uint8)
	if len(*buf) < g.N() {
		*buf = make([]uint8, g.N())
	}
	mark := *buf
	// toggle sets bit on u's neighbors, and clears it again the second time.
	toggle := func(u int, bit uint8) {
		for _, w := range g.Neighbors(u) {
			mark[w] ^= bit
		}
	}
	nv := g.Neighbors(v)
	toggle(v, nearV)
	var found *Loophole
	for _, na := range nv {
		a := int(na)
		toggle(a, nearA)
		for _, ne := range nv {
			e := int(ne)
			if e == a {
				continue
			}
			toggle(e, nearE)
			found = closeSixCycle(g, mark, v, a, e)
			toggle(e, nearE)
			if found != nil {
				break
			}
		}
		toggle(a, nearA)
		if found != nil {
			break
		}
	}
	toggle(v, nearV)
	markPool.Put(buf)
	return found
}

// closeSixCycle returns the first non-clique cycle v-a-b-c-d-e for fixed
// a and e, with mark holding the nearV, nearA and nearE bits.
func closeSixCycle(g *graph.Graph, mark []uint8, v, a, e int) *Loophole {
	for _, nb := range g.Neighbors(a) {
		b := int(nb)
		if b == v || b == e {
			continue
		}
		for _, nc := range g.Neighbors(b) {
			c := int(nc)
			if c == v || c == a || c == e {
				continue
			}
			for _, nd := range g.Neighbors(c) {
				d := int(nd)
				if d == v || d == a || d == b || d == e || mark[d]&nearE == 0 {
					continue
				}
				// The cycle's own six edges are given; the set is a clique
				// iff the nine chords are edges too.
				clique := mark[b]&nearV != 0 && mark[c]&nearV != 0 && mark[d]&nearV != 0 &&
					mark[c]&nearA != 0 && mark[d]&nearA != 0 && mark[a]&nearE != 0 &&
					mark[b]&nearE != 0 && mark[c]&nearE != 0 && g.HasEdge(b, d)
				if !clique {
					return newCycle([]int{v, a, b, c, d, e})
				}
			}
		}
	}
	return nil
}

// FindAll returns a witness loophole per vertex (nil where none exists),
// using the exact per-vertex search. Exponentially cheaper detectors for
// the pipeline live in classify.go.
func FindAll(g *graph.Graph, delta int) []*Loophole {
	out := make([]*Loophole, g.N())
	for v := 0; v < g.N(); v++ {
		out[v] = FindForVertex(g, delta, v)
	}
	return out
}
