package graph

import (
	"sort"
	"sync"
)

// Sub is an induced subgraph together with the vertex mapping back to the
// parent graph.
type Sub struct {
	// G is the induced subgraph with vertices renumbered to [0, len(ToParent)).
	G *Graph
	// ToParent maps subgraph vertex -> parent vertex.
	ToParent []int
	// FromParent maps parent vertex -> subgraph vertex, or -1. Induced
	// leaves it nil, since a parent-sized map would make every induced
	// subgraph cost O(parent n); a caller that needs the reverse lookup
	// builds it from ToParent.
	FromParent []int
}

// inducerScratch is the reusable relabel array behind Induced. Between uses
// every entry is -1; Induced marks only the member vertices and sparsely
// resets them afterwards, so a pooled scratch costs O(len(vs)) per call
// instead of O(parent n) once it has grown to the parent size.
type inducerScratch struct {
	relabel []int32
}

var inducerPool = sync.Pool{New: func() any { return new(inducerScratch) }}

func (sc *inducerScratch) grow(n int) {
	if len(sc.relabel) >= n {
		return
	}
	old := len(sc.relabel)
	sc.relabel = append(sc.relabel, make([]int32, n-old)...)
	for i := old; i < n; i++ {
		sc.relabel[i] = -1
	}
}

// Induced returns the subgraph of g induced by vs (duplicates are ignored).
// IDs are inherited from the parent so symmetry breaking stays consistent.
// It costs O(len(vs) + their degrees) and leaves FromParent nil.
//
// The subgraph is assembled in CSR form in two passes over the members'
// adjacency, one counting and one filling the exactly sized edge array:
// because members are processed in ascending order and the relabeling is
// monotone, the emitted neighbor runs are already sorted and deduplicated,
// so no post-processing pass is needed.
func Induced(g *Graph, vs []int) *Sub {
	sc := inducerPool.Get().(*inducerScratch)
	sc.grow(g.N())
	relabel := sc.relabel

	uniq := make([]int, 0, len(vs))
	for _, v := range vs {
		if relabel[v] < 0 {
			relabel[v] = 0 // membership mark; real labels assigned below
			uniq = append(uniq, v)
		}
	}
	sort.Ints(uniq)
	for i, v := range uniq {
		relabel[v] = int32(i)
	}

	k := len(uniq)
	offsets := make([]int32, k+1)
	ids := make([]uint64, k)
	for i, v := range uniq {
		ids[i] = g.ID(v)
		deg := int32(0)
		for _, w := range g.Neighbors(v) {
			if relabel[w] >= 0 {
				deg++
			}
		}
		offsets[i+1] = offsets[i] + deg
	}
	edges := make([]int32, 0, offsets[k])
	for _, v := range uniq {
		for _, w := range g.Neighbors(v) {
			if j := relabel[w]; j >= 0 {
				edges = append(edges, j)
			}
		}
	}

	for _, v := range uniq {
		relabel[v] = -1 // sparse reset for the next pooled use
	}
	inducerPool.Put(sc)

	return &Sub{G: fromCSR(offsets, edges, ids), ToParent: uniq}
}

// Power returns the r-th power graph of g: vertices are the same and u~v iff
// 1 <= dist(u,v) <= r. Used for distance-r ruling sets; one round on the
// power graph costs r rounds on g (see internal/local.Virtual).
func Power(g *Graph, r int) *Graph {
	b := NewBuilder(g.N())
	for v := 0; v < g.N(); v++ {
		b.SetID(v, g.ID(v))
		for _, w := range g.NeighborsWithin(v, r) {
			if v < w {
				b.AddEdge(v, w)
			}
		}
	}
	return b.MustBuild()
}

// LineGraph returns the line graph of g: one vertex per edge of g, with two
// line-vertices adjacent iff the underlying edges share an endpoint. The
// second return value lists the underlying edge of each line-vertex.
// Line-vertex IDs are the rank of the edge in lexicographic order, which is
// a valid unique ID computable locally from endpoint IDs in the LOCAL model
// (we use the pair encoding directly).
func LineGraph(g *Graph) (*Graph, []Edge) {
	edges := g.Edges()
	idx := make(map[Edge]int, len(edges))
	for i, e := range edges {
		idx[e] = i
	}
	b := NewBuilder(len(edges))
	for i, e := range edges {
		// Encode endpoint IDs into a unique 64-bit ID (supports n < 2^32).
		b.SetID(i, g.ID(e.U)<<32|g.ID(e.V)&0xffffffff)
		for _, ends := range [2]int{e.U, e.V} {
			for _, w := range g.Neighbors(ends) {
				var f Edge
				if ends < int(w) {
					f = Edge{U: ends, V: int(w)}
				} else {
					f = Edge{U: int(w), V: ends}
				}
				if f == e {
					continue
				}
				j := idx[f]
				if i < j {
					b.AddEdge(i, j)
				}
			}
		}
	}
	return b.MustBuild(), edges
}

// Union returns the disjoint union of the given graphs, with vertices of
// graph i offset by the total size of graphs 0..i-1. IDs are re-based to
// stay unique.
func Union(gs ...*Graph) *Graph {
	n := 0
	for _, g := range gs {
		n += g.N()
	}
	b := NewBuilder(n)
	off := 0
	var idOff uint64
	for _, g := range gs {
		var maxID uint64
		for v := 0; v < g.N(); v++ {
			if g.ID(v) > maxID {
				maxID = g.ID(v)
			}
			b.SetID(off+v, idOff+g.ID(v))
			for _, w := range g.Neighbors(v) {
				if v < int(w) {
					b.AddEdge(off+v, off+int(w))
				}
			}
		}
		off += g.N()
		idOff += maxID + 1
	}
	return b.MustBuild()
}
