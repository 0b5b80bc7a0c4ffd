// Package graph provides the static graph substrate used by every other
// package in this repository: adjacency structures, generators for the
// dense-graph families studied in the paper, induced subgraphs, and basic
// structural predicates (cliques, degrees, common neighborhoods).
//
// Vertices are dense integer indices in [0, N). Every vertex additionally
// carries a unique identifier (ID) used by the distributed algorithms for
// symmetry breaking; by default ID(v) == v, but tests may permute IDs to
// ensure no algorithm silently depends on index order.
//
// # Storage layout
//
// Adjacency is stored in compressed sparse row (CSR) form: a single flat
// edge array shared by all vertices plus an offsets array, so the whole
// structure is two allocations regardless of n, Neighbors is a constant-time
// subslice, and a scan over a neighborhood is a linear walk over contiguous
// memory. Vertex indices inside the edge array are int32 (graphs are capped
// at 2^31-1 vertices), halving the cache footprint of the hot loops.
package graph

import (
	"fmt"
	"sort"
	"sync"
)

// MaxN is the largest supported vertex count (vertex indices are stored as
// int32 in the CSR edge array).
const MaxN = 1<<31 - 1

// Graph is an immutable undirected simple graph with sorted adjacency lists
// in CSR layout. Build one with a Builder or a generator; after construction
// it must not be mutated. All query methods are safe for concurrent use.
type Graph struct {
	// offsets has N()+1 entries; the neighbors of v occupy
	// edges[offsets[v]:offsets[v+1]], sorted ascending.
	offsets []int32
	edges   []int32
	ids     []uint64
	maxDeg  int
}

// fromCSR adopts the given CSR arrays (ownership transfers to the graph).
// offsets must have len(ids)+1 monotone entries and edges must hold sorted,
// deduplicated, symmetric adjacency; constructors in this package guarantee
// that, and Validate can re-check it.
func fromCSR(offsets, edges []int32, ids []uint64) *Graph {
	g := &Graph{offsets: offsets, edges: edges, ids: ids}
	for v := 0; v+1 < len(offsets); v++ {
		if d := int(offsets[v+1] - offsets[v]); d > g.maxDeg {
			g.maxDeg = d
		}
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.ids) }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) / 2 }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return int(g.offsets[v+1] - g.offsets[v]) }

// Neighbors returns the sorted neighbor list of v as a subslice of the
// graph's flat CSR edge array. The returned slice is owned by the graph and
// must not be modified.
func (g *Graph) Neighbors(v int) []int32 {
	return g.edges[g.offsets[v]:g.offsets[v+1]:g.offsets[v+1]]
}

// ID returns the unique identifier of v used for symmetry breaking.
func (g *Graph) ID(v int) uint64 { return g.ids[v] }

// searchInt32 returns the first index of x in the sorted slice a, or the
// insertion point if absent (sort.SearchInts over int32 without the
// interface indirection).
func searchInt32(a []int32, x int32) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	if u == v {
		return false
	}
	// Search the shorter list.
	a, x := g.Neighbors(u), v
	if g.Degree(v) < len(a) {
		a, x = g.Neighbors(v), u
	}
	i := searchInt32(a, int32(x))
	return i < len(a) && a[i] == int32(x)
}

// MaxDegree returns the maximum degree Δ of the graph (0 for the empty
// graph). It is precomputed at construction time.
func (g *Graph) MaxDegree() int { return g.maxDeg }

// MinDegree returns the minimum degree of the graph (0 for the empty graph).
func (g *Graph) MinDegree() int {
	if g.N() == 0 {
		return 0
	}
	d := g.Degree(0)
	for v := 1; v < g.N(); v++ {
		if dv := g.Degree(v); dv < d {
			d = dv
		}
	}
	return d
}

// Edge is an undirected edge with U < V.
type Edge struct {
	U, V int
}

// Edges returns all edges with U < V, sorted lexicographically.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.M())
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if int32(u) < v {
				es = append(es, Edge{U: u, V: int(v)})
			}
		}
	}
	return es
}

// CommonNeighbors returns the number of common neighbors of u and v.
func (g *Graph) CommonNeighbors(u, v int) int {
	a, b := g.Neighbors(u), g.Neighbors(v)
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// IsClique reports whether the given vertex set induces a clique.
func (g *Graph) IsClique(vs []int) bool {
	for i := 0; i < len(vs); i++ {
		for j := i + 1; j < len(vs); j++ {
			if !g.HasEdge(vs[i], vs[j]) {
				return false
			}
		}
	}
	return true
}

// ballScratch is the reusable visited array and BFS queue behind
// NeighborsWithin. Between uses every seen entry is false; each call marks
// only the vertices it discovers and sparsely resets them from the queue, so
// a pooled scratch costs O(ball size) per call once it has grown to the
// graph size (the map-based version this replaces dominated whole-pipeline
// profiles through hashing alone).
type ballScratch struct {
	seen  []bool
	queue []int32
}

var ballPool = sync.Pool{New: func() any { return new(ballScratch) }}

// NeighborsWithin returns all vertices at distance in [1, r] from v, sorted.
// It corresponds to collecting the radius-r ball in the LOCAL model.
func (g *Graph) NeighborsWithin(v, r int) []int {
	if r <= 0 {
		return nil
	}
	sc := ballPool.Get().(*ballScratch)
	if len(sc.seen) < g.N() {
		sc.seen = make([]bool, g.N())
	}
	seen := sc.seen
	seen[v] = true
	queue := append(sc.queue[:0], int32(v))
	head := 0
	for d := 0; d < r && head < len(queue); d++ {
		tail := len(queue)
		for ; head < tail; head++ {
			for _, w := range g.Neighbors(int(queue[head])) {
				if !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
	}
	out := make([]int, 0, len(queue)-1)
	for _, w := range queue[1:] {
		out = append(out, int(w))
		seen[w] = false
	}
	seen[v] = false
	sc.queue = queue
	ballPool.Put(sc)
	sort.Ints(out)
	return out
}

// AppendBall appends all vertices at distance in [1, r] from v to dst in BFS
// discovery order and returns the extended slice. It is NeighborsWithin
// without the sort and without a fresh result allocation, for callers that
// only membership-test or re-aggregate the ball (conflict-graph construction
// visits every ball member regardless of order).
func (g *Graph) AppendBall(dst []int, v, r int) []int {
	if r <= 0 {
		return dst
	}
	sc := ballPool.Get().(*ballScratch)
	if len(sc.seen) < g.N() {
		sc.seen = make([]bool, g.N())
	}
	seen := sc.seen
	seen[v] = true
	queue := append(sc.queue[:0], int32(v))
	head := 0
	for d := 0; d < r && head < len(queue); d++ {
		tail := len(queue)
		for ; head < tail; head++ {
			for _, w := range g.Neighbors(int(queue[head])) {
				if !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
	}
	for _, w := range queue[1:] {
		dst = append(dst, int(w))
		seen[w] = false
	}
	seen[v] = false
	sc.queue = queue
	ballPool.Put(sc)
	return dst
}

// Dist returns the hop distance between u and v, or -1 if disconnected.
func (g *Graph) Dist(u, v int) int {
	if u == v {
		return 0
	}
	seen := make([]bool, g.N())
	seen[u] = true
	frontier := []int{u}
	for d := 1; len(frontier) > 0; d++ {
		var next []int
		for _, x := range frontier {
			for _, w := range g.Neighbors(x) {
				if int(w) == v {
					return d
				}
				if !seen[w] {
					seen[w] = true
					next = append(next, int(w))
				}
			}
		}
		frontier = next
	}
	return -1
}

// ConnectedComponents returns the vertex sets of the connected components,
// each sorted, ordered by smallest contained vertex.
func (g *Graph) ConnectedComponents() [][]int {
	seen := make([]bool, g.N())
	var comps [][]int
	for s := 0; s < g.N(); s++ {
		if seen[s] {
			continue
		}
		comp := []int{s}
		seen[s] = true
		for q := 0; q < len(comp); q++ {
			for _, w := range g.Neighbors(comp[q]) {
				if !seen[w] {
					seen[w] = true
					comp = append(comp, int(w))
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// Validate checks internal consistency (CSR shape, sorted adjacency,
// symmetry, no self-loops, unique IDs). Generators call it in tests; it is
// not on any hot path.
func (g *Graph) Validate() error {
	if len(g.offsets) != g.N()+1 {
		return fmt.Errorf("graph: %d offsets for %d vertices", len(g.offsets), g.N())
	}
	if g.offsets[0] != 0 || int(g.offsets[g.N()]) != len(g.edges) {
		return fmt.Errorf("graph: offsets do not span the edge array")
	}
	idSeen := make(map[uint64]int, g.N())
	for v, id := range g.ids {
		if w, dup := idSeen[id]; dup {
			return fmt.Errorf("graph: duplicate ID %d on vertices %d and %d", id, w, v)
		}
		idSeen[id] = v
	}
	maxDeg := 0
	for v := 0; v < g.N(); v++ {
		if g.offsets[v] > g.offsets[v+1] {
			return fmt.Errorf("graph: offsets not monotone at %d", v)
		}
		if d := g.Degree(v); d > maxDeg {
			maxDeg = d
		}
		prev := int32(-1)
		for _, w := range g.Neighbors(v) {
			if int(w) == v {
				return fmt.Errorf("graph: self-loop at %d", v)
			}
			if w <= prev {
				return fmt.Errorf("graph: adjacency of %d not strictly sorted", v)
			}
			if w < 0 || int(w) >= g.N() {
				return fmt.Errorf("graph: neighbor %d of %d out of range", w, v)
			}
			// Search w's own list: HasEdge scans the shorter one, which
			// is v's when v has the smaller degree, and would find w there.
			back := g.Neighbors(int(w))
			if i := searchInt32(back, int32(v)); i == len(back) || back[i] != int32(v) {
				return fmt.Errorf("graph: edge {%d,%d} not symmetric", v, w)
			}
			prev = w
		}
	}
	if maxDeg != g.maxDeg {
		return fmt.Errorf("graph: cached Δ=%d, actual %d", g.maxDeg, maxDeg)
	}
	if len(g.edges)%2 != 0 {
		return fmt.Errorf("graph: odd half-edge count %d", len(g.edges))
	}
	return nil
}

// String returns a short summary, e.g. "graph(n=100, m=250, Δ=5)".
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d, m=%d, Δ=%d)", g.N(), g.M(), g.MaxDegree())
}
