package graph

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
)

// ErrTooManyEdges reports an edge set whose directed arc count (2m plus
// duplicates) would overflow the int32 CSR offset space. Builders and the
// streaming constructor surface it instead of silently mis-building, and
// the DCSRv1 readers wrap it for an oversized header.
var ErrTooManyEdges = errors.New("graph: edge count overflows int32 CSR offsets")

// Builder accumulates edges and produces an immutable Graph. Duplicate edge
// insertions are tolerated and collapsed; self-loops are rejected at Build
// time. The zero Builder is not usable; create one with NewBuilder.
//
// The builder stores the raw endpoint pairs in one flat array and Build
// counting-sorts them straight into the graph's CSR layout, so construction
// performs O(1) allocations regardless of the vertex count (no intermediate
// per-vertex adjacency slices).
type Builder struct {
	n     int
	pairs []int32 // flattened (u, v) endpoint pairs in insertion order
	ids   []uint64
	bad   []string
	seal  bool
}

// NewBuilder returns a builder for a graph on n vertices with default
// IDs (ID(v) = v).
func NewBuilder(n int) *Builder {
	if n < 0 || n > MaxN {
		panic(fmt.Sprintf("graph: vertex count %d out of range [0, %d]", n, MaxN))
	}
	b := &Builder{n: n, ids: make([]uint64, n)}
	for v := 0; v < n; v++ {
		b.ids[v] = uint64(v)
	}
	return b
}

// Grow hints that about m further AddEdge calls are coming, reserving
// capacity for them in one allocation.
func (b *Builder) Grow(m int) {
	if m > 0 {
		b.pairs = slices.Grow(b.pairs, 2*m)
	}
}

// AddEdge records the undirected edge {u, v}. Out-of-range endpoints and
// self-loops are recorded as errors surfaced by Build.
func (b *Builder) AddEdge(u, v int) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		b.bad = append(b.bad, fmt.Sprintf("edge {%d,%d} out of range [0,%d)", u, v, b.n))
		return
	}
	if u == v {
		b.bad = append(b.bad, fmt.Sprintf("self-loop at %d", u))
		return
	}
	b.pairs = append(b.pairs, int32(u), int32(v))
}

// SetID overrides the symmetry-breaking identifier of v. IDs must be unique
// across the graph; Build verifies this.
func (b *Builder) SetID(v int, id uint64) {
	if v < 0 || v >= b.n {
		b.bad = append(b.bad, fmt.Sprintf("SetID: vertex %d out of range", v))
		return
	}
	b.ids[v] = id
}

// Build finalizes the graph: FromStream counting-sorts the accumulated
// endpoint pairs into CSR form (count, prefix sum, scatter, then per-run
// sort and in-place dedupe) on one worker, and Build validates and installs
// the IDs. The builder must not be reused afterwards.
func (b *Builder) Build() (*Graph, error) {
	if b.seal {
		return nil, fmt.Errorf("graph: builder reused after Build")
	}
	b.seal = true
	if len(b.bad) > 0 {
		return nil, fmt.Errorf("graph: %d invalid operations, first: %s", len(b.bad), b.bad[0])
	}
	pairs := b.pairs
	b.pairs = nil
	g, err := FromStream(b.n, 1, func(emit func(u, v int)) error {
		for i := 0; i < len(pairs); i += 2 {
			emit(int(pairs[i]), int(pairs[i+1]))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := uniqueIDs(b.ids); err != nil {
		return nil, err
	}
	g.ids = b.ids
	return g, nil
}

// parallelBuildMinVertices gates the parallel sort/dedup phase: below it the
// goroutine fan-out costs more than the sort. Tests lower it to force the
// parallel path onto small fuzz inputs.
var parallelBuildMinVertices = 4096

// sortDedupCompact sorts each adjacency run of the scattered CSR, removes
// duplicates, and compacts the runs left, rewriting offsets to the final
// layout. With workers > 1 the sort/dedup phase, which dominates
// construction CPU at large m, runs on edge-balanced vertex ranges in
// parallel; each worker writes only inside its own runs, and the sequential
// compaction makes the result independent of the split. The histogram and
// scatter passes before it stay sequential: they are memory-bound, and a
// per-worker histogram would cost workers×n extra space.
func sortDedupCompact(offsets, edges []int32, workers int) []int32 {
	n := len(offsets) - 1
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	counts := make([]int32, n)
	process := func(lo, hi int) {
		for v := lo; v < hi; v++ {
			run := edges[offsets[v]:offsets[v+1]]
			slices.Sort(run)
			k := 0
			prev := int32(-1)
			for _, x := range run {
				if x != prev {
					run[k] = x
					k++
					prev = x
				}
			}
			counts[v] = int32(k)
		}
	}
	if workers <= 1 || n < parallelBuildMinVertices {
		process(0, n)
	} else {
		total := int64(offsets[n])
		share := (total + int64(workers) - 1) / int64(workers)
		var wg sync.WaitGroup
		lo := 0
		for w := 1; w <= workers && lo < n; w++ {
			hi := n
			if w < workers {
				target := int32(min64(int64(w)*share, total))
				hi = sort.Search(n, func(v int) bool { return offsets[v+1] >= target })
				hi++
				if hi > n {
					hi = n
				}
			}
			if hi <= lo {
				continue
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				process(lo, hi)
			}(lo, hi)
			lo = hi
		}
		wg.Wait()
	}
	var w int32
	for v := 0; v < n; v++ {
		lo, c := offsets[v], counts[v]
		if w != lo {
			copy(edges[w:w+c], edges[lo:lo+c])
		}
		offsets[v] = w
		w += c
	}
	offsets[n] = w
	if int(w) < cap(edges)/2 {
		// Heavy duplication: release the slack.
		edges = append([]int32(nil), edges[:w]...)
	} else {
		edges = edges[:w:w]
	}
	return edges
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// FromStream constructs a graph on n vertices by two passes over an edge
// producer, going straight to CSR without materializing an intermediate
// endpoint-pair slice — the peak memory is the final CSR plus one n-sized
// cursor, which is what makes n=10⁷-scale construction fit. stream is called
// twice and must emit the same edges both times (generator families and
// re-seekable files do this naturally); emit tolerates duplicates and
// reports out-of-range endpoints and self-loops through Build-style errors.
// workers fans the per-vertex sort/dedup phase out (GOMAXPROCS when
// workers <= 0); the output is bit-identical to Build's for any count.
func FromStream(n int, workers int, stream func(emit func(u, v int)) error) (*Graph, error) {
	if n < 0 || n > MaxN {
		return nil, fmt.Errorf("graph: vertex count %d out of range [0, %d]", n, MaxN)
	}
	offsets := make([]int32, n+1)
	var arcs int64
	var bad string
	var nbad int
	// valid is the per-edge check, small enough to inline; reject counts an
	// invalid pair and keeps the first one's reason.
	valid := func(u, v int) bool { return uint(u) < uint(n) && uint(v) < uint(n) && u != v }
	reject := func(u, v int) {
		switch nbad++; {
		case bad != "":
		case uint(u) >= uint(n) || uint(v) >= uint(n):
			bad = fmt.Sprintf("edge {%d,%d} out of range [0,%d)", u, v, n)
		default:
			bad = fmt.Sprintf("self-loop at %d", u)
		}
	}
	if err := stream(func(u, v int) {
		if !valid(u, v) {
			reject(u, v)
			return
		}
		if arcs += 2; arcs <= math.MaxInt32 {
			offsets[u+1]++
			offsets[v+1]++
		}
	}); err != nil {
		return nil, err
	}
	if nbad > 0 {
		return nil, fmt.Errorf("graph: %d invalid operations, first: %s", nbad, bad)
	}
	if arcs > math.MaxInt32 {
		return nil, ErrTooManyEdges
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	edges := make([]int32, arcs)
	cursor := make([]int32, n)
	copy(cursor, offsets[:n])
	var scattered int64
	if err := stream(func(u, v int) {
		if !valid(u, v) {
			return
		}
		if scattered += 2; scattered > arcs {
			return
		}
		edges[cursor[u]] = int32(v)
		cursor[u]++
		edges[cursor[v]] = int32(u)
		cursor[v]++
	}); err != nil {
		return nil, err
	}
	if scattered != arcs {
		return nil, fmt.Errorf("graph: stream emitted %d arcs on the second pass, %d on the first", scattered, arcs)
	}
	edges = sortDedupCompact(offsets, edges, workers)
	ids := make([]uint64, n)
	for v := range ids {
		ids[v] = uint64(v)
	}
	return fromCSR(offsets, edges, ids), nil
}

// MustBuild is Build for generators whose inputs are validated upfront;
// it panics on error and is intended for package-internal use and tests.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// FromEdges constructs a graph on n vertices from an edge list.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	b := NewBuilder(n)
	b.Grow(len(edges))
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	return b.Build()
}
