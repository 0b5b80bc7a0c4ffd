package graph

import (
	"fmt"
	"math/rand"
)

// Cycle returns the cycle graph C_n (n >= 3).
func Cycle(n int) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("graph: Cycle needs n >= 3, got %d", n))
	}
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddEdge(v, (v+1)%n)
	}
	return b.MustBuild()
}

// Path returns the path graph P_n on n vertices.
func Path(n int) *Graph {
	b := NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.AddEdge(v, v+1)
	}
	return b.MustBuild()
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	return b.MustBuild()
}

// Star returns the star K_{1,n-1} with center 0.
func Star(n int) *Graph {
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, v)
	}
	return b.MustBuild()
}

// RandomTree returns a uniformly random labeled tree on n vertices
// (random Prüfer-like attachment: each vertex v >= 1 attaches to a uniform
// earlier vertex, which yields a random recursive tree — adequate for the
// baseline experiments that only need "a tree").
func RandomTree(n int, rng *rand.Rand) *Graph {
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(v, rng.Intn(v))
	}
	return b.MustBuild()
}

// Grid returns the w x h grid graph.
func Grid(w, h int) *Graph {
	b := NewBuilder(w * h)
	at := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				b.AddEdge(at(x, y), at(x+1, y))
			}
			if y+1 < h {
				b.AddEdge(at(x, y), at(x, y+1))
			}
		}
	}
	return b.MustBuild()
}

// Torus returns the w x h torus (4-regular for w, h >= 3).
func Torus(w, h int) *Graph {
	if w < 3 || h < 3 {
		panic("graph: Torus needs w, h >= 3")
	}
	b := NewBuilder(w * h)
	at := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			b.AddEdge(at(x, y), at((x+1)%w, y))
			b.AddEdge(at(x, y), at(x, (y+1)%h))
		}
	}
	return b.MustBuild()
}

// ErdosRenyi returns G(n, p).
func ErdosRenyi(n int, p float64, rng *rand.Rand) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.AddEdge(u, v)
			}
		}
	}
	return b.MustBuild()
}

// RandomRegular returns a random d-regular simple graph on n vertices via
// the configuration model with restarts (n*d must be even, d < n).
func RandomRegular(n, d int, rng *rand.Rand) *Graph {
	if n*d%2 != 0 {
		panic(fmt.Sprintf("graph: RandomRegular needs n*d even, got n=%d d=%d", n, d))
	}
	if d >= n {
		panic(fmt.Sprintf("graph: RandomRegular needs d < n, got n=%d d=%d", n, d))
	}
	for attempt := 0; attempt < 200; attempt++ {
		if g, ok := tryConfigurationModel(n, d, rng); ok {
			return g
		}
	}
	panic("graph: RandomRegular failed to converge (d too close to n?)")
}

// tryConfigurationModel pairs stubs uniformly and then repairs self-loops
// and duplicate edges by swapping with random other pairs; it gives up (and
// the caller restarts) if repair stalls.
func tryConfigurationModel(n, d int, rng *rand.Rand) (*Graph, bool) {
	stubs := make([]int, 0, n*d)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, v)
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	pairs := len(stubs) / 2
	key := func(i int) [2]int {
		u, v := stubs[2*i], stubs[2*i+1]
		if u > v {
			u, v = v, u
		}
		return [2]int{u, v}
	}
	count := make(map[[2]int]int, pairs)
	for i := 0; i < pairs; i++ {
		count[key(i)]++
	}
	bad := func(i int) bool {
		k := key(i)
		return k[0] == k[1] || count[k] > 1
	}
	for iter := 0; iter < 50*pairs; iter++ {
		i := -1
		for j := 0; j < pairs; j++ {
			if bad(j) {
				i = j
				break
			}
		}
		if i < 0 {
			b := NewBuilder(n)
			for j := 0; j < pairs; j++ {
				b.AddEdge(stubs[2*j], stubs[2*j+1])
			}
			return b.MustBuild(), true
		}
		j := rng.Intn(pairs)
		if j == i {
			continue
		}
		count[key(i)]--
		count[key(j)]--
		stubs[2*i+1], stubs[2*j+1] = stubs[2*j+1], stubs[2*i+1]
		count[key(i)]++
		count[key(j)]++
	}
	return nil, false
}

// DisjointCliques returns k disjoint copies of K_size. For Δ < 63 the
// paper's Definition 4 makes isolated cliques the only dense graphs; this
// generator exercises that degenerate case.
func DisjointCliques(k, size int) *Graph {
	b := NewBuilder(k * size)
	emitCliques(k, size, b.AddEdge)
	return b.MustBuild()
}

// PermuteIDs returns a copy of g whose symmetry-breaking IDs are permuted by
// the given RNG. The adjacency structure is unchanged. Tests use this to
// ensure algorithms depend on IDs only through comparisons.
func PermuteIDs(g *Graph, rng *rand.Rand) *Graph {
	perm := rng.Perm(g.N())
	b := NewBuilder(g.N())
	for v := 0; v < g.N(); v++ {
		b.SetID(v, uint64(perm[v]))
		for _, w := range g.Neighbors(v) {
			if v < int(w) {
				b.AddEdge(v, int(w))
			}
		}
	}
	return b.MustBuild()
}
