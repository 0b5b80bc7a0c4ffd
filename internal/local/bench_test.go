package local

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"deltacoloring/internal/graph"
)

// Engine micro-benchmarks: one fixed seeded 8-regular graph on 2^16
// vertices, each entry point at workers 1 and 2. They measure the round
// body itself (state function, neighbor view, change tracking, chunking),
// not an algorithm; `make bench-smoke` runs each once.

var benchGraph = sync.OnceValue(func() *graph.Graph {
	return graph.RandomRegular(1<<16, 8, rand.New(rand.NewSource(1)))
})

var benchWorkers = []int{1, 2}

// benchMix is a cheap pure state function that reads every neighbor.
func benchMix(v int, self int, nbrs Nbrs[int]) int {
	sum := self*3 + v
	for i := 0; i < nbrs.Len(); i++ {
		sum += nbrs.State(i)
	}
	return sum % 251
}

// benchLabels returns the wavefront input of BenchmarkRun: every vertex
// holds a positive label except vertex 0.
func benchLabels(n int) []int {
	init := make([]int, n)
	for v := range init {
		init[v] = 1 + v%97
	}
	init[0] = 0
	return init
}

// BenchmarkStep times one dense untracked round.
func BenchmarkStep(b *testing.B) {
	g := benchGraph()
	for _, w := range benchWorkers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			net := New(g)
			defer net.Close()
			net.SetWorkers(w)
			r := NewRunner(net, benchLabels(g.N()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Step(benchMix)
			}
		})
	}
}

// BenchmarkRun times a whole frontier-scheduled Run of a min-label flood
// from one vertex: a dense first round, then wavefront rounds that switch
// between the sparse and the dense path as the frontier grows and drains.
func BenchmarkRun(b *testing.B) {
	g := benchGraph()
	init := benchLabels(g.N())
	for _, w := range benchWorkers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			net := New(g)
			defer net.Close()
			net.SetWorkers(w)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := NewRunner(net, append([]int(nil), init...))
				if _, _, err := r.Run(g.N(), minProp, minPropDone); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweep times an exact-seed class sweep over a greedy coloring:
// one round per class, each evaluating that class's members.
func BenchmarkSweep(b *testing.B) {
	g := benchGraph()
	cls := greedyClasses(g, g.MaxDegree()+1, rand.New(rand.NewSource(2)))
	classes := 0
	for _, c := range cls {
		classes = max(classes, c+1)
	}
	buckets := make([][]int, classes)
	for v, c := range cls {
		buckets[c] = append(buckets[c], v)
	}
	seed := func(round int, mark func(v int)) {
		for _, v := range buckets[round] {
			mark(v)
		}
	}
	f := func(round, v int, self int, nbrs Nbrs[int]) int {
		if cls[v] != round {
			return self
		}
		return benchMix(v, self, nbrs)
	}
	init := benchLabels(g.N())
	for _, w := range benchWorkers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			net := New(g)
			defer net.Close()
			net.SetWorkers(w)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := NewRunner(net, append([]int(nil), init...))
				r.Sweep(classes, ExactSeed, seed, f)
			}
		})
	}
}

// BenchmarkSparseStep times one round over an explicit sorted list of every
// eighth vertex, the shape of a shard worker's step.
func BenchmarkSparseStep(b *testing.B) {
	g := benchGraph()
	var active []int32
	for v := 0; v < g.N(); v += 8 {
		active = append(active, int32(v))
	}
	for _, w := range benchWorkers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			net := New(g)
			defer net.Close()
			net.SetWorkers(w)
			r := NewRunner(net, benchLabels(g.N()))
			changed := make([]int32, 0, len(active))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				changed = r.SparseStep(active, changed[:0], benchMix)
			}
		})
	}
}
