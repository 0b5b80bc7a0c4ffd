package core

import (
	"math/rand"
	"testing"

	"deltacoloring/internal/graph"
	"deltacoloring/internal/local"
)

func BenchmarkColorDeterministic(b *testing.B) {
	g, _ := graph.HardCliqueBipartite(16, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ColorDeterministic(local.New(g), TestParams()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkColorRandomized(b *testing.B) {
	g, _ := graph.HardCliqueBipartite(16, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		if _, err := ColorRandomized(local.New(g), TestRandomizedParams(), rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkColorSimpleDense(b *testing.B) {
	g, _ := graph.HardCliqueBipartite(16, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ColorSimpleDense(local.New(g), TestParams()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEasyRing runs the deterministic pipeline on a clique ring with
// permuted IDs, the shape of the benchmark's ring_scale workload at 1/12
// of its size: almost all of the time goes to Algorithm 3 (the loophole
// ruling set and the layered deg+1 list colorings) and to the Linial rounds
// beneath them. `make profile-ring` profiles it.
func BenchmarkEasyRing(b *testing.B) {
	base, _ := graph.EasyCliqueRing(1024, 16)
	g := graph.PermuteIDs(base, rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ColorDeterministic(local.New(g), TestParams()); err != nil {
			b.Fatal(err)
		}
	}
}
