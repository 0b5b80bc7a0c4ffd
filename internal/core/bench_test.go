package core

import (
	"math/rand"
	"runtime"
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
// of its size: almost all of the time goes to the ACD, to Algorithm 3 (the
// loophole ruling set and the layered deg+1 list colorings) and to the
// Linial rounds beneath them. Like ring_scale it runs at one worker and at
// GOMAXPROCS workers; `make profile-ring` profiles the parallel one.
func BenchmarkEasyRing(b *testing.B) {
	base, _ := graph.EasyCliqueRing(1024, 16)
	g := graph.PermuteIDs(base, rand.New(rand.NewSource(1)))
	for _, bc := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=max", runtime.GOMAXPROCS(0)}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				net := local.New(g)
				net.SetWorkers(bc.workers)
				_, err := ColorDeterministic(net, TestParams())
				net.Close()
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
