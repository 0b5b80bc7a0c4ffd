package linial

import (
	"testing"

	"deltacoloring/internal/graph"
)

func BenchmarkColorCycle(b *testing.B) {
	g := graph.Cycle(1 << 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := colorGraph(g, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkColorDense(b *testing.B) {
	g, _ := graph.HardCliqueBipartite(16, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := colorGraph(g, g.MaxDegree()+1); err != nil {
			b.Fatal(err)
		}
	}
}
