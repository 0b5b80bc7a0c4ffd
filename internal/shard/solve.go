package shard

import (
	"fmt"

	"deltacoloring/internal/coloring"
	"deltacoloring/internal/core"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/listcolor"
	"deltacoloring/internal/local"
)

// none is the uncolored engine state.
const none = int32(coloring.None)

// SolveSingle runs the wire algorithm — listcolor's greedy rule with every
// vertex active on [0, Δ+1) — on net's whole graph in one process: the
// oracle every sharded run must match bit-for-bit. It publishes the final
// coloring checkpoint and returns the colors, the engine rounds executed,
// and the palette bound Δ+1.
func SolveSingle(net *local.Network) ([]int, int, error) {
	g := net.Graph()
	defer net.Phase("shard/solve")()
	colors := make([]int, g.N())
	for v := range colors {
		colors[v] = coloring.None
	}
	k := g.MaxDegree() + 1
	rounds, err := listcolor.Greedy(net, listcolor.Uniform(g.N(), k), colors, g.N()+2)
	if err != nil {
		return nil, rounds, err
	}
	if err := net.Checkpoint("final", &core.CkptColoring{
		C: &coloring.Partial{Colors: colors}, NumColors: k, Complete: true,
	}); err != nil {
		return nil, rounds, err
	}
	return colors, rounds, nil
}

// verifyMerged checks the merged coloring against the parent graph:
// complete, in palette range, and proper. Failures are *MergeViolation.
func verifyMerged(g *graph.Graph, colors []int) error {
	k := g.MaxDegree() + 1
	for v, c := range colors {
		if c < 0 || c >= k {
			return &MergeViolation{Vertex: v, Reason: fmt.Sprintf("color %d outside [0,%d)", c, k)}
		}
		for _, w := range g.Neighbors(v) {
			if colors[w] == c {
				return &MergeViolation{Vertex: v, Reason: fmt.Sprintf("conflicts with neighbor %d on color %d", w, c)}
			}
		}
	}
	return nil
}
