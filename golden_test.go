package deltacoloring

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"deltacoloring/internal/graph"
)

// colorsHash is the FNV-64a hash of a coloring, each color as 4 bytes
// little-endian in vertex order.
func colorsHash(colors []int) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, c := range colors {
		binary.LittleEndian.PutUint32(buf[:], uint32(int32(c)))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestDeterministicGoldenPins pins the exact coloring and round count of the
// deterministic pipeline on the benchmark's dense families and on a
// permuted clique ring, at one, two and four workers. A performance change
// to any layer underneath (Linial rounds, list coloring, induced subgraphs,
// Algorithm 3's layering and its plan-ahead) must leave both numbers
// unchanged; a change that moves them on purpose re-pins them and says why.
//
// With more than one worker, Algorithm 3 makes its layers' plans on
// planning goroutines (listcolor.Planner) while it sweeps the layer before,
// so a case with several layers pins that concurrent path too; the ring
// cases check that they have them.
func TestDeterministicGoldenPins(t *testing.T) {
	ring, _ := graph.EasyCliqueRing(256, 16)
	cases := []struct {
		name   string
		g      *Graph
		hash   uint64
		rounds int
	}{
		{"hard_m16", GenHardCliqueBipartite(16, 16), 0x9d9de14ae5cc91b5, 228},
		{"hard_m24", GenHardCliqueBipartite(24, 16), 0x10bacbd86059a8a5, 228},
		{"mixed_m20", GenHardWithEasyPatch(20, 16), 0x69e64a2273481b95, 373},
		{"easy_m48", GenEasyCliqueRing(48, 16), 0x5c0eea22a33d4785, 1888},
		{"easy_ring256_permuted", graph.PermuteIDs(ring, rand.New(rand.NewSource(1))), 0x90ebb4272f325535, 2835},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 2, 4} {
			res, err := DeterministicContext(context.Background(), c.g, ScaledParams(), &RunOptions{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, workers, err)
			}
			if err := Verify(c.g, res.Colors); err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, workers, err)
			}
			if strings.HasPrefix(c.name, "easy_") && res.Stats.Layers < 2 {
				t.Errorf("%s: %d layers, too few to plan ahead", c.name, res.Stats.Layers)
			}
			if h := colorsHash(res.Colors); h != c.hash || res.Rounds != c.rounds {
				t.Errorf("%s workers=%d: colors hash %#x rounds %d, pinned %#x rounds %d",
					c.name, workers, h, res.Rounds, c.hash, c.rounds)
			}
		}
	}
}
