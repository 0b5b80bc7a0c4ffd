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

// TestRandomizedGoldenPins pins the exact coloring and round count of the
// randomized pipeline (Theorem 2) on the hard and mixed dense families at
// two seeds, at one and two workers. Every case keeps T-nodes and spends
// rounds in the happy layers (Algorithm 4, Step 7), so the pins cover the
// layered outside-in coloring around T-nodes as well as the matching, the
// shattered components and Algorithm 3's post-processing.
func TestRandomizedGoldenPins(t *testing.T) {
	cases := []struct {
		name   string
		g      *Graph
		seed   int64
		hash   uint64
		rounds int
		happy  int // rounds of the alg4/happylayers span
	}{
		{"hard_m16_s1", GenHardCliqueBipartite(16, 16), 1, 0xf07ef73d02c2a755, 459, 276},
		{"hard_m16_s2", GenHardCliqueBipartite(16, 16), 2, 0x522946487f7edc85, 427, 289},
		{"mixed_m20_s1", GenHardWithEasyPatch(20, 16), 1, 0x57ef530518b5f4e5, 702, 305},
		{"mixed_m20_s2", GenHardWithEasyPatch(20, 16), 2, 0x58cb27ef129cf115, 683, 316},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 2} {
			res, err := RandomizedContext(context.Background(), c.g, ScaledRandomizedParams(), c.seed, &RunOptions{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, workers, err)
			}
			if err := Verify(c.g, res.Colors); err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, workers, err)
			}
			if res.Rand.TNodesKept == 0 {
				t.Errorf("%s: no T-nodes kept", c.name)
			}
			happy := 0
			for _, s := range res.Spans {
				if s.Name == "alg4/happylayers" {
					happy += s.Rounds
				}
			}
			if happy == 0 {
				t.Errorf("%s: no rounds in alg4/happylayers", c.name)
			}
			if h := colorsHash(res.Colors); h != c.hash || res.Rounds != c.rounds || happy != c.happy {
				t.Errorf("%s workers=%d: colors hash %#x rounds %d (happy %d), pinned %#x rounds %d (happy %d)",
					c.name, workers, h, res.Rounds, happy, c.hash, c.rounds, c.happy)
			}
		}
	}
}
