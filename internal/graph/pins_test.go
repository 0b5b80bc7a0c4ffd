package graph

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
)

// csrPin hashes a generator's output: the CSR offsets, edge array and
// vertex IDs, then (when present) the clique partition's Member and
// Cliques. Any change to vertex numbering, edge order or IDs changes it.
func csrPin(g *Graph, part *CliquePartition) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put32 := func(x int32) {
		binary.LittleEndian.PutUint32(buf[:4], uint32(x))
		h.Write(buf[:4])
	}
	put64 := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for _, o := range g.offsets {
		put32(o)
	}
	for _, e := range g.edges {
		put32(e)
	}
	for _, id := range g.ids {
		put64(id)
	}
	if part != nil {
		for _, c := range part.Member {
			put64(uint64(c))
		}
		for _, cl := range part.Cliques {
			put64(uint64(len(cl)))
			for _, v := range cl {
				put64(uint64(v))
			}
		}
	}
	return h.Sum64()
}

// TestGeneratorCSRPins pins every clique-built generator's exact output at
// two sizes, so a rewrite of how they assemble their cliques and edges must
// reproduce the same graph and partition bit for bit.
func TestGeneratorCSRPins(t *testing.T) {
	noPart := func(g *Graph) (*Graph, *CliquePartition) { return g, nil }
	stream := func(k, delta, workers int) (*Graph, *CliquePartition) {
		g, err := EasyCliqueRingStream(k, delta, workers)
		if err != nil {
			t.Fatal(err)
		}
		return g, nil
	}
	for _, tc := range []struct {
		name  string
		build func() (*Graph, *CliquePartition)
		want  uint64
	}{
		{"HardCliqueBipartite(5,3)", func() (*Graph, *CliquePartition) { return HardCliqueBipartite(5, 3) }, 0x4f0f6c5d547665b8},
		{"HardCliqueBipartite(16,16)", func() (*Graph, *CliquePartition) { return HardCliqueBipartite(16, 16) }, 0x040ab1be94190055},
		{"EasyCliqueRing(4,4)", func() (*Graph, *CliquePartition) { return EasyCliqueRing(4, 4) }, 0x823d459414728095},
		{"EasyCliqueRing(9,16)", func() (*Graph, *CliquePartition) { return EasyCliqueRing(9, 16) }, 0xd10a03a4c62a07e2},
		{"EasyCliqueRingStream(4,4,1)", func() (*Graph, *CliquePartition) { return stream(4, 4, 1) }, 0x87b20df446dd1c95},
		{"EasyCliqueRingStream(9,16,2)", func() (*Graph, *CliquePartition) { return stream(9, 16, 2) }, 0xb0b08c14ecbdefb2},
		{"EasyDenseBlocks(5,6,2)", func() (*Graph, *CliquePartition) { return EasyDenseBlocks(5, 6, 2) }, 0x0df9307c92d22c19},
		{"EasyDenseBlocks(12,10,3)", func() (*Graph, *CliquePartition) { return EasyDenseBlocks(12, 10, 3) }, 0x66e8c33a0d74bd4d},
		{"HardWithEasyPatch(4,3)", func() (*Graph, *CliquePartition) { return HardWithEasyPatch(4, 3) }, 0x548e0bdbc8b4a5c5},
		{"HardWithEasyPatch(20,16)", func() (*Graph, *CliquePartition) { return HardWithEasyPatch(20, 16) }, 0x799859366f01b5cd},
		{"MixedDenseRandom(10,4,seed1)", func() (*Graph, *CliquePartition) {
			return MixedDenseRandom(10, 4, rand.New(rand.NewSource(1)))
		}, 0x229645c949fd377d},
		{"MixedDenseRandom(40,8,seed3)", func() (*Graph, *CliquePartition) {
			return MixedDenseRandom(40, 8, rand.New(rand.NewSource(3)))
		}, 0xefa571cca1a8519e},
		{"DisjointCliques(3,4)", func() (*Graph, *CliquePartition) { return noPart(DisjointCliques(3, 4)) }, 0x0cfed787ef8dcdc5},
		{"DisjointCliques(8,17)", func() (*Graph, *CliquePartition) { return noPart(DisjointCliques(8, 17)) }, 0x2bd5bc0f9cf1ccdd},
	} {
		g, part := tc.build()
		if got := csrPin(g, part); got != tc.want {
			t.Errorf("%s: pin %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}
