// Package shard is the horizontal scale-out engine: it edge-cut partitions
// a CSR graph into k shards with ghost (halo) vertices along the cut, fans
// the shards out to workers — in-process or across processes over the
// service's /v1/shard/rounds endpoint — and runs true message-passing LOCAL
// rounds across the cut: each round, workers exchange only the boundary
// vertices that changed, routed through the coordinator, and quiet
// boundaries cost nothing. The merged coloring is bit-identical — same
// colors, same round count — to the single-process engine at any shard
// count, which the deltacheck "sharded" conformance suite enforces. See
// DESIGN.md §15 for the contract.
package shard

import (
	"bytes"
	"fmt"

	"deltacoloring/internal/graph"
)

// Part is one shard of a partition: the induced subgraph over the shard's
// owned (local) vertices plus the ghost copies of off-shard neighbors.
// Every local vertex sees its full parent neighborhood inside Sub.G, so a
// LOCAL state function evaluated on a local vertex reads exactly the states
// it would read in the parent graph.
type Part struct {
	// Sub is the induced subgraph over locals ∪ ghosts, with vertex IDs
	// inherited from the parent (symmetry breaking is ID-based, so shard
	// renumbering cannot perturb results).
	Sub *graph.Sub
	// Locals lists the sub-local indices owned by this shard, ascending.
	Locals []int32
	// IsLocal marks, per Sub.G vertex, ownership by this shard.
	IsLocal []bool
	// Ghosts lists the sub-local indices mirroring other shards' vertices.
	Ghosts []int32
	// Boundary lists the sub-local indices of owned vertices with at least
	// one off-shard neighbor; only their state changes cross the cut.
	Boundary []int32
}

// Partition is an edge-cut partition of a parent graph into K shards.
type Partition struct {
	// N is the parent vertex count.
	N int
	// K is the shard count (clamped to [1, max(N,1)]).
	K int
	// Owner maps each parent vertex to its owning shard.
	Owner []int32
	// Parts holds one Part per shard.
	Parts []Part
	// CutEdges is the number of parent edges whose endpoints live on
	// different shards (each counted once).
	CutEdges int
}

// Ghosts returns the total ghost copies across all shards.
func (p *Partition) Ghosts() int {
	n := 0
	for i := range p.Parts {
		n += len(p.Parts[i].Ghosts)
	}
	return n
}

// BuildPartition greedily edge-cut partitions g into k balanced shards.
// Vertices are assigned in index order to the shard holding the most
// already-assigned neighbors, subject to a balance cap on shard weight
// (1 + degree per vertex, i.e. the per-round work of the LOCAL engine);
// ties prefer the lighter, then lower-indexed shard. The assignment is a
// pure function of (g, k), so every process computes the same partition.
func BuildPartition(g *graph.Graph, k int) (*Partition, error) {
	n := g.N()
	if k < 1 {
		return nil, fmt.Errorf("shard: shard count %d < 1", k)
	}
	if n > 0 && k > n {
		k = n
	}
	totalWeight := int64(n) + 2*int64(g.M())
	capWeight := (totalWeight + int64(k) - 1) / int64(k)
	load := make([]int64, k)
	counts := make([]int32, k)
	owner := make([]int32, n)
	for v := 0; v < n; v++ {
		for s := range counts {
			counts[s] = 0
		}
		for _, w := range g.Neighbors(v) {
			if int(w) < v {
				counts[owner[w]]++
			}
		}
		wv := int64(1 + g.Degree(v))
		best := -1
		for s := 0; s < k; s++ {
			if load[s]+wv > capWeight {
				continue
			}
			if best < 0 || counts[s] > counts[best] ||
				(counts[s] == counts[best] && load[s] < load[best]) {
				best = s
			}
		}
		if best < 0 {
			// Every shard is at the cap (rounding slack ran out): spill to
			// the lightest shard so the assignment stays total.
			best = 0
			for s := 1; s < k; s++ {
				if load[s] < load[best] {
					best = s
				}
			}
		}
		owner[v] = int32(best)
		load[best] += wv
	}

	p := &Partition{N: n, K: k, Owner: owner, Parts: make([]Part, k)}
	members := make([][]int, k)
	for v := 0; v < n; v++ {
		members[owner[v]] = append(members[owner[v]], v)
	}
	// stamp dedupes ghost discovery per shard without O(k·n) bitmaps.
	stamp := make([]int32, n)
	for v := range stamp {
		stamp[v] = -1
	}
	for s := 0; s < k; s++ {
		locals := len(members[s])
		for _, v := range members[s][:locals] {
			stamp[v] = int32(s)
		}
		for i := 0; i < locals; i++ {
			v := members[s][i]
			for _, w := range g.Neighbors(v) {
				if owner[w] != int32(s) {
					if int32(v) < w {
						p.CutEdges++
					}
					if stamp[w] != int32(s) {
						stamp[w] = int32(s)
						members[s] = append(members[s], int(w))
					}
				}
			}
		}
		// Workers route boundary updates by parent vertex, so the part
		// keeps the parent-sized reverse map Induced does not build.
		sub := graph.Induced(g, members[s])
		sub.FromParent = make([]int, n)
		for i := range sub.FromParent {
			sub.FromParent[i] = -1
		}
		for i, pv := range sub.ToParent {
			sub.FromParent[pv] = i
		}
		p.Parts[s] = buildPart(sub, members[s][:locals])
	}
	return p, nil
}

// buildPart derives the per-shard index structures from an induced subgraph
// and the parent indices of the owned vertices. It is shared by the
// partitioner and by remote worker hosts reconstructing a Part from the
// wire (see NewPartFromWire).
func buildPart(sub *graph.Sub, parentLocals []int) Part {
	part := Part{Sub: sub, IsLocal: make([]bool, sub.G.N())}
	for _, pv := range parentLocals {
		i := sub.FromParent[pv]
		part.IsLocal[i] = true
	}
	for i := 0; i < sub.G.N(); i++ {
		if !part.IsLocal[i] {
			part.Ghosts = append(part.Ghosts, int32(i))
			continue
		}
		part.Locals = append(part.Locals, int32(i))
		for _, j := range sub.G.Neighbors(i) {
			if !part.IsLocal[j] {
				part.Boundary = append(part.Boundary, int32(i))
				break
			}
		}
	}
	return part
}

// NewPartFromWire reconstructs a Part on a worker host from its wire form:
// the encoded shard subgraph, the sub→parent vertex mapping, the owned
// sub-local indices, and the parent vertex count.
func NewPartFromWire(sub *graph.Graph, toParent []int32, locals []int32, parentN int) (*Part, error) {
	if len(toParent) != sub.N() {
		return nil, fmt.Errorf("shard: to_parent has %d entries for %d sub vertices", len(toParent), sub.N())
	}
	from := make([]int, parentN)
	for i := range from {
		from[i] = -1
	}
	to := make([]int, len(toParent))
	for i, pv := range toParent {
		if pv < 0 || int(pv) >= parentN {
			return nil, fmt.Errorf("shard: to_parent[%d]=%d outside [0,%d)", i, pv, parentN)
		}
		if from[pv] != -1 {
			return nil, fmt.Errorf("shard: parent vertex %d mapped twice", pv)
		}
		from[pv] = i
		to[i] = int(pv)
	}
	parentLocals := make([]int, 0, len(locals))
	for _, i := range locals {
		if i < 0 || int(i) >= sub.N() {
			return nil, fmt.Errorf("shard: local index %d outside [0,%d)", i, sub.N())
		}
		parentLocals = append(parentLocals, to[i])
	}
	part := buildPart(&graph.Sub{G: sub, ToParent: to, FromParent: from}, parentLocals)
	return &part, nil
}

// VerifyPartition checks the partition invariants against the parent graph:
// every vertex is owned by exactly one shard and is a local of exactly that
// shard's part, every local vertex keeps its full parent degree inside its
// shard subgraph (all neighbors present as locals or ghosts), every cut
// edge has ghost mirrors on both sides, and the cut-edge count matches.
// Failures are reported as *PartitionViolation.
func VerifyPartition(g *graph.Graph, p *Partition) error {
	fail := func(format string, args ...any) error {
		return &PartitionViolation{Err: fmt.Errorf(format, args...)}
	}
	if p.N != g.N() || len(p.Owner) != g.N() {
		return fail("partition covers %d vertices, graph has %d", len(p.Owner), g.N())
	}
	if p.K != len(p.Parts) || p.K < 1 {
		return fail("K=%d with %d parts", p.K, len(p.Parts))
	}
	seen := make([]bool, g.N())
	for s := range p.Parts {
		part := &p.Parts[s]
		if part.Sub.G.N() != len(part.IsLocal) {
			return fail("shard %d: IsLocal has %d entries for %d sub vertices", s, len(part.IsLocal), part.Sub.G.N())
		}
		for _, i := range part.Locals {
			pv := part.Sub.ToParent[i]
			if p.Owner[pv] != int32(s) {
				return fail("shard %d: local vertex %d owned by shard %d", s, pv, p.Owner[pv])
			}
			if seen[pv] {
				return fail("vertex %d is local in two shards", pv)
			}
			seen[pv] = true
			if part.Sub.G.Degree(int(i)) != g.Degree(pv) {
				return fail("shard %d: vertex %d has sub degree %d, parent degree %d (missing ghost)",
					s, pv, part.Sub.G.Degree(int(i)), g.Degree(pv))
			}
			if part.Sub.G.ID(int(i)) != g.ID(pv) {
				return fail("shard %d: vertex %d ID %d != parent ID %d", s, pv, part.Sub.G.ID(int(i)), g.ID(pv))
			}
		}
		for _, i := range part.Ghosts {
			pv := part.Sub.ToParent[i]
			if p.Owner[pv] == int32(s) {
				return fail("shard %d: ghost %d is owned by this shard", s, pv)
			}
		}
	}
	for v := 0; v < g.N(); v++ {
		if !seen[v] {
			return fail("vertex %d is local in no shard", v)
		}
	}
	cut := 0
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Neighbors(v) {
			if int32(v) >= w || p.Owner[v] == p.Owner[w] {
				continue
			}
			cut++
			// The cut edge {v,w} must have ghosts on both sides: w mirrored
			// in v's shard, v mirrored in w's shard.
			for _, pair := range [2][2]int32{{p.Owner[v], w}, {p.Owner[w], int32(v)}} {
				part := &p.Parts[pair[0]]
				i := part.Sub.FromParent[pair[1]]
				if i < 0 {
					return fail("cut edge {%d,%d}: vertex %d has no ghost in shard %d", v, w, pair[1], pair[0])
				}
				if part.IsLocal[i] {
					return fail("cut edge {%d,%d}: vertex %d is local in shard %d, expected ghost", v, w, pair[1], pair[0])
				}
			}
		}
	}
	if cut != p.CutEdges {
		return fail("partition reports %d cut edges, graph has %d", p.CutEdges, cut)
	}
	return nil
}

// Reassemble rebuilds the parent graph from the shard subgraphs alone —
// each shard contributes every edge incident to its locals — and checks the
// result is byte-identical to the input CSR. It is the partition oracle
// behind FuzzPartition: information lost or invented by sharding cannot
// survive this round trip.
func Reassemble(g *graph.Graph, p *Partition) error {
	b := graph.NewBuilder(p.N)
	for s := range p.Parts {
		part := &p.Parts[s]
		for _, i := range part.Locals {
			pv := part.Sub.ToParent[i]
			b.SetID(pv, part.Sub.G.ID(int(i)))
			for _, j := range part.Sub.G.Neighbors(int(i)) {
				pw := part.Sub.ToParent[j]
				if pv < pw {
					b.AddEdge(pv, pw)
				} else if pw < pv && !part.IsLocal[j] {
					// Local-ghost edges with the ghost on the low side are
					// emitted here too: the ghost's owner shard also emits
					// them, and the builder dedupes.
					b.AddEdge(pw, pv)
				}
			}
		}
	}
	rg, err := b.Build()
	if err != nil {
		return &PartitionViolation{Err: fmt.Errorf("reassembly failed: %w", err)}
	}
	var want, got bytes.Buffer
	if err := graph.EncodeBinary(&want, g); err != nil {
		return err
	}
	if err := graph.EncodeBinary(&got, rg); err != nil {
		return err
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		if err := graph.EqualCSR(g, rg); err != nil {
			return &PartitionViolation{Err: fmt.Errorf("reassembled CSR differs: %w", err)}
		}
		return &PartitionViolation{Err: fmt.Errorf("reassembled CSR bytes differ")}
	}
	return nil
}
