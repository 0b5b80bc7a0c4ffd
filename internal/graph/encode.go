package graph

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Binary CSR codec. The durable subsystem (internal/durable) checkpoints
// dynamic stores by serializing their graph snapshots; round-tripping the CSR
// arrays directly — offsets, edges, IDs — is both the fastest path (no edge
// re-sort, no counting pass) and the only one that preserves symmetry-breaking
// IDs exactly, so a recovered store replays maintenance over the identical
// structure the crashed process saw.
//
// Layout (all little-endian, no framing — callers wrap it in their own
// checksummed envelope):
//
//	uint32  n
//	uint32  len(edges)          (half-edge count, 2m)
//	int32   offsets[n+1]
//	int32   edges[2m]
//	uint64  ids[n]
//
// DecodeBinary checks ID uniqueness and hands the arrays to NewCSRView, the
// one structural validator (monotone offsets spanning the edge array, sorted
// strict in-range adjacency runs, symmetry), so a corrupted or adversarial
// payload yields an error, never a graph that breaks the package's
// immutability contract.

// NewCSRView adopts externally produced CSR arrays — typically views into a
// memory-mapped file — after an O(n+m) structural validation: offsets span
// the edge array monotonically, every adjacency run is strictly sorted, in
// range and self-loop free, and every edge is listed on both sides. One
// invariant is deliberately NOT checked, because it would dominate
// huge-graph load times: ID uniqueness (an n-sized hash set). Writers in
// this repository emit identity IDs by construction; callers adopting
// untrusted IDs check them (DecodeBinary does) or run Validate for the full
// check. The arrays are aliased, not copied: the caller must keep their
// backing store (e.g. the mapping) alive and unmodified for the lifetime of
// the graph.
func NewCSRView(offsets, edges []int32, ids []uint64) (*Graph, error) {
	n := len(ids)
	if len(offsets) != n+1 {
		return nil, fmt.Errorf("graph: %d offsets for %d vertices", len(offsets), n)
	}
	if n > MaxN {
		return nil, fmt.Errorf("graph: vertex count %d out of range [0, %d]", n, MaxN)
	}
	if offsets[0] != 0 || int(offsets[n]) != len(edges) {
		return nil, fmt.Errorf("graph: offsets do not span the edge array")
	}
	if len(edges)%2 != 0 {
		return nil, fmt.Errorf("graph: odd half-edge count %d", len(edges))
	}
	for v := 0; v < n; v++ {
		if offsets[v] > offsets[v+1] {
			return nil, fmt.Errorf("graph: offsets not monotone at %d", v)
		}
		if int(offsets[v+1]) > len(edges) {
			return nil, fmt.Errorf("graph: offset %d of vertex %d past the %d-entry edge array", offsets[v+1], v+1, len(edges))
		}
		prev := int32(-1)
		for _, w := range edges[offsets[v]:offsets[v+1]] {
			if w < 0 || int(w) >= n {
				return nil, fmt.Errorf("graph: neighbor %d of %d out of range", w, v)
			}
			if int(w) == v {
				return nil, fmt.Errorf("graph: self-loop at %d", v)
			}
			if w <= prev {
				return nil, fmt.Errorf("graph: adjacency of %d not strictly sorted", v)
			}
			prev = w
		}
	}
	// Symmetry is the one invariant the per-vertex scan above cannot see.
	// Visiting v ascending, each neighbor w's sorted list must yield exactly
	// v at its cursor: O(n+m), where a search per half-edge costs O(m log Δ).
	cursor := make([]int32, n)
	copy(cursor, offsets[:n])
	for v := 0; v < n; v++ {
		for _, w := range edges[offsets[v]:offsets[v+1]] {
			c := cursor[w]
			if c == offsets[w+1] || edges[c] != int32(v) {
				return nil, fmt.Errorf("graph: adjacency not symmetric at %d's neighbor %d", v, w)
			}
			cursor[w] = c + 1
		}
	}
	return fromCSR(offsets, edges, ids), nil
}

// encodeBinarySize returns the exact encoded byte size of g.
func encodeBinarySize(g *Graph) int {
	return 4 + 4 + 4*(g.N()+1) + 4*len(g.edges) + 8*g.N()
}

// EncodeBinary writes g's CSR image to w.
func EncodeBinary(w io.Writer, g *Graph) error {
	buf := make([]byte, 0, encodeBinarySize(g))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(g.N()))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(g.edges)))
	for _, o := range g.offsets {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(o))
	}
	for _, e := range g.edges {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e))
	}
	for _, id := range g.ids {
		buf = binary.LittleEndian.AppendUint64(buf, id)
	}
	_, err := w.Write(buf)
	return err
}

// DecodeBinary reads one EncodeBinary image from r and reconstructs the
// graph, validating the CSR shape before adopting it.
func DecodeBinary(r io.Reader) (*Graph, error) {
	var head [8]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("graph: decode header: %w", err)
	}
	n := int(binary.LittleEndian.Uint32(head[0:4]))
	ne := int(binary.LittleEndian.Uint32(head[4:8]))
	if n < 0 || n > MaxN || ne < 0 || ne%2 != 0 {
		return nil, fmt.Errorf("graph: decode: implausible shape n=%d half-edges=%d", n, ne)
	}
	size := 4*(n+1) + 4*ne + 8*n
	// A reader that knows its length (the shard wire's bytes.Reader, the
	// checkpoint's) fails a header claiming more than it holds before the
	// body is allocated.
	if lr, ok := r.(interface{ Len() int }); ok && lr.Len() < size {
		return nil, fmt.Errorf("graph: decode body: header claims %d bytes, %d remain", size, lr.Len())
	}
	body := make([]byte, size)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("graph: decode body: %w", err)
	}
	offsets := make([]int32, n+1)
	for i := range offsets {
		offsets[i] = int32(binary.LittleEndian.Uint32(body[4*i:]))
	}
	body = body[4*(n+1):]
	edges := make([]int32, ne)
	for i := range edges {
		edges[i] = int32(binary.LittleEndian.Uint32(body[4*i:]))
	}
	body = body[4*ne:]
	ids := make([]uint64, n)
	idSeen := make(map[uint64]bool, n)
	for i := range ids {
		ids[i] = binary.LittleEndian.Uint64(body[8*i:])
		if idSeen[ids[i]] {
			return nil, fmt.Errorf("graph: decode: duplicate ID %d", ids[i])
		}
		idSeen[ids[i]] = true
	}
	return NewCSRView(offsets, edges, ids)
}
