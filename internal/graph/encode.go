package graph

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"unsafe"
)

// The DCSRv1 image is the one byte layout of a CSR graph. Graph files
// (internal/graphio), durable checkpoints (internal/durable) and the shard
// wire's init frame (internal/shard) all carry it. It stores the arrays as
// they are: no edge re-sort and no counting pass on load, and the
// symmetry-breaking IDs survive exactly, so a recovered store or a shard
// worker sees the structure its writer saw.
//
// Layout (all little-endian):
//
//	[8]byte  magic "DCSRv1\x00\x00"
//	uint32   n
//	uint32   ne                    (half-edge count, 2m)
//	int32    offsets[n+1]          (starts at byte 16, 4-aligned)
//	int32    edges[ne]
//	[pad]                          (zero bytes to the next 8-byte boundary)
//	uint64   ids[n]
//
// The pad keeps ids 8-aligned, so a memory mapping can adopt all three
// arrays in place. EncodeBinary writes an image. SplitBinary is the one
// parser of the layout: it checks a whole image's header against its
// length and its pad, and cuts it into the arrays' byte sections, which
// graphio's mapping adopts as they are and DecodeBinary copies to the
// heap. Either way the arrays go to NewCSRView, the one validator, so an
// image gets the same verdict whatever carried it. See DESIGN.md §14.2.

// BinaryMagic leads every image; the trailing NULs version the layout (a
// layout change bumps the digit).
const BinaryMagic = "DCSRv1\x00\x00"

// binaryHeaderLen is magic + n + ne.
const binaryHeaderLen = 16

// binaryChunk bounds the buffer EncodeBinary writes through, so encoding
// holds no second copy of the graph.
const binaryChunk = 64 << 10

// binaryShape is where the sections of an image with n vertices and ne
// half-edges lie. Sizes are int64: a crafted header must not overflow them.
type binaryShape struct {
	n, ne                  int64
	edgesEnd, idsOff, size int64
}

func shapeOf(n, ne int64) binaryShape {
	edgesEnd := binaryHeaderLen + 4*(n+1) + 4*ne
	idsOff := (edgesEnd + 7) &^ 7
	return binaryShape{n: n, ne: ne, edgesEnd: edgesEnd, idsOff: idsOff, size: idsOff + 8*n}
}

// parseBinaryHeader checks the magic and the shape fields of the image
// head starts with.
func parseBinaryHeader(head []byte) (binaryShape, error) {
	if len(head) < binaryHeaderLen {
		return binaryShape{}, fmt.Errorf("graph: binary header: %w", io.ErrUnexpectedEOF)
	}
	if string(head[:len(BinaryMagic)]) != BinaryMagic {
		return binaryShape{}, fmt.Errorf("graph: not a DCSRv1 image (bad magic)")
	}
	n := int64(binary.LittleEndian.Uint32(head[8:]))
	ne := int64(binary.LittleEndian.Uint32(head[12:]))
	switch {
	case n > MaxN:
		return binaryShape{}, fmt.Errorf("graph: implausible vertex count %d", n)
	case ne%2 != 0:
		return binaryShape{}, fmt.Errorf("graph: odd half-edge count %d", ne)
	case ne > math.MaxInt32:
		return binaryShape{}, fmt.Errorf("%w: header claims %d half-edges", ErrTooManyEdges, ne)
	}
	return shapeOf(n, ne), nil
}

// SplitBinary checks that image holds exactly one DCSRv1 image with a zero
// pad and returns the byte sections of its three arrays, for a caller that
// adopts them in place (graphio's memory mapping) and passes them to
// NewCSRView.
func SplitBinary(image []byte) (offsets, edges, ids []byte, err error) {
	s, err := parseBinaryHeader(image)
	if err != nil {
		return nil, nil, nil, err
	}
	if s.size != int64(len(image)) {
		return nil, nil, nil, fmt.Errorf("graph: %d-byte image, header claims %d", len(image), s.size)
	}
	// A non-zero pad is refused: an image decodes only if it re-encodes to
	// its own bytes.
	if slices.ContainsFunc(image[s.edgesEnd:s.idsOff], func(b byte) bool { return b != 0 }) {
		return nil, nil, nil, fmt.Errorf("graph: non-zero pad before the ids")
	}
	edgesOff := binaryHeaderLen + 4*(s.n+1)
	return image[binaryHeaderLen:edgesOff], image[edgesOff:s.edgesEnd], image[s.idsOff:], nil
}

// chunkWriter gathers an image into a bounded buffer and writes the buffer
// out whenever it fills. The first write error sticks.
type chunkWriter struct {
	w   io.Writer
	buf []byte
	err error
}

func (c *chunkWriter) flush() {
	if c.err == nil {
		_, c.err = c.w.Write(c.buf)
	}
	c.buf = c.buf[:0]
}

// putLE appends xs little-endian, flushing the chunk as it fills.
func putLE[T int32 | uint64](c *chunkWriter, xs []T) {
	width := int(unsafe.Sizeof(T(0)))
	for len(xs) > 0 {
		if cap(c.buf)-len(c.buf) < width {
			c.flush()
		}
		k := min(len(xs), (cap(c.buf)-len(c.buf))/width)
		for _, x := range xs[:k] {
			if width == 4 {
				c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(x))
			} else {
				c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(x))
			}
		}
		xs = xs[k:]
	}
}

// EncodeBinary writes g's DCSRv1 image to w, in writes of at most
// binaryChunk bytes.
func EncodeBinary(w io.Writer, g *Graph) error {
	s := shapeOf(int64(g.N()), int64(len(g.edges)))
	c := &chunkWriter{w: w, buf: make([]byte, 0, min(s.size, binaryChunk))}
	c.buf = append(c.buf, BinaryMagic...)
	c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(g.N()))
	c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(len(g.edges)))
	putLE(c, g.offsets)
	putLE(c, g.edges)
	putLE(c, make([]int32, (s.idsOff-s.edgesEnd)/4)) // the pad
	putLE(c, g.ids)
	c.flush()
	return c.err
}

// fromLE decodes a section of little-endian values into a new array.
func fromLE[T int32 | uint64](b []byte) []T {
	width := int(unsafe.Sizeof(T(0)))
	xs := make([]T, len(b)/width)
	for i := range xs {
		if width == 4 {
			xs[i] = T(binary.LittleEndian.Uint32(b[4*i:]))
		} else {
			xs[i] = T(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
	return xs
}

// DecodeBinary decodes the DCSRv1 image that b starts with and returns its
// length in bytes; the caller decides what may follow it. The header is
// checked against len(b) before anything is allocated, the image with
// SplitBinary, and its arrays, copied to the heap, with NewCSRView.
func DecodeBinary(b []byte) (*Graph, int, error) {
	s, err := parseBinaryHeader(b)
	if err != nil {
		return nil, 0, err
	}
	if s.size > int64(len(b)) {
		return nil, 0, fmt.Errorf("graph: header claims a %d-byte image, %d bytes remain", s.size, len(b))
	}
	offsets, edges, ids, err := SplitBinary(b[:s.size])
	if err != nil {
		return nil, 0, err
	}
	g, err := NewCSRView(fromLE[int32](offsets), fromLE[int32](edges), fromLE[uint64](ids))
	if err != nil {
		return nil, 0, err
	}
	return g, int(s.size), nil
}

// NewCSRView adopts externally produced CSR arrays (a decoded image, or
// views into a memory-mapped file) after an O(n+m) validation: offsets span
// the edge array monotonically, every adjacency run is strictly sorted, in
// range and self-loop free, every edge is listed on both sides, and the IDs
// are unique. It is the one validator every image reader ends in, so a
// file, a mapping, a checkpoint and the shard wire get the same verdict;
// Validate stays an independent re-check. The arrays are aliased, not
// copied: the caller must keep their backing store (e.g. the mapping) alive
// and unmodified for the lifetime of the graph.
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
	if err := uniqueIDs(ids); err != nil {
		return nil, err
	}
	return fromCSR(offsets, edges, ids), nil
}

// uniqueIDs reports the first ID that two vertices share, in O(n). When
// every ID is below 64·n it marks them in a bitset of at most n words, no
// more than the ids array itself; otherwise it falls back to a map.
func uniqueIDs(ids []uint64) error {
	dup := func(v int) error {
		return fmt.Errorf("graph: duplicate ID %d on vertices %d and %d", ids[v], slices.Index(ids, ids[v]), v)
	}
	if len(ids) == 0 {
		return nil
	}
	if top := slices.Max(ids); top/64 < uint64(len(ids)) {
		seen := make([]uint64, top/64+1)
		for v, id := range ids {
			word, bit := id/64, uint64(1)<<(id%64)
			if seen[word]&bit != 0 {
				return dup(v)
			}
			seen[word] |= bit
		}
		return nil
	}
	seen := make(map[uint64]struct{}, len(ids))
	for v, id := range ids {
		if _, ok := seen[id]; ok {
			return dup(v)
		}
		seen[id] = struct{}{}
	}
	return nil
}
