// Binary graph files. The text edge-list format re-parses and re-sorts every
// edge on load; at n=10⁷ that is minutes of CPU for a graph whose CSR image
// is a few hundred megabytes of flat arrays. The binary format stores the
// CSR arrays directly in a magic-framed, 8-byte-aligned layout so a loader
// can memory-map the file and adopt the arrays in place — open time becomes
// page-fault time, and two processes sharing one graph share its pages.
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
// The pad keeps the ids section 8-aligned for the mmap view on any n. See
// DESIGN.md §14 for the full contract.
package graphio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"deltacoloring/internal/graph"
)

// binaryMagic frames binary graph files; the trailing NULs version the
// layout (a layout change bumps the digit).
var binaryMagic = [8]byte{'D', 'C', 'S', 'R', 'v', '1', 0, 0}

// ErrTooLarge reports a graph or header whose half-edge count does not fit
// the int32 CSR offset space — the typed rejection for inputs that would
// otherwise silently mis-build at huge m.
var ErrTooLarge = fmt.Errorf("graphio: %w", graph.ErrTooManyEdges)

// binaryHeaderLen is magic + n + ne.
const binaryHeaderLen = 16

// mmapMinBytes gates the mapping path: tiny files cost more in mmap/munmap
// syscalls and page granularity than a buffered read, and tests exercise the
// portable loader through it.
const mmapMinBytes = 1 << 16

// errMmapUnsupported routes OpenBinary to the portable buffered reader on
// platforms without the mapped loader, and for files below its size gate.
var errMmapUnsupported = errors.New("graphio: mmap unsupported")

// binaryLayout computes the section byte offsets for a graph of n vertices
// and ne half-edges. Sizes are int64 throughout: a crafted uint32 header must
// not overflow the arithmetic before the ErrTooLarge check fires.
func binaryLayout(n, ne int64) (idsOff, total int64) {
	edgesEnd := int64(binaryHeaderLen) + 4*(n+1) + 4*ne
	idsOff = (edgesEnd + 7) &^ 7
	return idsOff, idsOff + 8*n
}

// WriteBinary writes g as one binary graph image. The arrays stream through
// a buffered writer chunk by chunk, so the peak extra memory is the buffer,
// not a second copy of the graph.
func WriteBinary(w io.Writer, g *graph.Graph) error {
	n := g.N()
	ne := 2 * g.M()
	if int64(ne) > math.MaxInt32 {
		return ErrTooLarge
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	var u32 [4]byte
	put32 := func(x uint32) error {
		binary.LittleEndian.PutUint32(u32[:], x)
		_, err := bw.Write(u32[:])
		return err
	}
	if err := put32(uint32(n)); err != nil {
		return err
	}
	if err := put32(uint32(ne)); err != nil {
		return err
	}
	off := uint32(0)
	if err := put32(off); err != nil {
		return err
	}
	for v := 0; v < n; v++ {
		off += uint32(g.Degree(v))
		if err := put32(off); err != nil {
			return err
		}
	}
	for v := 0; v < n; v++ {
		for _, w := range g.Neighbors(v) {
			if err := put32(uint32(w)); err != nil {
				return err
			}
		}
	}
	idsOff, _ := binaryLayout(int64(n), int64(ne))
	for pad := idsOff - (binaryHeaderLen + 4*(int64(n)+1) + 4*int64(ne)); pad > 0; pad-- {
		if err := bw.WriteByte(0); err != nil {
			return err
		}
	}
	var u64 [8]byte
	for v := 0; v < n; v++ {
		binary.LittleEndian.PutUint64(u64[:], g.ID(v))
		if _, err := bw.Write(u64[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteBinaryFile writes g to path atomically (temp file + rename).
func WriteBinaryFile(path string, g *graph.Graph) error {
	tmp, err := os.CreateTemp(dirOf(path), ".dcsr-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := WriteBinary(tmp, g); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return "."
}

// parseBinaryHeader validates the magic and shape fields against the
// image's byte count.
func parseBinaryHeader(head []byte, size int64) (n, ne int64, err error) {
	if !bytes.Equal(head[:8], binaryMagic[:]) {
		return 0, 0, fmt.Errorf("graphio: not a binary graph file (bad magic)")
	}
	n = int64(binary.LittleEndian.Uint32(head[8:12]))
	ne = int64(binary.LittleEndian.Uint32(head[12:16]))
	if n > graph.MaxN {
		return 0, 0, fmt.Errorf("graphio: implausible vertex count %d", n)
	}
	if ne > math.MaxInt32 || ne%2 != 0 {
		if ne%2 == 0 {
			return 0, 0, ErrTooLarge
		}
		return 0, 0, fmt.Errorf("graphio: implausible half-edge count %d", ne)
	}
	if _, total := binaryLayout(n, ne); total != size {
		return 0, 0, fmt.Errorf("graphio: file size %d does not match header (want %d)", size, total)
	}
	return n, ne, nil
}

// readBinary decodes a binary graph image of size bytes from r into heap
// arrays; the structural validation matches OpenBinary's. The size must
// match the header before anything is sized by it, and the body then takes
// one exact allocation.
func readBinary(r io.Reader, size int64) (*graph.Graph, error) {
	var head [binaryHeaderLen]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("graphio: binary header: %w", err)
	}
	n, ne, err := parseBinaryHeader(head[:], size)
	if err != nil {
		return nil, err
	}
	idsOff, total := binaryLayout(n, ne)
	body := make([]byte, total-binaryHeaderLen)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("graphio: binary body: %w", err)
	}
	offsets := make([]int32, n+1)
	for i := range offsets {
		offsets[i] = int32(binary.LittleEndian.Uint32(body[4*i:]))
	}
	edgeBytes := body[4*(n+1):]
	edges := make([]int32, ne)
	for i := range edges {
		edges[i] = int32(binary.LittleEndian.Uint32(edgeBytes[4*i:]))
	}
	idBytes := body[idsOff-binaryHeaderLen:]
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = binary.LittleEndian.Uint64(idBytes[8*i:])
	}
	return graph.NewCSRView(offsets, edges, ids)
}

// OpenBinary opens a binary graph file, memory-mapping it where the platform
// supports it (Linux amd64/arm64) and falling back to a heap read elsewhere.
// The returned closer releases the mapping; the graph must not be used after
// Close. A nil closer never happens — the fallback returns a no-op.
func OpenBinary(path string) (*graph.Graph, io.Closer, error) {
	g, closer, err := openBinaryMmap(path, mmapMinBytes)
	if err == nil {
		return g, closer, nil
	}
	if err != errMmapUnsupported {
		return nil, nil, err
	}
	g, err = readBinaryFile(path)
	if err != nil {
		return nil, nil, err
	}
	return g, nopCloser{}, nil
}

type nopCloser struct{}

func (nopCloser) Close() error { return nil }

// ReadFile loads path as either format — sniffing the magic like Load —
// into heap-owned arrays, never a mapping. It is the loader for callers
// that cannot scope a mapping's lifetime, such as a server handing graphs
// to asynchronous jobs.
func ReadFile(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	head, err := br.Peek(8)
	if err == nil && bytes.Equal(head, binaryMagic[:]) {
		st, err := f.Stat()
		if err != nil {
			return nil, err
		}
		return readBinary(br, st.Size())
	}
	return Read(br)
}

// readBinaryFile reads the binary graph file at path into heap arrays,
// checking its header against the file's size.
func readBinaryFile(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return readBinary(bufio.NewReaderSize(f, 1<<20), st.Size())
}

// Load opens path as either format, sniffing the magic: binary graphs take
// the mmap path, anything else parses as a text edge list. The closer owns
// the mapping in the binary case and is a no-op for text.
func Load(path string) (*graph.Graph, io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	var head [8]byte
	nRead, err := io.ReadFull(f, head[:])
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		f.Close()
		return nil, nil, err
	}
	if nRead == 8 && bytes.Equal(head[:], binaryMagic[:]) {
		f.Close()
		g, closer, err := OpenBinary(path)
		return g, closer, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	g, err := Read(bufio.NewReaderSize(f, 1<<20))
	f.Close()
	if err != nil {
		return nil, nil, err
	}
	return g, nopCloser{}, nil
}
