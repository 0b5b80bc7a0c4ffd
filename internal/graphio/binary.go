// Binary graph files. The text edge-list format re-parses and re-sorts every
// edge on load; at n=10⁷ that is minutes of CPU for a graph whose CSR image
// is a few hundred megabytes of flat arrays. A binary graph file holds one
// DCSRv1 image, the CSR layout internal/graph owns (graph.EncodeBinary,
// graph.DecodeBinary, graph.SplitBinary; DESIGN.md §14.2). This package adds
// only what is particular to files: the atomic writer, the magic sniffing
// in Load and ReadFile, and the mapped loader (mmap_linux.go), which adopts
// a large file's arrays in place, so open time becomes page-fault time and
// two processes sharing one graph share its pages.
package graphio

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"deltacoloring/internal/graph"
)

// mmapMinBytes gates the mapping path: tiny files cost more in mmap/munmap
// syscalls and page granularity than a heap read, and tests exercise the
// heap reader through it.
const mmapMinBytes = 1 << 16

// errNotMapped routes Load to the heap reader: the platform has no mapped
// loader, the file is below its size gate, or the file is not binary.
var errNotMapped = errors.New("graphio: not mapped")

// WriteBinaryFile writes g to path atomically (temp file + rename) as one
// DCSRv1 image.
func WriteBinaryFile(path string, g *graph.Graph) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".dcsr-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := graph.EncodeBinary(tmp, g); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// isBinary reports whether f starts with the DCSRv1 magic, without moving
// f's offset.
func isBinary(f *os.File) bool {
	var head [len(graph.BinaryMagic)]byte
	n, _ := f.ReadAt(head[:], 0)
	return n == len(head) && string(head[:]) == graph.BinaryMagic
}

// readImage decodes the one DCSRv1 image that data holds into heap arrays.
// Bytes past the image are an error, as they are to the mapping.
func readImage(data []byte) (*graph.Graph, error) {
	g, size, err := graph.DecodeBinary(data)
	if err == nil && size != len(data) {
		return nil, fmt.Errorf("graphio: %d bytes past the graph image", len(data)-size)
	}
	return g, err
}

type nopCloser struct{}

func (nopCloser) Close() error { return nil }

// ReadFile loads path as either format, sniffing the magic, into
// heap-owned arrays, never a mapping. It is the loader for callers that
// cannot scope a mapping's lifetime, such as a server handing graphs to
// asynchronous jobs.
func ReadFile(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if !isBinary(f) {
		return Read(f)
	}
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data := make([]byte, st.Size())
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, fmt.Errorf("graphio: read %s: %w", path, err)
	}
	return readImage(data)
}

// Load opens path as either format, sniffing the magic. A binary file is
// memory-mapped where the platform supports it (Linux amd64/arm64) and the
// file reaches mmapMinBytes, and read into the heap otherwise; anything
// else parses as a text edge list. The closer releases the mapping and is a
// no-op otherwise; the graph must not be used after Close.
func Load(path string) (*graph.Graph, io.Closer, error) {
	g, closer, err := openBinaryMmap(path, mmapMinBytes)
	if err != errNotMapped {
		return g, closer, err
	}
	g, err = ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return g, nopCloser{}, nil
}
