//go:build linux && (amd64 || arm64)

package graphio

import (
	"fmt"
	"io"
	"os"
	"syscall"
	"unsafe"

	"deltacoloring/internal/graph"
)

// openBinaryMmap maps the binary graph file at path read-only and adopts
// its arrays in place. This is only correct because the DCSRv1 layout
// starts the int32 sections 4-aligned and the ids section 8-aligned within
// the (page-aligned) mapping, and the gated platforms are little-endian
// like the image. A file below minBytes, or one without the magic, is
// errNotMapped. The returned closer unmaps; the graph aliases the mapping
// and must not outlive it.
func openBinaryMmap(path string, minBytes int64) (*graph.Graph, io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := st.Size()
	if size < minBytes || !isBinary(f) {
		return nil, nil, errNotMapped
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, fmt.Errorf("graphio: mmap: %w", err)
	}
	g, err := adoptMapped(data)
	if err != nil {
		syscall.Munmap(data)
		return nil, nil, err
	}
	return g, &mmapCloser{data: data}, nil
}

// adoptMapped builds a graph view over the mapped image, its sections laid
// out by graph.SplitBinary.
func adoptMapped(data []byte) (*graph.Graph, error) {
	offsets, edges, ids, err := graph.SplitBinary(data)
	if err != nil {
		return nil, err
	}
	return graph.NewCSRView(view[int32](offsets), view[int32](edges), view[uint64](ids))
}

// view casts a section of the mapping to the array it holds.
func view[T int32 | uint64](b []byte) []T {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/int(unsafe.Sizeof(T(0))))
}

type mmapCloser struct{ data []byte }

func (c *mmapCloser) Close() error {
	if c.data == nil {
		return nil
	}
	err := syscall.Munmap(c.data)
	c.data = nil
	return err
}
