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

// openBinaryMmap maps path read-only and adopts the CSR arrays in place via
// unsafe.Slice casts. This is only correct because the layout guarantees the
// int32 sections start 4-aligned and the ids section 8-aligned within the
// (page-aligned) mapping, and the gated platforms are little-endian like the
// file. Files below minBytes are left to the buffered reader. The returned
// closer unmaps; the graph aliases the mapping and must not outlive it.
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
	if size < minBytes {
		return nil, nil, errMmapUnsupported // small file: buffered read is cheaper
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, fmt.Errorf("graphio: mmap: %w", err)
	}
	g, err := adoptMapped(data, size)
	if err != nil {
		syscall.Munmap(data)
		return nil, nil, err
	}
	return g, &mmapCloser{data: data}, nil
}

// adoptMapped builds a graph view over the mapped bytes.
func adoptMapped(data []byte, size int64) (*graph.Graph, error) {
	if size < binaryHeaderLen {
		return nil, fmt.Errorf("graphio: binary header: %w", io.ErrUnexpectedEOF)
	}
	n, ne, err := parseBinaryHeader(data[:binaryHeaderLen], size)
	if err != nil {
		return nil, err
	}
	idsOff, _ := binaryLayout(n, ne)
	offsets := unsafe.Slice((*int32)(unsafe.Pointer(&data[binaryHeaderLen])), n+1)
	var edges []int32
	if ne > 0 {
		edges = unsafe.Slice((*int32)(unsafe.Pointer(&data[binaryHeaderLen+4*(n+1)])), ne)
	}
	var ids []uint64
	if n > 0 {
		ids = unsafe.Slice((*uint64)(unsafe.Pointer(&data[idsOff])), n)
	}
	return graph.NewCSRView(offsets, edges, ids)
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
