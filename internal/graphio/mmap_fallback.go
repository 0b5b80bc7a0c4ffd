//go:build !(linux && (amd64 || arm64))

package graphio

import (
	"io"

	"deltacoloring/internal/graph"
)

func openBinaryMmap(path string, minBytes int64) (*graph.Graph, io.Closer, error) {
	return nil, nil, errNotMapped
}
