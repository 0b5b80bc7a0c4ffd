package graphio

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"deltacoloring/internal/graph"
)

// inRange walks every adjacency of g and fails on a neighbor outside
// [0, n): an accepted image must never hand out an out-of-range slice.
func inRange(t *testing.T, g *graph.Graph) {
	t.Helper()
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Neighbors(v) {
			if w < 0 || int(w) >= g.N() {
				t.Fatalf("vertex %d has neighbor %d outside [0, %d)", v, w, g.N())
			}
		}
	}
}

// FuzzReadBinary feeds arbitrary bytes to the DCSRv1 loaders: the heap
// reader on the bytes with their length, ReadFile's heap loader on a temp
// file, and the memory-mapped loader on the same file with its size gate
// lowered to zero, so that small inputs reach the mapping too. The header
// must match the size in each. Each returns an error or a graph whose
// adjacencies stay in range, and never panics. An image the mapping accepts
// the other two accept too, with the same adjacencies.
func FuzzReadBinary(f *testing.F) {
	var valid bytes.Buffer
	if err := graph.EncodeBinary(&valid, testGraph(f, 12, 4)); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	path := filepath.Join(f.TempDir(), "in.dcsr")
	f.Fuzz(func(t *testing.T, data []byte) {
		hg, herr := readImage(data)
		if herr == nil {
			inRange(t, hg)
		}
		if !bytes.HasPrefix(data, []byte(graph.BinaryMagic)) {
			return // ReadFile would parse it as text, and the mapping skips it
		}
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		fg, ferr := ReadFile(path)
		if ferr == nil {
			inRange(t, fg)
		}
		mg, closer, merr := openBinaryMmap(path, 0)
		if merr != nil {
			return
		}
		defer closer.Close()
		inRange(t, mg)
		for _, other := range []struct {
			name string
			g    *graph.Graph
			err  error
		}{{"heap reader", hg, herr}, {"file", fg, ferr}} {
			if other.err != nil {
				t.Fatalf("mapping accepted an image the %s reader rejects: %v", other.name, other.err)
			}
			if mg.N() != other.g.N() || mg.M() != other.g.M() {
				t.Fatalf("mapping read n=%d m=%d, %s n=%d m=%d", mg.N(), mg.M(), other.name, other.g.N(), other.g.M())
			}
			for v := 0; v < mg.N(); v++ {
				if !slices.Equal(mg.Neighbors(v), other.g.Neighbors(v)) || mg.ID(v) != other.g.ID(v) {
					t.Fatalf("vertex %d differs between the mapping and the %s", v, other.name)
				}
			}
		}
	})
}
