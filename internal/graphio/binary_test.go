package graphio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deltacoloring/internal/graph"
)

func testGraph(t testing.TB, n, d int) *graph.Graph {
	t.Helper()
	// Circulant: v ~ v±1..v±d/2 mod n — connected, d-regular for even d.
	g, err := graph.FromStream(n, 1, func(emit func(u, v int)) error {
		for v := 0; v < n; v++ {
			for s := 1; s <= d/2; s++ {
				emit(v, (v+s)%n)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, tc := range []struct{ n, d int }{{0, 0}, {1, 0}, {5, 2}, {100, 6}, {257, 8}} {
		g := testGraph(t, tc.n, tc.d)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatalf("n=%d: WriteBinary: %v", tc.n, err)
		}
		got, err := readBinary(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatalf("n=%d: readBinary: %v", tc.n, err)
		}
		if got.N() != g.N() || got.M() != g.M() || got.MaxDegree() != g.MaxDegree() {
			t.Fatalf("n=%d: round-trip shape mismatch", tc.n)
		}
		if CanonicalHash(got) != CanonicalHash(g) {
			t.Fatalf("n=%d: round-trip edge set mismatch", tc.n)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("n=%d: round-tripped graph invalid: %v", tc.n, err)
		}
	}
}

func TestBinaryFileAndLoadSniffing(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t, 200, 6)

	bin := filepath.Join(dir, "g.dcsr")
	if err := WriteBinaryFile(bin, g); err != nil {
		t.Fatal(err)
	}
	bg, closer, err := Load(bin)
	if err != nil {
		t.Fatalf("Load(binary): %v", err)
	}
	if CanonicalHash(bg) != CanonicalHash(g) {
		t.Fatal("Load(binary) edge set mismatch")
	}
	if err := closer.Close(); err != nil {
		t.Fatal(err)
	}

	txt := filepath.Join(dir, "g.txt")
	f, err := os.Create(txt)
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(f, g, "test graph"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	tg, closer, err := Load(txt)
	if err != nil {
		t.Fatalf("Load(text): %v", err)
	}
	defer closer.Close()
	if CanonicalHash(tg) != CanonicalHash(g) {
		t.Fatal("Load(text) edge set mismatch")
	}
}

// TestOpenBinaryMmap forces a file past the mmap size gate and checks the
// mapped view agrees with the portable reader (on platforms without mmap the
// fallback path serves both, which still exercises OpenBinary end to end).
func TestOpenBinaryMmap(t *testing.T) {
	g := testGraph(t, 20000, 8) // ~1 MB, beyond mmapMinBytes
	path := filepath.Join(t.TempDir(), "big.dcsr")
	if err := WriteBinaryFile(path, g); err != nil {
		t.Fatal(err)
	}
	mg, closer, err := OpenBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	if mg.N() != g.N() || mg.M() != g.M() || mg.MaxDegree() != g.MaxDegree() {
		t.Fatal("mmap view shape mismatch")
	}
	// Full structural + symmetry validation of the aliased arrays.
	if err := mg.Validate(); err != nil {
		t.Fatalf("mmap view invalid: %v", err)
	}
	if CanonicalHash(mg) != CanonicalHash(g) {
		t.Fatal("mmap view edge set mismatch")
	}
}

func TestBinaryRejectsCorruption(t *testing.T) {
	g := testGraph(t, 50, 4)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	base := buf.Bytes()

	corrupt := func(mutate func(b []byte)) error {
		b := append([]byte(nil), base...)
		mutate(b)
		_, err := readBinary(bytes.NewReader(b), int64(len(b)))
		return err
	}

	if err := corrupt(func(b []byte) { b[0] = 'X' }); err == nil {
		t.Fatal("bad magic accepted")
	}
	if err := corrupt(func(b []byte) {
		// First adjacency entry out of range.
		binary.LittleEndian.PutUint32(b[binaryHeaderLen+4*51:], 1<<30)
	}); err == nil {
		t.Fatal("out-of-range neighbor accepted")
	}
	if err := corrupt(func(b []byte) {
		// Break offset monotonicity.
		binary.LittleEndian.PutUint32(b[binaryHeaderLen+4:], math.MaxUint32)
	}); err == nil {
		t.Fatal("non-monotone offsets accepted")
	}
	short := base[:len(base)-8]
	if _, err := readBinary(bytes.NewReader(short), int64(len(short))); err == nil {
		t.Fatal("truncated file accepted")
	}
}

// TestBinaryRejectsOverflowingEdgeCount crafts a header whose half-edge
// count exceeds the int32 offset space and checks for the typed error —
// the satellite guard against silent mis-building at huge m.
func TestBinaryRejectsOverflowingEdgeCount(t *testing.T) {
	var head [binaryHeaderLen]byte
	copy(head[:], binaryMagic[:])
	binary.LittleEndian.PutUint32(head[8:12], 100)
	binary.LittleEndian.PutUint32(head[12:16], math.MaxInt32+1) // even, > MaxInt32
	_, err := readBinary(bytes.NewReader(head[:]), int64(len(head)))
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
	if !errors.Is(err, graph.ErrTooManyEdges) {
		t.Fatalf("ErrTooLarge should wrap graph.ErrTooManyEdges, got %v", err)
	}
}

// writeOneSidedFile writes a DCSRv1 file with n=3 in which vertex 0 lists
// vertices 1 and 2 but neither lists 0: every per-vertex check passes, and
// only symmetry fails.
func writeOneSidedFile(t *testing.T) string {
	t.Helper()
	b := append([]byte(nil), binaryMagic[:]...)
	for _, x := range []uint32{3, 2, 0, 2, 2, 2, 1, 2} { // n, 2m, offsets, edges
		b = binary.LittleEndian.AppendUint32(b, x)
	}
	for v := uint64(0); v < 3; v++ {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	path := filepath.Join(t.TempDir(), "one-sided.dcsr")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBinaryFileRejectsAsymmetry: every loader of binary graph files
// refuses a one-sided edge list — ReadFile (the service's file source),
// OpenBinary's heap fallback for small files, and the mapped loader.
func TestBinaryFileRejectsAsymmetry(t *testing.T) {
	path := writeOneSidedFile(t)
	symmetric := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "not symmetric") {
			t.Fatalf("%s: err = %v, want a symmetry error", what, err)
		}
	}
	_, err := ReadFile(path)
	symmetric("ReadFile", err)
	_, _, err = OpenBinary(path) // below mmapMinBytes: the heap fallback
	symmetric("OpenBinary", err)
	_, _, err = openBinaryMmap(path, 0)
	if err == errMmapUnsupported {
		t.Log("no mapped loader on this platform")
		return
	}
	symmetric("openBinaryMmap", err)
}
