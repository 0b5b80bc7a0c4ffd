package graph

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

func TestEncodeBinaryRoundTrip(t *testing.T) {
	gs := map[string]*Graph{
		"empty":    NewBuilder(0).MustBuild(),
		"isolated": NewBuilder(5).MustBuild(),
		"torus":    Torus(6, 7),
		"erdos":    ErdosRenyi(200, 0.05, rand.New(rand.NewSource(3))),
	}
	// An ID-permuted graph: recovery must preserve symmetry-breaking IDs.
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	for v := 0; v < 4; v++ {
		b.SetID(v, uint64(100-v))
	}
	gs["permuted"] = b.MustBuild()

	for name, g := range gs {
		var buf bytes.Buffer
		if err := EncodeBinary(&buf, g); err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		if size := shapeOf(int64(g.N()), int64(2*g.M())).size; int64(buf.Len()) != size {
			t.Fatalf("%s: encoded %d bytes, layout says %d", name, buf.Len(), size)
		}
		got, size, err := DecodeBinary(buf.Bytes())
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if size != buf.Len() {
			t.Fatalf("%s: decoded a %d-byte image from %d bytes", name, size, buf.Len())
		}
		if got.N() != g.N() || got.M() != g.M() || got.MaxDegree() != g.MaxDegree() {
			t.Fatalf("%s: round trip changed shape: %v vs %v", name, got, g)
		}
		for v := 0; v < g.N(); v++ {
			if got.ID(v) != g.ID(v) {
				t.Fatalf("%s: ID(%d) = %d, want %d", name, v, got.ID(v), g.ID(v))
			}
			a, b := got.Neighbors(v), g.Neighbors(v)
			if len(a) != len(b) {
				t.Fatalf("%s: degree of %d changed", name, v)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s: adjacency of %d changed", name, v)
				}
			}
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: decoded graph invalid: %v", name, err)
		}
	}
}

func TestDecodeBinaryRejectsCorruption(t *testing.T) {
	g := Torus(5, 5)
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()

	// Truncations at every prefix length must error, never panic.
	for cut := 0; cut < len(clean); cut += 7 {
		if _, _, err := DecodeBinary(clean[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Single-byte corruptions must either fail validation or decode to a
	// graph that still passes Validate (flips confined to the ID section can
	// be structurally harmless).
	for i := 0; i < len(clean); i += 11 {
		mut := append([]byte(nil), clean...)
		mut[i] ^= 0x40
		got, _, err := DecodeBinary(mut)
		if err != nil {
			continue
		}
		if verr := got.Validate(); verr != nil {
			t.Fatalf("byte %d: decode accepted a graph failing Validate: %v", i, verr)
		}
	}
}

// encodeRaw encodes a CSR image from arrays that need not describe a
// valid graph, with identity IDs.
func encodeRaw(offsets, edges []int32) []byte {
	ids := make([]uint64, len(offsets)-1)
	for v := range ids {
		ids[v] = uint64(v)
	}
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, fromCSR(offsets, edges, ids)); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// TestDecodeBinaryRejectsAsymmetry: negative controls for the symmetry
// check, each an image that passes every per-vertex check (sorted, in range,
// no self-loops, even half-edge count) but lists some edge on one side only.
func TestDecodeBinaryRejectsAsymmetry(t *testing.T) {
	for name, tc := range map[string]struct{ offsets, edges []int32 }{
		// 0 lists 1 and 2 lists 3; 1 and 3 list nobody.
		"one-sided edge": {[]int32{0, 1, 1, 2, 2}, []int32{1, 3}},
		// The path 0-1-2-3 with 3's entry 2 replaced by 0.
		"wrong entry": {[]int32{0, 1, 3, 5, 6}, []int32{1, 0, 2, 1, 3, 0}},
		// The triangle 0-1-2 with 0 missing from 1's list and 1 from 2's.
		"entry missing": {[]int32{0, 2, 3, 4}, []int32{1, 2, 2, 0}},
		// The star 1-{2,3} with leaves 0 and 4 listing 1 one-sidedly: the
		// lister has the smaller degree, so a HasEdge search (which scans
		// the shorter list) finds the edge and misses the asymmetry.
		"one-sided from a low degree": {[]int32{0, 1, 3, 4, 5, 6}, []int32{1, 2, 3, 1, 1, 1}},
	} {
		_, _, err := DecodeBinary(encodeRaw(tc.offsets, tc.edges))
		if err == nil || !strings.Contains(err.Error(), "not symmetric") {
			t.Errorf("%s: err = %v, want a symmetry error", name, err)
		}
		ids := make([]uint64, len(tc.offsets)-1)
		for v := range ids {
			ids[v] = uint64(v)
		}
		if err := fromCSR(tc.offsets, tc.edges, ids).Validate(); err == nil || !strings.Contains(err.Error(), "not symmetric") {
			t.Errorf("%s: Validate err = %v, want a symmetry error", name, err)
		}
	}
	// The positive control: the same path with 3's entry intact decodes.
	if _, _, err := DecodeBinary(encodeRaw([]int32{0, 1, 3, 5, 6}, []int32{1, 0, 2, 1, 3, 2})); err != nil {
		t.Fatalf("valid path rejected: %v", err)
	}
}

// TestDecodeBinarySymmetryMatchesMatrix: on random small images with
// sorted, in-range, loop-free lists, DecodeBinary accepts exactly the ones
// whose adjacency matrix is symmetric.
func TestDecodeBinarySymmetryMatchesMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var accepted, rejected int
	for trial := 0; trial < 4000; trial++ {
		n := 1 + rng.Intn(6)
		adj := make([][]bool, n)
		for v := range adj {
			adj[v] = make([]bool, n)
		}
		for v := 0; v < n; v++ {
			for w := v + 1; w < n; w++ {
				if rng.Intn(2) == 0 {
					adj[v][w], adj[w][v] = true, true
				}
			}
		}
		// Flip a few half-edges so about half the images are asymmetric.
		for flips := rng.Intn(3); flips > 0; flips-- {
			v, w := rng.Intn(n), rng.Intn(n)
			if v != w {
				adj[v][w] = !adj[v][w]
			}
		}
		offsets := []int32{0}
		var edges []int32
		for v := 0; v < n; v++ {
			for w := 0; w < n; w++ {
				if adj[v][w] {
					edges = append(edges, int32(w))
				}
			}
			offsets = append(offsets, int32(len(edges)))
		}
		if len(edges)%2 != 0 {
			continue // rejected for its count before symmetry is looked at
		}
		symmetric := true
		for v := 0; v < n; v++ {
			for w := 0; w < n; w++ {
				symmetric = symmetric && adj[v][w] == adj[w][v]
			}
		}
		_, _, err := DecodeBinary(encodeRaw(offsets, edges))
		if (err == nil) != symmetric {
			t.Fatalf("offsets %v edges %v: symmetric=%v but decode err=%v", offsets, edges, symmetric, err)
		}
		if symmetric {
			accepted++
		} else {
			rejected++
		}
	}
	if accepted < 100 || rejected < 100 {
		t.Fatalf("weak sample: %d accepted, %d rejected", accepted, rejected)
	}
}

// TestDecodeBinaryChecksLengthFirst: a header claiming more bytes than the
// input holds fails before the body is allocated.
func TestDecodeBinaryChecksLengthFirst(t *testing.T) {
	head := binary.LittleEndian.AppendUint32([]byte(BinaryMagic), 1<<20) // a 12 MiB body
	head = binary.LittleEndian.AppendUint32(head, 2)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := DecodeBinary(head)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("header without a body accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("allocated %d bytes rejecting an 8-byte input", grew)
	}
}

// TestDecodeBinaryRejectsPadAndIDs: an image whose pad is not zero, or
// whose IDs repeat, is refused, by DecodeBinary and by SplitBinary's
// caller alike.
func TestDecodeBinaryRejectsPadAndIDs(t *testing.T) {
	clean := encodeRaw([]int32{0, 1, 2}, []int32{1, 0}) // n=2: a 4-byte pad
	if _, _, err := DecodeBinary(clean); err != nil {
		t.Fatalf("clean image rejected: %v", err)
	}
	padded := append([]byte(nil), clean...)
	padded[16+4*3+4*2] = 1
	if _, _, err := DecodeBinary(padded); err == nil || !strings.Contains(err.Error(), "pad") {
		t.Fatalf("non-zero pad: DecodeBinary err = %v", err)
	}
	if _, _, _, err := SplitBinary(padded); err == nil || !strings.Contains(err.Error(), "pad") {
		t.Fatalf("non-zero pad: SplitBinary err = %v", err)
	}
	dup := append([]byte(nil), clean...)
	binary.LittleEndian.PutUint64(dup[len(dup)-8:], 0) // vertex 1 takes vertex 0's ID
	if _, _, err := DecodeBinary(dup); err == nil || !strings.Contains(err.Error(), "duplicate ID 0 on vertices 0 and 1") {
		t.Fatalf("duplicate ID: err = %v", err)
	}
}

// TestUniqueIDs covers both of the ID check's paths: the bitset for IDs
// below 64·n and the map above it.
func TestUniqueIDs(t *testing.T) {
	for _, tc := range []struct {
		ids  []uint64
		want string
	}{
		{nil, ""},
		{[]uint64{0}, ""},
		{[]uint64{3, 1, 2, 0}, ""},
		{[]uint64{255, 0, 130, 64}, ""}, // every ID below 64·4: the bitset
		{[]uint64{1 << 40, 5, 1 << 63}, ""},
		{[]uint64{2, 1, 2}, "duplicate ID 2 on vertices 0 and 2"},
		{[]uint64{5, 1 << 40, 9, 1 << 40}, "duplicate ID 1099511627776 on vertices 1 and 3"},
	} {
		err := uniqueIDs(tc.ids)
		if (tc.want == "") != (err == nil) || (err != nil && !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("uniqueIDs(%v) = %v, want %q", tc.ids, err, tc.want)
		}
	}
}
