package graph

import (
	"bytes"
	"testing"
)

// FuzzBuilder round-trips arbitrary edge lists through the Builder's
// counting-sort CSR construction and cross-checks every accessor against a
// straightforward map-based oracle. This pins the flat-offset layout:
// duplicate edges collapse, neighbor lists come back sorted and deduped,
// and Degree/M/HasEdge agree with the oracle exactly.
func FuzzBuilder(f *testing.F) {
	f.Add(uint8(4), []byte{0, 1, 1, 2, 2, 3})
	f.Add(uint8(5), []byte{0, 1, 0, 1, 1, 0, 3, 4}) // duplicates both ways
	f.Add(uint8(1), []byte{})
	f.Add(uint8(7), []byte{6, 0, 0, 6, 5, 5, 2, 4})
	f.Fuzz(func(t *testing.T, n uint8, raw []byte) {
		b := NewBuilder(int(n))
		type pair struct{ u, v int }
		oracle := map[pair]bool{}
		sawInvalid := false
		for i := 0; i+1 < len(raw); i += 2 {
			u, v := int(raw[i]), int(raw[i+1])
			b.AddEdge(u, v)
			if u < int(n) && v < int(n) && u != v {
				if u > v {
					u, v = v, u
				}
				oracle[pair{u, v}] = true
			} else {
				sawInvalid = true
			}
		}
		g, err := b.Build()
		if err != nil {
			// The builder rejects out-of-range endpoints and self-loops; an
			// error is only acceptable when some input edge was invalid.
			if !sawInvalid {
				t.Fatalf("Build failed on valid input: %v", err)
			}
			return
		}
		if sawInvalid {
			t.Fatal("Build accepted an invalid edge")
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("built graph fails validation: %v", err)
		}
		if g.N() != int(n) {
			t.Fatalf("N = %d, want %d", g.N(), n)
		}
		if g.M() != len(oracle) {
			t.Fatalf("M = %d, oracle has %d edges", g.M(), len(oracle))
		}
		deg := make([]int, int(n))
		for e := range oracle {
			deg[e.u]++
			deg[e.v]++
		}
		maxDeg := 0
		for v := 0; v < int(n); v++ {
			if deg[v] != g.Degree(v) {
				t.Fatalf("Degree(%d) = %d, oracle says %d", v, g.Degree(v), deg[v])
			}
			if deg[v] > maxDeg {
				maxDeg = deg[v]
			}
			nbrs := g.Neighbors(v)
			if len(nbrs) != deg[v] {
				t.Fatalf("len(Neighbors(%d)) = %d, want %d", v, len(nbrs), deg[v])
			}
			for i, w := range nbrs {
				if i > 0 && nbrs[i-1] >= w {
					t.Fatalf("Neighbors(%d) not strictly sorted: %v", v, nbrs)
				}
				u, x := v, int(w)
				if u > x {
					u, x = x, u
				}
				if !oracle[pair{u, x}] {
					t.Fatalf("Neighbors(%d) lists %d but the oracle has no such edge", v, w)
				}
				if !g.HasEdge(v, int(w)) || !g.HasEdge(int(w), v) {
					t.Fatalf("HasEdge(%d, %d) inconsistent with Neighbors", v, w)
				}
			}
		}
		if g.MaxDegree() != maxDeg {
			t.Fatalf("MaxDegree = %d, oracle says %d", g.MaxDegree(), maxDeg)
		}
		for e := range oracle {
			if !g.HasEdge(e.u, e.v) {
				t.Fatalf("HasEdge(%d, %d) = false for an oracle edge", e.u, e.v)
			}
		}

		// Bit-identity of the streaming two-pass FromStream, with its
		// parallel sort/dedup forced on via the gate at every worker count:
		// it must produce byte-for-byte the same CSR as Build.
		var wantBuf bytes.Buffer
		if err := EncodeBinary(&wantBuf, g); err != nil {
			t.Fatalf("EncodeBinary: %v", err)
		}
		want := wantBuf.Bytes()
		saved := parallelBuildMinVertices
		parallelBuildMinVertices = 0
		defer func() { parallelBuildMinVertices = saved }()
		for _, workers := range []int{2, 3, 4, 8} {
			sg, err := FromStream(int(n), workers, func(emit func(u, v int)) error {
				for i := 0; i+1 < len(raw); i += 2 {
					u, v := int(raw[i]), int(raw[i+1])
					if u < int(n) && v < int(n) && u != v {
						emit(u, v)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("FromStream(%d workers): %v", workers, err)
			}
			var got bytes.Buffer
			if err := EncodeBinary(&got, sg); err != nil {
				t.Fatalf("EncodeBinary: %v", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("FromStream(%d workers) CSR differs from sequential Build", workers)
			}
		}
	})
}

// FuzzDecodeBinary feeds arbitrary bytes to the binary CSR decoder, which
// reads checkpoints and shard shipments. Every input must yield an error or
// a graph that passes Validate and re-encodes to exactly the bytes the
// decoder consumed; never a panic or an allocation the input cannot back.
func FuzzDecodeBinary(f *testing.F) {
	for _, g := range []*Graph{NewBuilder(0).MustBuild(), NewBuilder(3).MustBuild(), Torus(3, 4), Grid(2, 3)} {
		var buf bytes.Buffer
		if err := EncodeBinary(&buf, g); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(encodeRaw([]int32{0, 1, 3, 4, 5, 6}, []int32{1, 2, 3, 1, 1, 1})) // asymmetric
	f.Fuzz(func(t *testing.T, data []byte) {
		g, size, err := DecodeBinary(data)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("decoded graph fails Validate: %v", err)
		}
		var buf bytes.Buffer
		if err := EncodeBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		if consumed := data[:size]; !bytes.Equal(buf.Bytes(), consumed) {
			t.Fatalf("re-encoding differs from the %d bytes decoded", len(consumed))
		}
	})
}
