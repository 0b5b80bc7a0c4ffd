package graph

import (
	"bytes"
	"testing"
)

func csrImage(t *testing.T, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCirculantShape(t *testing.T) {
	for _, tc := range []struct{ n, d int }{{5, 0}, {17, 2}, {64, 6}, {101, 16}} {
		g, err := Circulant(tc.n, tc.d, 2)
		if err != nil {
			t.Fatalf("Circulant(%d,%d): %v", tc.n, tc.d, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("Circulant(%d,%d) invalid: %v", tc.n, tc.d, err)
		}
		if g.N() != tc.n || g.M() != tc.n*tc.d/2 {
			t.Fatalf("Circulant(%d,%d): n=%d m=%d", tc.n, tc.d, g.N(), g.M())
		}
		for v := 0; v < g.N(); v++ {
			if g.Degree(v) != tc.d {
				t.Fatalf("Circulant(%d,%d): degree(%d)=%d", tc.n, tc.d, v, g.Degree(v))
			}
		}
	}
	if _, err := Circulant(16, 16, 1); err == nil {
		t.Fatal("Circulant accepted n <= d")
	}
	if _, err := Circulant(16, 3, 1); err == nil {
		t.Fatal("Circulant accepted odd d")
	}
}

// TestEasyCliqueRingStreamMatchesBuilder pins the streamed ring family at
// three workers to EasyCliqueRing (one worker) byte for byte — same edge
// set, same vertex numbering, same IDs — so scale runs exercise exactly the
// dense family the rest of the suite validates.
func TestEasyCliqueRingStreamMatchesBuilder(t *testing.T) {
	for _, tc := range []struct{ k, delta int }{{4, 4}, {7, 6}, {16, 16}} {
		want, _ := EasyCliqueRing(tc.k, tc.delta)
		got, err := EasyCliqueRingStream(tc.k, tc.delta, 3)
		if err != nil {
			t.Fatalf("EasyCliqueRingStream(%d,%d): %v", tc.k, tc.delta, err)
		}
		if !bytes.Equal(csrImage(t, got), csrImage(t, want)) {
			t.Fatalf("EasyCliqueRingStream(%d,%d) diverges from EasyCliqueRing", tc.k, tc.delta)
		}
	}
	if _, err := EasyCliqueRingStream(3, 4, 1); err == nil {
		t.Fatal("EasyCliqueRingStream accepted k < 4")
	}
}

// TestCirculantWorkerIndependence checks bit-identity of the streamed build
// across worker counts with the parallel gate forced open.
func TestCirculantWorkerIndependence(t *testing.T) {
	saved := parallelBuildMinVertices
	parallelBuildMinVertices = 0
	defer func() { parallelBuildMinVertices = saved }()
	base, err := Circulant(300, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := csrImage(t, base)
	for _, workers := range []int{2, 3, 7} {
		g, err := Circulant(300, 8, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(csrImage(t, g), want) {
			t.Fatalf("Circulant build with %d workers diverges from sequential", workers)
		}
	}
}
