package graphio

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"deltacoloring/internal/graph"
)

// TestBinaryFileBytesPinned pins the SHA-256 of WriteBinaryFile's output,
// so that a change to the writer cannot move the DCSRv1 bytes on disk. The
// two graphs cover both pad widths: Torus(3,4) has even n and 4 zero bytes
// before the ids, a 7-cycle with permuted IDs has odd n and none.
func TestBinaryFileBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		size int
		sum  string
	}{
		{"torus-3x4", graph.Torus(3, 4), 360, "0fd36a74c4698f0608111654adb2d1b79a2a1bf8646c843462e2b8967ca7a731"},
		{"cycle-7-permuted", graph.PermuteIDs(graph.Cycle(7), rand.New(rand.NewSource(5))), 160, "2248cca59ce047ac53fbaba73153b9e2f0475667bd63788aa7bd2417da035edf"},
	} {
		path := filepath.Join(t.TempDir(), tc.name+".dcsr")
		if err := WriteBinaryFile(path, tc.g); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if len(b) != tc.size || hex.EncodeToString(sum[:]) != tc.sum {
			t.Errorf("%s: %d bytes, sha256 %x; pinned %d bytes, %s", tc.name, len(b), sum, tc.size, tc.sum)
		}
	}
}
