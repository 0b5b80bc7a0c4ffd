package main

import (
	"path/filepath"
	"strings"
	"testing"

	"deltacoloring/internal/graph"
	"deltacoloring/internal/graphio"
)

// TestGenerateBinaryScaleFamilies drives the scale families end to end:
// generate to a binary file, reopen through the sniffing loader, and check
// the shape survived.
func TestGenerateBinaryScaleFamilies(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		args []string
		n, d int
	}{
		{"regular", []string{"-family", "regular", "-n", "5000", "-d", "8"}, 5000, 8},
		{"ring", []string{"-family", "ring", "-n", "4096", "-delta", "16"}, 4096, 16},
	} {
		path := filepath.Join(dir, tc.name+".dcsr")
		args := append(tc.args, "-format", "binary", "-o", path)
		if err := run(args); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		g, closer, err := graphio.Load(path)
		if err != nil {
			t.Fatalf("%s: Load: %v", tc.name, err)
		}
		if g.N() != tc.n || g.MaxDegree() != tc.d {
			t.Fatalf("%s: got n=%d maxdeg=%d, want n=%d maxdeg=%d",
				tc.name, g.N(), g.MaxDegree(), tc.n, tc.d)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		closer.Close()
	}
}

// TestGenerateTextRingMatchesDense pins the streamed ring family (sized by
// -n) to the dense generator the rest of the suite validates.
func TestGenerateTextRingMatchesDense(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ring.edges")
	if err := run([]string{"-family", "ring", "-n", "64", "-delta", "4", "-o", path}); err != nil {
		t.Fatal(err)
	}
	g, closer, err := graphio.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	want, _ := graph.EasyCliqueRing(16, 4)
	if graphio.CanonicalHash(g) != graphio.CanonicalHash(want) {
		t.Fatal("ring -n 64 -delta 4 does not match EasyCliqueRing(16, 4)")
	}
}

func TestRejectsBadScaleArgs(t *testing.T) {
	for _, args := range [][]string{
		{"-family", "regular", "-n", "10", "-d", "16", "-format", "binary", "-o", "/dev/null"},
		{"-family", "ring", "-n", "100", "-delta", "16"},
		{"-family", "regular", "-n", "100", "-format", "binary"}, // no -o
		{"-family", "regular", "-n", "100", "-format", "xml", "-o", "/dev/null"},
		{"-family", "nope"},
	} {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRejectsBadDenseFamilyArgs checks that dense-family arguments outside
// the family's domain, and unknown families, are errors, not panics.
func TestRejectsBadDenseFamilyArgs(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-family", "hard", "-m", "4", "-delta", "8"}, "gen hard needs 2 <= delta <= m, got m=4 delta=8"},
		{[]string{"-family", "easy", "-m", "3"}, "gen easy needs m >= 4 and even delta >= 4, got m=3 delta=16"},
		{[]string{"-family", "mixed", "-m", "8"}, "gen mixed needs m >= max(4, delta) and delta >= 3, got m=8 delta=16"},
		{[]string{"-family", "nope"}, `unknown family "nope"`},
	} {
		err := run(append(tc.args, "-o", filepath.Join(t.TempDir(), "g.edges")))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%v: got %v, want %q", tc.args, err, tc.want)
		}
	}
}
