package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deltacoloring/internal/graph"
	"deltacoloring/internal/graphio"
)

func TestRunGeneratedHard(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-gen", "hard", "-m", "16", "-delta", "16"}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"n=512", "Δ-coloring verified", "32 hard", "round breakdown"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunRandomizedMixed(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-gen", "mixed", "-m", "16", "-delta", "16", "-algo", "rand", "-seed", "3"}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(sb.String(), "shattering:") {
		t.Fatalf("randomized output missing shattering stats:\n%s", sb.String())
	}
}

func TestRunColorsFlag(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-gen", "easy", "-m", "4", "-delta", "16", "-colors"}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	// 64 vertices -> 64 color lines of the form "v c".
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	colorLines := 0
	for _, l := range lines {
		fields := strings.Fields(l)
		if len(fields) == 2 && isNum(fields[0]) && isNum(fields[1]) {
			colorLines++
		}
	}
	if colorLines != 64 {
		t.Fatalf("got %d color lines, want 64", colorLines)
	}
}

func isNum(s string) bool {
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return len(s) > 0
}

func TestRunRejectsBadArgs(t *testing.T) {
	var sb strings.Builder
	if err := run(nil, &sb); err == nil {
		t.Fatal("accepted missing generator")
	}
	if err := run([]string{"-gen", "nope"}, &sb); err == nil {
		t.Fatal("accepted unknown generator")
	}
	if err := run([]string{"-gen", "hard", "-algo", "nope"}, &sb); err == nil {
		t.Fatal("accepted unknown algorithm")
	}
}

// TestRunBackendFlag pins the -backend surface: named backends run and
// print their name, auto prints the selector's pick, and unknown names
// fail fast listing the backend table.
func TestRunBackendFlag(t *testing.T) {
	for _, name := range []string{"ruling", "simple"} {
		var sb strings.Builder
		if err := run([]string{"-gen", "hard", "-m", "16", "-delta", "16", "-backend", name}, &sb); err != nil {
			t.Fatalf("-backend %s: %v", name, err)
		}
		for _, want := range []string{"backend: " + name, "Δ-coloring verified"} {
			if !strings.Contains(sb.String(), want) {
				t.Fatalf("-backend %s output missing %q:\n%s", name, want, sb.String())
			}
		}
	}

	var sb strings.Builder
	if err := run([]string{"-gen", "easy", "-m", "4", "-delta", "16", "-backend", "auto"}, &sb); err != nil {
		t.Fatalf("-backend auto: %v", err)
	}
	if !strings.Contains(sb.String(), "(selected by auto)") {
		t.Fatalf("auto output missing the resolved pick:\n%s", sb.String())
	}

	err := run([]string{"-gen", "hard", "-backend", "nope"}, &sb)
	if err == nil {
		t.Fatal("accepted unknown backend")
	}
	for _, want := range []string{`unknown -backend "nope"`, "det", "ruling", "simple"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
}

// TestRunVerifiesBackendPalette runs the greedy backend, a Δ+1 coloring, on
// a 7-cycle: an odd cycle has no 2-coloring, so the run must verify against
// Δ + PaletteSlack = 3 colors and say so, not fail against Δ.
func TestRunVerifiesBackendPalette(t *testing.T) {
	path := writeTemp(t, "7\n0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 0\n")
	var sb strings.Builder
	if err := run([]string{"-in", path, "-backend", "greedy"}, &sb); err != nil {
		t.Fatalf("-backend greedy on C7: %v", err)
	}
	if want := "Δ+1-coloring verified: 3 colors"; !strings.Contains(sb.String(), want) {
		t.Fatalf("output missing %q:\n%s", want, sb.String())
	}
	sb.Reset()
	if err := run([]string{"-gen", "hard", "-m", "16", "-delta", "16", "-backend", "det"}, &sb); err != nil {
		t.Fatal(err)
	}
	if want := "Δ-coloring verified: 16 colors"; !strings.Contains(sb.String(), want) {
		t.Fatalf("output missing %q:\n%s", want, sb.String())
	}
}

// TestRunRejectsBadFamilyArgs checks that generator arguments outside a
// family's domain are an error naming the precondition, not a panic.
func TestRunRejectsBadFamilyArgs(t *testing.T) {
	for _, args := range [][]string{
		{"-gen", "easy", "-m", "3"},
		{"-gen", "hard", "-m", "4", "-delta", "8"},
		{"-gen", "mixed", "-m", "8", "-delta", "16"},
	} {
		var sb strings.Builder
		err := run(args, &sb)
		if err == nil || !strings.Contains(err.Error(), "needs") {
			t.Fatalf("%v: got %v, want a precondition error", args, err)
		}
	}
}

func writeTemp(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.edges")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadGraph(t *testing.T) {
	path := writeTemp(t, "# comment\n4\n0 1\n1 2\n\n2 3\n3 0\n")
	g, closer, err := readGraph(path)
	if err != nil {
		t.Fatalf("readGraph: %v", err)
	}
	defer closer.Close()
	if g.N() != 4 || g.M() != 4 {
		t.Fatalf("graph shape n=%d m=%d", g.N(), g.M())
	}
}

func TestReadGraphFromStdin(t *testing.T) {
	g, _, err := readGraphFrom("-", strings.NewReader("4\n0 1\n1 2\n2 3\n3 0\n"))
	if err != nil {
		t.Fatalf("readGraphFrom: %v", err)
	}
	if g.N() != 4 || g.M() != 4 {
		t.Fatalf("graph shape n=%d m=%d", g.N(), g.M())
	}
	if _, _, err := readGraphFrom("-", strings.NewReader("not a graph")); err == nil {
		t.Fatal("accepted malformed stdin")
	} else if !strings.Contains(err.Error(), "stdin") {
		t.Fatalf("stdin error not attributed: %v", err)
	}
}

func TestReadGraphErrors(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"badCount":       "x\n0 1\n",
		"badEdgeArity":   "3\n0 1 2\n",
		"badEdgeNumber":  "3\n0 x\n",
		"outOfRangeEdge": "2\n0 5\n",
		"countNotFirst":  "1 2\n3\n",
	}
	for name, content := range cases {
		t.Run(name, func(t *testing.T) {
			if _, _, err := readGraph(writeTemp(t, content)); err == nil {
				t.Fatalf("accepted %q", content)
			}
		})
	}
	if _, _, err := readGraph(filepath.Join(t.TempDir(), "missing.edges")); err == nil {
		t.Fatal("accepted missing file")
	}
}

func TestRunFromFileRoundTrip(t *testing.T) {
	// K17 minus an edge in file format.
	var sb strings.Builder
	sb.WriteString("17\n")
	for u := 0; u < 17; u++ {
		for v := u + 1; v < 17; v++ {
			if u == 0 && v == 1 {
				continue
			}
			sb.WriteString(strings.TrimSpace(strings.Join([]string{itoa(u), itoa(v)}, " ")) + "\n")
		}
	}
	path := writeTemp(t, sb.String())
	var out strings.Builder
	if err := run([]string{"-in", path}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "Δ-coloring verified: 16 colors") {
		t.Fatalf("unexpected output:\n%s", out.String())
	}
}

func itoa(x int) string {
	if x == 0 {
		return "0"
	}
	var b []byte
	for x > 0 {
		b = append([]byte{byte('0' + x%10)}, b...)
		x /= 10
	}
	return string(b)
}

func TestRunDotOutput(t *testing.T) {
	dot := filepath.Join(t.TempDir(), "out.dot")
	var sb strings.Builder
	if err := run([]string{"-gen", "easy", "-m", "4", "-delta", "16", "-dot", dot}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "graph G {") {
		t.Fatal("DOT file malformed")
	}
}

// TestRunFromBinaryFile feeds a binary-format graph through -in: the loader
// sniffs the magic and serves the instance from the mmap (or fallback) path.
func TestRunFromBinaryFile(t *testing.T) {
	g, err := graph.EasyCliqueRingStream(8, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ring.dcsr")
	if err := graphio.WriteBinaryFile(path, g); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-in", path}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "Δ-coloring verified: 16 colors") {
		t.Fatalf("unexpected output:\n%s", out.String())
	}
}
