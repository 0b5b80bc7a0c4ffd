package service

import (
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deltacoloring"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/graphio"
)

// stageGraphDir writes one binary and one text copy of the small ring
// family into a fresh directory, plus a file in a subdirectory.
func stageGraphDir(t *testing.T) (string, *deltacoloring.Graph) {
	t.Helper()
	dir := t.TempDir()
	g, err := graph.EasyCliqueRingStream(4, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := graphio.WriteBinaryFile(filepath.Join(dir, "ring.dcsr"), g); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, "ring.edges"))
	if err != nil {
		t.Fatal(err)
	}
	if err := graphio.Write(f, g, "staged ring"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := graphio.WriteBinaryFile(filepath.Join(dir, "sub", "nested.dcsr"), g); err != nil {
		t.Fatal(err)
	}
	return dir, g
}

// TestFileSourceColorsStagedGraphs runs POST /v1/color against staged files
// in both formats, including a nested relative path.
func TestFileSourceColorsStagedGraphs(t *testing.T) {
	dir, g := stageGraphDir(t)
	_, cl, _ := newTestServer(t, Config{Workers: 2, GraphDir: dir})
	for _, name := range []string{"ring.dcsr", "ring.edges", "sub/nested.dcsr"} {
		resp, err := cl.Color(context.Background(), &ColorRequest{File: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mustVerify(t, g, resp)
	}
}

// TestFileSourceContainment rejects escapes from the staged directory and
// use of the source on a server without one.
func TestFileSourceContainment(t *testing.T) {
	dir, _ := stageGraphDir(t)
	// A real sibling file that a traversal would reach if unchecked.
	sibling := filepath.Join(filepath.Dir(dir), "outside.edges")
	if err := os.WriteFile(sibling, []byte("2\n0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	defer os.Remove(sibling)
	_, cl, _ := newTestServer(t, Config{Workers: 2, GraphDir: dir})
	for _, name := range []string{
		"../" + filepath.Base(sibling),
		"sub/../../" + filepath.Base(sibling),
		"/etc/hostname",
		"",
	} {
		_, err := cl.Color(context.Background(), &ColorRequest{File: name})
		if err == nil {
			t.Fatalf("file %q accepted", name)
		}
	}
	// Missing files inside the directory fail too, but as a load error.
	if _, err := cl.Color(context.Background(), &ColorRequest{File: "missing.dcsr"}); err == nil {
		t.Fatal("missing staged file accepted")
	}

	// No -graph-dir: the source is disabled outright.
	_, cl2, _ := newTestServer(t, Config{Workers: 2})
	_, err := cl2.Color(context.Background(), &ColorRequest{File: "ring.dcsr"})
	if err == nil || !strings.Contains(err.Error(), "disabled") {
		t.Fatalf("file source without graph-dir: %v", err)
	}
}

// TestFileSourceSeedsDynamicGraph creates a dynamic store from a staged
// binary file through POST /v1/graphs.
func TestFileSourceSeedsDynamicGraph(t *testing.T) {
	dir, g := stageGraphDir(t)
	_, ts := newGraphServer(t, Config{Workers: 2, GraphDir: dir})
	var created GraphResponse
	if code := doJSON(t, ts, "POST", "/v1/graphs", &CreateGraphRequest{File: "ring.dcsr"}, &created); code != 201 {
		t.Fatalf("create from file: status %d", code)
	}
	if created.Info.N != g.N() {
		t.Fatalf("dynamic store n=%d, want %d", created.Info.N, g.N())
	}
	// And containment holds on this surface too.
	if code := doJSON(t, ts, "POST", "/v1/graphs", &CreateGraphRequest{File: "../x.edges"}, nil); code != 400 {
		t.Fatalf("traversal create: status %d", code)
	}
}

// TestFileSourceRejectsAsymmetricGraph: a staged binary file in which
// vertex 0 lists vertices 1 and 2 but neither lists 0 is refused with 400,
// not colored.
func TestFileSourceRejectsAsymmetricGraph(t *testing.T) {
	dir := t.TempDir()
	b := []byte("DCSRv1\x00\x00")
	for _, x := range []uint32{3, 2, 0, 2, 2, 2, 1, 2} { // n, 2m, offsets, edges
		b = binary.LittleEndian.AppendUint32(b, x)
	}
	for v := uint64(0); v < 3; v++ {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	if err := os.WriteFile(filepath.Join(dir, "one-sided.dcsr"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newGraphServer(t, Config{Workers: 1, GraphDir: dir})
	var resp ColorResponse
	if code := doJSON(t, ts, "POST", "/v1/color", &ColorRequest{File: "one-sided.dcsr"}, &resp); code != 400 || !strings.Contains(resp.Error, "not symmetric") {
		t.Fatalf("one-sided file: status %d, error %q; want 400 naming the asymmetry", code, resp.Error)
	}
}

// TestFileSourceRejectsDuplicateIDs: a staged binary file in which vertex 1
// carries vertex 0's ID is a bad input, refused with 400 on every surface
// that loads it. It is not a run failure: six refusals leave the breaker
// closed, and a valid request after them is served.
func TestFileSourceRejectsDuplicateIDs(t *testing.T) {
	dir, g := stageGraphDir(t)
	b, err := os.ReadFile(filepath.Join(dir, "ring.dcsr"))
	if err != nil {
		t.Fatal(err)
	}
	ids := b[len(b)-8*g.N():]
	copy(ids[8:16], ids[0:8])
	if err := os.WriteFile(filepath.Join(dir, "dup.dcsr"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	svc, ts := newGraphServer(t, Config{Workers: 2, GraphDir: dir})
	const want = "duplicate ID 0 on vertices 0 and 1"
	var out struct {
		Error string `json:"error"`
	}
	for i, req := range []*ColorRequest{
		{File: "dup.dcsr"},
		{File: "dup.dcsr", Backend: "greedy"},
		{File: "dup.dcsr", Shards: 2},
		{File: "dup.dcsr", Backend: "greedy", NoCache: true},
		{File: "dup.dcsr", Shards: 2, NoCache: true},
		{File: "dup.dcsr"},
	} {
		out.Error = ""
		if code := doJSON(t, ts, "POST", "/v1/color", req, &out); code != 400 || !strings.Contains(out.Error, want) {
			t.Fatalf("request %d (%+v): status %d, error %q; want 400 naming the duplicate", i, req, code, out.Error)
		}
	}
	out.Error = ""
	if code := doJSON(t, ts, "POST", "/v1/graphs", &CreateGraphRequest{File: "dup.dcsr"}, &out); code != 400 || !strings.Contains(out.Error, want) {
		t.Fatalf("create from file: status %d, error %q; want 400 naming the duplicate", code, out.Error)
	}
	if state, _ := svc.breaker.snapshot(); state != breakerClosed {
		t.Fatalf("breaker state %d after bad inputs, want closed", state)
	}
	var resp ColorResponse
	if code := doJSON(t, ts, "POST", "/v1/color", &ColorRequest{File: "ring.dcsr", Backend: "greedy"}, &resp); code != 200 {
		t.Fatalf("valid request after the refusals: status %d, error %q", code, resp.Error)
	}
	if err := deltacoloring.VerifyWithin(g, resp.Colors, g.MaxDegree()+1); err != nil {
		t.Fatal(err)
	}
}
