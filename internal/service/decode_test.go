package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"deltacoloring"
)

// TestParseRequestParity pins the exact 400 bodies /v1/color answers for
// malformed requests, as the reflective decoder alone answered them: each of
// these bodies must take the declined path or fail validation unchanged.
func TestParseRequestParity(t *testing.T) {
	_, cl, _ := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 256})
	const gen = `"gen":{"family":"hard","m":16,"delta":16}`
	for _, tc := range []struct{ name, body, want string }{
		{"empty", ``, `invalid JSON body: EOF`},
		{"truncated", `{` + gen, `invalid JSON body: unexpected EOF`},
		{"syntax", `{"gen" 1}`, `invalid JSON body: invalid character '1' after object key`},
		{"not an object", `[1,2]`, `invalid JSON body: json: cannot unmarshal array into Go value of type service.ColorRequest`},
		{"string for int", `{"graph":{"n":"4"}}`, `invalid JSON body: json: cannot unmarshal string into Go struct field GraphSpec.graph.n of type int`},
		{"fraction", `{"timeout_ms":1.0,` + gen + `}`, `invalid JSON body: json: cannot unmarshal number 1.0 into Go struct field ColorRequest.timeout_ms of type int64`},
		{"20 digits", `{"seed":12345678901234567890,` + gen + `}`, `invalid JSON body: json: cannot unmarshal number 12345678901234567890 into Go struct field ColorRequest.seed of type int64`},
		{"unknown field", `{"colour":"red",` + gen + `}`, `invalid JSON body: json: unknown field \"colour\"`},
		{"bad algo", `{"algo":"fast",` + gen + `}`, `unknown algo \"fast\" (want det or rand)`},
		{"two sources", `{"graph":{"n":2,"edges":[[0,1]]},` + gen + `}`, `exactly one of edge_list, graph, gen, or file is required`},
		{"over MaxBodyBytes", `{"edge_list":"` + strings.Repeat("0 1\\n", 80) + `"}`, `invalid JSON body: http: request body too large`},
	} {
		resp, err := http.Post(cl.BaseURL+"/v1/color", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		want := `{"state":"failed","error":"` + tc.want + `"}` + "\n"
		if resp.StatusCode != http.StatusBadRequest || string(got) != want {
			t.Errorf("%s: %d %s, want 400 %s", tc.name, resp.StatusCode, got, want)
		}
	}
}

// TestGraphCreateSourceRule pins POST /v1/graphs to the graph-source rule
// /v1/color answers in TestParseRequestParity: a body naming two sources,
// or none, gets the same 400 text.
func TestGraphCreateSourceRule(t *testing.T) {
	_, cl, _ := newTestServer(t, Config{Workers: 1})
	const want = `{"state":"failed","error":"exactly one of edge_list, graph, gen, or file is required"}` + "\n"
	for _, body := range []string{
		`{"graph":{"n":2,"edges":[[0,1]]},"gen":{"family":"hard","m":16,"delta":16}}`,
		`{"edge_list":"2 1\n0 1\n","file":"ring.dcsr"}`,
		`{}`,
	} {
		resp, err := http.Post(cl.BaseURL+"/v1/graphs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || string(got) != want {
			t.Errorf("%s: %d %s, want 400 %s", body, resp.StatusCode, got, want)
		}
	}
}

// TestScanMarshaledStrings checks that the scanner, not the declined path,
// takes the escapes json.Marshal writes into an ASCII edge list.
func TestScanMarshaledStrings(t *testing.T) {
	want := &ColorRequest{EdgeList: "3 2\n0 1\n1 2\n", IdempotencyKey: "a\t\"b\"\\c/<d>&\x00\x1f\x7f"}
	body, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	got := &ColorRequest{}
	if !scanColorRequest(body, got) {
		t.Fatalf("scanner declined %s", body)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: scanned %+v, want %+v", body, got, want)
	}
}

// TestScanEdgesAllocation checks that the scanner allocates no more than
// the size of a body that opens a long run of arrays it then declines.
func TestScanEdgesAllocation(t *testing.T) {
	body := []byte(`{"graph":{"n":2,"edges":[[0,1],` + strings.Repeat("[", 1<<20))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if scanColorRequest(body, &ColorRequest{}) {
		t.Fatal("scanner accepted an unclosed body")
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > uint64(len(body))+64<<10 {
		t.Fatalf("scanning a %d-byte body allocated %d bytes", len(body), n)
	}
}

// FuzzColorRequest checks the request scanner against encoding/json: a body
// the scanner accepts must decode to a DeepEqual value under encoding/json's
// strict decode, and parseBody must return what encoding/json alone returns,
// value and error text, on every input (a read error mid-body included).
func FuzzColorRequest(f *testing.F) {
	for _, s := range []string{
		`{"gen":{"family":"hard","m":16,"delta":16}}`,
		`{"algo":"rand","seed":42,"graph":{"n":4,"edges":[[0,1],[1,2],[2,3],[3,0]]}}`,
		`{"graph":{"n":0,"edges":[]},"async":true,"no_cache":false,"timeout_ms":250,"shards":2,"check":true}`,
	} {
		f.Add([]byte(s))
	}
	readErr := errors.New("read failed")
	f.Fuzz(func(t *testing.T, data []byte) {
		if got := (&ColorRequest{}); scanColorRequest(data, got) {
			want := &ColorRequest{}
			dec := json.NewDecoder(bytes.NewReader(data))
			dec.DisallowUnknownFields()
			if err := dec.Decode(want); err != nil {
				t.Fatalf("scanner accepted %q, encoding/json: %v", data, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%q: scanner %+v, encoding/json %+v", data, got, want)
			}
		}
		for _, r := range []func() io.Reader{
			func() io.Reader { return bytes.NewReader(data) },
			func() io.Reader { return io.MultiReader(bytes.NewReader(data), errReader{readErr}) },
		} {
			got, gerr := parseBody(r())
			want := &ColorRequest{}
			dec := json.NewDecoder(r())
			dec.DisallowUnknownFields()
			if werr := dec.Decode(want); werr != nil {
				if gerr == nil || gerr.Error() != werr.Error() {
					t.Fatalf("%q: parseBody error %v, encoding/json %v", data, gerr, werr)
				}
			} else if gerr != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%q: parseBody %+v (%v), encoding/json %+v", data, got, gerr, want)
			}
		}
		_, _ = parseRequest(bytes.NewReader(data))
	})
}

// BenchmarkParseRequest decodes a body shaped like the service's inline
// graph requests: a relabeled 768-vertex clique-bipartite graph, about 6,000
// edge pairs in 60 KB.
func BenchmarkParseRequest(b *testing.B) {
	g := deltacoloring.GenHardCliqueBipartite(24, 16)
	perm := rand.New(rand.NewSource(1)).Perm(g.N())
	spec := &GraphSpec{N: g.N()}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < int(v) {
				spec.Edges = append(spec.Edges, [2]int{perm[u], perm[v]})
			}
		}
	}
	body, err := json.Marshal(&ColorRequest{Graph: spec})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := parseRequest(bytes.NewReader(body)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseEdgeList decodes edge_list bodies as json.Marshal writes
// them, every newline escaped: 5,000 and 1,000,000 "u v" lines.
func BenchmarkParseEdgeList(b *testing.B) {
	for _, lines := range []int{5_000, 1_000_000} {
		var text strings.Builder
		rng := rand.New(rand.NewSource(1))
		fmt.Fprintf(&text, "%d %d\n", 1000, lines)
		for range lines {
			fmt.Fprintf(&text, "%d %d\n", rng.Intn(1000), rng.Intn(1000))
		}
		body, err := json.Marshal(&ColorRequest{EdgeList: text.String()})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%dKB", len(body)>>10), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := parseRequest(bytes.NewReader(body)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
