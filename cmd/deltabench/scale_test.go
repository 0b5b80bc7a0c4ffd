package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"deltacoloring"
	"deltacoloring/internal/bench"
	"deltacoloring/internal/coloring"
	"deltacoloring/internal/graph"
)

// TestVerifyScaleWorkloads runs the subsampled oracle gate that every
// -scalebench invocation passes through: circulant bit-identity across
// builds, greedy deg+1 verification, and the checked ring pipeline.
func TestVerifyScaleWorkloads(t *testing.T) {
	if err := verifyScaleWorkloads(); err != nil {
		t.Fatal(err)
	}
}

// TestGreedyDegPlusOne pins the regular_color phase: the index-order greedy
// sweep over [0, deg+1) and the color count the report records.
func TestGreedyDegPlusOne(t *testing.T) {
	g, err := graph.Circulant(2048, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	out := coloring.NewPartial(g.N())
	if err := coloring.GreedyComplete(g, out, 9); err != nil {
		t.Fatal(err)
	}
	if colors := countColors(out.Colors); colors < 3 || colors > 9 {
		t.Fatalf("suspicious color count %d", colors)
	}
	if err := deltacoloring.VerifyWithin(g, out.Colors, 9); err != nil {
		t.Fatal(err)
	}
	// A palette too small for the sweep must fail loudly, not wrap.
	if err := coloring.GreedyComplete(g, coloring.NewPartial(g.N()), 2); err == nil {
		t.Fatal("greedy accepted an infeasible palette")
	}
}

// TestRunScaleQuickShape smoke-runs the quick scale and checks the report
// shape CI diffs against BENCH_scale.json.
func TestRunScaleQuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("quick scale run is a second of work")
	}
	var buf bytes.Buffer
	if err := runScale(&buf, bench.Quick); err != nil {
		t.Fatal(err)
	}
	var rep scaleReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	want := []string{"regular_build", "regular_write", "regular_mmap_open",
		"regular_color", "ring_build", "ring_pipeline", "dense_attack_m16"}
	if len(rep.Workloads) != len(want) {
		t.Fatalf("%d workloads, want %d", len(rep.Workloads), len(want))
	}
	for i, rec := range rep.Workloads {
		if rec.Name != want[i] {
			t.Fatalf("workload %d is %q, want %q", i, rec.Name, want[i])
		}
		if rec.Edges <= 0 || rec.NsPerEdge <= 0 {
			t.Fatalf("%s: empty measurement %+v", rec.Name, rec)
		}
	}
}
