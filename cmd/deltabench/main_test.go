package main

import (
	"bytes"
	"strings"
	"testing"

	"deltacoloring"
	"deltacoloring/internal/coloring"
	"deltacoloring/internal/graph"
)

// TestRunRejectsUnknownExperiment: an -only id that names no experiment
// fails the run before any experiment starts, so a typo (or a retired id
// such as E17) never passes as an empty report.
func TestRunRejectsUnknownExperiment(t *testing.T) {
	for _, only := range []string{"E99", "E17", "E18,E99", "bogus"} {
		var out bytes.Buffer
		err := run(&out, []string{"-scale", "quick", "-only", only})
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("-only %s: err = %v, want an unknown-experiment error", only, err)
		}
		if out.Len() != 0 {
			t.Errorf("-only %s: wrote %d bytes before failing", only, out.Len())
		}
	}
}

// TestRunOnlySelectsOneExperiment: ids are case-insensitive and E18, once a
// separate mode, is selected through the same table as E1-E16.
func TestRunOnlySelectsOneExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, []string{"-scale", "quick", "-only", " e18 "}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "E18") || strings.Contains(out.String(), "(E1 finished") {
		t.Fatalf("-only e18 printed:\n%s", out.String())
	}
}

// TestGreedyDegPlusOne pins coloring.GreedyComplete as deltabench's scale
// workloads use it: the index-order greedy over [0, deg+1) on a circulant,
// and a loud failure when the palette is too small for the sweep.
func TestGreedyDegPlusOne(t *testing.T) {
	g, err := graph.Circulant(2048, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	out := coloring.NewPartial(g.N())
	if err := coloring.GreedyComplete(g, out, 9); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, c := range out.Colors {
		seen[int(c)] = true
	}
	if colors := len(seen); colors < 3 || colors > 9 {
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
