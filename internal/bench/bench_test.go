package bench

import (
	"fmt"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID:     "EX",
		Title:  "demo",
		Header: []string{"a", "bb"},
		Notes:  []string{"a note"},
	}
	tab.AddRow(1, 2.5)
	tab.AddRow("long-cell", true)
	out := tab.String()
	for _, want := range []string{"EX: demo", "a", "bb", "2.50", "long-cell", "true", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

// Every experiment must run cleanly at Quick scale, produce rows, and carry
// the ID it is listed under. E18 and E19 run in their own tests below.
func TestAllExperimentsQuick(t *testing.T) {
	for _, e := range Experiments {
		if e.ID == "E18" || e.ID == "E19" {
			continue
		}
		tab, err := e.Run(Quick)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if tab.ID != e.ID {
			t.Fatalf("experiment listed as %s built table %s", e.ID, tab.ID)
		}
		if tab.ID == "E13" {
			continue // skipped at quick scale by design
		}
		if len(tab.Rows) == 0 {
			t.Fatalf("%s produced no rows", tab.ID)
		}
		if len(tab.Header) == 0 || tab.Title == "" {
			t.Fatalf("%s missing metadata", tab.ID)
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Header) {
				t.Fatalf("%s row width %d != header width %d", tab.ID, len(row), len(tab.Header))
			}
		}
	}
}

// Spot-check experiment semantics at Quick scale.
func TestE10SlackSeparation(t *testing.T) {
	tab, err := E10(Quick)
	if err != nil {
		t.Fatal(err)
	}
	// Row 0 is the dense family, rows 1-2 sparse; slack fraction column 3.
	parse := func(s string) float64 {
		var f float64
		if _, err := fmt.Sscanf(s, "%f", &f); err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		return f
	}
	dense := parse(tab.Rows[0][3])
	sparse := parse(tab.Rows[1][3])
	if dense >= sparse {
		t.Fatalf("dense slack %.3f should be below sparse slack %.3f", dense, sparse)
	}
}

func TestE11BaselineStuck(t *testing.T) {
	tab, err := E11(Quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if !strings.Contains(row[3], "stuck") {
			t.Fatalf("baseline should be stuck on hard graphs, got %q", row[3])
		}
	}
}

// E18, the fault-tolerance experiment, must produce a well-formed table at
// every scale the tests exercise.
func TestE18Quick(t *testing.T) {
	tab, err := E18(Quick)
	if err != nil {
		t.Fatalf("E18: %v", err)
	}
	if tab.ID != "E18" || len(tab.Rows) == 0 {
		t.Fatalf("E18 malformed: %+v", tab)
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Fatalf("row width %d != header width %d", len(row), len(tab.Header))
		}
	}
	// The Δ+1 palette must never grow or spend an extra color; the Δ palette
	// on the Δ-regular hard family must always do both when damage exists.
	for _, row := range tab.Rows {
		palette, damaged, grown, extra := row[2], row[3], row[5], row[6]
		if damaged == "0" {
			continue
		}
		switch palette {
		case "Δ+1":
			if grown != "false" || extra != "0" {
				t.Fatalf("Δ+1 palette grew or spent extra color: %v", row)
			}
		case "Δ":
			if grown != "true" || extra != "1" {
				t.Fatalf("Δ palette on Δ-regular family repaired tight: %v", row)
			}
		}
	}
}

// E19 is driven by `deltabench -only E19` in CI. Running it IS the
// frontier/dense cross-check — E19 returns an error on any round-count
// divergence — so this test doubles as a result-preservation gate. The
// occupancy assertion is deliberately loose: class sweeps dominate the
// workloads, so a healthy frontier must skip a nontrivial share of
// evaluations and run a nontrivial share of rounds sparse.
func TestE19Quick(t *testing.T) {
	tab, err := E19(Quick)
	if err != nil {
		t.Fatalf("E19: %v", err)
	}
	if tab.ID != "E19" || len(tab.Rows) == 0 {
		t.Fatalf("E19 malformed: %+v", tab)
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Fatalf("row width %d != header width %d", len(row), len(tab.Header))
		}
		if row[5] == "0" {
			t.Errorf("workload %s ran zero sparse rounds", row[0])
		}
		if row[8] == "0" {
			t.Errorf("workload %s skipped zero evaluations", row[0])
		}
	}
}
