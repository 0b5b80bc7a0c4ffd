package invariant

import (
	"strings"
	"testing"

	"deltacoloring/internal/dynamic"
	"deltacoloring/internal/graph"
)

// The full dynamic matrix must pass every suite: instrumented mutation
// streams with the after-each-batch oracle, the split/reorder metamorphic
// relation, and the checkpoint corruption control.
func TestDynamicMatrixPasses(t *testing.T) {
	for _, r := range RunDynamicMatrix(DynamicMatrix(), Options{}) {
		metamorphicRan := false
		for _, s := range r.Suites {
			if s.Err != nil {
				t.Errorf("%s/%s: %v", r.Name, s.Suite, s.Err)
			}
			if s.Suite == "metamorphic" && !strings.Contains(s.Detail, "no independent") {
				metamorphicRan = true
			}
			t.Logf("%s/%s: %s", r.Name, s.Suite, s.Detail)
		}
		if r.Name != "dyn-erdos" && !metamorphicRan {
			t.Errorf("%s: metamorphic suite found no independent mutation set", r.Name)
		}
	}
}

// SkipNegative must drop the corruption-control rows.
func TestDynamicMatrixSkipNegative(t *testing.T) {
	ws := DynamicMatrix()[:1]
	for _, r := range RunDynamicMatrix(ws, Options{SkipNegative: true}) {
		for _, s := range r.Suites {
			if s.Suite == "negative" {
				t.Fatalf("%s: negative suite ran despite SkipNegative", r.Name)
			}
		}
	}
}

// The dynamic/maintained-complete checker itself: a valid snapshot passes,
// a corrupted one is flagged against the snapshot's own carried graph (the
// store's graph evolves away from the harness's root graph).
func TestDynamicSnapshotChecker(t *testing.T) {
	g := graph.Torus(6, 6)
	l, err := dynamic.New(g, dynamic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := l.Snapshot()
	if !ok {
		t.Fatal("fresh store unhealthy")
	}
	h := NewHarness(graph.Cycle(4)) // deliberately not the snapshot's graph
	if err := h.Observe("dynamic/maintain", snap); err != nil {
		t.Fatalf("valid snapshot flagged: %v", err)
	}
	if h.Checks() != 1 {
		t.Fatalf("checker did not fire: %d checks", h.Checks())
	}
	if !Corrupt(snap) {
		t.Fatal("Corrupt did not recognize *dynamic.Snapshot")
	}
	if err := h.Observe("dynamic/maintain", snap); err == nil {
		t.Fatal("corrupted snapshot passed the checker")
	}
}

// TestContainsMut pins the duplicate guard the stream suite uses when it
// wires an appended vertex: only an add of exactly (u, v) counts.
func TestContainsMut(t *testing.T) {
	batch := []dynamic.Mutation{
		{Op: dynamic.OpAddVertex},
		{Op: dynamic.OpAddEdge, U: 2, V: 5},
		{Op: dynamic.OpRemoveEdge, U: 3, V: 5},
	}
	if !containsMut(batch, 2, 5) {
		t.Fatal("queued add (2,5) not found")
	}
	if containsMut(batch, 3, 5) {
		t.Fatal("a removal counted as an add")
	}
	if containsMut(batch, 5, 2) {
		t.Fatal("reversed pair counted as the queued add")
	}
}
