package invariant

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"deltacoloring/internal/coloring"
	"deltacoloring/internal/core"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/local"
)

func TestViolationErrorAndUnwrap(t *testing.T) {
	inner := errors.New("coloring: vertex 3: uncolored")
	v := &Violation{Phase: "final", Invariant: "coloring/complete", Err: inner}
	msg := v.Error()
	for _, want := range []string{"final", "coloring/complete", "vertex 3"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("violation %q missing %q", msg, want)
		}
	}
	if !errors.Is(v, inner) {
		t.Fatal("Unwrap does not reach the verifier error")
	}
}

func TestHarnessDispatch(t *testing.T) {
	g := graph.Cycle(6)
	h := NewHarness(g)

	// Unrecognized artifacts pass through without records.
	if err := h.Observe("whatever", "not an artifact"); err != nil {
		t.Fatalf("unrecognized artifact errored: %v", err)
	}
	if h.Checks() != 0 {
		t.Fatalf("unrecognized artifact recorded %d checks", h.Checks())
	}

	// A valid coloring snapshot fires the nil-Phases coloring checkers.
	c := coloring.NewPartial(g.N())
	for v := range c.Colors {
		c.Colors[v] = v % 2
	}
	ck := &core.CkptColoring{C: c, NumColors: 2, Complete: true}
	if err := h.Observe("alg3/layers", ck); err != nil {
		t.Fatalf("valid coloring rejected: %v", err)
	}
	if h.Checks() != 2 { // coloring/proper + coloring/complete
		t.Fatalf("got %d checks, want 2", h.Checks())
	}
	recs := h.Records()
	if recs[0].Phase != "alg3/layers" || recs[0].Invariant != "coloring/proper" {
		t.Fatalf("unexpected first record %+v", recs[0])
	}
	if ph := h.Phases(); len(ph) != 1 || ph[0] != "alg3/layers" {
		t.Fatalf("Phases() = %v", ph)
	}

	// A custom registered checker participates in dispatch and its failures
	// come back as *Violation with the right invariant name.
	h.Register(Checker{
		Invariant: "custom/always-bad",
		Phases:    []string{"custom"},
		Check: func(_ *graph.Graph, a any) (bool, error) {
			if _, ok := a.(*core.CkptColoring); !ok {
				return false, nil
			}
			return true, fmt.Errorf("custom: vertex 0: rejected")
		},
	})
	err := h.Observe("custom", ck)
	var viol *Violation
	if !errors.As(err, &viol) || viol.Invariant != "custom/always-bad" || viol.Phase != "custom" {
		t.Fatalf("custom checker violation not surfaced: %v", err)
	}

	// A monochromatic snapshot is rejected by the default registry.
	c.Colors[1] = c.Colors[0]
	err = h.Observe("final", ck)
	if !errors.As(err, &viol) || viol.Phase != "final" {
		t.Fatalf("monochromatic snapshot not rejected: %v", err)
	}
	if !strings.Contains(err.Error(), "edge (") {
		t.Fatalf("violation does not name the edge: %v", err)
	}
}

func TestCorruptArtifacts(t *testing.T) {
	g := graph.Cycle(6)

	// Coloring artifact: Corrupt must flip it from accepted to rejected.
	c := coloring.NewPartial(g.N())
	for v := range c.Colors {
		c.Colors[v] = v % 2
	}
	ck := &core.CkptColoring{C: c, NumColors: 2}
	if err := coloring.VerifyProper(g, ck.C, ck.NumColors); err != nil {
		t.Fatalf("baseline snapshot invalid: %v", err)
	}
	if !Corrupt(ck) {
		t.Fatal("coloring artifact not corruptible")
	}
	if err := coloring.VerifyProper(g, ck.C, ck.NumColors); err == nil {
		t.Fatal("corrupted snapshot still accepted")
	}

	// Empty artifacts are honestly un-corruptible.
	if Corrupt(&core.CkptTriads{}) {
		t.Fatal("empty triads artifact claimed corrupted")
	}
	if Corrupt("unknown") {
		t.Fatal("unknown artifact claimed corrupted")
	}

	// Triad corruption must break verifyTriads on any graph: the damaged
	// triad self-pairs its slack vertex and self-loops do not exist.
	tr := &core.CkptTriads{Triads: []core.Triad{{Slack: 0, PairIn: 1, PairOut: 5}}}
	if err := verifyTriads(g, tr.Triads); err != nil {
		t.Fatalf("baseline triad invalid: %v", err)
	}
	if !Corrupt(tr) {
		t.Fatal("triad artifact not corruptible")
	}
	if err := verifyTriads(g, tr.Triads); err == nil {
		t.Fatal("corrupted triad still accepted")
	}
}

func TestVerifyTriadsBranches(t *testing.T) {
	g := graph.Cycle(8) // vertices i ~ i±1 mod 8
	cases := []struct {
		name    string
		triads  []core.Triad
		wantErr string
	}{
		{"valid disjoint", []core.Triad{{Slack: 0, PairIn: 1, PairOut: 7}, {Slack: 4, PairIn: 3, PairOut: 5}}, ""},
		{"missing slack edge", []core.Triad{{Slack: 0, PairIn: 4, PairOut: 7}}, "missing slack-pair edge"},
		{"missing second edge", []core.Triad{{Slack: 0, PairIn: 1, PairOut: 5}}, "missing slack-pair edge"},
		{"adjacent pair", []core.Triad{{Slack: 1, PairIn: 0, PairOut: 2}, {Slack: 5, PairIn: 4, PairOut: 6}}, ""},
		{"shared vertex", []core.Triad{{Slack: 0, PairIn: 1, PairOut: 7}, {Slack: 2, PairIn: 1, PairOut: 3}}, "shared by triads"},
	}
	// On a cycle, pair vertices two apart are never adjacent, so the
	// "adjacent pair" case needs a chord; build it explicitly.
	b := graph.NewBuilder(8)
	for i := 0; i < 8; i++ {
		b.AddEdge(i, (i+1)%8)
	}
	b.AddEdge(0, 2)
	chorded, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		gg := g
		if tc.name == "adjacent pair" {
			gg = chorded
			tc.wantErr = "pair vertices adjacent"
		}
		err := verifyTriads(gg, tc.triads)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %v does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestCorruptPhaseEndToEnd is the acceptance criterion in miniature:
// deliberately corrupting one intermediate state makes a healthy pipeline
// run fail loudly, naming the phase, the invariant, and the vertex.
func TestCorruptPhaseEndToEnd(t *testing.T) {
	g, _ := graph.EasyCliqueRing(8, 16)
	for _, phase := range []string{"alg1/acd", "alg3/rulingset", "final"} {
		net := local.New(g)
		h := NewHarness(g)
		h.Attach(net)
		h.CorruptPhase(phase)
		_, err := core.ColorDeterministic(net, core.TestParams())
		net.Close()
		var viol *Violation
		if !errors.As(err, &viol) {
			t.Fatalf("corrupting %s: no violation, err=%v", phase, err)
		}
		if viol.Phase != phase {
			t.Fatalf("corrupting %s: violation names phase %s", phase, viol.Phase)
		}
		if viol.Invariant == "" {
			t.Fatalf("corrupting %s: violation names no invariant", phase)
		}
		if !strings.Contains(err.Error(), "vertex") && !strings.Contains(err.Error(), "edge") {
			t.Fatalf("corrupting %s: violation names no vertex or edge: %v", phase, err)
		}
	}
}

// A clean checked run fires checkers across all phases and reports them.
func TestCheckedRunRecordsPhases(t *testing.T) {
	g, _ := graph.EasyCliqueRing(8, 16)
	net := local.New(g)
	defer net.Close()
	h := NewHarness(g)
	h.Attach(net)
	if h.CorruptMissed() {
		t.Fatal("fresh harness reports a corrupt miss")
	}
	res, err := core.ColorDeterministic(net, core.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := ReferenceComplete(g, res.Coloring.Colors, g.MaxDegree()); err != nil {
		t.Fatalf("oracle rejected the pipeline coloring: %v", err)
	}
	if h.Checks() == 0 {
		t.Fatal("no checkers fired")
	}
	phases := h.Phases()
	want := map[string]bool{"alg1/acd": false, "alg1/classify": false, "final": false}
	for _, p := range phases {
		if _, ok := want[p]; ok {
			want[p] = true
		}
	}
	for p, seen := range want {
		if !seen {
			t.Fatalf("phases %v missing %s", phases, p)
		}
	}
}

// TestHarnessOracle closes a checked run with the sequential oracle: a
// proper Δ-coloring yields a Report counting the oracle pass, while an
// improper coloring and an out-of-palette color are both refused.
func TestHarnessOracle(t *testing.T) {
	g := graph.Cycle(6) // Δ = 2
	h := NewHarness(g)
	c := coloring.NewPartial(g.N())
	for v := range c.Colors {
		c.Colors[v] = v % 2
	}
	if err := h.Observe("final", &core.CkptColoring{C: c, NumColors: 2, Complete: true}); err != nil {
		t.Fatalf("valid coloring rejected: %v", err)
	}

	rep, err := h.Oracle(c.Colors, g.MaxDegree())
	if err != nil {
		t.Fatalf("proper Δ-coloring rejected: %v", err)
	}
	if rep.Checks != h.Checks()+1 {
		t.Fatalf("report counts %d checks, want %d", rep.Checks, h.Checks()+1)
	}
	if want := []string{"final", "oracle"}; !sameStrings(rep.Phases, want) {
		t.Fatalf("report phases %v, want %v", rep.Phases, want)
	}

	improper := append([]int(nil), c.Colors...)
	improper[1] = improper[0]
	if _, err := h.Oracle(improper, g.MaxDegree()); err == nil ||
		!strings.Contains(err.Error(), "differential oracle") {
		t.Fatalf("improper coloring: err = %v", err)
	}
	outside := append([]int(nil), c.Colors...)
	outside[3] = g.MaxDegree() // palette is {0, ..., Δ-1}
	if _, err := h.Oracle(outside, g.MaxDegree()); err == nil {
		t.Fatal("out-of-palette color accepted")
	}
}

// TestCheckersIgnoreForeignArtifacts publishes artifacts of the wrong type
// under phases that typed checkers subscribe to: each checker must decline
// rather than fail, so nothing is recorded.
func TestCheckersIgnoreForeignArtifacts(t *testing.T) {
	h := NewHarness(graph.Cycle(6))
	for _, phase := range []string{"shard/partition", "dynamic/maintain", "repair"} {
		if err := h.Observe(phase, "not an artifact"); err != nil {
			t.Fatalf("%s: foreign artifact errored: %v", phase, err)
		}
	}
	if h.Checks() != 0 {
		t.Fatalf("foreign artifacts recorded %d checks", h.Checks())
	}
}
