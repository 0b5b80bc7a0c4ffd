package invariant

import (
	"errors"
	"strings"
	"testing"

	"deltacoloring/internal/acd"
	"deltacoloring/internal/core"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/heg"
	"deltacoloring/internal/local"
	"deltacoloring/internal/loophole"
	"deltacoloring/internal/repair"
	"deltacoloring/internal/sinkless"
)

func TestOptionsWorkers(t *testing.T) {
	// Defaults: non-empty and deduplicated.
	def := Options{}.workers()
	if len(def) == 0 || def[0] != 1 {
		t.Fatalf("default workers = %v", def)
	}
	// Explicit lists: clamp below 1, drop duplicates, keep order.
	got := Options{Workers: []int{0, 2, 2, 1}}.workers()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("workers([0,2,2,1]) = %v, want [1 2]", got)
	}
}

func TestWorkloadResultErrAndFailed(t *testing.T) {
	good := WorkloadResult{Name: "ok", Suites: []SuiteResult{{Suite: "pipeline"}}}
	bad := WorkloadResult{Name: "bad", Suites: []SuiteResult{
		{Suite: "pipeline"},
		{Suite: "oracle", Err: errors.New("boom")},
	}}
	if err := good.Err(); err != nil {
		t.Fatalf("clean workload errored: %v", err)
	}
	err := bad.Err()
	if err == nil || !strings.Contains(err.Error(), "bad/oracle") {
		t.Fatalf("failing workload error %v does not name workload/suite", err)
	}
	if Failed([]WorkloadResult{good}) {
		t.Fatal("Failed true on clean results")
	}
	if !Failed([]WorkloadResult{good, bad}) {
		t.Fatal("Failed false on failing results")
	}
}

func TestSameRunBranches(t *testing.T) {
	base := checkedRun{
		rounds: 3,
		colors: []int{1, 2, 0},
		spans:  []local.Span{{Name: "acd", Rounds: 2}, {Name: "final", Rounds: 1}},
		checks: 5,
	}
	same := base
	same.colors = append([]int(nil), base.colors...)
	same.spans = append([]local.Span(nil), base.spans...)
	if err := sameRun(base, same); err != nil {
		t.Fatalf("identical runs differ: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(r *checkedRun)
		want   string
	}{
		{"rounds", func(r *checkedRun) { r.rounds = 4 }, "rounds"},
		{"colors", func(r *checkedRun) { r.colors = []int{1, 2, 1} }, "vertex 2"},
		{"span count", func(r *checkedRun) { r.spans = r.spans[:1] }, "spans"},
		{"span schedule", func(r *checkedRun) {
			r.spans = []local.Span{{Name: "acd", Rounds: 9}, {Name: "final", Rounds: 1}}
		}, "span 0"},
		{"checks", func(r *checkedRun) { r.checks = 6 }, "checks"},
	}
	for _, tc := range cases {
		run := base
		run.colors = append([]int(nil), base.colors...)
		run.spans = append([]local.Span(nil), base.spans...)
		tc.mutate(&run)
		err := sameRun(base, run)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestSameSliceHelpers(t *testing.T) {
	if !sameStrings([]string{"a", "b"}, []string{"a", "b"}) ||
		sameStrings([]string{"a"}, []string{"b"}) ||
		sameStrings([]string{"a"}, nil) {
		t.Fatal("sameStrings misbehaves")
	}
	if !sameInts([]int{1, 2}, []int{1, 2}) ||
		sameInts([]int{1, 2}, []int{1, 3}) ||
		sameInts([]int{1}, nil) {
		t.Fatal("sameInts misbehaves")
	}
}

// TestSuiteFailurePaths drives each suite with a workload that must fail
// (the Δ = 63 Lemma-11 rejection row re-labeled as an ordinary pipeline
// workload) and with a rejection row whose expectation is wrong, covering
// the suites' error plumbing.
func TestSuiteFailurePaths(t *testing.T) {
	if testing.Short() {
		t.Skip("failure-path runs build the Δ=63 instance; skipped under -short")
	}
	var reject, ring Workload
	for _, w := range Matrix() {
		switch w.Name {
		case "delta63-rounding":
			reject = w
		case "clique-ring":
			ring = w
		}
	}
	if reject.Graph == nil || ring.Graph == nil {
		t.Fatal("matrix rows missing")
	}

	failing := reject
	failing.ExpectErr = "" // treat the must-fail row as a plain pipeline workload
	if s := pipelineSuite(failing); s.Err == nil {
		t.Error("pipelineSuite accepted a failing pipeline")
	}
	if s := metamorphicSuite(failing, Options{Workers: []int{1}}); s.Err == nil {
		t.Error("metamorphicSuite accepted a failing base run")
	}
	if s := faultReplaySuite(failing); s.Err == nil {
		t.Error("faultReplaySuite accepted a failing base run")
	}
	if s := negativeSuite(failing, Options{}); s.Err == nil {
		t.Error("negativeSuite accepted a failing base run")
	}

	wrong := reject
	wrong.ExpectErr = "no such failure text"
	s := rejectionSuite(wrong)
	if s.Err == nil || !strings.Contains(s.Err.Error(), "expected failure") {
		t.Errorf("rejectionSuite with wrong expectation: %v", s.Err)
	}
	healthy := ring
	healthy.ExpectErr = "anything"
	s = rejectionSuite(healthy)
	if s.Err == nil || !strings.Contains(s.Err.Error(), "run succeeded") {
		t.Errorf("rejectionSuite on a healthy workload: %v", s.Err)
	}
}

// TestCorruptRemainingArtifacts pins the Corrupt branches the end-to-end
// negative controls do not reach, including every empty-artifact refusal.
func TestCorruptRemainingArtifacts(t *testing.T) {
	g := graph.Path(4)

	// Matching: duplicating an edge reuses both endpoints.
	m := &core.CkptMatching{Matched: []graph.Edge{{U: 0, V: 1}}, Within: g.Edges()}
	if !Corrupt(m) || len(m.Matched) != 2 {
		t.Fatalf("matching corruption: %+v", m.Matched)
	}
	if Corrupt(&core.CkptMatching{}) {
		t.Fatal("empty matching claimed corrupted")
	}

	// HEG: the grabbed index is pushed out of range.
	h := &core.CkptHEG{H: &heg.Hypergraph{NumVertices: 2, Edges: [][]int{{0, 1}}}, Grab: []int{0}}
	if !Corrupt(h) || h.Grab[0] != 1 {
		t.Fatalf("heg corruption: %+v", h.Grab)
	}
	if Corrupt(&core.CkptHEG{H: &heg.Hypergraph{}}) {
		t.Fatal("empty heg claimed corrupted")
	}

	// Split: part index pushed outside [0, 2^levels).
	sp := &core.CkptSplit{N: 2, Edges: []graph.Edge{{U: 0, V: 1}}, Part: []int{0}, Levels: 0, Eps: 0.1}
	if !Corrupt(sp) || sp.Part[0] != 1 {
		t.Fatalf("split corruption: %+v", sp.Part)
	}
	if Corrupt(&core.CkptSplit{}) {
		t.Fatal("empty split claimed corrupted")
	}

	// Ruling set: zeroing the membership leaves everything undominated.
	rs := &core.CkptRulingSet{G: g, In: []bool{true, false, true, false}, R: 1}
	if !Corrupt(rs) {
		t.Fatal("ruling set not corruptible")
	}
	for _, in := range rs.In {
		if in {
			t.Fatal("ruling set corruption kept a member")
		}
	}
	if Corrupt(&core.CkptRulingSet{}) {
		t.Fatal("empty ruling set claimed corrupted")
	}

	// Orientation: all out-edges of one vertex are flipped, starving it. The
	// verifier only constrains vertices of degree >= 3k, so use a clique.
	k4 := graph.Complete(4)
	orient, err := sinkless.OrientKOut(local.New(k4), 1)
	if err != nil {
		t.Fatal(err)
	}
	o := &core.CkptOrientation{G: k4, O: orient, K: 1}
	if err := sinkless.VerifyKOut(k4, o.O, 1); err != nil {
		t.Fatalf("baseline orientation invalid: %v", err)
	}
	if !Corrupt(o) {
		t.Fatal("orientation not corruptible")
	}
	if err := sinkless.VerifyKOut(k4, o.O, 1); err == nil {
		t.Fatal("corrupted orientation still accepted")
	}
	if Corrupt(&core.CkptOrientation{O: &sinkless.Orientation{}}) {
		t.Fatal("empty orientation claimed corrupted")
	}

	// Classification: an easy clique loses its witness; an all-hard instance
	// gains a fake easy clique instead.
	withEasy := &core.CkptClassification{Cl: &loophole.Classification{
		Easy:    []bool{false, true},
		Witness: []*loophole.Loophole{nil, {}},
	}}
	if !Corrupt(withEasy) || withEasy.Cl.Witness[1] != nil {
		t.Fatal("easy-clique witness not dropped")
	}
	allHard := &core.CkptClassification{Cl: &loophole.Classification{
		Easy:    []bool{false},
		Witness: []*loophole.Loophole{nil},
	}}
	if !Corrupt(allHard) || !allHard.Cl.Easy[0] {
		t.Fatal("all-hard instance not given a fake easy clique")
	}
	if Corrupt(&core.CkptClassification{Cl: &loophole.Classification{}}) {
		t.Fatal("empty classification claimed corrupted")
	}

	// ACD and repair snapshots: empty refusals plus the snapshot palette bump.
	if Corrupt(&core.CkptACD{A: &acd.ACD{}}) {
		t.Fatal("empty acd claimed corrupted")
	}
	snap := &repair.Snapshot{Colors: []int{0, 1, 0, 1}, NumColors: 2}
	if !Corrupt(snap) || snap.Colors[0] != 2 {
		t.Fatalf("snapshot corruption: %+v", snap.Colors)
	}
	if Corrupt(&repair.Snapshot{}) {
		t.Fatal("empty snapshot claimed corrupted")
	}
}

// TestCheckerDispatchBranches exercises the per-checker artifact-type guards
// and the ruling-set radius split in the default registry.
func TestCheckerDispatchBranches(t *testing.T) {
	g := graph.Path(4)
	h := NewHarness(g)

	// A wrong-typed artifact at every tagged phase is ignored by the phase's
	// checker rather than misread.
	for _, phase := range []string{
		"alg1/acd", "alg1/classify", "alg2/matching", "alg2/heg",
		"alg2/sparsify", "alg2/triads", "alg3/rulingset",
		"simple/orientation", "repair",
	} {
		if err := h.Observe(phase, "bogus artifact"); err != nil {
			t.Fatalf("%s: wrong-typed artifact errored: %v", phase, err)
		}
	}
	if h.Checks() != 0 {
		t.Fatalf("wrong-typed artifacts fired %d checks", h.Checks())
	}

	// R == 1 dispatches to the MIS verifier, R > 1 to the ruling-set one.
	mis := &core.CkptRulingSet{G: g, In: []bool{true, false, true, false}, R: 1}
	if err := h.Observe("alg3/rulingset", mis); err != nil {
		t.Fatalf("valid MIS artifact rejected: %v", err)
	}
	deep := &core.CkptRulingSet{G: g, In: []bool{true, false, false, true}, R: 2}
	if err := h.Observe("alg3/rulingset", deep); err != nil {
		t.Fatalf("valid 2-ruling-set artifact rejected: %v", err)
	}
	bad := &core.CkptRulingSet{G: g, In: []bool{true, true, false, false}, R: 1}
	var viol *Violation
	if err := h.Observe("alg3/rulingset", bad); !errors.As(err, &viol) ||
		viol.Invariant != "rulingset/ruling" {
		t.Fatalf("adjacent MIS members not rejected: %v", err)
	}

	// A repair snapshot is checked as a complete coloring over the root graph.
	snap := &repair.Snapshot{Colors: []int{0, 1, 0, 1}, NumColors: 2}
	if err := h.Observe("repair", snap); err != nil {
		t.Fatalf("valid repair snapshot rejected: %v", err)
	}
	snap.Colors[0] = 1
	if err := h.Observe("repair", snap); !errors.As(err, &viol) ||
		viol.Invariant != "repair/complete" {
		t.Fatalf("monochromatic repair snapshot accepted: %v", err)
	}
}
