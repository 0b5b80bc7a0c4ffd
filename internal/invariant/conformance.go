package invariant

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"

	"deltacoloring/internal/backend"
	"deltacoloring/internal/coloring"
	"deltacoloring/internal/core"
	"deltacoloring/internal/faults"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/local"
	"deltacoloring/internal/matching"
	"deltacoloring/internal/repair"
	"deltacoloring/internal/rulingset"
)

// Options configures RunMatrix.
type Options struct {
	// Workers are the worker counts the metamorphic suite sweeps; the
	// default is {1, 4, NumCPU}.
	Workers []int
	// SkipNegative disables the per-phase corruption controls (they re-run
	// the pipeline once per observed phase).
	SkipNegative bool
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
}

func (o Options) workers() []int {
	ws := o.Workers
	if len(ws) == 0 {
		ws = []int{1, 4, runtime.NumCPU()}
	}
	seen := map[int]bool{}
	var out []int
	for _, w := range ws {
		if w < 1 {
			w = 1
		}
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

// SuiteResult is the outcome of one suite on one workload.
type SuiteResult struct {
	Suite  string // "pipeline", "oracle", "metamorphic", "faults", "negative"
	Detail string
	Err    error
}

// WorkloadResult aggregates the suites of one matrix row.
type WorkloadResult struct {
	Name   string
	Suites []SuiteResult
}

// Err returns the first suite failure, or nil.
func (r *WorkloadResult) Err() error {
	for _, s := range r.Suites {
		if s.Err != nil {
			return fmt.Errorf("%s/%s: %w", r.Name, s.Suite, s.Err)
		}
	}
	return nil
}

// Failed reports whether any workload has a failing suite.
func Failed(results []WorkloadResult) bool {
	for i := range results {
		if results[i].Err() != nil {
			return true
		}
	}
	return false
}

// algosOf returns the matrix row's pipelines: every backend the workload
// opts into, in table (sorted-name) order, so "det" always leads when
// enabled. A new backend gains matrix coverage by setting the matching
// Workload flag — the suites themselves are backend-agnostic.
func algosOf(w Workload) []*backend.Backend {
	enabled := map[string]bool{
		"det":    w.Det,
		"rand":   w.Rand,
		"ruling": w.Ruling,
		"simple": w.Simple,
	}
	var out []*backend.Backend
	for _, name := range backend.Names() {
		if enabled[name] {
			b, _ := backend.Get(name) // a name from Names() is always found
			out = append(out, b)
		}
	}
	return out
}

// checkedRun is one harness-instrumented pipeline execution.
type checkedRun struct {
	colors      []int
	rounds      int
	spans       []local.Span
	checks      int
	phases      []string
	corruptMiss bool
	err         error
}

func runChecked(w Workload, a *backend.Backend, workers int, frontier bool, corrupt string) checkedRun {
	h := NewHarness(w.Graph)
	if corrupt != "" {
		h.CorruptPhase(corrupt)
	}
	rp := core.TestRandomizedParams()
	rp.Params = w.Params
	res, err := a.Color(nil, w.Graph,
		backend.Params{Det: w.Params, Rand: rp, Seed: w.Seed},
		&backend.RunOptions{Workers: workers, DisableFrontier: !frontier, NetHook: h.Attach})
	out := checkedRun{checks: h.Checks(), phases: h.Phases(),
		corruptMiss: h.CorruptMissed(), err: err}
	if res != nil {
		out.rounds = res.Rounds
		out.spans = res.Spans
		out.colors = append([]int(nil), res.Colors...)
	}
	return out
}

// RunMatrix executes every suite on every workload: harness-instrumented
// pipeline runs with all phase checkers, sequential-oracle differentials,
// metamorphic relations (worker counts, dense vs frontier engine, ID
// permutation, fault-plan replay), and per-phase corruption controls.
func RunMatrix(ws []Workload, opt Options) []WorkloadResult {
	results := make([]WorkloadResult, 0, len(ws))
	for _, w := range ws {
		opt.logf("workload %s: n=%d Δ=%d", w.Name, w.Graph.N(), w.Graph.MaxDegree())
		r := WorkloadResult{Name: w.Name}
		if w.Primitive {
			r.Suites = append(r.Suites, primitiveSuite(w), oracleSuite(w), shardedSuite(w, opt))
			results = append(results, r)
			continue
		}
		if w.ExpectErr != "" {
			r.Suites = append(r.Suites, rejectionSuite(w))
			results = append(results, r)
			continue
		}
		r.Suites = append(r.Suites, pipelineSuite(w), oracleSuite(w), metamorphicSuite(w, opt), shardedSuite(w, opt))
		if w.Det {
			r.Suites = append(r.Suites, faultReplaySuite(w))
			if !opt.SkipNegative {
				r.Suites = append(r.Suites, negativeSuite(w, opt))
			}
		}
		results = append(results, r)
	}
	return results
}

// pipelineSuite runs every enabled pipeline once with the harness attached
// and cross-checks the final coloring against the independent reference.
func pipelineSuite(w Workload) SuiteResult {
	s := SuiteResult{Suite: "pipeline"}
	delta := w.Graph.MaxDegree()
	totalChecks := 0
	var names []string
	for _, a := range algosOf(w) {
		names = append(names, a.Name)
		run := runChecked(w, a, 1, true, "")
		if run.err != nil {
			s.Err = fmt.Errorf("%s: %w", a.Name, run.err)
			return s
		}
		if run.checks == 0 {
			s.Err = fmt.Errorf("%s: harness observed no checkpoints", a.Name)
			return s
		}
		if !contains(run.phases, "final") {
			s.Err = fmt.Errorf("%s: no final checkpoint (phases %v)", a.Name, run.phases)
			return s
		}
		if err := ReferenceComplete(w.Graph, run.colors, delta); err != nil {
			s.Err = fmt.Errorf("%s: reference check: %w", a.Name, err)
			return s
		}
		totalChecks += run.checks
	}
	s.Detail = fmt.Sprintf("%d checks (%s)", totalChecks, strings.Join(names, ", "))
	return s
}

// rejectionSuite verifies that a must-fail workload is refused with the
// expected invariant error (the Δ = 63 Lemma-11 rounding edge).
func rejectionSuite(w Workload) SuiteResult {
	s := SuiteResult{Suite: "pipeline"}
	run := runChecked(w, algosOf(w)[0], 1, true, "")
	if run.err == nil {
		s.Err = fmt.Errorf("expected failure containing %q, run succeeded", w.ExpectErr)
		return s
	}
	if !strings.Contains(run.err.Error(), w.ExpectErr) {
		s.Err = fmt.Errorf("expected failure containing %q, got: %v", w.ExpectErr, run.err)
		return s
	}
	s.Detail = "rejected: " + w.ExpectErr
	return s
}

// primitiveSuite runs the distributed MIS and maximal-matching building
// blocks and checks them with both the repo verifiers and the naive
// references.
func primitiveSuite(w Workload) SuiteResult {
	s := SuiteResult{Suite: "primitives"}
	g := w.Graph
	net := local.New(g)
	defer net.Close()
	in, err := rulingset.MIS(net)
	if err != nil {
		s.Err = fmt.Errorf("MIS: %w", err)
		return s
	}
	if err := rulingset.VerifyMIS(g, in); err != nil {
		s.Err = err
		return s
	}
	if err := ReferenceMIS(g, in); err != nil {
		s.Err = fmt.Errorf("MIS disagrees with reference: %w", err)
		return s
	}
	m, err := matching.Maximal(net)
	if err != nil {
		s.Err = fmt.Errorf("matching: %w", err)
		return s
	}
	if err := matching.Verify(g, m, g.Edges()); err != nil {
		s.Err = err
		return s
	}
	if err := ReferenceMatching(g, m, g.Edges()); err != nil {
		s.Err = fmt.Errorf("matching disagrees with reference: %w", err)
		return s
	}
	s.Detail = fmt.Sprintf("MIS %d members, matching %d edges", countTrue(in), len(m))
	return s
}

// oracleSuite cross-checks the repository verifiers against the sequential
// oracles: the oracle outputs must pass both, and corrupted copies must fail
// both.
func oracleSuite(w Workload) SuiteResult {
	s := SuiteResult{Suite: "oracle"}
	g := w.Graph
	delta := g.MaxDegree()

	// Greedy deg+1 baseline: accepted by verifier and reference alike.
	greedy := GreedyColoring(g)
	gp := &coloring.Partial{Colors: greedy}
	if err := coloring.VerifyComplete(g, gp, delta+1); err != nil {
		s.Err = fmt.Errorf("verifier rejects greedy oracle: %w", err)
		return s
	}
	if err := ReferenceComplete(g, greedy, delta+1); err != nil {
		s.Err = fmt.Errorf("reference rejects greedy oracle: %w", err)
		return s
	}
	// Corrupted copy: both must reject, and for the same vertex.
	if g.N() > 0 && g.MaxDegree() > 0 {
		bad := append([]int(nil), greedy...)
		v := hottestVertex(g)
		bad[v] = bad[int(g.Neighbors(v)[0])]
		bp := &coloring.Partial{Colors: bad}
		verr := coloring.VerifyComplete(g, bp, delta+1)
		rerr := ReferenceComplete(g, bad, delta+1)
		if verr == nil || rerr == nil {
			s.Err = fmt.Errorf("corrupted greedy coloring accepted (verifier=%v, reference=%v)", verr, rerr)
			return s
		}
	}
	detail := "greedy ok"

	// Exact Δ-colorability on miniatures: the brute-force verdict must be
	// consistent with the verifiers and with Brooks' theorem classes.
	if w.Brute {
		brute, ok := BruteDeltaColoring(g)
		if ok {
			k := delta
			if k < 1 {
				k = 1
			}
			bp := &coloring.Partial{Colors: brute}
			if err := coloring.VerifyComplete(g, bp, k); err != nil {
				s.Err = fmt.Errorf("verifier rejects brute-force Δ-coloring: %w", err)
				return s
			}
			if err := ReferenceComplete(g, brute, k); err != nil {
				s.Err = fmt.Errorf("reference rejects brute-force Δ-coloring: %w", err)
				return s
			}
			detail = "greedy+brute ok (Δ-colorable)"
		} else {
			// No Δ-coloring exists: Brooks says g contains a (Δ+1)-clique
			// or is an odd cycle, and the greedy baseline must actually
			// spend the (Δ+1)-th color.
			spent := false
			for _, c := range greedy {
				if c == delta {
					spent = true
					break
				}
			}
			if !spent {
				s.Err = fmt.Errorf("brute force says not Δ-colorable but greedy used only %d colors", delta)
				return s
			}
			detail = "greedy+brute ok (Brooks class)"
		}
	}
	s.Detail = detail
	return s
}

// metamorphicSuite asserts the determinism contracts: bit-identical colors,
// rounds, and span schedules across worker counts and engines, and
// round-schedule invariance under ID permutation.
func metamorphicSuite(w Workload, opt Options) SuiteResult {
	s := SuiteResult{Suite: "metamorphic"}
	variants := 0
	for _, a := range algosOf(w) {
		base := runChecked(w, a, 1, true, "")
		if base.err != nil {
			s.Err = fmt.Errorf("%s: base run: %w", a.Name, base.err)
			return s
		}
		for _, workers := range opt.workers() {
			for _, frontier := range []bool{true, false} {
				if workers == 1 && frontier {
					continue // the base run
				}
				run := runChecked(w, a, workers, frontier, "")
				label := fmt.Sprintf("%s workers=%d frontier=%v", a.Name, workers, frontier)
				if run.err != nil {
					s.Err = fmt.Errorf("%s: %w", label, run.err)
					return s
				}
				if err := sameRun(base, run); err != nil {
					s.Err = fmt.Errorf("%s: %w", label, err)
					return s
				}
				variants++
			}
		}
		// ID permutation: the guarantee (a verified Δ-coloring reaching the
		// same phases with the same checks) must survive relabeling; on the
		// flagship family the exact round schedule is also pinned
		// (PermRounds, mirroring csr_test.go).
		if a.Name == "det" {
			pw := w
			pw.Graph = graph.PermuteIDs(w.Graph, rand.New(rand.NewSource(w.Seed+100)))
			run := runChecked(pw, a, 1, true, "")
			if run.err != nil {
				s.Err = fmt.Errorf("det permuted IDs: %w", run.err)
				return s
			}
			if w.PermRounds && run.rounds != base.rounds {
				s.Err = fmt.Errorf("det permuted IDs: rounds %d != %d", run.rounds, base.rounds)
				return s
			}
			if !sameStrings(run.phases, base.phases) || run.checks != base.checks {
				s.Err = fmt.Errorf("det permuted IDs: phases/checks %v/%d != %v/%d",
					run.phases, run.checks, base.phases, base.checks)
				return s
			}
			if err := ReferenceComplete(pw.Graph, run.colors, pw.Graph.MaxDegree()); err != nil {
				s.Err = fmt.Errorf("det permuted IDs: %w", err)
				return s
			}
			variants++
		}
	}
	s.Detail = fmt.Sprintf("%d variants bit-identical", variants)
	return s
}

// sameRun requires bit-identical colors, rounds, span schedule, and check
// count between two runs of the same workload.
func sameRun(base, run checkedRun) error {
	if run.rounds != base.rounds {
		return fmt.Errorf("rounds %d != %d", run.rounds, base.rounds)
	}
	for v := range base.colors {
		if run.colors[v] != base.colors[v] {
			return fmt.Errorf("vertex %d: color %d != %d", v, run.colors[v], base.colors[v])
		}
	}
	if len(run.spans) != len(base.spans) {
		return fmt.Errorf("%d spans != %d", len(run.spans), len(base.spans))
	}
	for i := range base.spans {
		if run.spans[i].Name != base.spans[i].Name || run.spans[i].Rounds != base.spans[i].Rounds {
			return fmt.Errorf("span %d: %s/%d != %s/%d", i,
				run.spans[i].Name, run.spans[i].Rounds, base.spans[i].Name, base.spans[i].Rounds)
		}
	}
	if run.checks != base.checks {
		return fmt.Errorf("%d checks != %d", run.checks, base.checks)
	}
	return nil
}

// faultReplaySuite damages the deterministic coloring with a seeded fault
// plan and repairs it at two worker counts: the damage schedule, the repair,
// and the harness's repair checkpoint must all replay bit-identically.
func faultReplaySuite(w Workload) SuiteResult {
	s := SuiteResult{Suite: "faults"}
	g := w.Graph
	delta := g.MaxDegree()
	base := runChecked(w, algosOf(w)[0], 1, true, "")
	if base.err != nil {
		s.Err = base.err
		return s
	}
	cfg := faults.Config{Seed: w.Seed, CrashRate: 0.05, CorruptRate: 0.05}
	repairAt := func(workers int) ([]int, faults.Report, int, error) {
		plan, err := faults.NewPlan(g, cfg)
		if err != nil {
			return nil, faults.Report{}, 0, err
		}
		damaged, rep := plan.Damage(append([]int(nil), base.colors...))
		net := local.New(g)
		defer net.Close()
		net.SetWorkers(workers)
		h := NewHarness(g)
		h.Attach(net)
		if _, err := repair.Repair(net, damaged, delta); err != nil {
			return nil, faults.Report{}, 0, err
		}
		return damaged, rep, h.Checks(), nil
	}
	c1, r1, k1, err := repairAt(1)
	if err != nil {
		s.Err = err
		return s
	}
	c4, r4, k4, err := repairAt(4)
	if err != nil {
		s.Err = err
		return s
	}
	if !sameInts(r1.Crashed, r4.Crashed) || !sameInts(r1.Corrupted, r4.Corrupted) {
		s.Err = fmt.Errorf("fault plan replay diverged: %v/%v vs %v/%v", r1.Crashed, r1.Corrupted, r4.Crashed, r4.Corrupted)
		return s
	}
	if !sameInts(c1, c4) {
		s.Err = fmt.Errorf("repair diverged across worker counts")
		return s
	}
	if k1 == 0 || k1 != k4 {
		s.Err = fmt.Errorf("repair checkpoint checks diverged: %d vs %d", k1, k4)
		return s
	}
	if err := ReferenceComplete(g, c1, delta+1); err != nil {
		s.Err = fmt.Errorf("repaired coloring: %w", err)
		return s
	}
	s.Detail = fmt.Sprintf("%d damaged, replay identical", r1.Total())
	return s
}

// negativeSuite is the corruption control: for every phase the base run
// published, a re-run with that phase's artifact deliberately damaged must
// fail with a *Violation naming the phase and invariant.
func negativeSuite(w Workload, opt Options) SuiteResult {
	s := SuiteResult{Suite: "negative"}
	a := algosOf(w)[0]
	base := runChecked(w, a, 1, true, "")
	if base.err != nil {
		s.Err = base.err
		return s
	}
	caught, empty := 0, 0
	for _, phase := range base.phases {
		run := runChecked(w, a, 1, true, phase)
		if run.err == nil {
			if run.corruptMiss {
				// The phase published a legitimately empty artifact (e.g. a
				// zero-triad instance): nothing to damage, nothing to catch.
				empty++
				continue
			}
			s.Err = fmt.Errorf("corrupting %s went undetected", phase)
			return s
		}
		var v *Violation
		if !errors.As(run.err, &v) {
			s.Err = fmt.Errorf("corrupting %s failed without a Violation: %v", phase, run.err)
			return s
		}
		if v.Phase != phase || v.Invariant == "" {
			s.Err = fmt.Errorf("corrupting %s blamed phase %q invariant %q", phase, v.Phase, v.Invariant)
			return s
		}
		opt.logf("  negative control %s: %v", phase, run.err)
		caught++
	}
	if caught == 0 {
		s.Err = fmt.Errorf("no corruptible phase among %v", base.phases)
		return s
	}
	s.Detail = fmt.Sprintf("%d phases caught", caught)
	if empty > 0 {
		s.Detail += fmt.Sprintf(", %d empty", empty)
	}
	return s
}

func hottestVertex(g *graph.Graph) int {
	best, bestDeg := 0, -1
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > bestDeg {
			best, bestDeg = v, d
		}
	}
	return best
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
