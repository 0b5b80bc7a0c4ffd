package local

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"

	"deltacoloring/internal/graph"
)

// The tests in this file enforce the frontier engine's core promise: states,
// round counts, and span totals bit-identical to the dense engine, at every
// worker count, with and without faults, for both Run and Sweep.

func randomGraphLocal(n int, p float64, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.AddEdge(u, v)
			}
		}
	}
	return b.MustBuild()
}

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// testFaultCfg drives the hand-rolled fault hook below (the real seeded
// plans live in internal/faults, which imports this package and so cannot be
// used from in-package tests). Rates are thresholds out of 256.
type testFaultCfg struct {
	seed                       uint64
	crashN, dropN, dupN, corrN uint64
	// intermittent makes NextRound return nil views on some rounds, which
	// exercises the engine's return-to-sparse-after-faults transition.
	intermittent bool
}

type testFaults struct {
	cfg   testFaultCfg
	g     *graph.Graph
	round int
}

type testRoundView struct {
	h *testFaults
	r uint64
}

func (h *testFaults) NextRound() RoundFaults {
	r := h.round
	h.round++
	c := h.cfg
	if c.crashN == 0 && c.dropN == 0 && c.dupN == 0 && c.corrN == 0 {
		return nil
	}
	if c.intermittent && mix64(c.seed^0x11^uint64(r))&3 == 0 {
		return nil
	}
	return testRoundView{h: h, r: uint64(r)}
}

func (t testRoundView) Crashed(v int) bool {
	c := t.h.cfg
	if c.crashN == 0 || mix64(c.seed^0x22^uint64(v))&255 >= c.crashN {
		return false
	}
	return t.r >= mix64(c.seed^0x33^uint64(v))%16
}

func (t testRoundView) Dropped(from, to int) bool {
	c := t.h.cfg
	return c.dropN != 0 && mix64(c.seed^0x44^t.r<<32^uint64(from)<<16^uint64(to))&255 < c.dropN
}

func (t testRoundView) Duplicated(from, to int) bool {
	c := t.h.cfg
	return c.dupN != 0 && mix64(c.seed^0x55^t.r<<32^uint64(from)<<16^uint64(to))&255 < c.dupN
}

func (t testRoundView) Corrupted(v int) (int, bool) {
	c := t.h.cfg
	if c.corrN == 0 || mix64(c.seed^0x66^uint64(v))&255 >= c.corrN {
		return 0, false
	}
	if t.r != mix64(c.seed^0x77^uint64(v))%16 {
		return 0, false
	}
	nbrs := t.h.g.Neighbors(v)
	if len(nbrs) == 0 {
		return 0, false
	}
	return int(nbrs[mix64(c.seed^0x88^uint64(v))%uint64(len(nbrs))]), true
}

// Two stabilizing state machines with different frontier shapes.

// minProp floods the minimum label (a moving wavefront: very sparse).
func minProp(v int, self int, nbrs Nbrs[int]) int {
	m := self
	for i := 0; i < nbrs.Len(); i++ {
		if s := nbrs.State(i); s < m {
			m = s
		}
	}
	return m
}

func minPropDone(v int, s int) bool { return s == 0 }

// bootstrap is 2-neighbor bootstrap percolation (monotone cascades that may
// stall, exercising the budget-exhausted error path identically).
func bootstrap(v int, self int, nbrs Nbrs[int]) int {
	if self == 1 {
		return 1
	}
	hot := 0
	for i := 0; i < nbrs.Len(); i++ {
		if nbrs.State(i) == 1 {
			hot++
		}
	}
	if hot >= 2 {
		return 1
	}
	return 0
}

func bootstrapDone(v int, s int) bool { return s == 1 }

type engineResult struct {
	states []int
	rounds int
	errStr string
	total  int
	spans  []Span
	fstats FrontierStats
}

func runEngine(t *testing.T, g *graph.Graph, init []int, budget, workers int, frontierOn bool,
	fcfg *testFaultCfg, f func(int, int, Nbrs[int]) int, done func(int, int) bool) engineResult {
	t.Helper()
	net := New(g)
	defer net.Close()
	net.SetWorkers(workers)
	net.SetFrontier(frontierOn)
	if fcfg != nil {
		net.SetFaults(&testFaults{cfg: *fcfg, g: g})
	}
	closePhase := net.Phase("engine")
	cur := make([]int, len(init))
	copy(cur, init)
	states, rounds, err := NewRunner(net, cur).Run(budget, f, done)
	closePhase()
	res := engineResult{states: states, rounds: rounds, total: net.Rounds(),
		spans: net.Spans(), fstats: net.FrontierStats()}
	if err != nil {
		res.errStr = err.Error()
	}
	return res
}

func compareEngineResults(t *testing.T, label string, a, b engineResult, wantEqualStats bool) {
	t.Helper()
	if a.rounds != b.rounds || a.total != b.total {
		t.Fatalf("%s: rounds diverged: (%d, total %d) vs (%d, total %d)",
			label, a.rounds, a.total, b.rounds, b.total)
	}
	if a.errStr != b.errStr {
		t.Fatalf("%s: errors diverged: %q vs %q", label, a.errStr, b.errStr)
	}
	for v := range a.states {
		if a.states[v] != b.states[v] {
			t.Fatalf("%s: state diverged at vertex %d: %d vs %d", label, v, a.states[v], b.states[v])
		}
	}
	if len(a.spans) != len(b.spans) {
		t.Fatalf("%s: span counts diverged: %d vs %d", label, len(a.spans), len(b.spans))
	}
	for i := range a.spans {
		if a.spans[i].Name != b.spans[i].Name || a.spans[i].Rounds != b.spans[i].Rounds {
			t.Fatalf("%s: span %d diverged: %+v vs %+v", label, i, a.spans[i], b.spans[i])
		}
	}
	if wantEqualStats && a.fstats != b.fstats {
		t.Fatalf("%s: frontier stats diverged: %+v vs %+v", label, a.fstats, b.fstats)
	}
}

func TestRunFrontierMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	graphs := map[string]*graph.Graph{
		"path200":    graph.Path(200),
		"cycle9":     graph.Cycle(9),
		"torus20":    graph.Torus(20, 20),
		"gnp150":     randomGraphLocal(150, 0.03, rng),
		"gnp60dense": randomGraphLocal(60, 0.2, rng),
	}
	workerCounts := []int{1, 4, runtime.NumCPU()}
	for name, g := range graphs {
		for trial := 0; trial < 3; trial++ {
			init := make([]int, g.N())
			for v := range init {
				init[v] = 1 + rng.Intn(100)
			}
			init[rng.Intn(g.N())] = 0
			boot := make([]int, g.N())
			for v := range boot {
				if rng.Float64() < 0.25 {
					boot[v] = 1
				}
			}
			budget := g.N() + 2
			for _, w := range workerCounts {
				dense := runEngine(t, g, init, budget, w, false, nil, minProp, minPropDone)
				sparse := runEngine(t, g, init, budget, w, true, nil, minProp, minPropDone)
				compareEngineResults(t, fmt.Sprintf("%s/minprop/w=%d", name, w), dense, sparse, false)

				dense = runEngine(t, g, boot, 30, w, false, nil, bootstrap, bootstrapDone)
				sparse = runEngine(t, g, boot, 30, w, true, nil, bootstrap, bootstrapDone)
				compareEngineResults(t, fmt.Sprintf("%s/bootstrap/w=%d", name, w), dense, sparse, false)
			}
		}
	}
}

func TestRunFrontierMatchesDenseUnderFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	g := randomGraphLocal(120, 0.05, rng)
	configs := []testFaultCfg{
		{seed: 1, crashN: 20},
		{seed: 2, dropN: 30, dupN: 30},
		{seed: 3, corrN: 40},
		{seed: 4, crashN: 10, dropN: 15, dupN: 15, corrN: 20},
		{seed: 5, crashN: 10, dropN: 15, dupN: 15, corrN: 20, intermittent: true},
		{seed: 6, dropN: 25, intermittent: true},
	}
	for ci, cfg := range configs {
		for trial := 0; trial < 3; trial++ {
			init := make([]int, g.N())
			for v := range init {
				init[v] = 1 + rng.Intn(50)
			}
			init[rng.Intn(g.N())] = 0
			for _, w := range []int{1, 4} {
				cfgCopy := cfg
				dense := runEngine(t, g, init, 80, w, false, &cfgCopy, minProp, minPropDone)
				cfgCopy = cfg
				sparse := runEngine(t, g, init, 80, w, true, &cfgCopy, minProp, minPropDone)
				compareEngineResults(t, fmt.Sprintf("faultcfg%d/w=%d", ci, w), dense, sparse, false)
			}
		}
	}
}

// TestFrontierWorkerIndependence pins that the frontier engine — including
// its sparse/dense mode decisions, which are part of the recorded stats — is
// bit-identical at every worker count.
func TestFrontierWorkerIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraphLocal(400, 0.01, rng)
	init := make([]int, g.N())
	for v := range init {
		init[v] = 1 + rng.Intn(100)
	}
	init[13%g.N()] = 0
	base := runEngine(t, g, init, g.N()+2, 1, true, nil, minProp, minPropDone)
	for _, w := range []int{2, 4, runtime.NumCPU()} {
		other := runEngine(t, g, init, g.N()+2, w, true, nil, minProp, minPropDone)
		compareEngineResults(t, fmt.Sprintf("w=%d", w), base, other, true)
	}
}

// TestFrontierActuallySkips guards against the engine silently running dense
// everywhere: a min-label wavefront on a long path must go sparse and skip
// the bulk of all vertex evaluations.
func TestFrontierActuallySkips(t *testing.T) {
	g := graph.Path(4000)
	init := make([]int, g.N())
	for v := range init {
		init[v] = 1
	}
	init[0] = 0
	res := runEngine(t, g, init, g.N()+2, 1, true, nil, minProp, minPropDone)
	if res.errStr != "" {
		t.Fatalf("unexpected error: %s", res.errStr)
	}
	st := res.fstats
	if st.SparseRounds == 0 {
		t.Fatalf("no sparse rounds recorded: %+v", st)
	}
	if st.SkippedVertices <= st.ActiveVertices {
		t.Fatalf("wavefront should skip most evaluations: %+v", st)
	}
	if st.EngineRounds != res.rounds {
		t.Fatalf("engine rounds %d != run rounds %d", st.EngineRounds, res.rounds)
	}
	off := runEngine(t, g, init, g.N()+2, 1, false, nil, minProp, minPropDone)
	if off.fstats.SparseRounds != 0 || off.fstats.SkippedVertices != 0 {
		t.Fatalf("SetFrontier(false) must force the dense engine: %+v", off.fstats)
	}
}

// Sweep cross-checks: a class sweep (round-indexed f, immutable class
// assignment outside the state) must match the equivalent Step loop exactly,
// with and without faults.

func sweepOnce(t *testing.T, g *graph.Graph, cls []int, init []int, classes, workers int,
	frontierOn bool, fcfg *testFaultCfg) ([]int, int, FrontierStats) {
	t.Helper()
	net := New(g)
	defer net.Close()
	net.SetWorkers(workers)
	net.SetFrontier(frontierOn)
	if fcfg != nil {
		net.SetFaults(&testFaults{cfg: *fcfg, g: g})
	}
	f := func(round, v int, self int, nbrs Nbrs[int]) int {
		if cls[v] != round {
			return self
		}
		sum := self*3 + v
		for i := 0; i < nbrs.Len(); i++ {
			sum += nbrs.State(i)
		}
		return sum % 251
	}
	buckets := make([][]int, classes)
	for v, c := range cls {
		buckets[c] = append(buckets[c], v)
	}
	r := NewRunner(net, append([]int(nil), init...))
	out := r.Sweep(classes, ReactiveSeed, func(round int, mark func(int)) {
		for _, v := range buckets[round] {
			mark(v)
		}
	}, f)
	final := append([]int(nil), out...)
	return final, net.Rounds(), net.FrontierStats()
}

func stepLoopOnce(t *testing.T, g *graph.Graph, cls []int, init []int, classes, workers int,
	fcfg *testFaultCfg) ([]int, int) {
	t.Helper()
	net := New(g)
	defer net.Close()
	net.SetWorkers(workers)
	if fcfg != nil {
		net.SetFaults(&testFaults{cfg: *fcfg, g: g})
	}
	r := NewRunner(net, append([]int(nil), init...))
	for round := 0; round < classes; round++ {
		rr := round
		r.Step(func(v int, self int, nbrs Nbrs[int]) int {
			if cls[v] != rr {
				return self
			}
			sum := self*3 + v
			for i := 0; i < nbrs.Len(); i++ {
				sum += nbrs.State(i)
			}
			return sum % 251
		})
	}
	return append([]int(nil), r.States()...), net.Rounds()
}

func TestSweepMatchesStepLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 5; trial++ {
		g := randomGraphLocal(100+rng.Intn(200), 0.04, rng)
		classes := 2 + rng.Intn(14)
		cls := make([]int, g.N())
		init := make([]int, g.N())
		for v := range cls {
			cls[v] = rng.Intn(classes)
			init[v] = rng.Intn(251)
		}
		var fcfg *testFaultCfg
		if trial%2 == 1 {
			fcfg = &testFaultCfg{seed: uint64(trial), crashN: 15, dropN: 20, dupN: 20, corrN: 20, intermittent: true}
		}
		want, wantRounds := stepLoopOnce(t, g, cls, init, classes, 1, fcfg)
		for _, w := range []int{1, 4} {
			for _, frontierOn := range []bool{false, true} {
				got, gotRounds, _ := sweepOnce(t, g, cls, init, classes, w, frontierOn, fcfg)
				if gotRounds != wantRounds {
					t.Fatalf("trial %d w=%d frontier=%v: rounds %d, want %d",
						trial, w, frontierOn, gotRounds, wantRounds)
				}
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("trial %d w=%d frontier=%v: vertex %d got %d, want %d",
							trial, w, frontierOn, v, got[v], want[v])
					}
				}
			}
		}
	}
}

func TestSweepChargesExactRoundsAndGoesSparse(t *testing.T) {
	g := graph.Path(3000)
	classes := 12
	cls := make([]int, g.N())
	init := make([]int, g.N())
	for v := range cls {
		cls[v] = v % classes
	}
	_, rounds, st := sweepOnce(t, g, cls, init, classes, 1, true, nil)
	if rounds != classes {
		t.Fatalf("sweep charged %d rounds, want %d", rounds, classes)
	}
	if st.SparseRounds == 0 || st.SkippedVertices == 0 {
		t.Fatalf("class sweep on a path should run sparse: %+v", st)
	}
}

// Seed contracts: the shipped class sweeps, in the shape their packages
// run them, checked round by round against the dense engine. A contract
// that claims too much shows as a divergence of some prefix of the sweep,
// even where the final states happen to agree.

// ruleState covers the states of all three sweep shapes below.
type ruleState struct {
	class, color int
	in, blocked  bool
}

type seedRule struct {
	name     string
	contract SeedContract
	rounds   int
	init     func(g *graph.Graph, rng *rand.Rand) []ruleState
	f        func(round, v int, self ruleState, nbrs Nbrs[ruleState]) ruleState
}

// greedyClasses gives a proper coloring with classes in [0, k), k > Δ,
// visiting vertices in random order and taking a random free class.
func greedyClasses(g *graph.Graph, k int, rng *rand.Rand) []int {
	cls := make([]int, g.N())
	for v := range cls {
		cls[v] = -1
	}
	for _, v := range rng.Perm(g.N()) {
		used := map[int]bool{}
		for _, w := range g.Neighbors(v) {
			used[cls[w]] = true
		}
		for {
			if c := rng.Intn(k); !used[c] {
				cls[v] = c
				break
			}
		}
	}
	return cls
}

// seedRules are listcolor's slot sweep and one halving of linial.Reduce
// (ExactSeed), and rulingset.MIS's class sweep (ReactiveSeed), each with
// class = the round its vertex acts in.
func seedRules(delta int) []seedRule {
	k := delta + 1
	slot := seedRule{name: "listcolor-slots", contract: ExactSeed, rounds: k,
		init: func(g *graph.Graph, rng *rand.Rand) []ruleState {
			st := make([]ruleState, g.N())
			for v, c := range greedyClasses(g, k, rng) {
				st[v] = ruleState{class: c, color: -1}
			}
			return st
		},
		f: func(round, v int, self ruleState, nbrs Nbrs[ruleState]) ruleState {
			if self.color >= 0 || self.class != round {
				return self
			}
			used := uint64(0)
			for i := 0; i < nbrs.Len(); i++ {
				if c := nbrs.State(i).color; c >= 0 {
					used |= 1 << c
				}
			}
			self.color = bits.TrailingZeros64(^used)
			return self
		}}
	// Reduce retires tops 2k-1..k of blocks of 2k colors: round r recolors
	// the vertices whose slot is 2k-1-r into a free slot below k.
	bs := 2 * k
	reduce := seedRule{name: "linial-reduce", contract: ExactSeed, rounds: k,
		init: func(g *graph.Graph, rng *rand.Rand) []ruleState {
			st := make([]ruleState, g.N())
			for v, c := range greedyClasses(g, 3*bs, rng) {
				st[v] = ruleState{class: bs - 1 - c%bs, color: c}
			}
			return st
		},
		f: func(round, v int, self ruleState, nbrs Nbrs[ruleState]) ruleState {
			if self.color%bs != bs-1-round {
				return self
			}
			block := self.color / bs
			used := uint64(0)
			for i := 0; i < nbrs.Len(); i++ {
				if nc := nbrs.State(i).color; nc/bs == block && nc%bs < k {
					used |= 1 << (nc % bs)
				}
			}
			self.color = block*bs + bits.TrailingZeros64(^used)
			return self
		}}
	mis := seedRule{name: "rulingset-mis", contract: ReactiveSeed, rounds: k,
		init: func(g *graph.Graph, rng *rand.Rand) []ruleState {
			st := make([]ruleState, g.N())
			for v, c := range greedyClasses(g, k, rng) {
				st[v] = ruleState{class: c}
			}
			return st
		},
		f: func(round, v int, self ruleState, nbrs Nbrs[ruleState]) ruleState {
			if self.in || self.blocked {
				return self
			}
			for i := 0; i < nbrs.Len(); i++ {
				if nbrs.State(i).in {
					self.blocked = true
					return self
				}
			}
			if self.class == round {
				self.in = true
			}
			return self
		}}
	return []seedRule{slot, reduce, mis}
}

// sweepPrefixMismatch runs every prefix of rule's sweep on the frontier
// engine under contract and on the dense engine, and describes the first
// state that differs ("" when none does).
func sweepPrefixMismatch(g *graph.Graph, init []ruleState, rule seedRule, contract SeedContract, workers int) string {
	buckets := make([][]int, rule.rounds)
	for v, s := range init {
		if s.class >= 0 && s.class < rule.rounds {
			buckets[s.class] = append(buckets[s.class], v)
		}
	}
	run := func(rounds int, frontierOn bool) []ruleState {
		net := New(g)
		defer net.Close()
		net.SetWorkers(workers)
		net.SetFrontier(frontierOn)
		r := NewRunner(net, append([]ruleState(nil), init...))
		return append([]ruleState(nil), r.Sweep(rounds, contract, func(round int, mark func(int)) {
			for _, v := range buckets[round] {
				mark(v)
			}
		}, rule.f)...)
	}
	for rounds := 1; rounds <= rule.rounds; rounds++ {
		dense, sparse := run(rounds, false), run(rounds, true)
		for v := range dense {
			if dense[v] != sparse[v] {
				return fmt.Sprintf("after %d rounds vertex %d: frontier %+v, dense %+v", rounds, v, sparse[v], dense[v])
			}
		}
	}
	return ""
}

// TestSweepSeedContracts holds each shipped sweep to the contract its
// caller declares, and shows that exact seeding is not a free upgrade: the
// MIS sweep, whose vertices become blocked when a neighbor joins, diverges
// from the dense engine under ExactSeed.
func TestSweepSeedContracts(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	misDiverged := false
	for trial := 0; trial < 6; trial++ {
		g := randomGraphLocal(150+rng.Intn(150), 0.03, rng)
		for _, rule := range seedRules(g.MaxDegree()) {
			init := rule.init(g, rng)
			for _, w := range []int{1, 4} {
				if msg := sweepPrefixMismatch(g, init, rule, rule.contract, w); msg != "" {
					t.Fatalf("trial %d %s w=%d: %s", trial, rule.name, w, msg)
				}
			}
			if rule.contract == ReactiveSeed && sweepPrefixMismatch(g, init, rule, ExactSeed, 1) != "" {
				misDiverged = true
			}
		}
	}
	if !misDiverged {
		t.Fatal("negative control: exact seeding of the MIS sweep matched the dense engine on every trial")
	}
}

// FuzzFrontier cross-checks random graphs × state machines × fault plans ×
// worker counts against the dense engine.
func FuzzFrontier(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(10), uint8(0), uint8(20), false)
	f.Add(int64(2), uint8(80), uint8(3), uint8(1), uint8(40), true)
	f.Add(int64(3), uint8(10), uint8(60), uint8(2), uint8(0), false)
	f.Add(int64(4), uint8(200), uint8(8), uint8(3), uint8(15), true)
	f.Fuzz(func(t *testing.T, seed int64, nRaw, pRaw, machine uint8, budgetRaw uint8, withFaults bool) {
		n := 2 + int(nRaw)%120
		p := float64(pRaw%100) / 250.0
		budget := 1 + int(budgetRaw)%60
		rng := rand.New(rand.NewSource(seed))
		g := randomGraphLocal(n, p, rng)
		init := make([]int, n)
		for v := range init {
			init[v] = rng.Intn(100)
		}
		var fn func(int, int, Nbrs[int]) int
		var done func(int, int) bool
		switch machine % 3 {
		case 0:
			fn, done = minProp, minPropDone
		case 1:
			fn, done = bootstrap, bootstrapDone
		default:
			// Chaotic but convergent-ish: decay toward 0 pulled by the
			// neighborhood sum; exercises dense-heavy frontiers.
			fn = func(v int, self int, nbrs Nbrs[int]) int {
				sum := 0
				for i := 0; i < nbrs.Len(); i++ {
					sum += nbrs.State(i)
				}
				next := (self + sum) / (nbrs.Len() + 2)
				return next
			}
			done = func(v int, s int) bool { return s == 0 }
		}
		var fcfg *testFaultCfg
		if withFaults {
			fcfg = &testFaultCfg{seed: uint64(seed), crashN: uint64(nRaw) % 30,
				dropN: uint64(pRaw) % 30, dupN: uint64(budgetRaw) % 30,
				corrN: uint64(machine) % 30, intermittent: seed%2 == 0}
		}
		cp := func() *testFaultCfg {
			if fcfg == nil {
				return nil
			}
			c := *fcfg
			return &c
		}
		dense := runEngine(t, g, init, budget, 1, false, cp(), fn, done)
		for _, w := range []int{1, 4} {
			sparse := runEngine(t, g, init, budget, w, true, cp(), fn, done)
			compareEngineResults(t, fmt.Sprintf("w=%d", w), dense, sparse, false)
		}
	})
}
