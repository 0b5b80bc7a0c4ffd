package core

import (
	"errors"
	"fmt"
	"sort"

	"deltacoloring/internal/acd"
	"deltacoloring/internal/coloring"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/heg"
	"deltacoloring/internal/listcolor"
	"deltacoloring/internal/local"
	"deltacoloring/internal/loophole"
	"deltacoloring/internal/matching"
	"deltacoloring/internal/split"
)

// DirEdge is an oriented edge (Tail -> Head).
type DirEdge struct {
	Tail, Head int
}

// Triad is a slack triad (Definition 14): Slack's neighbors PairIn (same
// clique) and PairOut (other clique) are non-adjacent and get the same
// color, giving Slack one unit of permanent slack.
type Triad struct {
	Slack, PairIn, PairOut int
	// Clique is the hard clique owning the triad.
	Clique int
}

// instanceSpec describes one coloring instance: the whole graph for
// Theorem 1, or one shattered component for Theorem 2's post-shattering.
type instanceSpec struct {
	// hardLike flags the cliques handled by Algorithm 2; the rest are
	// handled by Algorithm 3 using the witnesses.
	hardLike []bool
	// witness provides a slack source per non-hard clique.
	witness []*loophole.Loophole
	// active restricts the instance to a vertex subset (nil = all).
	// Inactive vertices are either already colored or left for later; an
	// uncolored inactive neighbor is a slack source.
	active []bool
	// pairColorBase shifts the slack-pair palette: the randomized
	// algorithm reserves color 0 for its T-nodes and passes 1 (Section 4,
	// Step 6).
	pairColorBase int
	// extraLoss is the number of "useless" members tolerated per clique in
	// C_HEG (Section 4: vertices adjacent to pre-colored T-node pairs
	// cannot propose).
	extraLoss int
}

// hardPipeline carries the state of Algorithm 2 across its phases. Tests
// exercise the phases individually; the driver runs them in order.
type hardPipeline struct {
	net   *local.Network
	g     *graph.Graph
	a     *acd.ACD
	spec  instanceSpec
	p     Params
	delta int
	out   *coloring.Partial
	stats *Stats

	hard   []bool // per clique
	hardOf []int  // (active) vertex -> hard clique index, or -1
	inHEG  []bool // per clique: at most extraLoss members cannot propose
	eHard  []graph.Edge

	f1   []graph.Edge
	f1At []int // vertex -> incident F1 edge index, or -1

	fOf    []int // f(v), or -1
	phiOf  []int // φ(v): F1 edge index, or -1
	subOf  []int // vertex -> global sub-clique id, or -1
	subVec [][]int
	subOwn []int // sub-clique id -> clique

	hyper     *heg.Hypergraph
	hyperEdge []int // hypergraph edge index -> F1 edge index

	f2, f3 []DirEdge
	typeI  []bool
	triads []Triad
	anchor []int // per clique: reserved uncolored vertex, or -1
}

// isActive reports whether v belongs to the instance.
func (hp *hardPipeline) isActive(v int) bool {
	return hp.spec.active == nil || hp.spec.active[v]
}

// members returns the active members of clique ci.
func (hp *hardPipeline) members(ci int) []int {
	all := hp.a.Cliques[ci]
	if hp.spec.active == nil {
		return all
	}
	out := make([]int, 0, len(all))
	for _, v := range all {
		if hp.spec.active[v] {
			out = append(out, v)
		}
	}
	return out
}

// newHardPipeline prepares V_hard, E_hard, and C_HEG for the instance.
func newHardPipeline(net *local.Network, a *acd.ACD, spec instanceSpec,
	p Params, out *coloring.Partial, stats *Stats) *hardPipeline {
	g := net.Graph()
	hp := &hardPipeline{
		net: net, g: g, a: a, spec: spec, p: p, delta: g.MaxDegree(),
		out: out, stats: stats,
		hard:   make([]bool, len(a.Cliques)),
		hardOf: make([]int, g.N()),
		inHEG:  make([]bool, len(a.Cliques)),
		anchor: make([]int, len(a.Cliques)),
	}
	for v := range hp.hardOf {
		hp.hardOf[v] = -1
	}
	for ci := range a.Cliques {
		hp.anchor[ci] = -1
		hp.hard[ci] = spec.hardLike[ci]
		if hp.hard[ci] {
			for _, v := range hp.members(ci) {
				hp.hardOf[v] = ci
			}
		}
	}
	for ci := range a.Cliques {
		if !hp.hard[ci] {
			continue
		}
		unusable := 0
		for _, v := range hp.members(ci) {
			hasExternalHard := false
			for _, nw := range g.Neighbors(v) {
				w := int(nw)
				if hp.hardOf[w] >= 0 && hp.hardOf[w] != ci {
					hasExternalHard = true
					if v < w {
						hp.eHard = append(hp.eHard, graph.Edge{U: v, V: w})
					}
				}
			}
			if !hasExternalHard {
				unusable++
			}
		}
		hp.inHEG[ci] = unusable <= spec.extraLoss
	}
	sort.Slice(hp.eHard, func(i, j int) bool {
		if hp.eHard[i].U != hp.eHard[j].U {
			return hp.eHard[i].U < hp.eHard[j].U
		}
		return hp.eHard[i].V < hp.eHard[j].V
	})
	return hp
}

// phase1Matching computes the maximal matching F1 on E_hard (Step 1).
func (hp *hardPipeline) phase1Matching() error {
	done := hp.net.Phase("alg2/matching")
	defer done()
	f1, err := matching.MaximalOn(hp.net, hp.eHard)
	if err != nil {
		return fmt.Errorf("core: phase 1 matching: %w", err)
	}
	if err := matching.Verify(hp.g, f1, hp.eHard); err != nil {
		return fmt.Errorf("core: phase 1 matching invalid: %w", err)
	}
	hp.f1 = f1
	hp.f1At = make([]int, hp.g.N())
	for v := range hp.f1At {
		hp.f1At[v] = -1
	}
	for i, e := range f1 {
		hp.f1At[e.U] = i
		hp.f1At[e.V] = i
	}
	hp.stats.F1Size = len(f1)
	return hp.net.Checkpoint("alg2/matching", &CkptMatching{Matched: f1, Within: hp.eHard})
}

// phase1HEG builds the proposal hypergraph H (Section 3.3), checks the
// Lemma 10/11 invariants, solves HEG, and assembles the oriented matching
// F2 (Lemma 12).
func (hp *hardPipeline) phase1HEG() error {
	done := hp.net.Phase("alg2/heg")
	defer done()
	g := hp.g

	// Sub-clique partition: members round-robin into P parts.
	hp.subOf = make([]int, g.N())
	hp.fOf = make([]int, g.N())
	hp.phiOf = make([]int, g.N())
	for v := range hp.subOf {
		hp.subOf[v] = -1
		hp.fOf[v] = -1
		hp.phiOf[v] = -1
	}
	for ci := range hp.a.Cliques {
		if !hp.inHEG[ci] {
			continue
		}
		for idx, v := range hp.members(ci) {
			hp.subOf[v] = idx % hp.p.Subcliques // temporary: part index within clique
		}
	}
	// Materialize global sub-clique ids.
	hp.subVec = nil
	hp.subOwn = nil
	subID := map[[2]int]int{}
	for ci := range hp.a.Cliques {
		if !hp.inHEG[ci] {
			continue
		}
		for _, v := range hp.members(ci) {
			k := [2]int{ci, hp.subOf[v]}
			id, ok := subID[k]
			if !ok {
				id = len(hp.subVec)
				subID[k] = id
				hp.subVec = append(hp.subVec, nil)
				hp.subOwn = append(hp.subOwn, ci)
			}
			hp.subOf[v] = -1 // reset; set below
			hp.subVec[id] = append(hp.subVec[id], v)
		}
	}
	for id, vs := range hp.subVec {
		for _, v := range vs {
			hp.subOf[v] = id
		}
	}

	// f(v) and φ(v) for members of C_HEG cliques (one LOCAL round to learn
	// neighbors' matching state). Members without an external hard
	// neighbor — tolerated up to extraLoss per clique (Section 4's
	// "useless" vertices) — simply do not propose.
	hp.net.Charge(1)
	for ci := range hp.a.Cliques {
		if !hp.inHEG[ci] {
			continue
		}
		unusable := 0
		for _, v := range hp.members(ci) {
			if hp.f1At[v] >= 0 {
				hp.fOf[v] = v
				hp.phiOf[v] = hp.f1At[v]
				continue
			}
			// Minimum-ID external neighbor in a hard clique; maximality of
			// F1 guarantees it is matched.
			best := -1
			for _, nw := range g.Neighbors(v) {
				w := int(nw)
				if hp.hardOf[w] >= 0 && hp.hardOf[w] != ci {
					if best == -1 || g.ID(w) < g.ID(best) {
						best = w
					}
				}
			}
			if best == -1 {
				unusable++
				if unusable > hp.spec.extraLoss {
					return fmt.Errorf("core: C_HEG clique %d has %d members without external hard neighbors", ci, unusable)
				}
				continue
			}
			if hp.f1At[best] < 0 {
				return fmt.Errorf("core: f(%d)=%d is unmatched; F1 not maximal", v, best)
			}
			hp.fOf[v] = best
			hp.phiOf[v] = hp.f1At[best]
		}
	}

	// Lemma 10: the members of one sub-clique request pairwise distinct
	// F1 edges (and pairwise distinct f-targets).
	for id, vs := range hp.subVec {
		seenPhi := map[int]int{}
		seenF := map[int]int{}
		for _, v := range vs {
			if hp.phiOf[v] < 0 {
				continue // tolerated non-proposer
			}
			if w, dup := seenPhi[hp.phiOf[v]]; dup {
				return refuse(fmt.Errorf("core: Lemma 10 violated: sub-clique %d members %d and %d request F1 edge %d",
					id, w, v, hp.phiOf[v]))
			}
			seenPhi[hp.phiOf[v]] = v
			if w, dup := seenF[hp.fOf[v]]; dup {
				return refuse(fmt.Errorf("core: Lemma 10 violated: sub-clique %d members %d and %d share f-target",
					id, w, v))
			}
			seenF[hp.fOf[v]] = v
		}
	}

	// Hypergraph H: one hyperedge per requested F1 edge, containing the
	// requesting sub-cliques.
	requests := make(map[int][]int) // F1 edge -> sub-clique ids
	for v, phi := range hp.phiOf {
		if phi >= 0 {
			requests[phi] = append(requests[phi], hp.subOf[v])
		}
	}
	var hedges [][]int
	hp.hyperEdge = nil
	keys := make([]int, 0, len(requests))
	for e := range requests {
		keys = append(keys, e)
	}
	sort.Ints(keys)
	for _, e := range keys {
		hedges = append(hedges, requests[e])
		hp.hyperEdge = append(hp.hyperEdge, e)
	}
	if len(hp.subVec) == 0 {
		hp.stats.TypeI = 0
		return nil // no C_HEG cliques; nothing to grab
	}
	h, err := heg.NewHypergraph(len(hp.subVec), hedges)
	if err != nil {
		return fmt.Errorf("core: building HEG instance: %w", err)
	}
	hp.hyper = h
	hp.stats.HypergraphRank = h.Rank()
	hp.stats.HypergraphMinDeg = h.MinDegree()

	// Lemma 11: δ_H must exceed the slack factor times r_H. (The brief
	// announcement's constants are tight; with integer sub-clique sizes
	// this needs floor(|C|/P) > 1.05·r_H, which holds for Δ >= ~85 at the
	// paper's ε = 1/63 and is checked here rather than assumed.)
	// h.MinDegree() already reflects the lost proposals of useless members.
	if float64(h.MinDegree()) <= HEGSlack*float64(h.Rank()) {
		return refuse(fmt.Errorf("core: Lemma 11 slack violated on instance: δ_H=%d vs r_H=%d",
			h.MinDegree(), h.Rank()))
	}

	// Solve HEG on the virtual hypergraph network (sub-cliques and
	// requested edges are within 3 hops of each other).
	vnet := hp.net.Virtual(graph.Path(2), 3)
	grab, hst, err := heg.Solve(vnet, h)
	if err != nil {
		return fmt.Errorf("core: HEG: %w", err)
	}
	if err := heg.Verify(h, grab); err != nil {
		return fmt.Errorf("core: HEG solution invalid: %w", err)
	}
	if err := hp.net.Checkpoint("alg2/heg", &CkptHEG{H: h, Grab: grab}); err != nil {
		return err
	}
	hp.stats.HEG = hst

	// F2: for each grab, the unique requesting member v_e of the winning
	// sub-clique takes the edge {v_e, f(v_e)} oriented away from v_e
	// (Section 3.3, "Computing F2").
	for q, e := range grab {
		f1Idx := hp.hyperEdge[e]
		vE := -1
		for _, v := range hp.subVec[q] {
			if hp.phiOf[v] == f1Idx {
				vE = v
				break
			}
		}
		if vE == -1 {
			return fmt.Errorf("core: sub-clique %d grabbed edge it never requested", q)
		}
		head := hp.fOf[vE]
		if head == vE {
			// v_e owns the F1 edge: F2 keeps that edge, oriented out.
			e := hp.f1[f1Idx]
			head = e.U + e.V - vE
		}
		hp.f2 = append(hp.f2, DirEdge{Tail: vE, Head: head})
	}

	// F2 must be a matching (Lemma 12) with cross-clique edges only.
	usedBy := make(map[int]DirEdge)
	for _, de := range hp.f2 {
		if hp.hardOf[de.Tail] < 0 || hp.hardOf[de.Head] < 0 || hp.hardOf[de.Tail] == hp.hardOf[de.Head] {
			return fmt.Errorf("core: F2 edge %v does not cross hard cliques", de)
		}
		if !hp.g.HasEdge(de.Tail, de.Head) {
			return fmt.Errorf("core: F2 edge %v is not a graph edge", de)
		}
		for _, v := range [2]int{de.Tail, de.Head} {
			if prev, dup := usedBy[v]; dup {
				return refuse(fmt.Errorf("core: Lemma 12 violated: vertex %d in F2 edges %v and %v", v, prev, de))
			}
			usedBy[v] = de
		}
	}

	// Each C_HEG clique has exactly P outgoing edges (Type I).
	outCount := make(map[int]int)
	for _, de := range hp.f2 {
		outCount[hp.hardOf[de.Tail]]++
	}
	for ci := range hp.a.Cliques {
		if hp.inHEG[ci] && outCount[ci] != hp.p.Subcliques {
			return fmt.Errorf("core: clique %d has %d outgoing F2 edges, want %d",
				ci, outCount[ci], hp.p.Subcliques)
		}
	}
	hp.stats.F2Size = len(hp.f2)
	return nil
}

// phase2Sparsify applies the degree splitting to G_Q and discards all but
// two outgoing edges per clique (Steps 5-6, Lemma 13).
func (hp *hardPipeline) phase2Sparsify() error {
	done := hp.net.Phase("alg2/sparsify")
	defer done()
	hp.typeI = make([]bool, len(hp.a.Cliques))
	if len(hp.f2) == 0 {
		return nil
	}

	// Virtual multigraph G_Q: node 2c is Q_c^+ (tails), node 2c+1 is
	// Q_c^- (heads).
	qEdges := make([]graph.Edge, len(hp.f2))
	for i, de := range hp.f2 {
		qEdges[i] = graph.Edge{U: 2 * hp.hardOf[de.Tail], V: 2*hp.hardOf[de.Head] + 1}
	}
	part := make([]int, len(hp.f2))
	if hp.p.SplitLevels > 0 {
		vnet := hp.net.Virtual(graph.Path(2), 2)
		var err error
		part, err = split.Split(vnet, 2*len(hp.a.Cliques), qEdges, hp.p.SplitLevels, hp.p.SplitEps)
		if err != nil {
			return fmt.Errorf("core: phase 2 split: %w", err)
		}
	}
	if err := hp.net.Checkpoint("alg2/sparsify", &CkptSplit{
		N: 2 * len(hp.a.Cliques), Edges: qEdges, Part: part,
		Levels: hp.p.SplitLevels, Eps: hp.p.SplitEps,
	}); err != nil {
		return err
	}

	// Keep part 0; per clique keep only two outgoing edges (Step 6). The
	// paper leaves the choice arbitrary; we refine it with a local-search
	// balancing pass so the kept edges spread over target cliques — this
	// only strengthens the Lemma 13 incoming bound and lets the scaled-down
	// presets (fewer split levels) meet it too.
	byClique := make(map[int][]DirEdge)
	for i, de := range hp.f2 {
		if part[i] == 0 {
			byClique[hp.hardOf[de.Tail]] = append(byClique[hp.hardOf[de.Tail]], de)
		}
	}
	f3, typeI, err := hp.discardToTwo(byClique, hp.inHEG)
	if err != nil {
		return err
	}
	hp.f3, hp.typeI = f3, typeI

	// Lemma 13's incoming bound, after discarding.
	incoming := make(map[int]int)
	for _, de := range hp.f3 {
		incoming[hp.hardOf[de.Head]]++
	}
	bound := (float64(hp.delta) - 2*hp.p.Eps*float64(hp.delta) - 1) / 2
	for ci, cnt := range incoming {
		if float64(cnt) >= bound {
			return refuse(fmt.Errorf("core: Lemma 13 violated: clique %d has %d incoming F3 edges (bound %.1f)",
				ci, cnt, bound))
		}
	}
	hp.stats.F3Size = len(hp.f3)
	return nil
}

// discardToTwo keeps exactly two outgoing edges per eligible clique,
// chosen by an iterated local search that spreads the kept edges across
// target cliques (each iteration is one LOCAL exchange). The sum of squared
// incoming loads strictly decreases with every swap, so the search
// terminates.
func (hp *hardPipeline) discardToTwo(byClique map[int][]DirEdge, eligible []bool) ([]DirEdge, []bool, error) {
	typeI := make([]bool, len(hp.a.Cliques))
	kept := make(map[int][]int) // clique -> indices into byClique[ci] kept
	loads := make(map[int]int)  // clique -> incoming kept edges
	for ci := range hp.a.Cliques {
		if !eligible[ci] {
			continue
		}
		outs := byClique[ci]
		if len(outs) < 2 {
			return nil, nil, refuse(fmt.Errorf("core: Lemma 13 violated: clique %d has %d outgoing edges after splitting, want >= 2",
				ci, len(outs)))
		}
		sort.Slice(outs, func(i, j int) bool { return outs[i].Tail < outs[j].Tail })
		byClique[ci] = outs
		kept[ci] = []int{0, 1}
		loads[hp.hardOf[outs[0].Head]]++
		loads[hp.hardOf[outs[1].Head]]++
		typeI[ci] = true
	}
	iters := 0
	for ; iters < 32; iters++ {
		changed := false
		for ci := range hp.a.Cliques {
			if !typeI[ci] {
				continue
			}
			outs := byClique[ci]
			for slot, idx := range kept[ci] {
				cur := hp.hardOf[outs[idx].Head]
				best, bestLoad := -1, loads[cur]
				for alt := range outs {
					if alt == kept[ci][0] || alt == kept[ci][1] {
						continue
					}
					tgt := hp.hardOf[outs[alt].Head]
					if loads[tgt]+1 < bestLoad {
						best, bestLoad = alt, loads[tgt]+1
					}
				}
				if best >= 0 {
					loads[cur]--
					loads[hp.hardOf[outs[best].Head]]++
					kept[ci][slot] = best
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	hp.net.Charge(2 * (iters + 1)) // one exchange per balancing iteration
	var f3 []DirEdge
	for ci := range hp.a.Cliques {
		if typeI[ci] {
			f3 = append(f3, byClique[ci][kept[ci][0]], byClique[ci][kept[ci][1]])
		}
	}
	return f3, typeI, nil
}

// phase3Triads forms one slack triad per Type I⁺ clique (Step 7, Lemma 15).
func (hp *hardPipeline) phase3Triads() error {
	done := hp.net.Phase("alg2/triads")
	defer done()
	hp.net.Charge(1)
	outs := make(map[int][]DirEdge)
	for _, de := range hp.f3 {
		outs[hp.hardOf[de.Tail]] = append(outs[hp.hardOf[de.Tail]], de)
	}
	used := make(map[int]Triad)
	pairPerClique := make(map[int]int)
	for ci := range hp.a.Cliques {
		if !hp.typeI[ci] {
			continue
		}
		es := outs[ci]
		if len(es) != 2 {
			return fmt.Errorf("core: Type I+ clique %d has %d outgoing F3 edges, want 2", ci, len(es))
		}
		e1, e2 := es[0], es[1]
		tr := Triad{Slack: e1.Tail, PairOut: e1.Head, PairIn: e2.Tail, Clique: ci}
		// Slack triad validity (Definition 14): both pair vertices neighbor
		// the slack vertex and are non-adjacent.
		if !hp.g.HasEdge(tr.Slack, tr.PairIn) || !hp.g.HasEdge(tr.Slack, tr.PairOut) {
			return fmt.Errorf("core: triad %+v: pair vertices not adjacent to slack vertex", tr)
		}
		if hp.g.HasEdge(tr.PairIn, tr.PairOut) {
			return fmt.Errorf("core: triad %+v: pair vertices adjacent (Lemma 9.3 violated?)", tr)
		}
		// Lemma 15(ii): vertex-disjointness.
		for _, v := range [3]int{tr.Slack, tr.PairIn, tr.PairOut} {
			if prev, dup := used[v]; dup {
				return refuse(fmt.Errorf("core: Lemma 15(ii) violated: vertex %d in triads %+v and %+v", v, prev, tr))
			}
			used[v] = tr
		}
		pairPerClique[hp.hardOf[tr.PairIn]]++
		pairPerClique[hp.hardOf[tr.PairOut]]++
		hp.triads = append(hp.triads, tr)
	}
	// Lemma 15(iii): slack-pair vertices per clique.
	bound := hp.p.MaxPairVertices(hp.delta)
	for ci, cnt := range pairPerClique {
		if float64(cnt) > bound {
			return refuse(fmt.Errorf("core: Lemma 15(iii) violated: clique %d hosts %d pair vertices (bound %.1f)",
				ci, cnt, bound))
		}
	}
	hp.stats.Triads = len(hp.triads)
	return hp.net.Checkpoint("alg2/triads", &CkptTriads{Triads: hp.triads})
}

// phase4APairs same-colors the slack pairs via the virtual conflict graph
// G_V (Step 8, Lemma 16).
func (hp *hardPipeline) phase4APairs() error {
	done := hp.net.Phase("alg2/pairs")
	defer done()
	if len(hp.triads) == 0 {
		return nil
	}
	b := graph.NewBuilder(len(hp.triads))
	owner := make(map[int]int) // vertex -> triad index
	for i, tr := range hp.triads {
		owner[tr.PairIn] = i
		owner[tr.PairOut] = i
	}
	for i, tr := range hp.triads {
		for _, v := range [2]int{tr.PairIn, tr.PairOut} {
			for _, w := range hp.g.Neighbors(v) {
				if j, ok := owner[int(w)]; ok && j > i {
					b.AddEdge(i, j)
				}
			}
		}
	}
	gv := b.MustBuild()
	hp.stats.PairGraphMaxDeg = gv.MaxDegree()
	palette := hp.delta - hp.spec.pairColorBase
	if gv.MaxDegree() > hp.delta-2 {
		return refuse(fmt.Errorf("core: Lemma 16 violated: G_V max degree %d > Δ-2 = %d",
			gv.MaxDegree(), hp.delta-2))
	}
	if gv.MaxDegree()+1 > palette {
		return fmt.Errorf("core: pair palette too small: G_V degree %d with %d colors",
			gv.MaxDegree(), palette)
	}
	vnet := hp.net.Virtual(gv, 3)
	inst := listcolor.Instance{Active: make([]bool, gv.N()), Lists: make([]coloring.Palette, gv.N())}
	// Each triad's list is [pairColorBase, Δ): the full prefix palette minus
	// the reserved low colors, built word-wide instead of bit by bit.
	reserved := coloring.FullPalette(hp.spec.pairColorBase)
	for i := range hp.triads {
		inst.Active[i] = true
		p := coloring.FullPalette(hp.delta)
		p.AndNot(reserved)
		inst.Lists[i] = p
	}
	pairColors := coloring.NewPartial(gv.N())
	if err := listcolor.Solve(vnet, inst, pairColors); err != nil {
		return fmt.Errorf("core: coloring slack pairs: %w", err)
	}
	for i, tr := range hp.triads {
		c := pairColors.Colors[i]
		hp.out.Colors[tr.PairIn] = c
		hp.out.Colors[tr.PairOut] = c
	}
	return hp.net.Checkpoint("alg2/pairs", &CkptColoring{C: hp.out, NumColors: hp.delta})
}

// phase4BRest colors the remaining hard vertices with two deg+1-list
// instances (Step 9, Lemma 17).
func (hp *hardPipeline) phase4BRest() error {
	done := hp.net.Phase("alg2/rest")
	defer done()
	g := hp.g

	// Anchors: the designated vertex per hard clique that stays uncolored
	// through instance 1 and provides slack to its clique-mates. Type I⁺
	// cliques use the slack vertex; the others use a member with an
	// uncolored neighbor outside the hard cliques.
	for _, tr := range hp.triads {
		hp.anchor[tr.Clique] = tr.Slack
	}
	for ci := range hp.a.Cliques {
		if !hp.hard[ci] || hp.anchor[ci] >= 0 {
			continue
		}
		for _, v := range hp.members(ci) {
			if hp.out.Colored(v) {
				continue
			}
			hasOutside := false
			for _, w := range g.Neighbors(v) {
				if hp.hardOf[w] < 0 && !hp.out.Colored(int(w)) {
					hasOutside = true
					break
				}
			}
			if hasOutside {
				hp.anchor[ci] = v
				break
			}
		}
		if hp.anchor[ci] < 0 {
			return fmt.Errorf("core: Type II clique %d has no anchor (no member with an uncolored outside neighbor)", ci)
		}
	}

	isAnchor := make(map[int]bool)
	for ci, v := range hp.anchor {
		if hp.hard[ci] && v >= 0 {
			isAnchor[v] = true
		}
	}

	// Instance 1: every uncolored hard vertex except the anchors.
	inst := listcolor.Instance{Active: make([]bool, g.N()), Lists: make([]coloring.Palette, g.N())}
	for v := 0; v < g.N(); v++ {
		if hp.hardOf[v] >= 0 && !hp.out.Colored(v) && !isAnchor[v] {
			inst.Active[v] = true
		}
	}
	hp.fillLists(&inst)
	if err := listcolor.Solve(hp.net, inst, hp.out); err != nil {
		return refuseShortList(fmt.Errorf("core: Lemma 17 instance 1: %w", err))
	}

	// Instance 2: the anchors (slack vertices have two same-colored
	// neighbors; Type II anchors still have an uncolored outside neighbor).
	inst2 := listcolor.Instance{Active: make([]bool, g.N()), Lists: make([]coloring.Palette, g.N())}
	for v := range isAnchor {
		inst2.Active[v] = true
	}
	hp.fillLists(&inst2)
	if err := listcolor.Solve(hp.net, inst2, hp.out); err != nil {
		return refuseShortList(fmt.Errorf("core: Lemma 17 instance 2: %w", err))
	}

	for v := 0; v < g.N(); v++ {
		if hp.hardOf[v] >= 0 && !hp.out.Colored(v) {
			return fmt.Errorf("core: hard vertex %d left uncolored after Algorithm 2", v)
		}
	}
	return hp.net.Checkpoint("alg2/rest", &CkptColoring{C: hp.out, NumColors: hp.delta})
}

// refuseShortList marks a Lemma 17 list-coloring failure as a refusal only
// when a list fell short of deg+1, the bound the lemma gives; Solve's other
// failures are faults and stay unmarked.
func refuseShortList(err error) error {
	if errors.Is(err, listcolor.ErrListTooShort) {
		return refuse(err)
	}
	return err
}

func (hp *hardPipeline) fillLists(inst *listcolor.Instance) {
	for v := 0; v < hp.g.N(); v++ {
		if inst.Active[v] {
			coloring.AvailableInto(&inst.Lists[v], hp.g, hp.out, v, hp.delta)
		}
	}
}

// run executes Algorithm 2 on the instance's hard cliques: selectTriads
// produces the F3 candidates (phases 1-2, or a substitute route), then
// the triads, pair coloring and anchored list coloring of phases 3-4B
// follow.
func (hp *hardPipeline) run(selectTriads func(*hardPipeline) error) error {
	hp.stats.HardCliques = count(hp.hard)
	hp.stats.EasyCliques = len(hp.hard) - hp.stats.HardCliques
	if hp.stats.HardCliques == 0 {
		return nil
	}
	phases := []func(*hardPipeline) error{selectTriads,
		(*hardPipeline).phase3Triads, (*hardPipeline).phase4APairs, (*hardPipeline).phase4BRest}
	for _, phase := range phases {
		if err := phase(hp); err != nil {
			return err
		}
	}
	hp.stats.TypeI = count(hp.typeI)
	hp.stats.TypeII = hp.stats.HardCliques - hp.stats.TypeI
	return nil
}

// selectTriadsByHEG is Algorithm 2's own triad selection: the maximal
// matching F1, hyperedge grabbing into F2, and the sparsification to F3.
func (hp *hardPipeline) selectTriadsByHEG() error {
	if err := hp.phase1Matching(); err != nil {
		return err
	}
	if err := hp.phase1HEG(); err != nil {
		return err
	}
	return hp.phase2Sparsify()
}

func count(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}
