package core

import (
	"fmt"
	"sort"

	"deltacoloring/internal/graph"
	"deltacoloring/internal/local"
	"deltacoloring/internal/rulingset"
)

// rulingSubgraphR is the ruling-set radius on the hard-clique graph H: a
// (3,2)-ruling set gives every hard clique a coordinator within 2 H-hops,
// so triad selection proceeds in at most 3 BFS waves from the set.
const rulingSubgraphR = 2

// ColorRuling implements the ruling-subgraph route to Δ-coloring (in the
// spirit of "Faster Distributed Δ-Coloring via Ruling Subgraphs",
// arXiv 2503.04320): instead of deriving the slack-triad candidates via
// the maximal-matching + hyperedge-grabbing + degree-splitting machinery
// of Algorithm 2, it computes a ruling set on the hard-clique graph H and
// lets each hard clique pick its two F3 edges in BFS-wave order from the
// ruling cliques, load-balancing the pair vertices directly against the
// Lemma 15(iii) bound. The downstream phases are shared with Algorithm 2
// verbatim (triads, pair coloring, anchored list coloring, Algorithm 3 for
// easy cliques), so every lemma-level invariant of the paper is still
// verified at runtime and the conformance harness checks the run through
// the same checkpoint artifacts. Cliques for which no valid triad can be
// selected fall back to the Type II anchor route.
func ColorRuling(net *local.Network, p Params) (*Result, error) {
	return colorAlgorithm1(net, p, "ruling", (*hardPipeline).selectTriadsByRuling)
}

// selectTriadsByRuling replaces Algorithm 2's phases 1-2 (matching, HEG,
// splitting, discarding): it computes a ruling set on the hard-clique
// graph H, orders the hard cliques by BFS wave from the ruling cliques,
// and lets each clique greedily claim two cross-hard edges forming a valid
// slack triad — tails and the pair-out head globally unused, the slack and
// pair-in tails adjacent inside the clique, the pair non-adjacent, and
// both pair-hosting cliques under the Lemma 15(iii) load bound. The result
// populates hp.f3/hp.typeI exactly as phase2Sparsify would, so
// phase3Triads re-verifies Definition 14 and Lemma 15 on it unchanged.
func (hp *hardPipeline) selectTriadsByRuling() error {
	nc := len(hp.a.Cliques)

	// The hard-clique graph H: one node per almost clique, one edge per
	// pair of hard cliques joined by at least one E_hard edge. Parallel
	// cross edges collapse (unlike the simple-dense path, hardness alone
	// does not forbid them for almost cliques below size Δ).
	doneRS := hp.net.Phase("ruling/rulingset")
	b := graph.NewBuilder(nc)
	seen := make(map[graph.Edge]bool)
	for _, e := range hp.eHard {
		cu, cv := hp.hardOf[e.U], hp.hardOf[e.V]
		key := graph.Edge{U: cu, V: cv}
		if cu > cv {
			key = graph.Edge{U: cv, V: cu}
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		b.AddEdge(key.U, key.V)
	}
	h, err := b.Build()
	if err != nil {
		doneRS()
		return fmt.Errorf("core: hard-clique graph: %w", err)
	}
	// One H round is simulated by clique-internal coordination (almost
	// cliques have diameter <= 2) plus one cross edge: dilation 3.
	vnet := hp.net.Virtual(h, 3)
	in, err := rulingset.RulingSet(vnet, rulingSubgraphR)
	if err == nil {
		err = hp.net.Checkpoint("ruling/rulingset", &CkptRulingSet{G: h, In: in, R: rulingSubgraphR})
	}
	doneRS()
	if err != nil {
		return fmt.Errorf("core: ruling subgraph: %w", err)
	}

	doneSel := hp.net.Phase("ruling/select")
	defer doneSel()

	// BFS waves on H from the ruling cliques; the (3,2)-ruling property
	// bounds the wave depth by the radius.
	wave := make([]int, nc)
	for ci := range wave {
		wave[ci] = -1
	}
	queue := make([]int, 0, nc)
	for ci := 0; ci < nc; ci++ {
		if in[ci] && hp.hard[ci] {
			wave[ci] = 0
			queue = append(queue, ci)
		}
	}
	maxWave := 0
	for head := 0; head < len(queue); head++ {
		ci := queue[head]
		for _, ncj := range h.Neighbors(ci) {
			cj := int(ncj)
			if wave[cj] < 0 {
				wave[cj] = wave[ci] + 1
				if wave[cj] > maxWave {
					maxWave = wave[cj]
				}
				queue = append(queue, cj)
			}
		}
	}
	order := make([]int, 0, nc)
	for ci := 0; ci < nc; ci++ {
		if hp.hard[ci] {
			order = append(order, ci)
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		wi, wj := wave[order[i]], wave[order[j]]
		if wi != wj {
			return wi < wj
		}
		return order[i] < order[j]
	})

	// Outgoing E_hard candidates per clique, in deterministic order.
	cand := make([][]DirEdge, nc)
	for _, e := range hp.eHard {
		cand[hp.hardOf[e.U]] = append(cand[hp.hardOf[e.U]], DirEdge{Tail: e.U, Head: e.V})
		cand[hp.hardOf[e.V]] = append(cand[hp.hardOf[e.V]], DirEdge{Tail: e.V, Head: e.U})
	}
	for ci := range cand {
		es := cand[ci]
		sort.Slice(es, func(i, j int) bool {
			if es[i].Tail != es[j].Tail {
				return es[i].Tail < es[j].Tail
			}
			return es[i].Head < es[j].Head
		})
	}

	used := make([]bool, hp.g.N())
	pairLoad := make([]int, nc)
	bound := hp.p.MaxPairVertices(hp.delta)
	typeI := make([]bool, nc)
	var f3 []DirEdge
	for _, ci := range order {
		e1, e2, ok := hp.pickTriadEdges(cand[ci], used, pairLoad, bound, ci)
		if !ok {
			continue // Type II: phase4BRest anchors the clique instead
		}
		typeI[ci] = true
		used[e1.Tail], used[e2.Tail], used[e1.Head] = true, true, true
		pairLoad[ci]++                 // PairIn = e2.Tail lives in ci
		pairLoad[hp.hardOf[e1.Head]]++ // PairOut lives in the target clique
		f3 = append(f3, e1, e2)
	}
	hp.f3, hp.typeI = f3, typeI
	hp.stats.F3Size = len(f3)
	// One exchange per wave sweep to learn the neighbors' claims, plus the
	// final announcement round.
	hp.net.Charge(2*(maxWave+1) + 1)
	return nil
}

// pickTriadEdges picks the (slack -> pairOut, pairIn -> ·) edge pair for
// clique ci minimizing the target clique's pair load, or reports that no
// valid pair exists under the current claims.
func (hp *hardPipeline) pickTriadEdges(cands []DirEdge, used []bool, pairLoad []int, bound float64, ci int) (DirEdge, DirEdge, bool) {
	var best1, best2 DirEdge
	bestLoad := -1
	if float64(pairLoad[ci]+1) > bound {
		return best1, best2, false
	}
	for _, e1 := range cands {
		if used[e1.Tail] || used[e1.Head] {
			continue
		}
		tgt := hp.hardOf[e1.Head]
		if float64(pairLoad[tgt]+1) > bound {
			continue
		}
		if bestLoad >= 0 && pairLoad[tgt] >= bestLoad {
			continue
		}
		for _, e2 := range cands {
			if e2.Tail == e1.Tail || used[e2.Tail] {
				continue
			}
			// Definition 14: both pair vertices neighbor the slack vertex
			// and are mutually non-adjacent.
			if !hp.g.HasEdge(e1.Tail, e2.Tail) || hp.g.HasEdge(e2.Tail, e1.Head) {
				continue
			}
			best1, best2, bestLoad = e1, e2, pairLoad[tgt]
			break
		}
	}
	if bestLoad < 0 {
		return best1, best2, false
	}
	return best1, best2, true
}
