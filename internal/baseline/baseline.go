// Package baseline implements the comparison algorithms the evaluation
// measures the paper's contribution against:
//
//   - TrialColoring: the classic one-round random color trial from the
//     introduction, used both as a Δ+1-coloring baseline and to measure
//     permanent-slack generation on sparse vs dense graphs (E10).
//   - DeltaPlusOne: deterministic distributed Δ+1-coloring (Linial), the
//     greedy-regime yardstick of Figure 1 (Θ(log* n) on constant degree).
//   - LoopholeLayered: a stand-in for the prior deterministic approach that
//     colors outward from loopholes only [PS95, GHKM21]; it gets stuck on
//     hard dense graphs, which is precisely the gap Algorithm 2 closes (E9,
//     E11).
package baseline

import (
	"errors"
	"fmt"
	"math/rand"

	"deltacoloring/internal/acd"
	"deltacoloring/internal/coloring"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/linial"
	"deltacoloring/internal/listcolor"
	"deltacoloring/internal/local"
	"deltacoloring/internal/loophole"
)

// ErrStuck is returned by distributed baselines that cannot make progress.
var ErrStuck = errors.New("baseline: stuck with uncolored vertices")

// TrialResult reports one run of the iterated random color trial.
type TrialResult struct {
	// Colored is the number of permanently colored vertices.
	Colored int
	// Rounds is the number of trial rounds executed.
	Rounds int
	// Stuck reports whether progress stopped before completion.
	Stuck bool
}

// TrialColoring runs the classic randomized color trial with the given
// palette size k: every round, each uncolored vertex picks a uniformly
// random color from its available palette and keeps it if no neighbor
// picked the same color; vertices with empty palettes stay uncolored. With
// k = Δ+1 this completes in O(log n) rounds w.h.p.; with k = Δ it gets
// stuck on dense graphs — the introduction's motivation for slack triads.
func TrialColoring(net *local.Network, c *coloring.Partial, k, maxRounds int, rng *rand.Rand) TrialResult {
	g := net.Graph()
	var res TrialResult
	for round := 0; round < maxRounds; round++ {
		type pick struct {
			color int
		}
		picks := make([]pick, g.N())
		anyPick := false
		var p coloring.Palette
		var cols []int
		for v := 0; v < g.N(); v++ {
			picks[v] = pick{color: coloring.None}
			if c.Colored(v) {
				continue
			}
			coloring.AvailableInto(&p, g, c, v, k)
			cols = p.AppendColors(cols[:0])
			if len(cols) == 0 {
				continue
			}
			picks[v] = pick{color: cols[rng.Intn(len(cols))]}
			anyPick = true
		}
		if !anyPick {
			res.Stuck = c.CountColored() < g.N()
			break
		}
		net.Charge(1)
		res.Rounds++
		progress := false
		for v := 0; v < g.N(); v++ {
			if picks[v].color == coloring.None {
				continue
			}
			ok := true
			for _, w := range g.Neighbors(v) {
				if picks[w].color == picks[v].color || c.Colors[w] == picks[v].color {
					ok = false
					break
				}
			}
			if ok {
				c.Colors[v] = picks[v].color
				progress = true
			}
		}
		if !progress && round > 2*g.MaxDegree()+20 {
			res.Stuck = true
			break
		}
		if c.CountColored() == g.N() {
			break
		}
	}
	res.Colored = c.CountColored()
	res.Stuck = res.Stuck || res.Colored < g.N()
	return res
}

// findWitnesses returns loophole witnesses: on dense graphs it uses the
// structured ACD classifier (near-linear); otherwise it falls back to the
// exhaustive per-vertex search.
func findWitnesses(net *local.Network, g *graph.Graph, delta int) []*loophole.Loophole {
	if a, err := acd.Compute(net, 1.0/16); err == nil && a.IsDense() {
		cl := loophole.Classify(g, a)
		out := make([]*loophole.Loophole, 0, len(cl.Witness))
		for ci, w := range cl.Witness {
			if cl.Easy[ci] && w != nil {
				out = append(out, w)
			}
		}
		return out
	}
	var out []*loophole.Loophole
	for _, l := range loophole.FindAll(g, delta) {
		if l != nil {
			out = append(out, l)
		}
	}
	return out
}

// PermanentSlack counts the vertices with two same-colored neighbors — the
// "permanent slack" quantity of the introduction.
func PermanentSlack(g *graph.Graph, c *coloring.Partial) int {
	slack := 0
	for v := 0; v < g.N(); v++ {
		seen := map[int]bool{}
		for _, w := range g.Neighbors(v) {
			col := c.Colors[w]
			if col == coloring.None {
				continue
			}
			if seen[col] {
				slack++
				break
			}
			seen[col] = true
		}
	}
	return slack
}

// DeltaPlusOne computes a deterministic distributed (Δ+1)-coloring — the
// greedy-regime problem of Figure 1 — and returns it with the round count.
func DeltaPlusOne(net *local.Network) (*coloring.Partial, error) {
	g := net.Graph()
	colors, err := linial.Color(net, g.MaxDegree()+1)
	if err != nil {
		return nil, err
	}
	c := coloring.NewPartial(g.N())
	copy(c.Colors, colors)
	return c, nil
}

// LoopholeLayered is the prior-approach stand-in: detect loopholes
// (Definition 6), then color BFS layers around them inward and the
// loopholes last. On graphs with loopholes everywhere this Δ-colors in
// O(diameter-to-loophole) rounds; on hard dense graphs it returns ErrStuck
// because no vertex has a loophole within reach — the situation that forces
// the paper's slack-triad machinery.
func LoopholeLayered(net *local.Network, maxLayers int) (*coloring.Partial, int, error) {
	g := net.Graph()
	delta := g.MaxDegree()
	c := coloring.NewPartial(g.N())
	witnesses := findWitnesses(net, g, delta)
	net.Charge(3)
	var anchors []*loophole.Loophole
	used := make([]bool, g.N())
	for _, l := range witnesses {
		if l == nil {
			continue
		}
		clash := false
		for _, v := range l.Verts {
			if used[v] {
				clash = true
				break
			}
		}
		if clash {
			continue
		}
		// Also require a vertex gap to neighbors of other anchors so the
		// brute-force completions stay independent.
		for _, v := range l.Verts {
			used[v] = true
			for _, w := range g.Neighbors(v) {
				used[w] = true
			}
		}
		anchors = append(anchors, l)
	}
	if len(anchors) == 0 {
		return nil, 0, fmt.Errorf("%w: no loopholes anywhere", ErrStuck)
	}
	// Layer and color inward.
	layer := make([]int, g.N())
	for v := range layer {
		layer[v] = -1
	}
	var frontier []int
	for _, l := range anchors {
		for _, v := range l.Verts {
			if layer[v] == -1 {
				layer[v] = 0
				frontier = append(frontier, v)
			}
		}
	}
	maxLayer := 0
	for depth := 1; depth <= maxLayers && len(frontier) > 0; depth++ {
		var next []int
		for _, v := range frontier {
			for _, w := range g.Neighbors(v) {
				if layer[w] == -1 {
					layer[w] = depth
					next = append(next, int(w))
				}
			}
		}
		if len(next) > 0 {
			maxLayer = depth
		}
		frontier = next
	}
	for v := range layer {
		if layer[v] == -1 {
			return nil, 0, fmt.Errorf("%w: vertex %d beyond %d layers of every loophole", ErrStuck, v, maxLayers)
		}
	}
	net.Charge(maxLayer)
	// Color each layer with a genuine deg+1-list instance (same substrate
	// and round accounting as Algorithm 3, so E12's comparison is fair).
	for depth := maxLayer; depth >= 1; depth-- {
		inst := listcolor.Instance{Active: make([]bool, g.N()), Lists: make([]coloring.Palette, g.N())}
		any := false
		for v := 0; v < g.N(); v++ {
			if layer[v] == depth {
				inst.Active[v] = true
				coloring.AvailableInto(&inst.Lists[v], g, c, v, delta)
				any = true
			}
		}
		if !any {
			continue
		}
		if err := listcolor.Solve(net, inst, c); err != nil {
			return nil, 0, fmt.Errorf("%w: layer %d: %v", ErrStuck, depth, err)
		}
	}
	net.Charge(4)
	for _, l := range anchors {
		if err := loophole.Complete(g, c, l, delta); err != nil {
			return nil, 0, fmt.Errorf("baseline: %w", err)
		}
	}
	if err := coloring.VerifyComplete(g, c, delta); err != nil {
		return nil, 0, err
	}
	return c, maxLayer, nil
}
