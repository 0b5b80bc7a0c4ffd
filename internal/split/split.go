// Package split implements deterministic degree splitting (the paper's
// Lemma 21 and Corollary 22): partitioning the edges of a (multi)graph into
// 2^i parts so that every vertex's incident edges divide almost evenly,
// with per-part discrepancy at most ε·d(v) + a for a small additive a.
//
// One 2-way split follows the classic Euler-partition recipe:
//
//  1. At every vertex, pair up incident edge-endpoints; the pairing chains
//     edges into trails (paths and cycles) covering all edges.
//  2. Segment each trail into pieces of length L = Θ(1/ε). In LOCAL this is
//     a ruling set along the trail (O(L + log* n) rounds); the simulator
//     performs the walk centrally and charges those rounds.
//  3. 2-color the edges alternately inside each segment. Through-pairs at a
//     vertex contribute one edge to each side unless a segment boundary
//     falls exactly between the pair, so the discrepancy at v is at most
//     2·(boundary pairs at v) + 1, in expectation ε·d(v)/2 for random
//     offsets. Offsets are chosen deterministically per trail and the
//     result is verified against the ε·d(v)+4 bound; on violation the
//     offsets are rotated and the step retried (each retry charges rounds).
//     An odd closed trail always leaves two same-colored edges at its
//     start, so once maxRetries offset retries have failed, the retries
//     also rotate where each closed trail starts.
//
// Splitting into 2^i parts recurses i times. The final assignment satisfies
// Corollary 22's band (verified by VerifyParts and by the E6 bench).
package split

import (
	"fmt"
	"math"
	"sort"

	"deltacoloring/internal/graph"
	"deltacoloring/internal/local"
)

// maxRetries bounds the offset retries of one split level; split2 follows
// them with as many retries that also move the closed trails' starts.
const maxRetries = 32

// Split partitions the given edge list (parallel edges allowed; endpoints
// in [0, n)) into 2^i parts. It returns part[e] in [0, 2^i) for each edge
// index e. The per-level discrepancy guarantee is ε·d(v)+4; see VerifyParts
// for the compounded bound.
func Split(net *local.Network, n int, edges []graph.Edge, i int, eps float64) ([]int, error) {
	if i < 0 {
		return nil, fmt.Errorf("split: negative level count %d", i)
	}
	if eps <= 0 || eps >= 1 {
		return nil, fmt.Errorf("split: eps must be in (0,1), got %v", eps)
	}
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n || e.U == e.V {
			return nil, fmt.Errorf("split: invalid edge {%d,%d}", e.U, e.V)
		}
	}
	part := make([]int, len(edges))
	if i == 0 || len(edges) == 0 {
		return part, nil
	}
	// Recursive halving: indices of edges in each current group.
	groups := [][]int{all(len(edges))}
	for level := 0; level < i; level++ {
		var next [][]int
		for _, idxs := range groups {
			sub := make([]graph.Edge, len(idxs))
			for j, e := range idxs {
				sub[j] = edges[e]
			}
			half, err := split2(net, n, sub, eps)
			if err != nil {
				return nil, err
			}
			var a, b []int
			for j, e := range idxs {
				if half[j] == 0 {
					a = append(a, e)
				} else {
					b = append(b, e)
				}
			}
			next = append(next, a, b)
		}
		groups = next
	}
	for p, idxs := range groups {
		for _, e := range idxs {
			part[e] = p
		}
	}
	return part, nil
}

func all(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// split2 performs one verified 2-way split with discrepancy <= eps*d(v)+4.
func split2(net *local.Network, n int, edges []graph.Edge, eps float64) ([]int, error) {
	segLen := int(math.Ceil(4 / eps))
	if segLen < 2 {
		segLen = 2
	}
	trails := buildTrails(n, edges)
	deg := make([]int, n)
	for _, e := range edges {
		deg[e.U]++
		deg[e.V]++
	}
	// Round charge per level: segment-local work (L) plus the inherent
	// Θ(log n) of deterministic degree splitting (Lemma 21), with unit
	// constants — see DESIGN.md on round accounting for this substitution.
	logN := 0
	for m := n; m > 0; m >>= 1 {
		logN++
	}
	for attempt := 0; attempt < 2*maxRetries; attempt++ {
		net.Charge(segLen + 6 + logN)
		color := colorTrails(trails, len(edges), segLen, attempt)
		if maxViolation(n, edges, color, deg, eps) < 0 {
			return color, nil
		}
	}
	return nil, fmt.Errorf("split: discrepancy bound eps*d+4 not met after %d retries", 2*maxRetries)
}

// maxViolation returns a violating vertex, or -1 if the eps*d+4 bound holds
// everywhere.
func maxViolation(n int, edges []graph.Edge, color []int, deg []int, eps float64) int {
	diff := make([]int, n)
	for i, e := range edges {
		d := 1
		if color[i] == 1 {
			d = -1
		}
		diff[e.U] += d
		diff[e.V] += d
	}
	for v := 0; v < n; v++ {
		if math.Abs(float64(diff[v])) > eps*float64(deg[v])+4 {
			return v
		}
	}
	return -1
}

// trail is a maximal chain of edge indices linked by the Euler pairing;
// cycle marks closed trails.
type trail struct {
	edges []int
	cycle bool
}

// buildTrails computes the Euler partition: at every vertex, incident edge
// endpoints are paired consecutively (sorted by edge index for
// determinism), chaining the edges into paths and cycles.
func buildTrails(n int, edges []graph.Edge) []trail {
	// incidence[v] lists (edge index, side) sorted by edge index.
	type inc struct{ e, side int }
	incidence := make([][]inc, n)
	for i, e := range edges {
		incidence[e.U] = append(incidence[e.U], inc{e: i, side: 0})
		incidence[e.V] = append(incidence[e.V], inc{e: i, side: 1})
	}
	// partner[e][side] = (edge, side entering that edge) or -1.
	type ref struct{ e, side int }
	partner := make([][2]ref, len(edges))
	for i := range partner {
		partner[i] = [2]ref{{e: -1}, {e: -1}}
	}
	for v := 0; v < n; v++ {
		l := incidence[v]
		sort.Slice(l, func(a, b int) bool { return l[a].e < l[b].e })
		for j := 0; j+1 < len(l); j += 2 {
			a, b := l[j], l[j+1]
			partner[a.e][a.side] = ref{e: b.e, side: b.side}
			partner[b.e][b.side] = ref{e: a.e, side: a.side}
		}
	}
	visited := make([]bool, len(edges))
	var trails []trail
	walk := func(start, startSide int) trail {
		var t trail
		e, side := start, startSide
		for {
			visited[e] = true
			t.edges = append(t.edges, e)
			// Leave through the other endpoint of e.
			out := 1 - side
			nxt := partner[e][out]
			if nxt.e == -1 {
				return t
			}
			if nxt.e == start && nxt.side == startSide {
				t.cycle = true
				return t
			}
			e, side = nxt.e, nxt.side
		}
	}
	// Paths first: start from unpaired endpoints.
	for i := range edges {
		if visited[i] {
			continue
		}
		if partner[i][0].e == -1 {
			trails = append(trails, walk(i, 0))
		} else if partner[i][1].e == -1 {
			trails = append(trails, walk(i, 1))
		}
	}
	// Remaining edges form cycles.
	for i := range edges {
		if !visited[i] {
			trails = append(trails, walk(i, 0))
		}
	}
	return trails
}

// colorTrails assigns 0/1 to each edge: trails are cut into segments of
// length segLen with a per-trail, per-attempt offset, and each segment is
// colored alternately from 0. A closed trail's first and last edges meet
// at its start vertex, which takes the odd cycle's defect; from attempt
// maxRetries on, each closed trail starts at a per-trail, per-attempt
// rotation instead, so the defects of several odd trails stop piling on
// one vertex.
func colorTrails(trails []trail, numEdges, segLen, attempt int) []int {
	color := make([]int, numEdges)
	for ti, t := range trails {
		offset := (ti*31 + attempt*17 + attempt*attempt*7) % segLen
		rot := 0
		if t.cycle && attempt >= maxRetries {
			rot = (ti*13 + attempt*attempt*5) % len(t.edges)
		}
		pos := 0
		for j := range t.edges {
			if j > 0 && (j+offset)%segLen == 0 {
				pos = 0 // segment boundary: restart alternation
			}
			color[t.edges[(j+rot)%len(t.edges)]] = pos % 2
			pos++
		}
	}
	return color
}

// VerifyParts checks the Corollary 22 band: for every vertex v and part p,
// the number of part-p edges at v lies within
// [d(v)/2^i - eps*d(v) - a, d(v)/2^i + eps*d(v) + a], with
// a = 2*sum_{j<i} (1/2 + eps/4)^j as in the paper.
func VerifyParts(n int, edges []graph.Edge, part []int, i int, eps float64) error {
	if len(part) != len(edges) {
		return fmt.Errorf("split: %d part labels for %d edges", len(part), len(edges))
	}
	k := 1 << i
	a := 0.0
	for j := 0; j < i; j++ {
		a += 2 * math.Pow(0.5+eps/4, float64(j))
	}
	deg := make([]int, n)
	byPart := make([][]int, k)
	for p := range byPart {
		byPart[p] = make([]int, n)
	}
	for e, lbl := range part {
		if lbl < 0 || lbl >= k {
			return fmt.Errorf("split: edge (%d,%d): part %d outside [0,%d)", edges[e].U, edges[e].V, lbl, k)
		}
		deg[edges[e].U]++
		deg[edges[e].V]++
		byPart[lbl][edges[e].U]++
		byPart[lbl][edges[e].V]++
	}
	for v := 0; v < n; v++ {
		want := float64(deg[v]) / float64(k)
		slack := eps*float64(deg[v]) + a
		for p := 0; p < k; p++ {
			got := float64(byPart[p][v])
			if got < want-slack || got > want+slack {
				return fmt.Errorf("split: vertex %d: part %d has %d edges, want %.2f ± %.2f",
					v, p, byPart[p][v], want, slack)
			}
		}
	}
	return nil
}
