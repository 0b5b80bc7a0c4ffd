// Package acd implements the almost-clique decomposition (ACD) of Lemma 2:
// a partition of the vertices into V_sparse and almost cliques C_1..C_t with
//
//	(i)   (1-ε/4)Δ <= |C_i| <= (1+ε)Δ,
//	(ii)  every v in C_i has at least (1-ε)Δ neighbors inside C_i,
//	(iii) every u outside C_i has at most (1-ε/2)Δ neighbors inside C_i.
//
// The computation follows the classic recipe [HSS18, ACK19] with the
// deterministic postprocessing of [FHM23, HM24]: vertices exchange neighbor
// lists (1 round), adjacent vertices with at least (1-η)Δ common neighbors
// become friends (internal η = 1/6), vertices with at least (1-η)Δ friends
// are dense, connected components of the friend graph restricted to dense
// vertices form candidate almost cliques (their diameter is constant, so
// component identification is O(1) rounds), and a constant number of
// repair rounds enforce (i)-(iii), demoting irreparable vertices to
// V_sparse. Everything is O(1) rounds, matching Lemma 2.
//
// Definition 4: a graph is *dense* when the ACD at ε = 1/63 leaves V_sparse
// empty. PaperEps exports that constant.
package acd

import (
	"fmt"
	"math"

	"deltacoloring/internal/arena"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/local"
)

// PaperEps is the ε the paper fixes for Definition 4 and Theorem 1.
const PaperEps = 1.0 / 63.0

// internalEta is the friendship/denseness threshold of the basic
// decomposition [HSS18]; the Lemma 2 guarantees come from postprocessing
// with ε, not from η.
const internalEta = 1.0 / 6.0

// Sparse marks a vertex outside every almost clique.
const Sparse = -1

// ACD is an almost-clique decomposition.
type ACD struct {
	// Eps is the ε the decomposition was computed with.
	Eps float64
	// Delta is the maximum degree of the graph.
	Delta int
	// CliqueOf maps each vertex to its clique index, or Sparse.
	CliqueOf []int
	// Cliques lists the vertex sets of the almost cliques, each sorted.
	Cliques [][]int
}

// Compute runs the O(1)-round ACD computation on net's graph.
func Compute(net *local.Network, eps float64) (*ACD, error) {
	if eps <= 0 || eps >= 1 {
		return nil, fmt.Errorf("acd: eps must be in (0,1), got %v", eps)
	}
	g := net.Graph()
	n := g.N()
	delta := g.MaxDegree()
	a := &ACD{Eps: eps, Delta: delta, CliqueOf: make([]int, n)}
	if n == 0 {
		return a, nil
	}
	ar := arena.Get()
	defer arena.Put(ar)

	// Round 1-2: neighbors exchange adjacency lists; afterwards every vertex
	// knows its 2-ball and can evaluate friendship and denseness locally.
	// Friendship (>= friendThreshold common neighbors) is evaluated with a
	// stamped-neighborhood count: mark N(v) once, then for each heavier
	// endpoint w count marks along N(w) — a linear scan of loads and adds in
	// place of a per-edge sorted merge of the two adjacency lists, which
	// dominated the dense-phase CPU profile.
	//
	// The count is independent per vertex, so it runs on the network's
	// workers, each chunk with its own marks. A friendship is recorded as a
	// flag on both of its half-edges: friend[hoff[v]+j] for v's j-th
	// neighbor. The lower endpoint sets both flags, so every flag has one
	// writer, and the friend graph below comes out the same for any chunking.
	net.Charge(2)
	friendThreshold := int(math.Ceil((1 - internalEta) * float64(delta)))
	hoff := ar.Int32s(n + 1)
	for v := 0; v < n; v++ {
		hoff[v+1] = hoff[v] + int32(g.Degree(v))
	}
	friend := ar.Bools(int(hoff[n]))
	marks := make([][]bool, net.Workers())
	for ci := range marks {
		marks[ci] = ar.Bools(n)
	}
	net.ForVertexChunks(func(ci, lo, hi int) {
		mark := marks[ci]
		for v := lo; v < hi; v++ {
			nv := g.Neighbors(v)
			for _, w := range nv {
				mark[w] = true
			}
			for j, nw := range nv {
				w := int(nw)
				if w <= v {
					continue
				}
				// back counts N(w)'s members below v, which is v's index
				// in the sorted N(w): the position of the reverse half-edge.
				cnt, back := 0, int32(0)
				for _, x := range g.Neighbors(w) {
					if mark[x] {
						cnt++
					}
					back += int32(uint32(x-int32(v)) >> 31)
				}
				if cnt >= friendThreshold {
					friend[hoff[v]+int32(j)] = true
					friend[hoff[w]+back] = true
				}
			}
			for _, w := range nv {
				mark[w] = false
			}
		}
	})
	// The friend graph in CSR form: fadj[foff[v]:foff[v+1]] lists v's
	// friends in ascending order (adjacency is sorted). Counting and filling
	// are per vertex, so they run chunked too, around a sequential prefix
	// sum.
	foff := ar.Int32s(n + 1)
	net.ForVertexChunks(func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			d := int32(0)
			for _, f := range friend[hoff[v]:hoff[v+1]] {
				if f {
					d++
				}
			}
			foff[v+1] = d
		}
	})
	for v := 0; v < n; v++ {
		foff[v+1] += foff[v]
	}
	fadj := ar.Int32s(int(foff[n]))
	dense := ar.Bools(n)
	net.ForVertexChunks(func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			at := foff[v]
			for j, w := range g.Neighbors(v) {
				if friend[hoff[v]+int32(j)] {
					fadj[at] = w
					at++
				}
			}
			dense[v] = int(foff[v+1]-foff[v]) >= friendThreshold
		}
	})

	// Components of the friend graph among dense vertices. The theory
	// guarantees constant diameter, so this is O(1) rounds; we charge a
	// fixed 6 and demote any component whose friend-diameter exceeds 4
	// (impossible for genuine almost cliques, defensive otherwise). The
	// components' member lists are consecutive runs of one arena buffer,
	// in BFS order; pos[v] is v's index in its run, and root[id] is the
	// smallest member, where the BFS started.
	net.Charge(6)
	comp := ar.IntsFill(n, Sparse)
	order := ar.Int32s(n)[:0]
	pos := ar.Int32s(n)
	var comps [][]int32
	var root []int32
	for s := 0; s < n; s++ {
		if !dense[s] || comp[s] != Sparse {
			continue
		}
		id := len(comps)
		start := len(order)
		order = append(order, int32(s))
		comp[s] = id
		for q := start; q < len(order); q++ {
			v := order[q]
			for _, w := range fadj[foff[v]:foff[v+1]] {
				if dense[w] && comp[w] == Sparse {
					comp[w] = id
					pos[w] = int32(len(order) - start)
					order = append(order, w)
				}
			}
		}
		comps = append(comps, order[start:len(order):len(order)])
		root = append(root, int32(s))
	}
	// The diameter checks are independent per component: each runs in the
	// chunk holding its root, with that chunk's BFS scratch, and only flags
	// the component; the demotions follow sequentially.
	dissolve := ar.Bools(len(comps))
	net.ForVertexChunks(func(_, lo, hi int) {
		var sc bfsScratch
		for v := lo; v < hi; v++ {
			if id := comp[v]; id != Sparse && root[id] == int32(v) {
				dissolve[id] = friendDiameterExceeds(foff, fadj, comp, pos, id, comps[id], &sc, 4)
			}
		}
	})
	for i, d := range dissolve {
		if d {
			for _, v := range comps[i] {
				comp[v] = Sparse
			}
			comps[i] = nil
		}
	}

	// Repair loop: enforce (ii) by demotion, then (iii) by absorption.
	// Each iteration is O(1) rounds.
	minInside := int(math.Ceil((1 - eps) * float64(delta)))
	absorbAbove := (1 - eps/2) * float64(delta)
	demote := ar.Bools(n)
	for iter := 0; iter < 3; iter++ {
		net.Charge(2)
		changed := false
		// (ii): demote members with too few internal neighbors (snapshot
		// semantics: all demotions of one iteration use the same view).
		// The counts only read comp, so they run chunked.
		net.ForVertexChunks(func(_, lo, hi int) {
			for v := lo; v < hi; v++ {
				demote[v] = comp[v] != Sparse && insideCount(g, comp, v, comp[v]) < minInside
			}
		})
		for v, d := range demote {
			if d {
				comp[v] = Sparse
				changed = true
			}
		}
		// (iii): absorb outsiders with too many neighbors in one clique.
		// The threshold exceeds Δ/2, so the target clique is unique.
		for v := 0; v < n; v++ {
			if comp[v] != Sparse {
				continue
			}
			if c := majorityClique(g, comp, v, Sparse, absorbAbove); c != Sparse {
				comp[v] = c
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// (i): dissolve components with out-of-range sizes.
	net.Charge(1)
	sizes := ar.Ints(len(comps))
	for _, c := range comp {
		if c != Sparse {
			sizes[c]++
		}
	}
	minSize := int(math.Ceil((1 - eps/4) * float64(delta)))
	maxSize := int(math.Floor((1 + eps) * float64(delta)))
	for v := 0; v < n; v++ {
		if c := comp[v]; c != Sparse && (sizes[c] < minSize || sizes[c] > maxSize) {
			comp[v] = Sparse
		}
	}

	// Final defensive sweep: dissolve any clique still violating (iii).
	for iter := 0; iter < 3; iter++ {
		bad := violatingClique(net, comp, absorbAbove)
		if bad == Sparse {
			break
		}
		for v := 0; v < n; v++ {
			if comp[v] == bad {
				comp[v] = Sparse
			}
		}
	}

	// Renumber cliques densely and build the final structure.
	remap := ar.IntsFill(len(comps), Sparse)
	for v := 0; v < n; v++ {
		c := comp[v]
		if c == Sparse {
			a.CliqueOf[v] = Sparse
			continue
		}
		id := remap[c]
		if id == Sparse {
			id = len(a.Cliques)
			remap[c] = id
			a.Cliques = append(a.Cliques, nil)
		}
		a.CliqueOf[v] = id
		a.Cliques[id] = append(a.Cliques[id], v)
	}
	return a, nil
}

// bfsScratch is friendDiameterExceeds's reusable scratch: dist, indexed by
// a member's position in its component, is all -1 between calls.
type bfsScratch struct {
	dist, queue []int32
}

// friendDiameterExceeds reports whether the diameter of the friend graph
// (foff/fadj CSR) restricted to component id exceeds bound, or the component
// is disconnected in it; the verdict does not depend on the order of
// members. pos maps each member to its index in members.
//
// One eccentricity BFS from an arbitrary member usually decides the question:
// ecc(s) <= diameter <= 2*ecc(s), so ecc > bound proves excess and
// 2*ecc <= bound proves the opposite (genuine almost cliques have friend
// diameter 1-2, hitting this path). Only the ambiguous band falls back to the
// all-sources sweep the fast path replaced.
func friendDiameterExceeds(foff, fadj []int32, comp []int, pos []int32, id int, members []int32, sc *bfsScratch, bound int) bool {
	for len(sc.dist) < len(members) {
		sc.dist = append(sc.dist, -1)
	}
	dist := sc.dist
	bfs := func(s int32) (ecc, visited int) {
		q := append(sc.queue[:0], s)
		dist[pos[s]] = 0
		for i := 0; i < len(q); i++ {
			v := q[i]
			d := dist[pos[v]] + 1
			for _, w := range fadj[foff[v]:foff[v+1]] {
				if comp[w] == id && dist[pos[w]] < 0 {
					dist[pos[w]] = d
					if int(d) > ecc {
						ecc = int(d)
					}
					q = append(q, w)
				}
			}
		}
		visited = len(q)
		for _, v := range q {
			dist[pos[v]] = -1
		}
		sc.queue = q
		return ecc, visited
	}
	ecc, visited := bfs(members[0])
	if visited != len(members) {
		return true // disconnected in the friend graph: treat as huge
	}
	if ecc > bound {
		return true
	}
	if 2*ecc <= bound {
		return false
	}
	worst := ecc
	for _, s := range members[1:] {
		ecc, _ := bfs(s)
		if ecc > worst {
			worst = ecc
		}
	}
	return worst > bound
}

// majorityClique returns the clique label (other than skip) that strictly
// more than `above` of v's neighbors carry, or Sparse if none does. Because
// above > Δ/2 and v has at most Δ neighbors, such a label is a strict
// majority among the qualifying neighbors, so a Boyer-Moore vote identifies
// the unique candidate and a second pass verifies the count — no map needed.
func majorityClique(g *graph.Graph, comp []int, v, skip int, above float64) int {
	cand, votes := Sparse, 0
	nbrs := g.Neighbors(v)
	for _, w := range nbrs {
		c := comp[w]
		if c == Sparse || c == skip {
			continue
		}
		switch {
		case votes == 0:
			cand, votes = c, 1
		case c == cand:
			votes++
		default:
			votes--
		}
	}
	if cand == Sparse {
		return Sparse
	}
	cnt := 0
	for _, w := range nbrs {
		if comp[w] == cand {
			cnt++
		}
	}
	if float64(cnt) > above {
		return cand
	}
	return Sparse
}

func insideCount(g *graph.Graph, comp []int, v, c int) int {
	n := 0
	for _, w := range g.Neighbors(v) {
		if comp[w] == c {
			n++
		}
	}
	return n
}

// violatingClique returns the clique that the lowest vertex violating (iii)
// has too many neighbors in, or Sparse. Each chunk stops at its own first
// violation, and the lowest chunk with one holds the lowest vertex.
func violatingClique(net *local.Network, comp []int, absorbAbove float64) int {
	g := net.Graph()
	found := make([]int, net.Workers())
	for ci := range found {
		found[ci] = Sparse
	}
	net.ForVertexChunks(func(ci, lo, hi int) {
		for v := lo; v < hi; v++ {
			if c := majorityClique(g, comp, v, comp[v], absorbAbove); c != Sparse {
				found[ci] = c
				return
			}
		}
	})
	for _, c := range found {
		if c != Sparse {
			return c
		}
	}
	return Sparse
}

// IsDense reports whether the decomposition has no sparse vertices
// (Definition 4).
func (a *ACD) IsDense() bool {
	for _, c := range a.CliqueOf {
		if c == Sparse {
			return false
		}
	}
	return true
}

// SparseCount returns the number of sparse vertices.
func (a *ACD) SparseCount() int {
	n := 0
	for _, c := range a.CliqueOf {
		if c == Sparse {
			n++
		}
	}
	return n
}

// Verify checks conditions (i)-(iii) of Lemma 2 plus internal consistency.
func (a *ACD) Verify(g *graph.Graph) error {
	if len(a.CliqueOf) != g.N() {
		return fmt.Errorf("acd: CliqueOf covers %d vertices, graph has %d", len(a.CliqueOf), g.N())
	}
	delta := g.MaxDegree()
	minSize := (1 - a.Eps/4) * float64(delta)
	maxSize := (1 + a.Eps) * float64(delta)
	minInside := (1 - a.Eps) * float64(delta)
	maxOutside := (1 - a.Eps/2) * float64(delta)
	seen := 0
	for ci, members := range a.Cliques {
		if s := float64(len(members)); s < minSize || s > maxSize {
			return fmt.Errorf("acd: clique %d has size %d outside [%.2f, %.2f]", ci, len(members), minSize, maxSize)
		}
		for _, v := range members {
			if a.CliqueOf[v] != ci {
				return fmt.Errorf("acd: vertex %d: listed in clique %d but CliqueOf=%d", v, ci, a.CliqueOf[v])
			}
			seen++
			if float64(insideCount(g, a.CliqueOf, v, ci)) < minInside {
				return fmt.Errorf("acd: vertex %d: too few neighbors inside clique %d", v, ci)
			}
		}
	}
	for v, c := range a.CliqueOf {
		if c == Sparse {
			continue
		}
		if c < 0 || c >= len(a.Cliques) {
			return fmt.Errorf("acd: vertex %d: invalid clique %d", v, c)
		}
	}
	for v := 0; v < g.N(); v++ {
		if c := majorityClique(g, a.CliqueOf, v, a.CliqueOf[v], maxOutside); c != Sparse {
			cnt := insideCount(g, a.CliqueOf, v, c)
			return fmt.Errorf("acd: vertex %d: outsider with %d neighbors in clique %d (max %.2f)", v, cnt, c, maxOutside)
		}
	}
	total := 0
	for _, members := range a.Cliques {
		total += len(members)
	}
	if total != seen {
		return fmt.Errorf("acd: inconsistent clique listings")
	}
	return nil
}
