// Package repair turns a fault-damaged coloring back into a verified one,
// distributedly. It is the Brooks-theorem-style recovery story for the
// Δ-coloring pipeline: any fault-damaged region can be locally recolored
// with deg+1 list coloring at the cost of at most one extra color (cf.
// "Fast Distributed Brooks' Theorem" and "Improved Distributed Δ-Coloring",
// PAPERS.md), so a crashed or corrupted run never has to restart globally.
//
// The contract, given a graph and a coloring that is valid outside an
// unknown damaged region:
//
//  1. Detect (1 round): every vertex inspects itself and its neighborhood;
//     it is damaged if it is uncolored, carries an out-of-range color, or
//     shares its color with a neighbor (both endpoints of a monochromatic
//     edge flag themselves — the detector is symmetric, so it needs no
//     coordination).
//  2. Tight attempt (1 round): the damaged set is uncolored and checked
//     against the deg+1 list-coloring precondition with the *original*
//     palette [0, numColors). If every damaged vertex has more available
//     colors than damaged neighbors, the region is recolored without any
//     extra color.
//  3. Grow + recolor (1 round + list coloring): otherwise the repair set
//     grows by the 1-hop neighborhood of the damaged region and the palette
//     gains one extra color. Every vertex of the grown set now satisfies
//     deg+1 unconditionally (list size >= numColors+1 - colored neighbors
//     >= repair-set degree + 1), so the list coloring cannot fail. Because
//     the solver always adopts the smallest available color, the extra
//     color is used only where the damage forces it.
//
// All rounds — detection, the slack check, growth, and the deg+1 solve —
// are charged through the normal Network counter, so repair cost shows up
// in the same round accounting as everything else. Vertices outside the
// repair set never change color.
package repair

import (
	"fmt"

	"deltacoloring/internal/coloring"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/listcolor"
	"deltacoloring/internal/local"
)

// Result reports what one Repair call did.
type Result struct {
	// Damaged lists the vertices the detector flagged, ascending.
	Damaged []int
	// RepairSet lists the vertices actually recolored, ascending. It equals
	// Damaged unless growth was needed, in which case it is the closed
	// 1-hop neighborhood of Damaged.
	RepairSet []int
	// Grown reports whether the 1-hop growth (and with it the extra color)
	// was needed.
	Grown bool
	// ExtraColorUsed counts repaired vertices that ended up on the extra
	// color (always 0 when Grown is false).
	ExtraColorUsed int
	// NumColors is the palette bound the repaired coloring is guaranteed to
	// satisfy. It equals the caller's numColors when that covered the
	// current snapshot's Δ and no extra color was spent; it is larger when
	// the degree grew past the tracked palette mid-stream (dynamic graphs)
	// or when growth had to spend the extra color.
	NumColors int
	// Rounds is the number of LOCAL rounds the repair charged.
	Rounds int
}

// detectState is the per-vertex state of the detection round.
type detectState struct {
	color int
	bad   bool
}

// Detect runs the 1-round distributed damage detector and returns the
// damaged vertices in ascending order: every vertex that is uncolored,
// out of range for [0, numColors), or in conflict with a neighbor.
func Detect(net *local.Network, colors []int, numColors int) ([]int, error) {
	g := net.Graph()
	if len(colors) != g.N() {
		return nil, fmt.Errorf("repair: %d colors for %d vertices", len(colors), g.N())
	}
	init := make([]detectState, g.N())
	for v, c := range colors {
		init[v] = detectState{color: c}
	}
	st := local.NewRunner(net, init).Step(func(v int, self detectState, nbrs local.Nbrs[detectState]) detectState {
		if self.color == coloring.None || self.color < 0 || self.color >= numColors {
			self.bad = true
			return self
		}
		for i := 0; i < nbrs.Len(); i++ {
			if nbrs.State(i).color == self.color {
				self.bad = true
				return self
			}
		}
		return self
	})
	var damaged []int
	for v, s := range st {
		if s.bad {
			damaged = append(damaged, v)
		}
	}
	return damaged, nil
}

// DetectSeeded is the scoped damage detector for the dynamic layer: instead
// of scanning the whole graph it inspects only the closed neighborhood of
// seeds (the vertices a mutation batch touched). Given a coloring that was
// valid before the batch, any new damage — a conflict across an added edge,
// an uncolored appended vertex, a palette violation — lies inside that
// neighborhood, so the scoped scan is sound while charging the same single
// round as Detect. Returns the damaged vertices in ascending order.
func DetectSeeded(net *local.Network, colors []int, numColors int, seeds []int) ([]int, error) {
	g := net.Graph()
	if len(colors) != g.N() {
		return nil, fmt.Errorf("repair: %d colors for %d vertices", len(colors), g.N())
	}
	net.Charge(1)
	scope := make([]bool, g.N())
	for _, s := range seeds {
		if s < 0 || s >= g.N() {
			return nil, fmt.Errorf("repair: seed %d out of range [0,%d)", s, g.N())
		}
		scope[s] = true
		for _, w := range g.Neighbors(s) {
			scope[int(w)] = true
		}
	}
	var damaged []int
	for v := 0; v < g.N(); v++ {
		if !scope[v] {
			continue
		}
		c := colors[v]
		if c == coloring.None || c < 0 || c >= numColors {
			damaged = append(damaged, v)
			continue
		}
		for _, w := range g.Neighbors(v) {
			if colors[w] == c {
				damaged = append(damaged, v)
				break
			}
		}
	}
	return damaged, nil
}

// Snapshot is the checkpoint artifact Repair publishes (phase "repair") to
// an installed local.Network check hook: the repaired coloring and the
// palette size it actually used (numColors, or numColors+1 after growing).
type Snapshot struct {
	Colors    []int
	NumColors int
}

// paletteBound recomputes the working palette bound from the *current*
// snapshot's Δ. Callers of the dynamic layer track numColors across mutation
// batches; when edge insertions grow a vertex's degree past that tracked
// bound mid-stream, the grown-set guarantee (list size >= repair-set degree
// + 1) needs the bound raised to the live Δ rather than the construction-time
// value the caller remembered.
func paletteBound(g *graph.Graph, numColors int) int {
	if d := g.MaxDegree(); numColors < d {
		return d
	}
	return numColors
}

// Repair detects the damaged region of colors and recolors it in place,
// following the package contract. numColors is the palette of the valid
// region (Δ for pipeline colorings); the result uses at most bound+1 colors
// where bound = max(numColors, Δ of the current snapshot), and exactly bound
// whenever the tight attempt succeeds. The input slice is repaired in place
// and also returned; Result.NumColors reports the bound actually needed.
func Repair(net *local.Network, colors []int, numColors int) (*Result, error) {
	g := net.Graph()
	if numColors < 1 {
		return nil, fmt.Errorf("repair: numColors must be positive, got %d", numColors)
	}
	bound := paletteBound(g, numColors)
	startRounds := net.Rounds()
	defer net.Phase("repair")()

	damaged, err := Detect(net, colors, bound)
	if err != nil {
		return nil, err
	}
	if len(damaged) == 0 {
		// Nothing flagged: the coloring must already verify; anything else
		// is a detector bug, not a caller error.
		c := coloring.Partial{Colors: colors}
		if verr := coloring.VerifyComplete(g, &c, bound); verr != nil {
			return nil, fmt.Errorf("repair: detector found no damage but coloring is invalid: %w", verr)
		}
		return &Result{NumColors: bound, Rounds: net.Rounds() - startRounds}, nil
	}
	res, err := recolor(net, colors, bound, damaged)
	if err != nil {
		return nil, err
	}

	k := bound
	if res.Grown {
		k = bound + 1
	}
	c := coloring.Partial{Colors: colors}
	if verr := coloring.VerifyComplete(g, &c, k); verr != nil {
		return nil, fmt.Errorf("repair: repaired coloring failed verification: %w", verr)
	}
	if err := net.Checkpoint("repair", &Snapshot{Colors: colors, NumColors: k}); err != nil {
		return nil, err
	}
	res.Rounds = net.Rounds() - startRounds
	return res, nil
}

// recolor uncolors the damaged set and runs the tight-attempt / grow /
// deg+1-solve core of the package contract against the palette [0, bound).
// It mutates colors in place and fills every Result field except Rounds.
func recolor(net *local.Network, colors []int, bound int, damaged []int) (*Result, error) {
	res := &Result{Damaged: damaged, NumColors: bound}
	part := coloring.NewPartial(net.Graph().N())
	copy(part.Colors, colors)

	plan := PlanRecolor(net, part, damaged, bound)
	res.Grown = plan.Grown
	inst := listcolor.Instance{Active: plan.Active, Lists: plan.Lists}
	if err := listcolor.Solve(net, inst, part); err != nil {
		return nil, fmt.Errorf("repair: %w", err)
	}
	for v, a := range plan.Active {
		if a {
			res.RepairSet = append(res.RepairSet, v)
			if part.Colors[v] == bound {
				res.ExtraColorUsed++
			}
		}
	}
	if res.ExtraColorUsed > 0 {
		res.NumColors = bound + 1
	}
	copy(colors, part.Colors)
	return res, nil
}

// Plan is the recoloring work PlanRecolor produces for a damaged set: the
// active vertices to recolor and the color list each one may draw from.
// When Grown is true the lists come from the widened palette [0, bound+1)
// and Active is the closed 1-hop neighborhood of the damage.
type Plan struct {
	Active []bool
	Lists  []coloring.Palette
	Grown  bool
}

// PlanRecolor runs the tight-attempt / grow planning of the package contract
// for a known damaged set: it uncolors the damage in part, charges the
// tight-check round (and the growth round when the deg+1 precondition fails
// against the palette [0, bound)), and returns the active set plus per-vertex
// lists ready for a deg+1 list-coloring solve. internal/dynamic reuses this
// planning but runs its own frontier-scheduled solve on the root network, so
// fault hooks apply to the maintenance rounds.
func PlanRecolor(net *local.Network, part *coloring.Partial, damaged []int, bound int) *Plan {
	g := net.Graph()
	inDamaged := make([]bool, g.N())
	for _, v := range damaged {
		inDamaged[v] = true
		part.Colors[v] = coloring.None
	}

	// Tight attempt: each damaged vertex compares its residual palette
	// [0, bound) against its damaged degree — a purely local check, one
	// round to exchange the verdicts.
	net.Charge(1)
	tight := true
	lists := make([]coloring.Palette, g.N())
	for _, v := range damaged {
		coloring.AvailableInto(&lists[v], g, part, v, bound)
		activeDeg := 0
		for _, w := range g.Neighbors(v) {
			if inDamaged[w] {
				activeDeg++
			}
		}
		if lists[v].Size() < activeDeg+1 {
			tight = false
			break
		}
	}
	if tight {
		return &Plan{Active: inDamaged, Lists: lists}
	}

	// Grow to the closed 1-hop neighborhood and add the extra color.
	// One round: damaged vertices announce, neighbors join.
	net.Charge(1)
	active := make([]bool, g.N())
	for _, v := range damaged {
		active[v] = true
		for _, w := range g.Neighbors(v) {
			active[int(w)] = true
		}
	}
	for v, a := range active {
		if a {
			part.Colors[v] = coloring.None
		}
	}
	for v, a := range active {
		if !a {
			continue
		}
		// Re-fill in place: the widened palette reuses the word storage the
		// tight attempt allocated for damaged vertices.
		coloring.AvailableInto(&lists[v], g, part, v, bound+1)
	}
	return &Plan{Active: active, Lists: lists, Grown: true}
}

// Oracle is the sequential reference: it uncolors the damaged set and
// greedily completes with numColors+1 colors. It exists to cross-check the
// distributed repair in tests and fuzzing; a graph where the oracle fails
// has no (numColors+1)-repair at all.
func Oracle(g *graph.Graph, colors []int, numColors int) ([]int, error) {
	c := coloring.NewPartial(g.N())
	copy(c.Colors, colors)
	// Sequential damage scan mirroring Detect.
	for v := 0; v < g.N(); v++ {
		col := c.Colors[v]
		if col == coloring.None || col < 0 || col >= numColors {
			c.Colors[v] = coloring.None
			continue
		}
		for _, w := range g.Neighbors(v) {
			if colors[w] == col {
				c.Colors[v] = coloring.None
				break
			}
		}
	}
	if err := coloring.GreedyComplete(g, c, numColors+1); err != nil {
		return nil, err
	}
	if err := coloring.VerifyComplete(g, c, numColors+1); err != nil {
		return nil, err
	}
	return c.Colors, nil
}
