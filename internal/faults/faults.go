// Package faults provides deterministic, seed-driven fault plans for the
// LOCAL simulator and the Δ-coloring pipeline.
//
// A Plan is compiled once from a Config and a graph: it schedules
// crash-stop faults (a vertex halts at a drawn round and stays silent),
// per-directed-edge message drops and duplications (drawn independently
// every round), and state corruptions (a vertex's memory is overwritten
// with a neighbor's state at a drawn round). Every decision is a pure
// function of (seed, kind, round, vertex/edge) via a splitmix64-style hash,
// so a plan is bit-reproducible across runs, machines, and — because the
// engine evaluates the decisions from worker goroutines in arbitrary
// order — across worker counts.
//
// A Plan plugs into the engine as a local.FaultHook (SetFaults), and can
// additionally damage a *finished* coloring via Damage: crashed vertices
// lose their color (they halted before reporting one), corrupted vertices
// adopt their corruption source's color (a memory overwrite that
// manufactures monochromatic edges). The damaged coloring is exactly the
// input contract of internal/repair.
package faults

import (
	"fmt"
	"math"

	"deltacoloring/internal/coloring"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/local"
)

// Config parameterizes a Plan. The zero value is the fault-free plan; every
// rate is a probability in [0, 1].
type Config struct {
	// Seed drives every random decision; the same (Seed, Config, graph)
	// always compiles to the same Plan.
	Seed int64
	// CrashRate is the probability that a vertex crash-stops at all; a
	// crashing vertex draws its crash round uniformly from [0, CrashWindow).
	CrashRate float64
	// CrashWindow bounds the rounds in which crashes fire (default 64).
	CrashWindow int
	// DropRate is the per-round, per-directed-edge message loss probability.
	DropRate float64
	// DupRate is the per-round, per-directed-edge duplication probability.
	DupRate float64
	// CorruptRate is the probability that a vertex suffers one state
	// corruption; the round is drawn uniformly from [0, CorruptWindow) and
	// the overwriting source uniformly from its neighbors.
	CorruptRate float64
	// CorruptWindow bounds the rounds in which corruptions fire (default 64).
	CorruptWindow int
}

func (c Config) withDefaults() (Config, error) {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"CrashRate", c.CrashRate}, {"DropRate", c.DropRate},
		{"DupRate", c.DupRate}, {"CorruptRate", c.CorruptRate},
	} {
		if r.v < 0 || r.v > 1 || math.IsNaN(r.v) {
			return c, fmt.Errorf("faults: %s %v outside [0, 1]", r.name, r.v)
		}
	}
	if c.CrashWindow <= 0 {
		c.CrashWindow = 64
	}
	if c.CorruptWindow <= 0 {
		c.CorruptWindow = 64
	}
	return c, nil
}

// Hash kinds keep the per-decision random streams independent.
const (
	kindCrash = iota
	kindCrashRound
	kindDrop
	kindDup
	kindCorrupt
	kindCorruptRound
	kindCorruptSrc
)

// mix is a splitmix64 finalizer over the decision coordinates: uniform,
// stateless, and cheap enough to evaluate per edge per round.
func mix(seed int64, kind, round, a, b int) uint64 {
	x := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, w := range [4]uint64{uint64(kind), uint64(round), uint64(a), uint64(b)} {
		x ^= w + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
	}
	return x
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// Plan is a compiled fault schedule over one graph. It implements
// local.FaultHook; install it with Network.SetFaults. A Plan is immutable
// except for its round cursor, which NextRound advances.
type Plan struct {
	cfg Config

	// crashRound[v] is the round at which v crash-stops, or -1.
	crashRound []int32
	// corruptRound[v] / corruptSrc[v] schedule v's single corruption event
	// (-1 = none). corruptSrc is always a neighbor of v.
	corruptRound []int32
	corruptSrc   []int32

	anyCrash, anyCorrupt bool
	round                int
}

// NewPlan compiles cfg against g. Compilation is O(n); the per-round
// drop/duplication decisions are evaluated lazily.
func NewPlan(g *graph.Graph, cfg Config) (*Plan, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	p := &Plan{
		cfg:          cfg,
		crashRound:   make([]int32, g.N()),
		corruptRound: make([]int32, g.N()),
		corruptSrc:   make([]int32, g.N()),
	}
	for v := 0; v < g.N(); v++ {
		p.crashRound[v] = -1
		p.corruptRound[v] = -1
		p.corruptSrc[v] = -1
		if cfg.CrashRate > 0 && unit(mix(cfg.Seed, kindCrash, 0, v, 0)) < cfg.CrashRate {
			p.crashRound[v] = int32(mix(cfg.Seed, kindCrashRound, 0, v, 0) % uint64(cfg.CrashWindow))
			p.anyCrash = true
		}
		nbrs := g.Neighbors(v)
		if cfg.CorruptRate > 0 && len(nbrs) > 0 &&
			unit(mix(cfg.Seed, kindCorrupt, 0, v, 0)) < cfg.CorruptRate {
			p.corruptRound[v] = int32(mix(cfg.Seed, kindCorruptRound, 0, v, 0) % uint64(cfg.CorruptWindow))
			p.corruptSrc[v] = nbrs[mix(cfg.Seed, kindCorruptSrc, 0, v, 0)%uint64(len(nbrs))]
			p.anyCorrupt = true
		}
	}
	return p, nil
}

// NextRound implements local.FaultHook: it advances the round cursor and
// returns this round's fault view, or nil when the round is provably
// fault-free (keeping the engine on its fast path).
func (p *Plan) NextRound() local.RoundFaults {
	r := p.round
	p.round++
	if !p.anyCrash && !p.anyCorrupt && p.cfg.DropRate == 0 && p.cfg.DupRate == 0 {
		return nil
	}
	return roundView{p: p, r: r}
}

// roundView is one round's immutable fault view; all methods are pure and
// safe to call concurrently from engine workers.
type roundView struct {
	p *Plan
	r int
}

func (rv roundView) Crashed(v int) bool {
	cr := rv.p.crashRound[v]
	return cr >= 0 && rv.r >= int(cr)
}

func (rv roundView) Dropped(from, to int) bool {
	return rv.p.cfg.DropRate > 0 &&
		unit(mix(rv.p.cfg.Seed, kindDrop, rv.r, from, to)) < rv.p.cfg.DropRate
}

func (rv roundView) Duplicated(from, to int) bool {
	return rv.p.cfg.DupRate > 0 &&
		unit(mix(rv.p.cfg.Seed, kindDup, rv.r, from, to)) < rv.p.cfg.DupRate
}

func (rv roundView) Corrupted(v int) (int, bool) {
	if int(rv.p.corruptRound[v]) == rv.r && rv.p.corruptSrc[v] >= 0 {
		return int(rv.p.corruptSrc[v]), true
	}
	return 0, false
}

// Report lists the vertices a Damage call actually touched.
type Report struct {
	// Crashed vertices lost their color entirely.
	Crashed []int
	// Corrupted vertices adopted a neighbor's color.
	Corrupted []int
}

// Total returns the number of damaged vertices.
func (r Report) Total() int { return len(r.Crashed) + len(r.Corrupted) }

// Damage applies the plan's crash and corruption schedules to a finished
// coloring and returns the damaged copy: crashed vertices become uncolored
// (they halted before reporting), corrupted vertices take their scheduled
// source neighbor's original color (manufacturing monochromatic edges).
// The input slice is not modified. Damage is independent of the round
// cursor, so it composes with an engine run driven by the same plan.
func (p *Plan) Damage(colors []int) ([]int, Report) {
	out := make([]int, len(colors))
	copy(out, colors)
	var rep Report
	for v := range out {
		switch {
		case p.crashRound[v] >= 0:
			out[v] = coloring.None
			rep.Crashed = append(rep.Crashed, v)
		case p.corruptRound[v] >= 0:
			out[v] = colors[p.corruptSrc[v]]
			rep.Corrupted = append(rep.Corrupted, v)
		}
	}
	return out, rep
}
