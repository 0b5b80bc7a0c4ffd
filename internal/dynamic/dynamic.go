// Package dynamic is the deltalive subsystem: a long-lived graph store whose
// coloring is maintained incrementally under a stream of mutation batches.
//
// The paper's LOCAL model is fundamentally about locality — a change at one
// vertex should only cost work in a small neighborhood — and this package
// cashes that promise in. Each applied batch becomes a frontier seed: the
// scoped damage detector (internal/repair.DetectSeeded) scans the touched
// closed neighborhoods, the tight/grow planner builds a deg+1 list-coloring
// instance over exactly the damaged region, and a frontier-scheduled greedy
// solve recolors it in sparse rounds on the root network. Only when the
// dirty region grows too large, the tracked palette drifts past the current
// Δ+1, or maintenance itself fails does the store fall back to a full
// recompute (see DESIGN.md §11 for the exact validity conditions).
//
// The store is versioned: every applied batch produces a new immutable CSR
// snapshot (graph.ApplyEdits) and bumps the version. The last snapshot whose
// coloring verified is retained as last-known-good, so a maintenance failure
// (e.g. injected faults crashing the recolor rounds) never leaves readers
// with a silently invalid coloring: the store turns unhealthy and serves the
// stale-but-valid snapshot until a later batch or explicit Recompute heals it.
package dynamic

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"deltacoloring/internal/backend"
	"deltacoloring/internal/coloring"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/local"
)

// Mode names how a batch's coloring was maintained.
const (
	ModeIncremental = "incremental"
	ModeRecompute   = "recompute"
)

// ErrMaintenance marks an Apply or Recompute failure that is the store's
// fault, not the batch's: the structure advanced (for Apply) but its coloring
// could not be maintained, and the store turned unhealthy. Callers separate
// it from validation rejections with errors.Is; the durable layer logs the
// batch anyway because the structural change was acknowledged.
var ErrMaintenance = errors.New("maintenance failed")

// Options tunes a Live store. The zero value is usable.
type Options struct {
	// FallbackDirtyFraction is the incremental-maintenance ceiling: when a
	// batch touches more than this fraction of the vertices, maintenance
	// skips straight to a full recompute. 0 means the default of 0.25;
	// negative disables incremental maintenance entirely.
	FallbackDirtyFraction float64
	// Workers sets the maintenance networks' Exchange worker count
	// (0 keeps the engine default of 1).
	Workers int
	// NetHook, when non-nil, runs on every maintenance network before any
	// rounds execute. It is the chaos and conformance seam: tests install
	// fault plans (local.SetFaults) or the invariant harness through it.
	NetHook func(*local.Network)
	// Backend, when non-empty, names a pipeline backend
	// (internal/backend) that full recomputes try first: on dense structures
	// it maintains a true Δ-coloring instead of the greedy Δ+1 palette. Any
	// backend failure (e.g. the structure drifted sparse under mutations)
	// falls back to the greedy deg+1 path, preserving valid-or-unhealthy.
	// New rejects unknown names.
	Backend string
}

func (o Options) withDefaults() Options {
	if o.FallbackDirtyFraction == 0 {
		o.FallbackDirtyFraction = 0.25
	}
	return o
}

// Snapshot is one immutable version of the store: the CSR graph, a complete
// proper coloring of it with colors in [0, NumColors), and the version that
// produced it. Colors is owned by the snapshot; callers must not mutate it.
type Snapshot struct {
	G         *graph.Graph
	Colors    []int
	NumColors int
	Version   int64
}

// ApplyResult reports what maintaining one batch did.
type ApplyResult struct {
	// Version is the store version after the batch.
	Version int64 `json:"version"`
	// Mutations is the batch size.
	Mutations int `json:"mutations"`
	// Mode is ModeIncremental or ModeRecompute.
	Mode string `json:"mode"`
	// Fallback reports that an incremental attempt failed and the batch was
	// salvaged by a recompute.
	Fallback bool `json:"fallback,omitempty"`
	// Touched counts the vertices the batch edited (frontier seeds).
	Touched int `json:"touched"`
	// Damaged counts the vertices the scoped detector flagged.
	Damaged int `json:"damaged"`
	// Recolored counts the vertices whose color actually changed hands.
	Recolored int `json:"recolored"`
	// NumColors is the maintained palette bound after the batch.
	NumColors int `json:"num_colors"`
	// Rounds is the LOCAL round cost of the maintenance.
	Rounds int `json:"rounds"`
	// RecolorNanos is the wall time spent in coloring maintenance alone
	// (detection, planning, recoloring, verification), excluding the
	// structural CSR rebuild the batch pays in either mode.
	RecolorNanos int64 `json:"recolor_ns,omitempty"`
}

// Stats aggregates a store's lifetime maintenance accounting.
type Stats struct {
	Batches     int64 `json:"batches"`
	Mutations   int64 `json:"mutations"`
	Incremental int64 `json:"incremental"`
	Recomputes  int64 `json:"recomputes"`
	Fallbacks   int64 `json:"fallbacks"`
	Failures    int64 `json:"failures"`
	Recolored   int64 `json:"recolored"`
	Rounds      int64 `json:"rounds"`
}

// Live is a dynamic graph with a maintained coloring. All methods are safe
// for concurrent use. Writers (Apply, Recompute) serialize on applyMu and
// hold the state lock only to read a consistent view and to install the
// result, so readers (Snapshot, Stats, Info) never wait behind an in-flight
// maintenance — a long recolor cannot stall the serving path.
type Live struct {
	applyMu sync.Mutex // serializes Apply/Recompute end to end

	mu        sync.Mutex // guards everything below
	opts      Options
	g         *graph.Graph
	colors    []int
	numColors int
	removed   []bool // tombstoned slots (isolated, color retained)
	version   int64
	healthy   bool
	lastGood  *Snapshot
	stats     Stats
}

// New creates a store over g and colors it from scratch (a ModeRecompute
// maintenance, version 1). The initial coloring uses at most Δ+1 colors
// (exactly Δ when a pipeline backend is configured and applies).
func New(g *graph.Graph, opts Options) (*Live, error) {
	if opts.Backend != "" {
		if _, err := backend.Get(opts.Backend); err != nil {
			return nil, fmt.Errorf("dynamic: %w", err)
		}
	}
	l := &Live{
		opts:    opts.withDefaults(),
		g:       g,
		colors:  make([]int, g.N()),
		removed: make([]bool, g.N()),
		version: 1,
	}
	res := &ApplyResult{Version: 1, Mode: ModeRecompute}
	if err := l.recompute(g, l.colors, res); err != nil {
		return nil, fmt.Errorf("dynamic: initial coloring: %w", err)
	}
	l.numColors = res.NumColors
	l.healthy = true
	l.lastGood = l.snapshotLocked()
	l.stats.Recomputes++
	l.stats.Rounds += int64(res.Rounds)
	return l, nil
}

// Apply validates and applies one mutation batch, then maintains the
// coloring: incrementally when the incremental-validity conditions hold,
// by full recompute otherwise (Fallback marks a failed incremental attempt
// that was salvaged). On a maintenance error the structure still advances —
// the mutations are not lost — but the store turns unhealthy: Snapshot
// reports !ok, LastGood keeps serving the pre-batch coloring, and the next
// Apply or Recompute heals via the recompute path.
func (l *Live) Apply(batch []Mutation) (*ApplyResult, error) {
	l.applyMu.Lock()
	defer l.applyMu.Unlock()
	if len(batch) == 0 {
		return nil, errors.New("dynamic: empty mutation batch")
	}
	// A consistent view of the state. The slices are safe to read after the
	// lock drops: installs replace them wholesale (never mutate in place),
	// and applyMu keeps any other writer out until we are done.
	l.mu.Lock()
	g, curColors, curRemoved := l.g, l.colors, l.removed
	prevK, healthy, version := l.numColors, l.healthy, l.version
	l.mu.Unlock()

	p, err := planBatch(g, curRemoved, batch)
	if err != nil {
		return nil, err // rejected batch: state unchanged
	}
	g2, err := graph.ApplyEdits(g, p.newN, p.add, p.remove)
	if err != nil {
		return nil, fmt.Errorf("dynamic: %w", err)
	}
	colors := make([]int, g2.N())
	copy(colors, curColors)
	for _, v := range p.added {
		colors[v] = coloring.None
	}
	removed := make([]bool, g2.N())
	copy(removed, curRemoved)
	for _, v := range p.removed {
		removed[v] = true
	}

	res := &ApplyResult{
		Version:   version + 1,
		Mutations: len(batch),
		Touched:   len(p.touched),
	}

	incremental := healthy &&
		l.opts.FallbackDirtyFraction > 0 &&
		float64(len(p.touched)) <= l.opts.FallbackDirtyFraction*float64(g2.N()) &&
		prevK <= g2.MaxDegree()+1
	mstart := time.Now()
	defer func() { res.RecolorNanos = time.Since(mstart).Nanoseconds() }()
	var merr error
	if incremental {
		merr = l.maintainIncremental(g2, colors, p, prevK, res)
		if merr == nil {
			res.Mode = ModeIncremental
		} else {
			res.Fallback = true
		}
	}
	if !incremental || merr != nil {
		if rerr := l.recompute(g2, colors, res); rerr != nil {
			// The batch is structurally applied but its coloring is not
			// maintained: advance the version, keep lastGood, go unhealthy.
			l.mu.Lock()
			l.g, l.colors, l.removed = g2, colors, removed
			l.version = res.Version
			l.healthy = false
			l.stats.Batches++
			l.stats.Mutations += int64(len(batch))
			if res.Fallback {
				l.stats.Fallbacks++
			}
			l.stats.Failures++
			l.mu.Unlock()
			return nil, fmt.Errorf("dynamic: %w at version %d: %w", ErrMaintenance, res.Version, rerr)
		}
		res.Mode = ModeRecompute
	}

	l.mu.Lock()
	l.g, l.colors, l.removed = g2, colors, removed
	l.version = res.Version
	l.numColors = res.NumColors
	l.healthy = true
	l.lastGood = l.snapshotLocked()
	l.stats.Batches++
	l.stats.Mutations += int64(len(batch))
	switch res.Mode {
	case ModeIncremental:
		l.stats.Incremental++
	case ModeRecompute:
		l.stats.Recomputes++
	}
	if res.Fallback {
		l.stats.Fallbacks++
	}
	l.stats.Recolored += int64(res.Recolored)
	l.stats.Rounds += int64(res.Rounds)
	l.mu.Unlock()
	return res, nil
}

// Recompute forces a full recoloring of the current structure, compacting
// the palette back to at most Δ+1 colors and healing an unhealthy store.
func (l *Live) Recompute() (*ApplyResult, error) {
	l.applyMu.Lock()
	defer l.applyMu.Unlock()
	l.mu.Lock()
	g, version := l.g, l.version
	l.mu.Unlock()
	colors := make([]int, g.N())
	res := &ApplyResult{Version: version + 1, Mode: ModeRecompute}
	mstart := time.Now()
	defer func() { res.RecolorNanos = time.Since(mstart).Nanoseconds() }()
	if err := l.recompute(g, colors, res); err != nil {
		l.mu.Lock()
		l.healthy = false
		l.stats.Failures++
		l.mu.Unlock()
		return nil, fmt.Errorf("dynamic: recompute %w: %w", ErrMaintenance, err)
	}
	l.mu.Lock()
	l.colors = colors
	l.version = res.Version
	l.numColors = res.NumColors
	l.healthy = true
	l.lastGood = l.snapshotLocked()
	l.stats.Batches++
	l.stats.Recomputes++
	l.stats.Recolored += int64(res.Recolored)
	l.stats.Rounds += int64(res.Rounds)
	l.mu.Unlock()
	return res, nil
}

// Snapshot returns the current version and whether it is healthy (its
// coloring maintained and verified). When ok is false the returned snapshot
// is the current — possibly invalid — state; serve LastGood instead.
func (l *Live) Snapshot() (snap *Snapshot, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapshotLocked(), l.healthy
}

// LastGood returns the newest snapshot whose coloring verified, or nil if
// none exists (New failed mid-construction — callers never see that).
func (l *Live) LastGood() *Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastGood
}

// Healthy reports whether the current version's coloring is maintained.
func (l *Live) Healthy() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.healthy
}

// Stats returns a copy of the lifetime maintenance counters.
func (l *Live) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Info is a compact description of the store for listings and metrics.
type Info struct {
	N         int   `json:"n"`
	M         int   `json:"m"`
	MaxDegree int   `json:"max_degree"`
	Removed   int   `json:"removed_vertices"`
	Version   int64 `json:"version"`
	NumColors int   `json:"num_colors"`
	Healthy   bool  `json:"healthy"`
	// Backend is the configured recompute backend, empty for greedy-only.
	Backend string `json:"backend,omitempty"`
}

// Info returns the store's current shape.
func (l *Live) Info() Info {
	l.mu.Lock()
	defer l.mu.Unlock()
	removed := 0
	for _, r := range l.removed {
		if r {
			removed++
		}
	}
	return Info{
		N:         l.g.N(),
		M:         l.g.M(),
		MaxDegree: l.g.MaxDegree(),
		Removed:   removed,
		Version:   l.version,
		NumColors: l.numColors,
		Healthy:   l.healthy,
		Backend:   l.opts.Backend,
	}
}

// snapshotLocked clones the current state into an immutable Snapshot.
func (l *Live) snapshotLocked() *Snapshot {
	colors := make([]int, len(l.colors))
	copy(colors, l.colors)
	return &Snapshot{G: l.g, Colors: colors, NumColors: l.numColors, Version: l.version}
}

// Version returns the store's current version (it advances on every applied
// batch, including batches whose maintenance failed).
func (l *Live) Version() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.version
}

// State is the complete durable image of a Live store: everything a process
// needs to reconstruct it after a crash. It is what internal/durable
// serializes into checkpoint snapshots. All slices are owned by the State.
type State struct {
	G         *graph.Graph
	Colors    []int
	NumColors int
	Removed   []bool
	Version   int64
	Healthy   bool
	// LastGood is the newest verified snapshot; when Healthy it equals the
	// current state and checkpoint writers may elide it.
	LastGood *Snapshot
	Stats    Stats
	// FallbackDirtyFraction and Backend are the store-identity options; the
	// process-level ones (Workers, NetHook) are supplied fresh at recovery.
	FallbackDirtyFraction float64
	Backend               string
}

// State deep-copies the store's durable image under the state lock.
func (l *Live) State() State {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := State{
		G:                     l.g,
		Colors:                append([]int(nil), l.colors...),
		NumColors:             l.numColors,
		Removed:               append([]bool(nil), l.removed...),
		Version:               l.version,
		Healthy:               l.healthy,
		Stats:                 l.stats,
		FallbackDirtyFraction: l.opts.FallbackDirtyFraction,
		Backend:               l.opts.Backend,
	}
	if l.lastGood != nil {
		lg := *l.lastGood
		lg.Colors = append([]int(nil), l.lastGood.Colors...)
		st.LastGood = &lg
	}
	return st
}

// NewFromState reconstructs a store from a durable image without recoloring:
// the recovery constructor behind internal/durable. It validates shape (slice
// lengths against the graph) and the options, and trusts the caller for
// coloring validity — the durable layer re-verifies every recovered coloring
// against the sequential oracle and downgrades Healthy before calling this,
// so an invalid checkpoint is never served as healthy. Process-level options
// (Workers, NetHook) come from opts; store-identity options (Backend,
// FallbackDirtyFraction) come from the state itself.
func NewFromState(st State, opts Options) (*Live, error) {
	if st.G == nil {
		return nil, errors.New("dynamic: state has no graph")
	}
	n := st.G.N()
	if len(st.Colors) != n || len(st.Removed) != n {
		return nil, fmt.Errorf("dynamic: state shape mismatch: n=%d, %d colors, %d removed flags",
			n, len(st.Colors), len(st.Removed))
	}
	if st.Version < 1 {
		return nil, fmt.Errorf("dynamic: state version %d < 1", st.Version)
	}
	if st.LastGood != nil && len(st.LastGood.Colors) != st.LastGood.G.N() {
		return nil, fmt.Errorf("dynamic: last-good shape mismatch: n=%d, %d colors",
			st.LastGood.G.N(), len(st.LastGood.Colors))
	}
	opts.FallbackDirtyFraction = st.FallbackDirtyFraction
	opts.Backend = st.Backend
	if opts.Backend != "" {
		if _, err := backend.Get(opts.Backend); err != nil {
			return nil, fmt.Errorf("dynamic: %w", err)
		}
	}
	l := &Live{
		opts:      opts.withDefaults(),
		g:         st.G,
		colors:    append([]int(nil), st.Colors...),
		numColors: st.NumColors,
		removed:   append([]bool(nil), st.Removed...),
		version:   st.Version,
		healthy:   st.Healthy,
		stats:     st.Stats,
	}
	if st.LastGood != nil {
		lg := *st.LastGood
		lg.Colors = append([]int(nil), st.LastGood.Colors...)
		l.lastGood = &lg
	} else if st.Healthy {
		l.lastGood = l.snapshotLocked()
	}
	return l, nil
}

// Invalidate marks the current coloring as failed post-hoc verification (the
// recovery path's oracle found a violation the in-band checks missed). The
// store turns unhealthy; if last-good is the same version it is dropped too,
// so readers get 503 rather than the refuted snapshot.
func (l *Live) Invalidate() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.healthy = false
	if l.lastGood != nil && l.lastGood.Version == l.version {
		l.lastGood = nil
	}
}
