package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"deltacoloring"
	"deltacoloring/internal/local"
)

// span is one timed interval at a layer boundary. The spans of one
// operation share Op; Parent is the ID of the span that caused this one
// (0 for the operation's root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps a traced run's spans in memory. Spans are recorded around
// public calls into each layer, from this benchmark's own code; a nil
// tracer records nothing, which is how untraced runs stay untraced.
type tracer struct {
	base time.Time

	mu    sync.Mutex
	ops   int64
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// root opens a new operation whose root span covers [start, end] and
// returns the operation and span IDs. The root's self time is the part of
// the operation no layer span covers: the "untraced" remainder.
func (t *tracer) root(name string, start, end time.Time) (op, id int64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	t.ops++
	op = t.ops
	t.mu.Unlock()
	return op, t.child(op, 0, name, start, end)
}

// child records a span of operation op under parent and returns its ID.
func (t *tracer) child(op, parent int64, name string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.base).Nanoseconds(), End: end.Sub(t.base).Nanoseconds()})
	return id
}

// phaseClock times the phase spans a run reports through a SpanHook. The
// hook fires when a phase closes and carries no start time; the core,
// dynamic and shard phases are sequential and never nest, so each phase is
// timed from the previous close (or the run's start) to its own close. Work
// between two phases is charged to the later one.
type phaseClock struct {
	last   time.Time
	phases []timedPhase
}

type timedPhase struct {
	name       string
	rounds     int
	start, end time.Time
}

func newPhaseClock() *phaseClock { return &phaseClock{last: time.Now()} }

func (c *phaseClock) hook(sp local.Span) {
	now := time.Now()
	c.phases = append(c.phases, timedPhase{sp.Name, sp.Rounds, c.last, now})
	c.last = now
}

// pipelineTotals sums per-phase time and rounds and the engine's frontier
// counters over pipeline runs.
type pipelineTotals struct {
	runs            int
	phaseMS         map[string]float64
	phaseRounds     map[string]float64
	engine, sparse  float64
	active, skipped int64
}

func (p *pipelineTotals) add(clock *phaseClock, fs deltacoloring.FrontierStats) {
	if p.phaseMS == nil {
		p.phaseMS, p.phaseRounds = map[string]float64{}, map[string]float64{}
	}
	p.runs++
	for _, ph := range clock.phases {
		p.phaseMS[ph.name] += ms(ph.end.Sub(ph.start))
		p.phaseRounds[ph.name] += float64(ph.rounds)
	}
	p.engine += float64(fs.EngineRounds)
	p.sparse += float64(fs.SparseRounds)
	p.active += fs.ActiveVertices
	p.skipped += fs.SkippedVertices
}

// report writes per-run means: every core phase (0 where a run never
// opened it) and the local engine's counters.
func (p *pipelineTotals) report(m map[string]float64) {
	if p.runs == 0 {
		return
	}
	runs := float64(p.runs)
	for _, name := range corePhases {
		m[corePhaseMetric(name)+".ms"] = p.phaseMS[name] / runs
		m[corePhaseMetric(name)+".rounds"] = p.phaseRounds[name] / runs
	}
	m["local.engine_rounds"] = p.engine / runs
	m["local.sparse_rounds"] = p.sparse / runs
	if total := p.active + p.skipped; total > 0 {
		m["local.skipped_frac"] = float64(p.skipped) / float64(total)
	}
}

// layerTime is one row of the self-time table.
type layerTime struct {
	name   string
	spans  int
	selfMS float64
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval its children cover. Root spans contribute their self time
// as "untraced". It also returns the untraced share of all operations'
// wall time and the lowest per-operation coverage.
func (t *tracer) selfTimes() (rows []layerTime, untracedFrac, minCoverage float64) {
	kids := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	byName := make(map[string]*layerTime)
	var untraced, total int64
	minCoverage = 1
	for _, s := range t.spans {
		self := s.End - s.Start - covered(s, kids[s.ID])
		name := s.Name
		if s.Parent == 0 {
			dur := s.End - s.Start
			untraced += self
			total += dur
			if dur > 0 {
				minCoverage = min(minCoverage, 1-float64(self)/float64(dur))
			}
			name = "untraced"
		}
		r := byName[name]
		if r == nil {
			r = &layerTime{name: name}
			byName[name] = r
		}
		r.spans++
		r.selfMS += float64(self) / 1e6
	}
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].selfMS > rows[j].selfMS })
	if total > 0 {
		untracedFrac = float64(untraced) / float64(total)
	}
	return rows, untracedFrac, minCoverage
}

// covered returns how much of s's interval the union of children covers.
func covered(s span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, end int64
	for _, x := range iv {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			sum += x[1] - end
			end = x[1]
		}
	}
	return sum
}

// printSelfTimes writes the self-time table, one row per span name.
func printSelfTimes(w io.Writer, workload string, rows []layerTime, ops int64) {
	fmt.Fprintf(w, "%s: self time by layer over %d traced operations\n", workload, ops)
	var total float64
	for _, r := range rows {
		total += r.selfMS
	}
	for _, r := range rows {
		share := 0.0
		if total > 0 {
			share = 100 * r.selfMS / total
		}
		fmt.Fprintf(w, "  %-28s %8d spans %12.1f ms %6.1f%%\n", r.name, r.spans, r.selfMS, share)
	}
}

// writeSpans writes the spans of one or more traced runs as JSON.
func writeSpans(path string, runs map[string][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"workloads": runs}); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
