package service

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"deltacoloring/internal/durable"
	"deltacoloring/internal/local"
)

// metrics is a tiny hand-rolled Prometheus registry: each family is
// declared once in newMetrics, with its name and HELP text, and renders in
// declaration order in the standard text exposition format. It keeps the
// repository dependency-free. Counters are atomics; labelled counters and
// histograms carry their own locks; figures that live outside the registry
// are read once per scrape into a scrape and rendered from it.
type metrics struct {
	fams []family

	jobsStarted, jobsCompleted, jobsFailed, jobsRejected, jobsShed,
	jobsQuarantined, watchdogTimeouts, idemJoins, cacheHits,
	cacheMisses *atomic.Uint64

	engineRounds, sparseRounds, activeVertices, skippedVertices *atomic.Uint64

	shardRuns, shardCutEdges, shardBoundaryUpdates, shardStepCalls *atomic.Uint64

	dynMutations, dynRecolored, dynFallbacks, dynFailures, dynRejects,
	dynCheckFails *atomic.Uint64

	dynBatches, backendJobs, phaseRounds *labeledCounter
	dynRecolor, jobDuration              *histogram
}

// scrape holds the figures the server reads at scrape time: queue depth,
// worker count, breaker state, what the job table and cache retain, live
// graphs, and the durability counters aggregated across stores.
type scrape struct {
	queueDepth, workers, breakerState, retainedJobs int
	retainedBytes                                   int64
	dynGraphs                                       int
	wal                                             durable.WALStats
	rec                                             recoverySummary
}

// family is one exposition family: its HELP/TYPE header and the writer of
// its samples.
type family struct {
	name, help, kind string
	samples          func(w io.Writer, name string, sc *scrape)
}

func (m *metrics) add(name, help, kind string, samples func(w io.Writer, name string, sc *scrape)) {
	m.fams = append(m.fams, family{name: name, help: help, kind: kind, samples: samples})
}

// counter registers a plain counter.
func (m *metrics) counter(name, help string) *atomic.Uint64 {
	c := new(atomic.Uint64)
	m.add(name, help, "counter", func(w io.Writer, name string, _ *scrape) {
		fmt.Fprintf(w, "%s %d\n", name, c.Load())
	})
	return c
}

// value registers a family whose one sample is read from the scrape.
func (m *metrics) value(name, help, kind string, read func(sc *scrape) any) {
	m.add(name, help, kind, func(w io.Writer, name string, sc *scrape) {
		fmt.Fprintf(w, "%s %v\n", name, read(sc))
	})
}

// labeledCounter is a counter family with one label, rendered sorted by
// label value.
type labeledCounter struct {
	mu    sync.Mutex
	label string
	vals  map[string]uint64
}

func (m *metrics) labeled(name, help, label string) *labeledCounter {
	c := &labeledCounter{label: label, vals: make(map[string]uint64)}
	m.add(name, help, "counter", c.write)
	return c
}

// add counts n under the label value v; an empty value is not recorded.
func (c *labeledCounter) add(v string, n uint64) {
	if v == "" {
		return
	}
	c.mu.Lock()
	c.vals[v] += n
	c.mu.Unlock()
}

func (c *labeledCounter) write(w io.Writer, name string, _ *scrape) {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.vals))
	for k := range c.vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", name, c.label, escapeLabel(k), c.vals[k])
	}
}

// durationBuckets are the histograms' upper bounds in seconds, ascending;
// +Inf is implied.
var durationBuckets = [...]float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}

// histogram is a wall-time histogram over durationBuckets.
type histogram struct {
	mu     sync.Mutex
	counts [len(durationBuckets) + 1]uint64 // non-cumulative per-bucket counts, the last for +Inf
	sum    float64
	count  uint64
}

func (m *metrics) histogram(name, help string) *histogram {
	h := new(histogram)
	m.add(name, help, "histogram", h.write)
	return h
}

func (h *histogram) observe(d time.Duration) {
	s := d.Seconds()
	i := 0
	for i < len(durationBuckets) && s > durationBuckets[i] {
		i++
	}
	h.mu.Lock()
	h.counts[i]++
	h.sum += s
	h.count++
	h.mu.Unlock()
}

func (h *histogram) write(w io.Writer, name string, _ *scrape) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum := uint64(0)
	for i, ub := range durationBuckets {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, trimFloat(ub), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.count)
	fmt.Fprintf(w, "%s_sum %g\n", name, h.sum)
	fmt.Fprintf(w, "%s_count %d\n", name, h.count)
}

func newMetrics() *metrics {
	m := &metrics{}
	m.jobsStarted = m.counter("deltaserved_jobs_started_total", "Jobs picked up by a worker.")
	m.jobsCompleted = m.counter("deltaserved_jobs_completed_total", "Jobs that produced a verified coloring.")
	m.jobsFailed = m.counter("deltaserved_jobs_failed_total", "Jobs that ended in an error (including cancellations and panics).")
	m.jobsRejected = m.counter("deltaserved_jobs_rejected_total", "Color requests rejected with 429 because the queue was full.")
	m.jobsShed = m.counter("deltaserved_jobs_shed_total", "Color requests shed with 503 by the open circuit breaker.")
	m.jobsQuarantined = m.counter("deltaserved_jobs_quarantined_total", "Jobs quarantined because their run panicked.")
	m.watchdogTimeouts = m.counter("deltaserved_watchdog_timeouts_total", "Hung runs the watchdog converted into 504s.")
	m.idemJoins = m.counter("deltaserved_idempotent_joins_total", "Retried POSTs joined to an existing job via idempotency key.")
	m.cacheHits = m.counter("deltaserved_cache_hits_total", "Color requests answered from the result cache.")
	m.cacheMisses = m.counter("deltaserved_cache_misses_total", "Color requests that missed the result cache.")
	m.engineRounds = m.counter("deltaserved_engine_rounds_total", "State-engine rounds executed across all jobs (dense + sparse).")
	m.sparseRounds = m.counter("deltaserved_engine_sparse_rounds_total", "State-engine rounds that ran on the frontier-scheduled sparse path.")
	m.activeVertices = m.counter("deltaserved_engine_active_vertices_total", "Vertex evaluations performed by the state engine.")
	m.skippedVertices = m.counter("deltaserved_engine_skipped_vertices_total", "Vertex evaluations skipped by frontier scheduling.")
	m.shardRuns = m.counter("deltaserved_shard_runs_total", "Completed sharded (?shards=) coloring runs.")
	m.shardCutEdges = m.counter("deltaserved_shard_cut_edges_total", "Parent edges cut by shard partitions across completed sharded runs.")
	m.shardBoundaryUpdates = m.counter("deltaserved_shard_boundary_updates_total", "Boundary-state messages routed across the cut by sharded runs.")
	m.shardStepCalls = m.counter("deltaserved_shard_step_calls_total", "Worker Step calls issued by sharded runs (quiet shards are skipped).")

	m.value("deltaserved_queue_depth", "Jobs currently waiting in the FIFO queue.", "gauge", func(sc *scrape) any { return sc.queueDepth })
	m.value("deltaserved_workers", "Size of the worker pool.", "gauge", func(sc *scrape) any { return sc.workers })
	m.value("deltaserved_breaker_state", "Circuit breaker state (0 closed, 1 open: shedding, one probe per cooldown).", "gauge", func(sc *scrape) any { return sc.breakerState })
	m.value("deltaserved_jobs_retained", "Job records held for polling and idempotency.", "gauge", func(sc *scrape) any { return sc.retainedJobs })
	m.value("deltaserved_retained_bytes", "Bytes of the responses the job table and the result cache hold, each counted once.", "gauge", func(sc *scrape) any { return sc.retainedBytes })

	m.dynMutations = m.counter("deltaserved_dynamic_mutations_total", "Mutations applied to live dynamic graphs.")
	m.dynRecolored = m.counter("deltaserved_dynamic_recolored_total", "Vertices recolored by dynamic maintenance.")
	m.dynFallbacks = m.counter("deltaserved_dynamic_fallbacks_total", "Dynamic batches salvaged by a full recompute after a failed incremental attempt.")
	m.dynFailures = m.counter("deltaserved_dynamic_failures_total", "Dynamic batches whose maintenance or validation failed.")
	m.dynRejects = m.counter("deltaserved_dynamic_rejected_total", "Mutation batches rejected with 429 because an apply queue was full.")
	m.dynCheckFails = m.counter("deltaserved_dynamic_check_failures_total", "Colorings that failed the ?check=1 oracle and were refused.")
	m.value("deltaserved_dynamic_graphs", "Live dynamic graph stores.", "gauge", func(sc *scrape) any { return sc.dynGraphs })
	m.dynBatches = m.labeled("deltaserved_dynamic_batches_total", "Applied dynamic batches by maintenance mode.", "mode")
	m.dynRecolor = m.histogram("deltaserved_dynamic_recolor_seconds", "Wall time of dynamic maintenance per applied batch.")

	m.value("deltaserved_wal_appends_total", "Mutation batches appended to graph write-ahead logs.", "counter", func(sc *scrape) any { return sc.wal.Appends })
	m.value("deltaserved_wal_append_bytes_total", "Bytes appended to graph write-ahead logs.", "counter", func(sc *scrape) any { return sc.wal.AppendBytes })
	m.value("deltaserved_wal_fsyncs_total", "fsync calls issued by graph write-ahead logs.", "counter", func(sc *scrape) any { return sc.wal.Fsyncs })
	m.value("deltaserved_wal_append_errors_total", "Batches whose WAL append or flush failed (durability voided, answered 500).", "counter", func(sc *scrape) any { return sc.wal.AppendErrors })
	m.value("deltaserved_wal_checkpoints_total", "Checkpoint snapshots written (creation, cadence, shutdown, recovery).", "counter", func(sc *scrape) any { return sc.wal.Checkpoints })
	m.value("deltaserved_recovery_graphs_total", "Durable graph directories found at startup.", "counter", func(sc *scrape) any { return sc.rec.graphs })
	m.value("deltaserved_recovery_unhealthy_total", "Graphs recovered unhealthy (serving last-known-good or 503).", "counter", func(sc *scrape) any { return sc.rec.unhealthy })
	m.value("deltaserved_recovery_failed_total", "Graph directories whose recovery failed outright (skipped).", "counter", func(sc *scrape) any { return sc.rec.failed })
	m.value("deltaserved_recovery_replayed_total", "WAL tail records replayed across all recovered graphs.", "counter", func(sc *scrape) any { return sc.rec.replayed })
	m.value("deltaserved_recovery_skipped_total", "Duplicate WAL records skipped during replay (already in a checkpoint).", "counter", func(sc *scrape) any { return sc.rec.skipped })
	m.value("deltaserved_recovery_truncated_bytes_total", "Torn or corrupt WAL tail bytes truncated during recovery.", "counter", func(sc *scrape) any { return sc.rec.truncated })
	m.value("deltaserved_recovery_seconds", "Total wall time spent recovering durable graphs at startup.", "gauge", func(sc *scrape) any { return float64(sc.rec.nanos) / 1e9 })

	m.backendJobs = m.labeled("deltaserved_backend_jobs_total", "Completed coloring runs by resolved pipeline backend.", "backend")
	m.phaseRounds = m.labeled("deltaserved_phase_rounds_total", "LOCAL rounds charged per pipeline phase, harvested from local.Span tracing.", "phase")
	m.jobDuration = m.histogram("deltaserved_job_duration_seconds", "Wall time of completed coloring runs.")
	return m
}

// addSpan accumulates one closed phase span; it is the local.Network span
// hook installed for every run.
func (m *metrics) addSpan(sp local.Span) {
	if sp.Rounds > 0 {
		m.phaseRounds.add(sp.Name, uint64(sp.Rounds))
	}
	if sp.EngineRounds > 0 {
		m.engineRounds.Add(uint64(sp.EngineRounds))
		m.sparseRounds.Add(uint64(sp.SparseRounds))
		m.activeVertices.Add(uint64(sp.ActiveVertices))
		m.skippedVertices.Add(uint64(sp.SkippedVertices))
	}
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// writeTo renders every family in declaration order.
func (m *metrics) writeTo(w io.Writer, sc *scrape) {
	for _, f := range m.fams {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		f.samples(w, f.name, sc)
	}
}

func trimFloat(f float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.3f", f), "0"), ".")
}
