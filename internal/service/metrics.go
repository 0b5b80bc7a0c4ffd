package service

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"deltacoloring/internal/durable"
	"deltacoloring/internal/dynamic"
	"deltacoloring/internal/local"
)

// metrics is a tiny hand-rolled Prometheus registry: counters, gauges, one
// wall-time histogram, and a per-phase round counter fed by the LOCAL
// simulator's span tracing. It keeps the repository dependency-free while
// emitting the standard text exposition format.
type metrics struct {
	mu sync.Mutex

	jobsStarted      uint64
	jobsCompleted    uint64
	jobsFailed       uint64
	jobsRejected     uint64
	jobsShed         uint64
	jobsRetried      uint64
	jobsQuarantined  uint64
	watchdogTimeouts uint64
	idemJoins        uint64
	cacheHits        uint64
	cacheMisses      uint64

	phaseRounds map[string]uint64
	backendJobs map[string]uint64 // backend name -> completed jobs

	dynMutations  uint64
	dynRecolored  uint64
	dynFallbacks  uint64
	dynFailures   uint64
	dynRejects    uint64
	dynCheckFails uint64
	dynBatches    map[string]uint64 // mode -> applied batches
	dynBuckets    []float64
	dynBucketCnts []uint64
	dynDurSum     float64
	dynDurCount   uint64

	engineRounds    uint64
	sparseRounds    uint64
	activeVertices  uint64
	skippedVertices uint64

	shardRuns            uint64
	shardCutEdges        uint64
	shardBoundaryUpdates uint64
	shardStepCalls       uint64

	buckets      []float64 // upper bounds in seconds, ascending; +Inf implied
	bucketCounts []uint64  // non-cumulative per-bucket counts, len = len(buckets)+1
	durSum       float64
	durCount     uint64
}

func newMetrics() *metrics {
	return &metrics{
		phaseRounds:   make(map[string]uint64),
		backendJobs:   make(map[string]uint64),
		buckets:       []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10},
		bucketCounts:  make([]uint64, 8),
		dynBatches:    make(map[string]uint64),
		dynBuckets:    []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10},
		dynBucketCnts: make([]uint64, 8),
	}
}

func (m *metrics) jobStarted()     { m.mu.Lock(); m.jobsStarted++; m.mu.Unlock() }
func (m *metrics) jobFailed()      { m.mu.Lock(); m.jobsFailed++; m.mu.Unlock() }
func (m *metrics) jobRejected()    { m.mu.Lock(); m.jobsRejected++; m.mu.Unlock() }
func (m *metrics) jobShed()        { m.mu.Lock(); m.jobsShed++; m.mu.Unlock() }
func (m *metrics) jobRetried()     { m.mu.Lock(); m.jobsRetried++; m.mu.Unlock() }
func (m *metrics) jobQuarantined() { m.mu.Lock(); m.jobsQuarantined++; m.mu.Unlock() }
func (m *metrics) watchdogFired()  { m.mu.Lock(); m.watchdogTimeouts++; m.mu.Unlock() }
func (m *metrics) idemJoin()       { m.mu.Lock(); m.idemJoins++; m.mu.Unlock() }
func (m *metrics) cacheHit()       { m.mu.Lock(); m.cacheHits++; m.mu.Unlock() }
func (m *metrics) cacheMiss()      { m.mu.Lock(); m.cacheMisses++; m.mu.Unlock() }

// jobCompleted records a successful run and its wall time.
func (m *metrics) jobCompleted(d time.Duration) {
	s := d.Seconds()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobsCompleted++
	m.durSum += s
	m.durCount++
	i := 0
	for i < len(m.buckets) && s > m.buckets[i] {
		i++
	}
	m.bucketCounts[i]++
}

// backendJob records one completed run under its resolved backend name.
func (m *metrics) backendJob(name string) {
	if name == "" {
		return
	}
	m.mu.Lock()
	m.backendJobs[name]++
	m.mu.Unlock()
}

// shardRun records one completed sharded coloring run and its cross-cut
// traffic counters.
func (m *metrics) shardRun(cutEdges, boundaryUpdates, stepCalls int) {
	m.mu.Lock()
	m.shardRuns++
	m.shardCutEdges += uint64(cutEdges)
	m.shardBoundaryUpdates += uint64(boundaryUpdates)
	m.shardStepCalls += uint64(stepCalls)
	m.mu.Unlock()
}

// dynBatch records one applied mutation batch and its recolor latency.
func (m *metrics) dynBatch(res *dynamic.ApplyResult, d time.Duration) {
	s := d.Seconds()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dynMutations += uint64(res.Mutations)
	m.dynRecolored += uint64(res.Recolored)
	if res.Fallback {
		m.dynFallbacks++
	}
	m.dynBatches[res.Mode]++
	m.dynDurSum += s
	m.dynDurCount++
	i := 0
	for i < len(m.dynBuckets) && s > m.dynBuckets[i] {
		i++
	}
	m.dynBucketCnts[i]++
}

// dynFailure records one batch whose maintenance (or validation) failed.
func (m *metrics) dynFailure() { m.mu.Lock(); m.dynFailures++; m.mu.Unlock() }

func (m *metrics) dynRejected() { m.mu.Lock(); m.dynRejects++; m.mu.Unlock() }

// snapshotDynRejects reads the mutation-429 counter (test accessor).
func (m *metrics) snapshotDynRejects() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dynRejects
}
func (m *metrics) dynCheckFailed() { m.mu.Lock(); m.dynCheckFails++; m.mu.Unlock() }

// addSpan accumulates one closed phase span; it is the local.Network span
// hook installed for every run.
func (m *metrics) addSpan(sp local.Span) {
	if sp.Rounds <= 0 && sp.EngineRounds <= 0 {
		return
	}
	m.mu.Lock()
	if sp.Rounds > 0 {
		m.phaseRounds[sp.Name] += uint64(sp.Rounds)
	}
	if sp.EngineRounds > 0 {
		m.engineRounds += uint64(sp.EngineRounds)
		m.sparseRounds += uint64(sp.SparseRounds)
		m.activeVertices += uint64(sp.ActiveVertices)
		m.skippedVertices += uint64(sp.SkippedVertices)
	}
	m.mu.Unlock()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// writeTo renders the registry in Prometheus text exposition format.
// Gauges that live outside the registry (queue depth, worker count, what
// the job table and cache retain) and the durability counters (aggregated
// across stores) are passed in by the server at scrape time.
func (m *metrics) writeTo(w io.Writer, queueDepth, workers, breakerState, retainedJobs int, retainedBytes int64, dynGraphs int, wal durable.WALStats, rec recoverySummary) {
	m.mu.Lock()
	defer m.mu.Unlock()

	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("deltaserved_jobs_started_total", "Jobs picked up by a worker.", m.jobsStarted)
	counter("deltaserved_jobs_completed_total", "Jobs that produced a verified coloring.", m.jobsCompleted)
	counter("deltaserved_jobs_failed_total", "Jobs that ended in an error (including cancellations and panics).", m.jobsFailed)
	counter("deltaserved_jobs_rejected_total", "Color requests rejected with 429 because the queue was full.", m.jobsRejected)
	counter("deltaserved_jobs_shed_total", "Color requests shed with 503 by the open circuit breaker.", m.jobsShed)
	counter("deltaserved_job_retries_total", "Attempt re-runs after transient server-side failures.", m.jobsRetried)
	counter("deltaserved_jobs_quarantined_total", "Jobs quarantined because their final attempt panicked.", m.jobsQuarantined)
	counter("deltaserved_watchdog_timeouts_total", "Hung runs the watchdog converted into 504s.", m.watchdogTimeouts)
	counter("deltaserved_idempotent_joins_total", "Retried POSTs joined to an existing job via idempotency key.", m.idemJoins)
	counter("deltaserved_cache_hits_total", "Color requests answered from the result cache.", m.cacheHits)
	counter("deltaserved_cache_misses_total", "Color requests that missed the result cache.", m.cacheMisses)
	counter("deltaserved_engine_rounds_total", "State-engine rounds executed across all jobs (dense + sparse).", m.engineRounds)
	counter("deltaserved_engine_sparse_rounds_total", "State-engine rounds that ran on the frontier-scheduled sparse path.", m.sparseRounds)
	counter("deltaserved_engine_active_vertices_total", "Vertex evaluations performed by the state engine.", m.activeVertices)
	counter("deltaserved_engine_skipped_vertices_total", "Vertex evaluations skipped by frontier scheduling.", m.skippedVertices)
	counter("deltaserved_shard_runs_total", "Completed sharded (?shards=) coloring runs.", m.shardRuns)
	counter("deltaserved_shard_cut_edges_total", "Parent edges cut by shard partitions across completed sharded runs.", m.shardCutEdges)
	counter("deltaserved_shard_boundary_updates_total", "Boundary-state messages routed across the cut by sharded runs.", m.shardBoundaryUpdates)
	counter("deltaserved_shard_step_calls_total", "Worker Step calls issued by sharded runs (quiet shards are skipped).", m.shardStepCalls)

	fmt.Fprintf(w, "# HELP deltaserved_queue_depth Jobs currently waiting in the FIFO queue.\n# TYPE deltaserved_queue_depth gauge\ndeltaserved_queue_depth %d\n", queueDepth)
	fmt.Fprintf(w, "# HELP deltaserved_workers Size of the worker pool.\n# TYPE deltaserved_workers gauge\ndeltaserved_workers %d\n", workers)
	fmt.Fprintf(w, "# HELP deltaserved_breaker_state Circuit breaker state (0 closed, 1 open, 2 half-open).\n# TYPE deltaserved_breaker_state gauge\ndeltaserved_breaker_state %d\n", breakerState)
	fmt.Fprintf(w, "# HELP deltaserved_jobs_retained Job records held for polling and idempotency.\n# TYPE deltaserved_jobs_retained gauge\ndeltaserved_jobs_retained %d\n", retainedJobs)
	fmt.Fprintf(w, "# HELP deltaserved_retained_bytes Bytes of the responses the job table and the result cache hold, each counted once.\n# TYPE deltaserved_retained_bytes gauge\ndeltaserved_retained_bytes %d\n", retainedBytes)

	counter("deltaserved_dynamic_mutations_total", "Mutations applied to live dynamic graphs.", m.dynMutations)
	counter("deltaserved_dynamic_recolored_total", "Vertices recolored by dynamic maintenance.", m.dynRecolored)
	counter("deltaserved_dynamic_fallbacks_total", "Dynamic batches salvaged by a full recompute after a failed incremental attempt.", m.dynFallbacks)
	counter("deltaserved_dynamic_failures_total", "Dynamic batches whose maintenance or validation failed.", m.dynFailures)
	counter("deltaserved_dynamic_rejected_total", "Mutation batches rejected with 429 because an apply queue was full.", m.dynRejects)
	counter("deltaserved_dynamic_check_failures_total", "Colorings that failed the ?check=1 oracle and were refused.", m.dynCheckFails)
	fmt.Fprintf(w, "# HELP deltaserved_dynamic_graphs Live dynamic graph stores.\n# TYPE deltaserved_dynamic_graphs gauge\ndeltaserved_dynamic_graphs %d\n", dynGraphs)
	fmt.Fprint(w, "# HELP deltaserved_dynamic_batches_total Applied dynamic batches by maintenance mode.\n# TYPE deltaserved_dynamic_batches_total counter\n")
	modes := make([]string, 0, len(m.dynBatches))
	for mode := range m.dynBatches {
		modes = append(modes, mode)
	}
	sort.Strings(modes)
	for _, mode := range modes {
		fmt.Fprintf(w, "deltaserved_dynamic_batches_total{mode=%q} %d\n", escapeLabel(mode), m.dynBatches[mode])
	}
	fmt.Fprint(w, "# HELP deltaserved_dynamic_recolor_seconds Wall time of dynamic maintenance per applied batch.\n# TYPE deltaserved_dynamic_recolor_seconds histogram\n")
	dcum := uint64(0)
	for i, ub := range m.dynBuckets {
		dcum += m.dynBucketCnts[i]
		fmt.Fprintf(w, "deltaserved_dynamic_recolor_seconds_bucket{le=%q} %d\n", trimFloat(ub), dcum)
	}
	fmt.Fprintf(w, "deltaserved_dynamic_recolor_seconds_bucket{le=\"+Inf\"} %d\n", m.dynDurCount)
	fmt.Fprintf(w, "deltaserved_dynamic_recolor_seconds_sum %g\n", m.dynDurSum)
	fmt.Fprintf(w, "deltaserved_dynamic_recolor_seconds_count %d\n", m.dynDurCount)

	counter("deltaserved_wal_appends_total", "Mutation batches appended to graph write-ahead logs.", wal.Appends)
	counter("deltaserved_wal_append_bytes_total", "Bytes appended to graph write-ahead logs.", wal.AppendBytes)
	counter("deltaserved_wal_fsyncs_total", "fsync calls issued by graph write-ahead logs.", wal.Fsyncs)
	counter("deltaserved_wal_append_errors_total", "Batches whose WAL append or flush failed (durability voided, answered 500).", wal.AppendErrors)
	counter("deltaserved_wal_checkpoints_total", "Checkpoint snapshots written (creation, cadence, shutdown, recovery).", wal.Checkpoints)
	counter("deltaserved_recovery_graphs_total", "Durable graph directories found at startup.", uint64(rec.graphs))
	counter("deltaserved_recovery_unhealthy_total", "Graphs recovered unhealthy (serving last-known-good or 503).", uint64(rec.unhealthy))
	counter("deltaserved_recovery_failed_total", "Graph directories whose recovery failed outright (skipped).", uint64(rec.failed))
	counter("deltaserved_recovery_replayed_total", "WAL tail records replayed across all recovered graphs.", uint64(rec.replayed))
	counter("deltaserved_recovery_skipped_total", "Duplicate WAL records skipped during replay (already in a checkpoint).", uint64(rec.skipped))
	counter("deltaserved_recovery_truncated_bytes_total", "Torn or corrupt WAL tail bytes truncated during recovery.", uint64(rec.truncated))
	fmt.Fprintf(w, "# HELP deltaserved_recovery_seconds Total wall time spent recovering durable graphs at startup.\n# TYPE deltaserved_recovery_seconds gauge\ndeltaserved_recovery_seconds %g\n", float64(rec.nanos)/1e9)

	fmt.Fprint(w, "# HELP deltaserved_backend_jobs_total Completed coloring runs by resolved pipeline backend.\n# TYPE deltaserved_backend_jobs_total counter\n")
	backends := make([]string, 0, len(m.backendJobs))
	for name := range m.backendJobs {
		backends = append(backends, name)
	}
	sort.Strings(backends)
	for _, name := range backends {
		fmt.Fprintf(w, "deltaserved_backend_jobs_total{backend=%q} %d\n", escapeLabel(name), m.backendJobs[name])
	}

	fmt.Fprint(w, "# HELP deltaserved_phase_rounds_total LOCAL rounds charged per pipeline phase, harvested from local.Span tracing.\n# TYPE deltaserved_phase_rounds_total counter\n")
	names := make([]string, 0, len(m.phaseRounds))
	for name := range m.phaseRounds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "deltaserved_phase_rounds_total{phase=%q} %d\n", escapeLabel(name), m.phaseRounds[name])
	}

	fmt.Fprint(w, "# HELP deltaserved_job_duration_seconds Wall time of completed coloring runs.\n# TYPE deltaserved_job_duration_seconds histogram\n")
	cum := uint64(0)
	for i, ub := range m.buckets {
		cum += m.bucketCounts[i]
		fmt.Fprintf(w, "deltaserved_job_duration_seconds_bucket{le=%q} %d\n", trimFloat(ub), cum)
	}
	fmt.Fprintf(w, "deltaserved_job_duration_seconds_bucket{le=\"+Inf\"} %d\n", m.durCount)
	fmt.Fprintf(w, "deltaserved_job_duration_seconds_sum %g\n", m.durSum)
	fmt.Fprintf(w, "deltaserved_job_duration_seconds_count %d\n", m.durCount)
}

func trimFloat(f float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.3f", f), "0"), ".")
}
