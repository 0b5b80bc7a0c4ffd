// Package service turns the Δ-coloring pipeline into a long-running HTTP
// serving subsystem: a JSON API over a bounded worker pool with a FIFO job
// queue and backpressure, an LRU result cache keyed by the canonical graph
// hash, per-request deadlines enforced at LOCAL round granularity, panic
// isolation per job, Prometheus-text metrics (including per-phase round
// totals harvested from the simulator's span tracing), and graceful
// shutdown that drains in-flight jobs.
//
// Endpoints:
//
//	POST /v1/color     run (or fetch from cache) a coloring; async with {"async": true}
//	GET  /v1/jobs/{id} poll an async job
//	GET  /healthz      liveness + queue snapshot
//	GET  /metrics      Prometheus text exposition
//
// Everything is standard library only, like the rest of the repository.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"deltacoloring"
	"deltacoloring/internal/backend"
	"deltacoloring/internal/durable"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/invariant"
	"deltacoloring/internal/local"
	"deltacoloring/internal/shard"
)

// Config sizes the server. The zero value is usable: every field falls back
// to the documented default.
type Config struct {
	// Workers is the worker-pool size (default 4).
	Workers int
	// QueueDepth bounds the FIFO job queue; a full queue answers 429
	// (default 64).
	QueueDepth int
	// CacheSize is the LRU result-cache capacity in entries (default 256).
	CacheSize int
	// DefaultTimeout caps a run when the request names none (default 30s).
	DefaultTimeout time.Duration
	// MaxTimeout clamps request-supplied timeouts (default 5m).
	MaxTimeout time.Duration
	// MaxBodyBytes bounds the request body (default 32 MiB), and each
	// record of a shard stream.
	MaxBodyBytes int64
	// MaxVertices bounds the vertex count of any requested graph, keeping
	// a few header bytes from committing the server to a giant allocation
	// (default 1<<20).
	MaxVertices int
	// MaxJobs bounds the retained job table; finished jobs are evicted
	// oldest-first beyond it (default 1024). Quarantined jobs (panicked
	// runs kept for inspection) are evicted only after every other
	// candidate. The table and the result cache also share a byte budget
	// derived from MaxVertices (see retainedBudget).
	MaxJobs int
	// BreakerThreshold opens the circuit breaker after this many
	// consecutive server-side job failures (default 5; negative disables).
	BreakerThreshold int
	// BreakerCooldown is how long the open breaker sheds load between the
	// single probes it lets through (default 10s).
	BreakerCooldown time.Duration
	// WatchdogGrace is how long past its deadline a running job may keep
	// executing before the watchdog declares it hung, fails it with 504,
	// and returns the worker to the pool (default 2s).
	WatchdogGrace time.Duration
	// MaxGraphs bounds the live dynamic graph stores (default 16).
	MaxGraphs int
	// MutationQueueDepth bounds each graph's apply queue; a full queue
	// answers 429 (default 32).
	MutationQueueDepth int
	// GraphDir, when set, serves the color request's "file" source:
	// operator-staged graph files (text or binary, sniffed by magic)
	// addressed by a relative path confined to this directory. Empty
	// disables the source.
	GraphDir string
	// DataDir, when set, makes every dynamic graph durable: WAL +
	// checkpoints under DataDir/<graph-id>, background recovery at startup
	// (readiness gated until it finishes), flush + final checkpoint on
	// graceful shutdown. Empty keeps the historical in-memory-only mode.
	DataDir string
	// Fsync is the WAL flush policy for durable graphs ("" = always;
	// "interval" flushes every 100ms).
	Fsync durable.FsyncPolicy
	// CheckpointEvery snapshots each durable graph and truncates its log
	// after this many batches (default 64; negative disables).
	CheckpointEvery int
	// ShardAddrs lists worker base URLs (e.g. "http://10.0.0.2:8081") for
	// sharded ?shards= runs: shard s is served by ShardAddrs[s mod len] over
	// one POST /v1/shard/stream per run and host. Empty runs every shard
	// in-process. Every deltaserved instance also serves /v1/shard/stream
	// itself, so any instance can be another's worker.
	ShardAddrs []string
	// MaxShards caps the per-request shard count (default 16).
	MaxShards int

	// runHook, when set, runs on the attempt goroutine just before a job's
	// pipeline starts. It is a test seam for making saturation, slow jobs,
	// and injected failures deterministic.
	runHook func(work)
	// dynNetHook, when set, is installed as every dynamic store's NetHook.
	// It is the chaos test seam for the /v1/graphs maintenance path.
	dynNetHook func(*local.Network)
	// shardTransport, when set, builds the transport for every sharded run
	// instead of the ShardAddrs/in-process default. It is the chaos test
	// seam for the cluster path.
	shardTransport func(session string) shard.Transport
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 256
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.MaxVertices <= 0 {
		c.MaxVertices = 1 << 20
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 10 * time.Second
	}
	if c.WatchdogGrace <= 0 {
		c.WatchdogGrace = 2 * time.Second
	}
	if c.MaxGraphs <= 0 {
		c.MaxGraphs = 16
	}
	if c.MutationQueueDepth <= 0 {
		c.MutationQueueDepth = 32
	}
	if c.MaxShards <= 0 {
		c.MaxShards = 16
	}
	return c
}

// job is the retained record of one coloring run: what polling,
// idempotency and the result cache read. The run's inputs are not on it;
// they travel in its work item, so a finished record pins only its
// response.
type job struct {
	id      string
	key     string
	idemKey string
	ctx     context.Context
	cancel  context.CancelFunc

	mu          sync.Mutex
	state       string // "queued" -> "running" -> "done" | "failed"
	resp        *ColorResponse
	status      int // HTTP status a sync waiter should use
	quarantined bool
	finished    bool
	done        chan struct{}
}

func (j *job) snapshot() (*ColorResponse, int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.resp != nil {
		return j.resp, j.status
	}
	return &ColorResponse{JobID: j.id, State: j.state}, http.StatusOK
}

func (j *job) setState(s string) {
	j.mu.Lock()
	j.state = s
	j.mu.Unlock()
}

// quarantine marks a job whose run panicked; quarantined records are kept
// for inspection and evicted from the job table only as a last resort.
func (j *job) quarantine() {
	j.mu.Lock()
	j.quarantined = true
	j.mu.Unlock()
}

func (j *job) isQuarantined() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.quarantined
}

// work is one queued run: the job record plus its inputs, the decoded
// request and its graph. Only the queue and the run's attempts hold a work
// item, so the inputs become garbage when the last attempt returns, even
// one the watchdog abandoned after the record was finished and evicted.
type work struct {
	job *job
	req *ColorRequest
	g   *graph.Graph
}

// finish publishes the job's terminal response and reports whether this
// call did; the first call wins and later calls are no-ops. resp must
// already carry the job ID and be fully built: it may simultaneously be
// visible through the result cache, so no mutation after this point.
func (j *job) finish(resp *ColorResponse, status int) bool {
	j.mu.Lock()
	if j.finished {
		j.mu.Unlock()
		return false
	}
	j.finished = true
	j.state = resp.State
	j.resp = resp
	j.status = status
	j.mu.Unlock()
	// Close before cancel: waiters woken by the cancellation must already
	// see the job as finished.
	close(j.done)
	j.cancel()
	return true
}

// Server is the serving subsystem; create with New, expose via Handler, and
// stop with Shutdown.
type Server struct {
	cfg       Config
	mux       *http.ServeMux
	met       *metrics
	breaker   *breaker
	shardHost *shard.Host

	queue   chan work
	qmu     sync.RWMutex // guards queue sends against close
	closed  atomic.Bool
	workers sync.WaitGroup

	// jmu guards everything retained after a run: the job table, the
	// result cache and the ledger of the response bytes both hold.
	jmu      sync.Mutex
	jobs     map[string]*job
	idem     map[string]*job // idempotency key -> job, subset of jobs
	jobOrder []string
	jobSeq   uint64
	cache    *lruCache
	led      ledger

	gmu        sync.Mutex
	graphs     map[string]*graphStore
	graphSeq   uint64
	graphsWG   sync.WaitGroup
	graphsResv int              // IDs allocated but not yet installed
	walBase    durable.WALStats // retired counters from destroyed stores

	recovering  atomic.Bool
	recMu       sync.Mutex
	recReports  []GraphRecovery
	recFleetErr string
}

// New builds a server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		mux:       http.NewServeMux(),
		met:       newMetrics(),
		breaker:   newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		shardHost: shard.NewHost(cfg.MaxVertices),
		queue:     make(chan work, cfg.QueueDepth),
		jobs:      make(map[string]*job),
		idem:      make(map[string]*job),
		graphs:    make(map[string]*graphStore),
	}
	s.cache = newLRU(cfg.CacheSize, &s.led)
	s.mux.HandleFunc("POST /v1/color", s.handleColor)
	s.mux.HandleFunc("POST "+shard.StreamPath, s.handleShardStream)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("POST /v1/graphs", s.handleGraphCreate)
	s.mux.HandleFunc("GET /v1/graphs", s.handleGraphList)
	s.mux.HandleFunc("GET /v1/graphs/{id}", s.handleGraphGet)
	s.mux.HandleFunc("DELETE /v1/graphs/{id}", s.handleGraphDelete)
	s.mux.HandleFunc("POST /v1/graphs/{id}/mutations", s.handleGraphMutate)
	s.mux.HandleFunc("GET /v1/graphs/{id}/coloring", s.handleGraphColoring)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /livez", s.handleLivez)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	if cfg.DataDir != "" {
		// Recovery replays off the request path; the graph surface answers
		// 503 + Retry-After and /readyz stays false until it finishes.
		s.recovering.Store(true)
		go s.recoverAll()
	}
	return s
}

// Handler returns the HTTP handler serving the API.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown stops accepting work and drains the queue: every already
// accepted job still runs to completion (or cancellation by its own
// deadline), and every graph's apply loop drains its queued batches. It
// returns ctx.Err if draining outlives ctx.
func (s *Server) Shutdown(ctx context.Context) error {
	s.qmu.Lock()
	if !s.closed.Swap(true) {
		close(s.queue)
	}
	s.qmu.Unlock()
	s.closeAllGraphs()
	drained := make(chan struct{})
	go func() {
		s.workers.Wait()
		s.graphsWG.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		// Every apply loop has drained: flush and checkpoint each durable
		// store so the next start needs no replay.
		var errOut error
		s.gmu.Lock()
		stores := make([]*durable.Store, 0, len(s.graphs))
		for _, gs := range s.graphs {
			if gs.store != nil {
				stores = append(stores, gs.store)
			}
		}
		s.gmu.Unlock()
		for _, st := range stores {
			if err := st.Close(); err != nil && errOut == nil {
				errOut = err
			}
		}
		return errOut
	case <-ctx.Done():
		return ctx.Err()
	}
}

var (
	errQueueFull    = errors.New("job queue is full")
	errShuttingDown = errors.New("server is shutting down")
)

func (s *Server) enqueue(w work) error {
	s.qmu.RLock()
	defer s.qmu.RUnlock()
	if s.closed.Load() {
		return errShuttingDown
	}
	select {
	case s.queue <- w:
		return nil
	default:
		return errQueueFull
	}
}

// registerJob assigns an ID, retains the job for polling, and trims what
// the server retains back within its bounds. When the job carries an
// idempotency key already owned by an in-flight or successfully finished
// job, nothing is registered and the existing job is returned instead; a
// failed job does not pin its key, so a client retry after a 5xx re-runs the
// work rather than replaying the error.
func (s *Server) registerJob(j *job) (existing *job) {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	if j.idemKey != "" {
		if prev, ok := s.idem[j.idemKey]; ok {
			if !prev.failedTerminal() {
				return prev
			}
			// prev stays in the job table for polling; only the key moves.
			delete(s.idem, j.idemKey)
		}
		s.idem[j.idemKey] = j
	}
	s.jobSeq++
	j.id = fmt.Sprintf("j%08d", s.jobSeq)
	s.jobs[j.id] = j
	s.jobOrder = append(s.jobOrder, j.id)
	s.trimLocked()
	return nil
}

// finishJob publishes a job's terminal response, caches it unless the job
// opted out, and trims what the server retains back within its bounds.
func (s *Server) finishJob(j *job, resp *ColorResponse, status int, cache bool) {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	if cache {
		s.cache.add(j.key, resp)
	}
	if j.finish(resp, status) && s.jobs[j.id] == j {
		s.led.hold(resp)
	}
	s.trimLocked()
}

// trimLocked evicts until the job table holds at most MaxJobs records and
// the responses it and the cache hold fit the byte budget. Over the budget,
// cache entries that alone hold their response go first, least recently
// used first; then terminal records, oldest first, each taking the cache
// entry that shares its response so that the drop frees its bytes.
// Quarantined records go last. jmu must be held.
func (s *Server) trimLocked() {
	budget := s.cfg.retainedBudget()
	overBytes := func() bool { return s.led.bytes > budget }
	s.cache.trim(overBytes)
	for _, spareQuarantined := range []bool{true, false} {
		if len(s.jobs) <= s.cfg.MaxJobs && !overBytes() {
			return
		}
		keep := s.jobOrder[:0]
		for _, id := range s.jobOrder {
			old, live := s.jobs[id]
			if !live {
				continue
			}
			if (len(s.jobs) > s.cfg.MaxJobs || overBytes()) && old.terminal() &&
				!(spareQuarantined && old.isQuarantined()) {
				if resp := old.result(); resp != nil && overBytes() {
					s.cache.forget(old.key, resp)
				}
				s.dropJobLocked(old)
				continue
			}
			keep = append(keep, id)
		}
		s.jobOrder = keep
	}
}

// dropJobLocked removes a job, its idempotency mapping and its hold on its
// response; jmu must be held.
func (s *Server) dropJobLocked(j *job) {
	delete(s.jobs, j.id)
	if j.idemKey != "" && s.idem[j.idemKey] == j {
		delete(s.idem, j.idemKey)
	}
	if resp := j.result(); resp != nil {
		s.led.release(resp)
	}
}

// unregisterJob drops a job that never made it into the queue.
func (s *Server) unregisterJob(j *job) {
	s.jmu.Lock()
	s.dropJobLocked(j)
	s.jmu.Unlock()
}

func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state == "done" || j.state == "failed"
}

// result is the job's terminal response, nil until it finishes.
func (j *job) result() *ColorResponse {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.resp
}

func (j *job) failedTerminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.finished && j.state == "failed"
}

// worker pops jobs until the queue is closed and drained.
func (s *Server) worker() {
	defer s.workers.Done()
	for w := range s.queue {
		s.runJob(w)
	}
}

// runOutcome is the attempt's result, handed from the attempt goroutine
// back to the supervising worker.
type runOutcome struct {
	resp     *ColorResponse
	traffic  *shard.Traffic // non-nil for ?shards= runs
	err      error
	panicked bool
}

// runJob supervises one job: it runs its one attempt on a child goroutine
// so the worker can watchdog it, feeds the circuit breaker, and quarantines
// a job whose attempt panicked. Pipelines are pure functions of (graph,
// params, seed), so a failed job is not re-run here: a client that wants
// another try re-POSTs, and a failed job never pins its idempotency key. A
// hung attempt — one that outlives its deadline by more than WatchdogGrace
// without unwinding — is failed with a clean 504 and abandoned, returning
// the worker to the pool.
func (s *Server) runJob(w work) {
	j := w.job
	s.met.jobsStarted.Add(1)
	j.setState("running")
	start := time.Now()
	out := make(chan runOutcome, 1) // buffered: an abandoned attempt must not leak
	go s.runAttempt(w, out)
	var o runOutcome
	select {
	case o = <-out:
	case <-j.ctx.Done():
		// Deadline or cancellation while the attempt is in flight: the run
		// aborts itself at its next round boundary; give it the grace
		// window, then declare it hung.
		grace := time.NewTimer(s.cfg.WatchdogGrace)
		select {
		case o = <-out:
			grace.Stop()
		case <-grace.C:
			s.met.watchdogTimeouts.Add(1)
			s.met.jobsFailed.Add(1)
			s.breaker.failure()
			s.finishJob(j, &ColorResponse{JobID: j.id, State: "failed",
				Error: "watchdog: run exceeded its deadline and did not unwind"},
				http.StatusGatewayTimeout, false)
			return
		}
	}
	if o.err != nil {
		if o.panicked {
			j.quarantine()
			s.met.jobsQuarantined.Add(1)
		}
		s.failJob(j, o.err, o.panicked)
		return
	}
	elapsed := time.Since(start)
	resp := o.resp
	resp.JobID = j.id
	resp.ElapsedMS = float64(elapsed.Microseconds()) / 1000
	if o.traffic != nil {
		s.met.shardRuns.Add(1)
		s.met.shardCutEdges.Add(uint64(o.traffic.CutEdges))
		s.met.shardBoundaryUpdates.Add(uint64(o.traffic.BoundaryUpdates))
		s.met.shardStepCalls.Add(uint64(o.traffic.StepCalls))
	}
	s.met.jobsCompleted.Add(1)
	s.met.jobDuration.observe(elapsed)
	s.met.backendJobs.add(resp.Backend, 1)
	s.breaker.success()
	s.finishJob(j, resp, http.StatusOK, !w.req.NoCache)
}

// runAttempt executes a job's pipeline attempt with panic isolation and sends
// exactly one outcome. It touches no job state beyond reads, so a timed-out
// attempt can be safely abandoned by its supervisor; its own copy of the
// work item keeps the inputs alive until it returns.
func (s *Server) runAttempt(w work, out chan<- runOutcome) {
	defer func() {
		if r := recover(); r != nil {
			out <- runOutcome{err: fmt.Errorf("internal panic: %v", r), panicked: true}
		}
	}()
	if hook := s.cfg.runHook; hook != nil {
		hook(w)
	}
	if err := w.job.ctx.Err(); err != nil {
		out <- runOutcome{err: err}
		return
	}
	var o runOutcome
	if w.req.Shards > 0 {
		o.resp, o.traffic, o.err = s.runSharded(w)
	} else {
		o.resp, o.err = s.runBackend(w)
	}
	out <- o
}

// runSharded executes one ?shards= attempt: the greedy wire algorithm
// partitioned across w.req.Shards workers with cross-cut LOCAL rounds. The
// transport is in-process unless the server was configured with worker
// addresses (or the test seam). Checked runs attach the conformance harness
// to the coordinator's network and cross-check the merged coloring against
// the sequential oracle at the wire algorithm's Δ+1 palette.
func (s *Server) runSharded(w work) (*ColorResponse, *shard.Traffic, error) {
	session := "svc-" + w.job.id
	var tr shard.Transport
	switch {
	case s.cfg.shardTransport != nil:
		tr = s.cfg.shardTransport(session)
	case len(s.cfg.ShardAddrs) > 0:
		var err error
		if tr, err = shard.NewHTTPTransport(s.cfg.ShardAddrs, session, nil); err != nil {
			return nil, nil, err
		}
	}
	cfg := shard.Config{
		K:         w.req.Shards,
		Transport: tr,
		SpanHook:  s.met.addSpan,
		Session:   session,
	}
	var h *invariant.Harness
	if w.req.Check {
		h = invariant.NewHarness(w.g)
		cfg.NetHook = h.Attach
	}
	sres, err := shard.Run(w.job.ctx, w.g, cfg)
	if err != nil {
		return nil, nil, err
	}
	// The wire algorithm is the greedy backend's: a Δ+1 coloring.
	resp, err := runResponse(w.g, h, "greedy", 1, &backend.Result{Colors: sres.Colors, Rounds: sres.Rounds, Spans: sres.Spans})
	if err != nil {
		return nil, nil, err
	}
	resp.Shards = sres.K
	resp.CutEdges = sres.Traffic.CutEdges
	resp.BoundaryUpdates = sres.Traffic.BoundaryUpdates
	return resp, &sres.Traffic, nil
}

// runBackend executes one attempt: the request names a backend, or "auto"
// to let the portfolio selector pick by graph structure. A request without
// one runs the pipeline its algo names ("det" or "rand", both table
// entries), so its coloring and response are those of the historical entry
// points. Checked runs attach the conformance harness through the
// backend's NetHook seam and cross-check the final coloring against the
// sequential oracle.
func (s *Server) runBackend(w work) (*ColorResponse, error) {
	req, g := w.req, w.g
	name := req.Backend
	if name == "" {
		name = req.Algo
	}
	p := backend.Presets(req.Paper, req.Seed)
	b, err := backend.Resolve(name, g, p)
	if err != nil {
		return nil, err
	}
	opts := &backend.RunOptions{SpanHook: s.met.addSpan}
	var h *invariant.Harness
	if req.Check {
		h = invariant.NewHarness(g)
		opts.NetHook = h.Attach
	}
	res, err := b.Color(w.job.ctx, g, p, opts)
	if err != nil {
		return nil, err
	}
	return runResponse(g, h, b.Name, b.PaletteSlack, res)
}

// failJob maps a pipeline error onto an HTTP status and finishes the job.
// Server-side failures (500s, timeouts of our own making) feed the circuit
// breaker; client-attributable ones do not.
func (s *Server) failJob(j *job, err error, panicked bool) {
	s.met.jobsFailed.Add(1)
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		status = 499 // client closed request (nginx convention)
	case errors.Is(err, deltacoloring.ErrNotDense), errors.Is(err, deltacoloring.ErrBrooks),
		errors.Is(err, deltacoloring.ErrLemmaViolated):
		status = http.StatusUnprocessableEntity
	}
	if status == http.StatusInternalServerError {
		s.breaker.failure()
	}
	s.finishJob(j, &ColorResponse{JobID: j.id, State: "failed", Error: err.Error(),
		Quarantined: panicked}, status, false)
}

// jsonBufPool recycles request-body and response-encoding buffers across
// requests so steady serving does not allocate a fresh buffer per body.
var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func putJSONBuf(buf *bytes.Buffer) {
	if buf.Cap() <= 1<<20 { // don't pin giant bodies in the pool
		jsonBufPool.Put(buf)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		// Encoding our own response types cannot fail on valid data; fall
		// back to a bare status so the connection is not left hanging.
		w.WriteHeader(http.StatusInternalServerError)
		putJSONBuf(buf)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
	putJSONBuf(buf)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, &ColorResponse{State: "failed", Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleColor(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	req, err := parseRequest(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// ?check=1 is the query-param spelling of the request's check field.
	switch r.URL.Query().Get("check") {
	case "", "0", "false":
	default:
		req.Check = true
	}
	// ?backend= is the query-param spelling of the request's backend field
	// (it wins over the body when both are present).
	if qb := r.URL.Query().Get("backend"); qb != "" {
		if err := validateBackendName(qb); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		req.Backend = qb
	}
	// ?shards= is the query-param spelling of the request's shards field
	// (it wins over the body when both are present).
	if qs := r.URL.Query().Get("shards"); qs != "" {
		n, err := strconv.Atoi(qs)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "shards=%q must be a non-negative integer", qs)
			return
		}
		req.Shards = n
	}
	if req.Shards > s.cfg.MaxShards {
		writeError(w, http.StatusBadRequest, "shards=%d above the server's %d-shard limit", req.Shards, s.cfg.MaxShards)
		return
	}
	// Re-check the shard combination: the query params above can introduce a
	// backend or shard count the body alone did not have.
	if err := validateShardCombo(req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	g, err := buildGraph(req, s.cfg.MaxVertices, s.cfg.GraphDir)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad graph: %v", err)
		return
	}
	key := cacheKey(g, req)
	if !req.NoCache {
		if resp, ok := s.cacheGet(key); ok {
			s.met.cacheHits.Add(1)
			hit := *resp
			hit.JobID = ""
			hit.Cached = true
			writeJSON(w, http.StatusOK, &hit)
			return
		}
		s.met.cacheMisses.Add(1)
	}

	// The breaker guards fresh work only: cache hits above never reach it,
	// and joining an existing idempotent job adds no load either.
	if ok, retryAfter := s.breaker.allow(); !ok {
		s.met.jobsShed.Add(1)
		secs := int(retryAfter/time.Second) + 1
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeError(w, http.StatusServiceUnavailable, "circuit breaker open, retry in %ds", secs)
		return
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}
	idemKey := req.IdempotencyKey
	if idemKey == "" {
		idemKey = r.Header.Get("Idempotency-Key")
	}
	parent := context.Background()
	if !req.Async {
		// Sync callers abandon the run when they go away or time out — unless
		// the job is shared through an idempotency key, in which case a
		// retrying client must not cancel the attempt it will re-join.
		if idemKey == "" {
			parent = r.Context()
		}
	}
	ctx, cancel := context.WithTimeout(parent, timeout)
	j := &job{key: key, idemKey: idemKey, ctx: ctx, cancel: cancel,
		state: "queued", done: make(chan struct{})}
	if existing := s.registerJob(j); existing != nil {
		// A retried POST: join the job already doing (or done with) this
		// work instead of recomputing it.
		cancel()
		s.met.idemJoins.Add(1)
		if req.Async {
			resp, _ := existing.snapshot()
			writeJSON(w, http.StatusAccepted, resp)
			return
		}
		select {
		case <-existing.done:
			resp, status := existing.snapshot()
			writeJSON(w, status, resp)
		case <-r.Context().Done():
			writeError(w, 499, "%v", r.Context().Err())
		}
		return
	}

	if err := s.enqueue(work{job: j, req: req, g: g}); err != nil {
		cancel()
		s.unregisterJob(j)
		if errors.Is(err, errQueueFull) {
			s.met.jobsRejected.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "%v", err)
			return
		}
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}

	if req.Async {
		writeJSON(w, http.StatusAccepted, &ColorResponse{JobID: j.id, State: "queued"})
		return
	}
	select {
	case <-j.done:
	case <-ctx.Done():
	}
	select {
	case <-j.done:
		// Finished (the job's own completion also cancels ctx, so a woken
		// waiter must prefer the result).
		resp, status := j.snapshot()
		writeJSON(w, status, resp)
	default:
		// The deadline fired while the job was still queued or running;
		// the cancelled context makes the worker abandon it promptly.
		status := http.StatusGatewayTimeout
		if errors.Is(ctx.Err(), context.Canceled) {
			status = 499
		}
		writeError(w, status, "%v", ctx.Err())
	}
}

// handleShardStream serves the worker half of the sharded protocol: a
// coordinator (possibly this same process in a cluster of peers) holds one
// stream per run to this host and writes one init/step/finish/abort record
// per shard per round. Protocol failures travel inside a 200 response frame
// so the coordinator can reconstruct the named violation type; only a first
// record that does not decode or exceeds MaxBodyBytes is an HTTP error
// (400, text).
func (s *Server) handleShardStream(w http.ResponseWriter, r *http.Request) {
	s.shardHost.ServeRounds(w, r, s.cfg.MaxBodyBytes)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.jmu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.jmu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	resp, _ := j.snapshot()
	writeJSON(w, http.StatusOK, resp)
}

// cacheGet looks key up in the result cache.
func (s *Server) cacheGet(key string) (*ColorResponse, bool) {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	return s.cache.get(key)
}

// retained reports the job records the server holds and the bytes of the
// responses they and the cache hold, each response counted once.
func (s *Server) retained() (jobs int, bytes int64) {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	return len(s.jobs), s.led.bytes
}

// quarantinedCount reports how many retained job records are quarantined.
func (s *Server) quarantinedCount() int {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	n := 0
	for _, j := range s.jobs {
		if j.isQuarantined() {
			n++
		}
	}
	return n
}

// breakerStateName renders a breaker state for humans.
func breakerStateName(state int) string {
	if state == breakerOpen {
		return "open"
	}
	return "closed"
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := http.StatusOK
	state := "ok"
	if s.closed.Load() {
		status = http.StatusServiceUnavailable
		state = "shutting down"
	}
	bState, bOpens := s.breaker.snapshot()
	writeJSON(w, status, map[string]any{
		"status":         state,
		"queue_depth":    len(s.queue),
		"workers":        s.cfg.Workers,
		"breaker":        breakerStateName(bState),
		"breaker_opens":  bOpens,
		"quarantined":    s.quarantinedCount(),
		"graphs":         s.graphCount(),
		"recovering":     s.recovering.Load(),
		"shard_sessions": s.shardHost.Sessions(),
	})
}

// handleLivez is pure liveness: the process is up and serving HTTP. It stays
// 200 through recovery and shutdown drain — restarting a replaying server
// because its data plane is gated would only lose the replay work.
func (s *Server) handleLivez(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "alive"})
}

// handleReadyz is readiness: 503 while WAL recovery is replaying or the
// server is shutting down, with the per-graph recovery outcomes in the
// payload either way.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	status := http.StatusOK
	state := "ready"
	switch {
	case s.recovering.Load():
		status = http.StatusServiceUnavailable
		state = "recovering"
		w.Header().Set("Retry-After", "1")
	case s.closed.Load():
		status = http.StatusServiceUnavailable
		state = "shutting down"
	}
	reports, fleetErr := s.recoveryStatus()
	body := map[string]any{
		"status": state,
		"graphs": s.graphCount(),
	}
	if s.cfg.DataDir != "" {
		body["data_dir"] = s.cfg.DataDir
		body["recovery"] = reports
		if fleetErr != "" {
			body["recovery_error"] = fleetErr
		}
	}
	writeJSON(w, status, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	sc := &scrape{queueDepth: len(s.queue), workers: s.cfg.Workers, dynGraphs: s.graphCount(),
		wal: s.walTotals(), rec: s.recoveryTotals()}
	sc.breakerState, _ = s.breaker.snapshot()
	sc.retainedJobs, sc.retainedBytes = s.retained()
	s.met.writeTo(w, sc)
}
