package service

import (
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"deltacoloring/internal/backend"
	"deltacoloring/internal/durable"
	"deltacoloring/internal/dynamic"
	"deltacoloring/internal/invariant"
)

// The /v1/graphs API is the serving surface of the deltalive subsystem
// (internal/dynamic): long-lived graphs whose coloring is maintained
// incrementally under mutation batches.
//
//	POST   /v1/graphs                create a store from a graph source
//	GET    /v1/graphs                list stores
//	GET    /v1/graphs/{id}           store info + lifetime stats
//	DELETE /v1/graphs/{id}           drop a store
//	POST   /v1/graphs/{id}/mutations apply one batch (429 when the apply
//	                                 queue is full)
//	GET    /v1/graphs/{id}/coloring  the maintained coloring; ?check=1
//	                                 cross-checks it against the sequential
//	                                 oracle before serving
//
// Each store runs one apply loop goroutine: batches from concurrent clients
// serialize through a bounded queue (backpressure, not blocking), and reads
// never wait behind maintenance. The serving contract is valid-or-stale:
// when maintenance fails (an unhealthy store), the coloring endpoint serves
// the last-known-good snapshot marked stale — or 503 — never an invalid
// coloring with a 200.

// CreateGraphRequest is the body of POST /v1/graphs. Exactly one of
// EdgeList, Graph, or Gen must be set (the same sources as /v1/color).
type CreateGraphRequest struct {
	EdgeList string     `json:"edge_list,omitempty"`
	Graph    *GraphSpec `json:"graph,omitempty"`
	Gen      *GenSpec   `json:"gen,omitempty"`
	// File names a staged graph under the server's -graph-dir, like the
	// color request's file source.
	File string `json:"file,omitempty"`
	// FallbackDirtyFraction overrides the store's incremental-maintenance
	// ceiling (0 keeps the default; negative forces every batch to a full
	// recompute).
	FallbackDirtyFraction float64 `json:"fallback_dirty_fraction,omitempty"`
	// Backend names a pipeline backend the store's full
	// recomputes try first (a true Δ-coloring on dense structures, greedy
	// deg+1 fallback otherwise). Empty keeps the greedy-only path; unknown
	// names answer 400. "auto" is not accepted here: a store outlives the
	// structure the selector would inspect.
	Backend string `json:"backend,omitempty"`
}

// GraphResponse describes one store.
type GraphResponse struct {
	ID    string         `json:"id"`
	Info  dynamic.Info   `json:"info"`
	Stats *dynamic.Stats `json:"stats,omitempty"`
	Error string         `json:"error,omitempty"`
}

// MutateRequest is the body of POST /v1/graphs/{id}/mutations.
type MutateRequest struct {
	Mutations []dynamic.Mutation `json:"mutations"`
}

// MutateResponse reports one applied (or rejected) batch.
type MutateResponse struct {
	ID     string               `json:"id"`
	Result *dynamic.ApplyResult `json:"result,omitempty"`
	// Healthy is the store's health after the batch; false means the batch
	// advanced the structure but its coloring could not be maintained.
	Healthy bool   `json:"healthy"`
	Error   string `json:"error,omitempty"`
}

// ColoringResponse is the body of GET /v1/graphs/{id}/coloring.
type ColoringResponse struct {
	ID        string `json:"id"`
	Version   int64  `json:"version"`
	N         int    `json:"n"`
	NumColors int    `json:"num_colors"`
	Colors    []int  `json:"colors"`
	// Stale marks a last-known-good snapshot served while the store is
	// unhealthy: valid, but older than the store's structure.
	Stale bool `json:"stale,omitempty"`
	// Checked reports that ?check=1 ran the sequential proper-coloring
	// oracle over exactly this snapshot before serving it.
	Checked bool   `json:"checked,omitempty"`
	Error   string `json:"error,omitempty"`
}

// mutJob is one queued mutation batch with its reply channel.
type mutJob struct {
	batch []dynamic.Mutation
	reply chan mutReply
}

type mutReply struct {
	res *dynamic.ApplyResult
	err error
}

// graphStore is one live graph behind the API: the dynamic store, the
// bounded queue its apply loop drains, and (in durable mode) the WAL +
// checkpoint store that logs every batch before it is acknowledged.
type graphStore struct {
	id    string
	live  *dynamic.Live
	store *durable.Store // nil in memory-only mode

	mu     sync.RWMutex // guards jobs sends against close
	closed bool
	jobs   chan *mutJob
	// loopDone closes when the apply loop exits: deletion drains the loop
	// through it before touching durable state, so an in-flight batch can
	// never race the store's removal.
	loopDone chan struct{}
}

// apply routes one batch through the WAL when the graph is durable.
func (gs *graphStore) apply(batch []dynamic.Mutation) (*dynamic.ApplyResult, error) {
	if gs.store != nil {
		return gs.store.Apply(batch)
	}
	return gs.live.Apply(batch)
}

// maxMutationsPerBatch bounds one POST /v1/graphs/{id}/mutations body.
const maxMutationsPerBatch = 4096

var (
	errGraphClosed = errors.New("graph store is closed")
	errGraphLimit  = errors.New("graph limit reached")
)

// submit enqueues a batch without blocking; a full queue is backpressure.
func (gs *graphStore) submit(j *mutJob) error {
	gs.mu.RLock()
	defer gs.mu.RUnlock()
	if gs.closed {
		return errGraphClosed
	}
	select {
	case gs.jobs <- j:
		return nil
	default:
		return errQueueFull
	}
}

// close stops the apply loop after the already queued batches drain.
func (gs *graphStore) close() {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	if !gs.closed {
		gs.closed = true
		close(gs.jobs)
	}
}

// applyLoop serializes one store's batches and feeds the dynamic metrics.
func (s *Server) applyLoop(gs *graphStore) {
	defer s.graphsWG.Done()
	defer close(gs.loopDone)
	for j := range gs.jobs {
		start := time.Now()
		res, err := gs.apply(j.batch)
		if err != nil {
			// Validation rejections (the client's fault, store untouched)
			// answer 400 and are not maintenance failures.
			if maintenanceFailure(err) {
				s.met.dynFailures.Add(1)
			}
		} else {
			s.met.dynMutations.Add(uint64(res.Mutations))
			s.met.dynRecolored.Add(uint64(res.Recolored))
			if res.Fallback {
				s.met.dynFallbacks.Add(1)
			}
			s.met.dynBatches.add(res.Mode, 1)
			s.met.dynRecolor.observe(time.Since(start))
		}
		j.reply <- mutReply{res: res, err: err}
	}
}

// registerGraph installs a store under a fresh ID, enforcing MaxGraphs. In
// durable mode the WAL directory is initialized between ID allocation and
// installation — off the graphs lock, since it does disk I/O — with the
// reservation counter keeping concurrent creates under the limit.
func (s *Server) registerGraph(live *dynamic.Live) (*graphStore, error) {
	s.gmu.Lock()
	if len(s.graphs)+s.graphsResv >= s.cfg.MaxGraphs {
		s.gmu.Unlock()
		return nil, fmt.Errorf("%w (%d); delete one first", errGraphLimit, s.cfg.MaxGraphs)
	}
	s.graphSeq++
	s.graphsResv++
	id := fmt.Sprintf("g%06d", s.graphSeq)
	s.gmu.Unlock()

	gs := &graphStore{
		id:       id,
		live:     live,
		jobs:     make(chan *mutJob, s.cfg.MutationQueueDepth),
		loopDone: make(chan struct{}),
	}
	if s.cfg.DataDir != "" {
		st, err := durable.Create(filepath.Join(s.cfg.DataDir, id), live, s.durableConfig())
		if err != nil {
			s.gmu.Lock()
			s.graphsResv--
			s.gmu.Unlock()
			return nil, fmt.Errorf("durable init for %s: %w", id, err)
		}
		gs.store = st
	}
	s.gmu.Lock()
	s.graphsResv--
	s.graphs[id] = gs
	s.gmu.Unlock()
	s.graphsWG.Add(1)
	go s.applyLoop(gs)
	return gs, nil
}

func (s *Server) lookupGraph(id string) (*graphStore, bool) {
	s.gmu.Lock()
	defer s.gmu.Unlock()
	gs, ok := s.graphs[id]
	return gs, ok
}

// closeAllGraphs stops every apply loop (shutdown path).
func (s *Server) closeAllGraphs() {
	s.gmu.Lock()
	stores := make([]*graphStore, 0, len(s.graphs))
	for _, gs := range s.graphs {
		stores = append(stores, gs)
	}
	s.gmu.Unlock()
	for _, gs := range stores {
		gs.close()
	}
}

func (s *Server) graphCount() int {
	s.gmu.Lock()
	defer s.gmu.Unlock()
	return len(s.graphs)
}

func (s *Server) handleGraphCreate(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		writeError(w, http.StatusServiceUnavailable, "%v", errShuttingDown)
		return
	}
	if s.gateRecovery(w) {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	req, err := decodeStrict[CreateGraphRequest](r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	cr := &ColorRequest{EdgeList: req.EdgeList, Graph: req.Graph, Gen: req.Gen, File: req.File}
	if err := checkGraphSource(cr); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Backend != "" {
		if _, berr := backend.Get(req.Backend); berr != nil {
			writeError(w, http.StatusBadRequest, "unknown backend %q (want one of: %s)",
				req.Backend, strings.Join(backend.Names(), ", "))
			return
		}
	}
	g, err := buildGraph(cr, s.cfg.MaxVertices, s.cfg.GraphDir)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad graph: %v", err)
		return
	}
	live, err := dynamic.New(g, dynamic.Options{
		FallbackDirtyFraction: req.FallbackDirtyFraction,
		NetHook:               s.cfg.dynNetHook,
		Backend:               req.Backend,
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, "initial coloring: %v", err)
		return
	}
	gs, err := s.registerGraph(live)
	if err != nil {
		status := http.StatusInternalServerError // durable init failed
		if errors.Is(err, errGraphLimit) {
			status = http.StatusConflict
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, &GraphResponse{ID: gs.id, Info: live.Info()})
}

func (s *Server) handleGraphList(w http.ResponseWriter, r *http.Request) {
	s.gmu.Lock()
	out := make([]GraphResponse, 0, len(s.graphs))
	for _, gs := range s.graphs {
		out = append(out, GraphResponse{ID: gs.id, Info: gs.live.Info()})
	}
	s.gmu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	writeJSON(w, http.StatusOK, map[string]any{"graphs": out})
}

func (s *Server) handleGraphGet(w http.ResponseWriter, r *http.Request) {
	gs, ok := s.lookupGraph(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown graph %q", r.PathValue("id"))
		return
	}
	st := gs.live.Stats()
	writeJSON(w, http.StatusOK, &GraphResponse{ID: gs.id, Info: gs.live.Info(), Stats: &st})
}

func (s *Server) handleGraphDelete(w http.ResponseWriter, r *http.Request) {
	if s.gateRecovery(w) {
		return
	}
	id := r.PathValue("id")
	s.gmu.Lock()
	gs, ok := s.graphs[id]
	if ok {
		delete(s.graphs, id)
	}
	s.gmu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown graph %q", id)
		return
	}
	// Drain before destroy: close stops new submits, then the apply loop
	// finishes answering every batch already queued — only then is it safe
	// to tear down durable state (and only then has the ID truly quiesced).
	gs.close()
	<-gs.loopDone
	if gs.store != nil {
		s.foldWALStats(gs.store)
		if err := gs.store.Destroy(); err != nil {
			writeError(w, http.StatusInternalServerError, "destroy durable state: %v", err)
			return
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleGraphMutate(w http.ResponseWriter, r *http.Request) {
	if s.gateRecovery(w) {
		return
	}
	gs, ok := s.lookupGraph(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown graph %q", r.PathValue("id"))
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	req, err := decodeStrict[MutateRequest](r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(req.Mutations) == 0 {
		writeError(w, http.StatusBadRequest, "empty mutation batch")
		return
	}
	if len(req.Mutations) > maxMutationsPerBatch {
		writeError(w, http.StatusBadRequest, "batch of %d exceeds the %d-mutation limit",
			len(req.Mutations), maxMutationsPerBatch)
		return
	}
	j := &mutJob{batch: req.Mutations, reply: make(chan mutReply, 1)}
	if err := gs.submit(j); err != nil {
		if errors.Is(err, errQueueFull) {
			s.met.dynRejects.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "mutation queue for %s is full", gs.id)
			return
		}
		writeError(w, http.StatusGone, "%v", err)
		return
	}
	select {
	case rep := <-j.reply:
		if rep.err != nil {
			// A rejected batch (validation) leaves the store untouched: 400.
			// A maintenance failure leaves it unhealthy serving last-good,
			// and a WAL failure voids the batch's durability guarantee: both
			// are the server's fault, 500.
			status := http.StatusBadRequest
			if maintenanceFailure(rep.err) || errors.Is(rep.err, durable.ErrWAL) {
				status = http.StatusInternalServerError
			}
			writeJSON(w, status, &MutateResponse{ID: gs.id, Healthy: gs.live.Healthy(), Error: rep.err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, &MutateResponse{ID: gs.id, Result: rep.res, Healthy: gs.live.Healthy()})
	case <-r.Context().Done():
		// The client went away; the apply loop still drains the batch (the
		// buffered reply channel keeps it from blocking).
		writeError(w, 499, "%v", r.Context().Err())
	}
}

// maintenanceFailure distinguishes a failed maintenance (server's fault,
// store unhealthy, 500) from a rejected batch (client's fault, store
// unchanged, 400).
func maintenanceFailure(err error) bool {
	return errors.Is(err, dynamic.ErrMaintenance)
}

func (s *Server) handleGraphColoring(w http.ResponseWriter, r *http.Request) {
	gs, ok := s.lookupGraph(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown graph %q", r.PathValue("id"))
		return
	}
	check := false
	switch r.URL.Query().Get("check") {
	case "", "0", "false":
	default:
		check = true
	}
	snap, healthy := gs.live.Snapshot()
	stale := false
	if !healthy {
		// Never serve the unmaintained current state: fall back to the
		// last-known-good snapshot, or 503 if none exists.
		snap = gs.live.LastGood()
		stale = true
		if snap == nil {
			writeError(w, http.StatusServiceUnavailable, "graph %s has no valid coloring", gs.id)
			return
		}
	}
	if check {
		if err := invariant.ReferenceComplete(snap.G, snap.Colors, snap.NumColors); err != nil {
			// The valid-or-unhealthy contract just failed; refuse to serve.
			s.met.dynCheckFails.Add(1)
			writeError(w, http.StatusInternalServerError, "coloring failed the oracle: %v", err)
			return
		}
	}
	writeJSON(w, http.StatusOK, &ColoringResponse{
		ID:        gs.id,
		Version:   snap.Version,
		N:         snap.G.N(),
		NumColors: snap.NumColors,
		Colors:    snap.Colors,
		Stale:     stale,
		Checked:   check,
	})
}
