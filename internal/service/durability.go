package service

import (
	"fmt"
	"net/http"
	"path/filepath"
	"sort"

	"deltacoloring/internal/durable"
	"deltacoloring/internal/dynamic"
)

// Durability wiring: when Config.DataDir is set, every dynamic graph store
// gets a WAL + checkpoint directory under DataDir/<graph-id>, and New starts
// a background recovery pass that replays whatever the last process left
// behind. Until that pass finishes, the /v1/graphs surface answers 503 with
// Retry-After and /readyz reports not-ready — the server is alive (liveness
// is separate) but must not accept mutations it could interleave with
// replay, nor serve colorings that have not been re-verified.

// GraphRecovery is one graph's recovery outcome, served by /readyz and
// returned by recoveryStatus.
type GraphRecovery struct {
	ID     string                  `json:"id"`
	Report *durable.RecoveryReport `json:"report,omitempty"`
	Error  string                  `json:"error,omitempty"`
}

// durableConfig assembles the store-level durability knobs. Process-level
// dynamic options ride along so recovered stores get the same chaos seam and
// worker budget as freshly created ones.
func (s *Server) durableConfig() durable.Config {
	return durable.Config{
		Fsync:           s.cfg.Fsync,
		CheckpointEvery: s.cfg.CheckpointEvery,
		Dynamic:         dynamic.Options{NetHook: s.cfg.dynNetHook},
	}
}

// recoverAll replays every graph directory under DataDir and installs the
// recovered stores. It runs once, on its own goroutine, before the server
// reports ready; per-graph failures are recorded and skipped (one corrupt
// directory must not keep the rest of the fleet down).
func (s *Server) recoverAll() {
	defer s.recovering.Store(false)
	ids, err := durable.List(s.cfg.DataDir)
	if err != nil {
		s.recMu.Lock()
		s.recFleetErr = err.Error()
		s.recMu.Unlock()
		return
	}
	for _, id := range ids {
		// The ID stays taken whether or not its directory recovers: a new
		// graph must never be created over a directory that failed.
		s.gmu.Lock()
		var seq uint64
		if _, err := fmt.Sscanf(id, "g%d", &seq); err == nil && seq > s.graphSeq {
			s.graphSeq = seq
		}
		s.gmu.Unlock()
		st, rep, rerr := durable.Recover(filepath.Join(s.cfg.DataDir, id), s.durableConfig())
		gr := GraphRecovery{ID: id, Report: rep}
		if rerr != nil {
			gr.Error = rerr.Error()
		} else {
			s.installRecovered(id, st)
		}
		s.recMu.Lock()
		s.recReports = append(s.recReports, gr)
		s.recMu.Unlock()
	}
}

// installRecovered registers a recovered store under its durable ID.
func (s *Server) installRecovered(id string, st *durable.Store) {
	gs := &graphStore{
		id:       id,
		live:     st.Live(),
		store:    st,
		jobs:     make(chan *mutJob, s.cfg.MutationQueueDepth),
		loopDone: make(chan struct{}),
	}
	s.gmu.Lock()
	s.graphs[id] = gs
	s.gmu.Unlock()
	s.graphsWG.Add(1)
	go s.applyLoop(gs)
}

// recoveryStatus snapshots the recovery pass for /readyz, sorted by ID.
func (s *Server) recoveryStatus() (reports []GraphRecovery, fleetErr string) {
	s.recMu.Lock()
	reports = append([]GraphRecovery(nil), s.recReports...)
	fleetErr = s.recFleetErr
	s.recMu.Unlock()
	sort.Slice(reports, func(i, j int) bool { return reports[i].ID < reports[j].ID })
	return reports, fleetErr
}

// recoverySummary aggregates the recovery pass for /metrics.
type recoverySummary struct {
	graphs    int
	unhealthy int
	failed    int
	replayed  int
	skipped   int
	truncated int64
	nanos     int64
}

func (s *Server) recoveryTotals() recoverySummary {
	s.recMu.Lock()
	defer s.recMu.Unlock()
	var t recoverySummary
	for _, gr := range s.recReports {
		t.graphs++
		if gr.Error != "" {
			t.failed++
			continue
		}
		if !gr.Report.Healthy {
			t.unhealthy++
		}
		t.replayed += gr.Report.Replayed
		t.skipped += gr.Report.Skipped
		t.truncated += gr.Report.TruncatedBytes
		t.nanos += gr.Report.Nanos
	}
	return t
}

// walTotals sums durability counters across live stores plus the retained
// base from destroyed ones, so /metrics counters never go backwards.
func (s *Server) walTotals() durable.WALStats {
	s.gmu.Lock()
	defer s.gmu.Unlock()
	t := s.walBase
	for _, gs := range s.graphs {
		if gs.store != nil {
			addWALStats(&t, gs.store.WALStats())
		}
	}
	return t
}

func addWALStats(t *durable.WALStats, w durable.WALStats) {
	t.Appends += w.Appends
	t.AppendBytes += w.AppendBytes
	t.Fsyncs += w.Fsyncs
	t.AppendErrors += w.AppendErrors
	t.Checkpoints += w.Checkpoints
}

// foldWALStats retires a store's counters into the base (before Destroy).
func (s *Server) foldWALStats(st *durable.Store) {
	s.gmu.Lock()
	addWALStats(&s.walBase, st.WALStats())
	s.gmu.Unlock()
}

// gateRecovery answers 503 + Retry-After when WAL replay is still running:
// the graph surface must not accept work it could interleave with recovery.
// Returns true when the request was already answered.
func (s *Server) gateRecovery(w http.ResponseWriter) bool {
	if !s.recovering.Load() {
		return false
	}
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, "recovering durable graphs from %s; retry shortly", s.cfg.DataDir)
	return true
}
