package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"deltacoloring/internal/dynamic"
)

// Config tunes a durable store. The zero value is usable: fsync=always,
// checkpoint every 64 batches.
type Config struct {
	// Fsync is the WAL flush policy ("" means FsyncAlways).
	Fsync FsyncPolicy
	// FsyncInterval is the background flush cadence under FsyncInterval
	// (default 100ms).
	FsyncInterval time.Duration
	// CheckpointEvery snapshots the store and truncates the log after this
	// many appended batches (default 64; negative disables periodic
	// checkpoints — Close still writes a final one).
	CheckpointEvery int
	// Dynamic carries the process-level store options applied at recovery
	// (Workers, NetHook). Store-identity options (Backend,
	// FallbackDirtyFraction) are read from the checkpoint instead.
	Dynamic dynamic.Options
}

func (c Config) withDefaults() Config {
	if c.Fsync == "" {
		c.Fsync = FsyncAlways
	}
	if c.FsyncInterval <= 0 {
		c.FsyncInterval = 100 * time.Millisecond
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 64
	}
	return c
}

// WALStats counts a store's durability traffic.
type WALStats struct {
	Appends      uint64 `json:"appends"`
	AppendBytes  uint64 `json:"append_bytes"`
	Fsyncs       uint64 `json:"fsyncs"`
	AppendErrors uint64 `json:"append_errors"`
	Checkpoints  uint64 `json:"checkpoints"`
}

// ErrWAL wraps append/flush failures: the batch was applied in memory but
// its durability is not guaranteed, so callers must not acknowledge it as
// durable (the service answers 500 and counts it).
var ErrWAL = errors.New("wal append failed")

// Store wraps a dynamic.Live with a write-ahead log and checkpoints. Apply
// and Checkpoint serialize on an internal lock; reads go straight to Live.
type Store struct {
	dir  string
	cfg  Config
	live *dynamic.Live

	mu       sync.Mutex
	wal      *walWriter
	appended int // batches since the last checkpoint
	stats    WALStats
	closed   bool

	syncStop chan struct{}
	syncDone chan struct{}
}

// Live exposes the wrapped store for reads (Snapshot, Info, Stats, ...).
func (s *Store) Live() *dynamic.Live { return s.live }

// WALStats returns a copy of the durability counters.
func (s *Store) WALStats() WALStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Create initializes dir (which must not already hold a store) for live:
// initial checkpoint at the store's current version, fresh log. The returned
// Store owns the directory until Close or Destroy.
func Create(dir string, live *dynamic.Live, cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: create dir: %w", err)
	}
	if _, err := os.Stat(filepath.Join(dir, checkpointFile)); err == nil {
		return nil, fmt.Errorf("durable: %s already holds a store (recover it instead)", dir)
	}
	if err := WriteCheckpoint(dir, live.State()); err != nil {
		return nil, err
	}
	w, err := createWAL(filepath.Join(dir, walFile))
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, cfg: cfg, live: live, wal: w}
	s.stats.Checkpoints++
	s.startSyncer()
	return s, nil
}

// Apply applies one batch to the wrapped store and logs it before returning:
// under FsyncAlways the record is on stable storage when Apply returns nil
// (or a maintenance failure — the structural change is acknowledged either
// way). Batch-validation rejections log nothing, because the store did not
// advance. A logging failure returns an ErrWAL-wrapped error: the in-memory
// state advanced but the durability guarantee is void for this batch.
func (s *Store) Apply(batch []dynamic.Mutation) (*dynamic.ApplyResult, error) {
	res, aerr := s.live.Apply(batch)
	if aerr != nil && !errors.Is(aerr, dynamic.ErrMaintenance) {
		return res, aerr // rejected batch: no structural change, nothing to log
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return res, fmt.Errorf("durable: %w: store closed", ErrWAL)
	}
	n, werr := s.wal.append(s.live.Version(), batch)
	if werr == nil && s.cfg.Fsync == FsyncAlways {
		if werr = s.wal.sync(); werr == nil {
			s.stats.Fsyncs++
		}
	}
	if werr != nil {
		s.stats.AppendErrors++
		return res, fmt.Errorf("durable: %w: %v", ErrWAL, werr)
	}
	s.stats.Appends++
	s.stats.AppendBytes += uint64(n)
	s.appended++
	if s.cfg.CheckpointEvery > 0 && s.appended >= s.cfg.CheckpointEvery {
		if cerr := s.checkpointLocked(); cerr != nil {
			// The log still holds every batch; losing a checkpoint costs
			// replay time, not correctness. Surface it as a WAL error so the
			// operator sees it, but the batch itself is durable.
			return res, fmt.Errorf("durable: %w: checkpoint: %v", ErrWAL, cerr)
		}
	}
	return res, aerr
}

// Checkpoint snapshots the store now and truncates the log.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("durable: store closed")
	}
	return s.checkpointLocked()
}

// checkpointLocked writes the snapshot, then resets the log. The order is
// load-bearing: a crash between the two leaves a checkpoint plus a log of
// already-subsumed records, which replay skips by version — never the
// reverse, which would lose batches.
func (s *Store) checkpointLocked() error {
	if err := WriteCheckpoint(s.dir, s.live.State()); err != nil {
		return err
	}
	s.stats.Checkpoints++
	s.appended = 0
	return s.wal.reset()
}

// Close flushes, writes a final checkpoint (so restart needs no replay), and
// releases the log. The wrapped Live remains readable.
func (s *Store) Close() error {
	s.stopSyncer()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	cerr := func() error {
		if err := WriteCheckpoint(s.dir, s.live.State()); err != nil {
			return err
		}
		s.stats.Checkpoints++
		return s.wal.reset()
	}()
	if err := s.wal.close(); err != nil && cerr == nil {
		cerr = err
	}
	return cerr
}

// Abandon releases the store's file handles without flushing, checkpointing,
// or truncating anything: the directory is left exactly as a crash-stop
// would leave it, checkpoint lag and WAL tail included. It exists for
// restart harnesses and recovery benchmarks; production code wants Close.
func (s *Store) Abandon() {
	s.stopSyncer()
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.wal.close()
	}
	s.mu.Unlock()
}

// Destroy releases the log and removes the store's directory atomically:
// the directory is renamed to a tombstone name first (one atomic step — a
// crash mid-removal leaves a tombstone that List ignores and cleans up, not
// a half-deleted store), then deleted.
func (s *Store) Destroy() error {
	s.stopSyncer()
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.wal.close()
	}
	s.mu.Unlock()
	doomed := s.dir + deletingSuffix
	if err := os.Rename(s.dir, doomed); err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("durable: destroy: %w", err)
	}
	if err := syncDir(filepath.Dir(s.dir)); err != nil {
		return err
	}
	return os.RemoveAll(doomed)
}

// deletingSuffix marks directories whose removal was in flight.
const deletingSuffix = ".deleting"

// startSyncer launches the background flusher under FsyncInterval.
func (s *Store) startSyncer() {
	if s.cfg.Fsync != FsyncInterval {
		return
	}
	s.syncStop = make(chan struct{})
	s.syncDone = make(chan struct{})
	// Capture both channels now: stopSyncer nils the struct fields before
	// closing, so the goroutine must not read them again.
	stop, done := s.syncStop, s.syncDone
	go func() {
		defer close(done)
		t := time.NewTicker(s.cfg.FsyncInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.mu.Lock()
				if !s.closed {
					if s.wal.sync() == nil {
						s.stats.Fsyncs++
					}
				}
				s.mu.Unlock()
			case <-stop:
				return
			}
		}
	}()
}

func (s *Store) stopSyncer() {
	s.mu.Lock()
	stop, done := s.syncStop, s.syncDone
	s.syncStop, s.syncDone = nil, nil
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// List returns the graph IDs with durable state under dataDir (directories
// holding a checkpoint), sorted by name, and sweeps leftover deletion
// tombstones from crashed Destroy calls.
func List(dataDir string) ([]string, error) {
	ents, err := os.ReadDir(dataDir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("durable: list %s: %w", dataDir, err)
	}
	var ids []string
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		if strings.HasSuffix(e.Name(), deletingSuffix) {
			os.RemoveAll(filepath.Join(dataDir, e.Name()))
			continue
		}
		if _, err := os.Stat(filepath.Join(dataDir, e.Name(), checkpointFile)); err == nil {
			ids = append(ids, e.Name())
		}
	}
	return ids, nil
}
