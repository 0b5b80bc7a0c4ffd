package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"deltacoloring/internal/dynamic"
	"deltacoloring/internal/faults"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/invariant"
	"deltacoloring/internal/local"
)

// testGraph is a small sparse graph with room for edge flips.
func testGraph(seed int64) *graph.Graph {
	return graph.ErdosRenyi(120, 0.03, rand.New(rand.NewSource(seed)))
}

// flipBatch builds one valid single-edge flip against the store's snapshot.
func flipBatch(rng *rand.Rand, l *dynamic.Live) []dynamic.Mutation {
	snap, _ := l.Snapshot()
	for {
		u, v := rng.Intn(snap.G.N()), rng.Intn(snap.G.N())
		if u == v {
			continue
		}
		op := dynamic.OpAddEdge
		if snap.G.HasEdge(u, v) {
			op = dynamic.OpRemoveEdge
		}
		return []dynamic.Mutation{{Op: op, U: u, V: v}}
	}
}

// applyN drives n flips through the durable store, failing the test on any
// rejection, and returns the batches in order.
func applyN(t *testing.T, s *Store, rng *rand.Rand, n int) [][]dynamic.Mutation {
	t.Helper()
	batches := make([][]dynamic.Mutation, 0, n)
	for i := 0; i < n; i++ {
		b := flipBatch(rng, s.Live())
		if _, err := s.Apply(b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		batches = append(batches, b)
	}
	return batches
}

// sameStructure asserts two stores expose identical graphs and versions.
func sameStructure(t *testing.T, got, want *dynamic.Live) {
	t.Helper()
	if got.Version() != want.Version() {
		t.Fatalf("version %d, want %d", got.Version(), want.Version())
	}
	gs, _ := got.Snapshot()
	ws, _ := want.Snapshot()
	if gs.G.N() != ws.G.N() || !reflect.DeepEqual(gs.G.Edges(), ws.G.Edges()) {
		t.Fatalf("recovered structure diverged: %v vs %v", gs.G, ws.G)
	}
}

// verifyLive asserts the store is healthy and its coloring passes the oracle.
func verifyLive(t *testing.T, l *dynamic.Live) {
	t.Helper()
	snap, ok := l.Snapshot()
	if !ok {
		t.Fatal("store unhealthy")
	}
	if err := invariant.ReferenceComplete(snap.G, snap.Colors, snap.NumColors); err != nil {
		t.Fatalf("oracle: %v", err)
	}
}

// crash abandons the store without Close: no checkpoint or flush happens —
// exactly the state a SIGKILL leaves behind (the page cache is shared, so
// unsynced writes are still visible to the same machine; the restart chaos
// harness covers the real-process case).
func crash(s *Store) { s.Abandon() }

func newStore(t *testing.T, dir string, seed int64, cfg Config) *Store {
	t.Helper()
	live, err := dynamic.New(testGraph(seed), dynamic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Create(dir, live, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCreateRecoverRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "g1")
	s := newStore(t, dir, 1, Config{Fsync: FsyncOff, CheckpointEvery: -1})
	rng := rand.New(rand.NewSource(2))
	applyN(t, s, rng, 12)
	pre := s.Live()
	crash(s)

	rec, rep, err := Recover(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rep.Replayed != 12 || rep.Skipped != 0 || rep.TruncatedBytes != 0 {
		t.Fatalf("report %+v, want 12 replayed clean", rep)
	}
	if rep.CheckpointVersion != 1 {
		t.Fatalf("checkpoint version %d, want 1", rep.CheckpointVersion)
	}
	sameStructure(t, rec.Live(), pre)
	verifyLive(t, rec.Live())
	if st := rec.Live().Stats(); st.Batches != 12 {
		t.Fatalf("recovered stats lost the stream: %+v", st)
	}
}

func TestRecoverEmptyWAL(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "g1")
	s := newStore(t, dir, 3, Config{})
	crash(s)
	rec, rep, err := Recover(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rep.Replayed != 0 || rep.Skipped != 0 || rep.Version != 1 || !rep.Healthy {
		t.Fatalf("empty-WAL report %+v", rep)
	}
	verifyLive(t, rec.Live())
}

func TestRecoverCheckpointNoTail(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "g1")
	s := newStore(t, dir, 4, Config{Fsync: FsyncOff, CheckpointEvery: -1})
	rng := rand.New(rand.NewSource(5))
	applyN(t, s, rng, 7)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	pre := s.Live()
	crash(s)
	rec, rep, err := Recover(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rep.Replayed != 0 || rep.CheckpointVersion != 8 || rep.Version != 8 {
		t.Fatalf("checkpoint-no-tail report %+v", rep)
	}
	sameStructure(t, rec.Live(), pre)
	verifyLive(t, rec.Live())
}

func TestRecoverTornFinalRecord(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "g1")
	s := newStore(t, dir, 6, Config{Fsync: FsyncOff, CheckpointEvery: -1})
	rng := rand.New(rand.NewSource(7))
	applyN(t, s, rng, 5)
	crash(s)

	// Injected short write: drop the final bytes of the last record, as a
	// crash mid-append would.
	walPath := filepath.Join(dir, walFile)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	rec, rep, err := Recover(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rep.Replayed != 4 || rep.TruncatedBytes == 0 || rep.TornReason == "" {
		t.Fatalf("torn-tail report %+v", rep)
	}
	if rep.Version != 5 { // version 1 + 4 surviving batches
		t.Fatalf("version %d, want 5", rep.Version)
	}
	verifyLive(t, rec.Live())

	// The truncation is durable: a second recovery sees a clean log.
	crash(rec)
	rec2, rep2, err := Recover(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec2.Close()
	if rep2.TruncatedBytes != 0 || rep2.Replayed != 0 || rep2.Version != 5 {
		t.Fatalf("second recovery not clean: %+v", rep2)
	}
}

func TestRecoverBitFlippedCRC(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "g1")
	s := newStore(t, dir, 8, Config{Fsync: FsyncOff, CheckpointEvery: -1})
	rng := rand.New(rand.NewSource(9))
	applyN(t, s, rng, 6)
	crash(s)

	// Flip one payload byte in the third record: it and everything after it
	// must be dropped — a checksum-failing record cannot be skipped over,
	// because later batches build on it.
	info, err := ReadWAL(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Records) != 6 {
		t.Fatalf("%d records, want 6", len(info.Records))
	}
	data, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	data[info.Records[2].Offset+walRecordHeader+9] ^= 0x10
	if err := os.WriteFile(filepath.Join(dir, walFile), data, 0o644); err != nil {
		t.Fatal(err)
	}

	rec, rep, err := Recover(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rep.Replayed != 2 || rep.TornReason != "CRC mismatch" {
		t.Fatalf("bit-flip report %+v", rep)
	}
	if rep.Version != 3 {
		t.Fatalf("version %d, want 3", rep.Version)
	}
	verifyLive(t, rec.Live())
}

func TestRecoverDuplicateVersionIdempotent(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "g1")
	s := newStore(t, dir, 10, Config{Fsync: FsyncOff, CheckpointEvery: -1})
	rng := rand.New(rand.NewSource(11))
	applyN(t, s, rng, 4)
	// Simulate a crash in the checkpoint's vulnerable window: snapshot
	// installed, log not yet truncated — every record is now a duplicate.
	if err := WriteCheckpoint(dir, s.Live().State()); err != nil {
		t.Fatal(err)
	}
	pre := s.Live()
	crash(s)

	rec, rep, err := Recover(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rep.Skipped != 4 || rep.Replayed != 0 {
		t.Fatalf("duplicate-replay report %+v", rep)
	}
	sameStructure(t, rec.Live(), pre)
	verifyLive(t, rec.Live())
}

// faultHook returns a NetHook that injects a heavy crash/drop/corrupt plan
// on every maintenance network, reliably failing both the incremental and
// the recompute path.
func faultHook(seed int64) func(*local.Network) {
	return func(net *local.Network) {
		p, err := faults.NewPlan(net.Graph(), faults.Config{
			Seed: seed, CrashRate: 0.5, DropRate: 0.5, CorruptRate: 0.5,
		})
		if err == nil {
			net.SetFaults(p)
		}
	}
}

func TestRecoverUnhealthyCrashKeepsLastGood(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "g1")
	g := testGraph(12)
	var failing bool
	hook := func(net *local.Network) {
		if failing {
			faultHook(99)(net)
		}
	}
	live, err := dynamic.New(g, dynamic.Options{NetHook: hook})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Create(dir, live, Config{Fsync: FsyncOff, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	applyN(t, s, rng, 3)
	goodVersion := live.Version()

	failing = true
	batch := flipBatch(rng, live)
	if _, err := s.Apply(batch); !errors.Is(err, dynamic.ErrMaintenance) {
		t.Fatalf("fault plan did not fail maintenance: %v", err)
	}
	if live.Healthy() {
		t.Fatal("store still healthy after failed maintenance")
	}
	// Checkpoint the unhealthy state (the periodic checkpointer does this in
	// production whenever the cadence lands on an unhealthy store).
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	crash(s)

	rec, rep, err := Recover(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rep.Healthy {
		t.Fatal("recovered store claims healthy after an unhealthy checkpoint")
	}
	lg := rec.Live().LastGood()
	if lg == nil {
		t.Fatal("last-known-good did not survive the unhealthy crash")
	}
	if lg.Version != goodVersion {
		t.Fatalf("last-good version %d, want %d", lg.Version, goodVersion)
	}
	if err := invariant.ReferenceComplete(lg.G, lg.Colors, lg.NumColors); err != nil {
		t.Fatalf("recovered last-good fails the oracle: %v", err)
	}
	// A fault-free recompute heals the recovered store.
	if _, err := rec.Live().Recompute(); err != nil {
		t.Fatal(err)
	}
	verifyLive(t, rec.Live())
}

func TestReplayFailureReproducesUnhealthy(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "g1")
	g := testGraph(14)
	var failing bool
	hook := func(net *local.Network) {
		if failing {
			faultHook(77)(net)
		}
	}
	live, err := dynamic.New(g, dynamic.Options{NetHook: hook})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Create(dir, live, Config{Fsync: FsyncOff, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	applyN(t, s, rng, 2)
	// Checkpoint here so the replayed tail holds only fault-era records:
	// replaying under the same deterministic fault seed then reproduces each
	// batch's original outcome exactly.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	failing = true
	survived := 0
	for {
		_, err := s.Apply(flipBatch(rng, live))
		if errors.Is(err, dynamic.ErrMaintenance) {
			break
		}
		if err != nil {
			t.Fatalf("unexpected apply error: %v", err)
		}
		if survived++; survived > 40 {
			t.Fatal("fault plan never failed maintenance")
		}
	}
	goodVersion := live.Version() - 1 // last version whose maintenance held
	// No checkpoint: the failing batch lives only in the log.
	crash(s)

	// Recover under the same fault pressure: the replayed batch fails its
	// maintenance again, reproducing the pre-crash unhealthy-with-last-good
	// state instead of silently dropping the acknowledged batch.
	rec, rep, err := Recover(dir, Config{Dynamic: dynamic.Options{NetHook: faultHook(77)}})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rep.ReplayFailures == 0 || rep.Healthy {
		t.Fatalf("replay-failure report %+v", rep)
	}
	if rec.Live().Version() != goodVersion+1 {
		t.Fatalf("version %d, want %d", rec.Live().Version(), goodVersion+1)
	}
	lg := rec.Live().LastGood()
	if lg == nil || lg.Version != goodVersion {
		t.Fatalf("last-good lost: %+v", lg)
	}
	if err := invariant.ReferenceComplete(lg.G, lg.Colors, lg.NumColors); err != nil {
		t.Fatalf("last-good fails the oracle: %v", err)
	}
}

func TestCheckpointCadenceTruncatesLog(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "g1")
	s := newStore(t, dir, 16, Config{Fsync: FsyncOff, CheckpointEvery: 5})
	defer s.Close()
	rng := rand.New(rand.NewSource(17))
	applyN(t, s, rng, 12)
	info, err := ReadWAL(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Records) != 2 { // 12 = 2 checkpoints at 5 + 2 tail records
		t.Fatalf("%d tail records after cadence checkpoints, want 2", len(info.Records))
	}
	if st := s.WALStats(); st.Checkpoints != 3 || st.Appends != 12 { // create + 2 cadence
		t.Fatalf("stats %+v", st)
	}
}

func TestCloseWritesFinalCheckpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "g1")
	s := newStore(t, dir, 18, Config{Fsync: FsyncOff, CheckpointEvery: -1})
	rng := rand.New(rand.NewSource(19))
	applyN(t, s, rng, 6)
	pre := s.Live()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rec, rep, err := Recover(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rep.Replayed != 0 || rep.CheckpointVersion != 7 {
		t.Fatalf("clean shutdown still needed replay: %+v", rep)
	}
	sameStructure(t, rec.Live(), pre)
	verifyLive(t, rec.Live())
}

func TestDestroyAtomicAndListSweep(t *testing.T) {
	base := t.TempDir()
	dir := filepath.Join(base, "g000001")
	s := newStore(t, dir, 20, Config{})
	if ids, _ := List(base); len(ids) != 1 || ids[0] != "g000001" {
		t.Fatalf("List = %v, want [g000001]", ids)
	}
	if err := s.Destroy(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("directory survived Destroy: %v", err)
	}
	// A tombstone left by a crashed Destroy is swept by List.
	leftover := filepath.Join(base, "g000002"+deletingSuffix)
	if err := os.MkdirAll(leftover, 0o755); err != nil {
		t.Fatal(err)
	}
	ids, err := List(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("List = %v, want empty", ids)
	}
	if _, err := os.Stat(leftover); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("List did not sweep the deletion tombstone")
	}
}

func TestVerifyIsReadOnly(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "g1")
	s := newStore(t, dir, 21, Config{Fsync: FsyncOff, CheckpointEvery: -1})
	rng := rand.New(rand.NewSource(22))
	applyN(t, s, rng, 4)
	crash(s)
	walPath := filepath.Join(dir, walFile)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadFile(walPath)
	ckptBefore, _ := os.ReadFile(filepath.Join(dir, checkpointFile))

	rep, err := Verify(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != 3 || rep.TruncatedBytes == 0 || !rep.Healthy {
		t.Fatalf("verify report %+v", rep)
	}
	after, _ := os.ReadFile(walPath)
	ckptAfter, _ := os.ReadFile(filepath.Join(dir, checkpointFile))
	if !bytes.Equal(before, after) || !bytes.Equal(ckptBefore, ckptAfter) {
		t.Fatal("Verify modified the directory")
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, pol := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncOff} {
		t.Run(string(pol), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "g1")
			s := newStore(t, dir, 23, Config{Fsync: pol})
			rng := rand.New(rand.NewSource(24))
			applyN(t, s, rng, 5)
			st := s.WALStats()
			if st.Appends != 5 || st.AppendBytes == 0 {
				t.Fatalf("stats %+v", st)
			}
			if pol == FsyncAlways && st.Fsyncs != 5 {
				t.Fatalf("always policy synced %d times, want 5", st.Fsyncs)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			rec, _, err := Recover(dir, Config{})
			if err != nil {
				t.Fatal(err)
			}
			verifyLive(t, rec.Live())
			rec.Close()
		})
	}
}

// TestWALPayloadCountCheckedBeforeAlloc: a payload claiming more mutations
// than its bytes can hold at three bytes each is refused before the batch
// is allocated. 2^20 mutations presized would take 32 MiB.
func TestWALPayloadCountCheckedBeforeAlloc(t *testing.T) {
	payload := binary.LittleEndian.AppendUint64(nil, 7)
	payload = binary.AppendUvarint(payload, 1<<20)
	payload = append(payload, make([]byte, 1<<20)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := decodePayload(payload)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("err = %v, want the count refused", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("allocated %d bytes refusing a %d-byte payload", grew, len(payload))
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, ok := range []string{"", "always", "interval", "off"} {
		if _, err := ParseFsyncPolicy(ok); err != nil {
			t.Fatalf("%q rejected: %v", ok, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

func TestCheckpointStateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(25)
	live, err := dynamic.New(g, dynamic.Options{FallbackDirtyFraction: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 5; i++ {
		if _, err := live.Apply(flipBatch(rng, live)); err != nil {
			t.Fatal(err)
		}
	}
	want := live.State()
	if err := WriteCheckpoint(dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != want.Version || got.Healthy != want.Healthy ||
		got.NumColors != want.NumColors || got.Backend != want.Backend ||
		got.FallbackDirtyFraction != want.FallbackDirtyFraction {
		t.Fatalf("scalar fields diverged:\n got %+v\nwant %+v", got, want)
	}
	if !reflect.DeepEqual(got.Colors, want.Colors) || !reflect.DeepEqual(got.Removed, want.Removed) {
		t.Fatal("colors/removed diverged")
	}
	if got.Stats != want.Stats {
		t.Fatalf("stats %+v, want %+v", got.Stats, want.Stats)
	}
	if !reflect.DeepEqual(got.G.Edges(), want.G.Edges()) {
		t.Fatal("graph diverged")
	}
	if got.LastGood == nil || got.LastGood.Version != want.LastGood.Version {
		t.Fatal("last-good diverged")
	}
	for v := 0; v < g.N(); v++ {
		if got.G.ID(v) != want.G.ID(v) {
			t.Fatalf("ID(%d) lost in round trip", v)
		}
	}
}

func TestReadCheckpointRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	live, err := dynamic.New(testGraph(27), dynamic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpoint(dir, live.State()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, checkpointFile)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, mutate := range []func([]byte) []byte{
		func(b []byte) []byte { return b[:len(b)/2] },           // torn body
		func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b }, // payload flip
		func(b []byte) []byte { b[2] ^= 0xff; return b },        // magic flip
		func(b []byte) []byte { return b[:4] },                  // short header
	} {
		if err := os.WriteFile(path, mutate(append([]byte(nil), clean...)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadCheckpoint(dir); !errors.Is(err, ErrNoCheckpoint) {
			t.Fatalf("corrupt checkpoint accepted: %v", err)
		}
	}
}

// TestOlderCheckpointVersionRefused: a checkpoint of format version 1 (the
// graph image without its DCSRv1 magic and pad) is refused by an error
// naming both versions, by Recover and Verify alike, and the directory is
// left byte for byte as it was.
func TestOlderCheckpointVersionRefused(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "g1")
	s := newStore(t, dir, 25, Config{Fsync: FsyncOff, CheckpointEvery: -1})
	applyN(t, s, rand.New(rand.NewSource(26)), 3)
	crash(s)
	ckpt := filepath.Join(dir, checkpointFile)
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	data[5] = 1
	if err := os.WriteFile(ckpt, data, 0o644); err != nil {
		t.Fatal(err)
	}
	walBefore, _ := os.ReadFile(filepath.Join(dir, walFile))
	const want = "checkpoint format version 1, this build reads version 2"
	if _, _, err := Recover(dir, Config{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Recover: err = %v, want %q", err, want)
	}
	if _, err := Verify(dir, Config{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Verify: err = %v, want %q", err, want)
	}
	ckptAfter, _ := os.ReadFile(ckpt)
	walAfter, _ := os.ReadFile(filepath.Join(dir, walFile))
	if !bytes.Equal(ckptAfter, data) || !bytes.Equal(walAfter, walBefore) {
		t.Fatal("a refused checkpoint's directory changed")
	}
}
