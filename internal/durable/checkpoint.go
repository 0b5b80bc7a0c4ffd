package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"deltacoloring/internal/codec"
	"deltacoloring/internal/dynamic"
	"deltacoloring/internal/graph"
)

// checkpointFile is the snapshot's name inside a graph directory.
const checkpointFile = "checkpoint.ckpt"

// walFile is the log's name inside a graph directory.
const walFile = "wal.log"

// CheckpointFile and WALFile name the two files inside a graph directory,
// exported for inspection tools (cmd/deltawal).
const (
	CheckpointFile = checkpointFile
	WALFile        = walFile
)

// maxCheckpointBody guards ReadCheckpoint against a corrupt length field.
const maxCheckpointBody = 1 << 32

// WriteCheckpoint atomically replaces dir's checkpoint with st: the body is
// serialized and CRC32C-checksummed into a temp file in the same directory,
// fsynced, renamed over checkpoint.ckpt, and the directory fsynced — so a
// crash at any point leaves either the old snapshot or the new one, never a
// torn mix.
//
// File layout: magic, uint64 body length, uint32 CRC32C(body), body.
func WriteCheckpoint(dir string, st dynamic.State) (err error) {
	var body bytes.Buffer
	if err := encodeState(&body, st); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".checkpoint-*.tmp")
	if err != nil {
		return fmt.Errorf("durable: checkpoint temp: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	head := make([]byte, 0, len(ckptMagic)+12)
	head = append(head, ckptMagic...)
	head = binary.LittleEndian.AppendUint64(head, uint64(body.Len()))
	head = binary.LittleEndian.AppendUint32(head, crc32.Checksum(body.Bytes(), castTable))
	if _, err = tmp.Write(head); err == nil {
		_, err = tmp.Write(body.Bytes())
	}
	if err != nil {
		return fmt.Errorf("durable: write checkpoint: %w", err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("durable: sync checkpoint: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("durable: close checkpoint: %w", err)
	}
	if err = os.Rename(tmp.Name(), filepath.Join(dir, checkpointFile)); err != nil {
		return fmt.Errorf("durable: install checkpoint: %w", err)
	}
	return syncDir(dir)
}

// ErrNoCheckpoint reports a graph directory without a (valid) snapshot.
var ErrNoCheckpoint = errors.New("durable: no valid checkpoint")

// ReadCheckpoint loads and validates dir's snapshot. A missing, truncated,
// or checksum-failing file returns ErrNoCheckpoint (wrapped with detail):
// checkpoints are written atomically, so any damage means the directory
// never finished initializing and holds no recoverable state. A checkpoint
// of another format version is not damage: its error names both versions,
// and nothing in the directory is touched.
func ReadCheckpoint(dir string) (dynamic.State, error) {
	var st dynamic.State
	data, err := os.ReadFile(filepath.Join(dir, checkpointFile))
	if errors.Is(err, os.ErrNotExist) {
		return st, fmt.Errorf("%w: %s", ErrNoCheckpoint, dir)
	}
	if err != nil {
		return st, fmt.Errorf("durable: read checkpoint: %w", err)
	}
	if len(data) >= len(ckptMagic) && string(data[:5]) == string(ckptMagic[:5]) && data[5] != ckptVersion {
		return st, fmt.Errorf("durable: checkpoint format version %d, this build reads version %d", data[5], ckptVersion)
	}
	if len(data) < len(ckptMagic)+12 || string(data[:len(ckptMagic)]) != string(ckptMagic) {
		return st, fmt.Errorf("%w: bad header", ErrNoCheckpoint)
	}
	blen := binary.LittleEndian.Uint64(data[len(ckptMagic):])
	crc := binary.LittleEndian.Uint32(data[len(ckptMagic)+8:])
	body := data[len(ckptMagic)+12:]
	if blen > maxCheckpointBody || uint64(len(body)) != blen {
		return st, fmt.Errorf("%w: torn body (%d of %d bytes)", ErrNoCheckpoint, len(body), blen)
	}
	if crc32.Checksum(body, castTable) != crc {
		return st, fmt.Errorf("%w: CRC mismatch", ErrNoCheckpoint)
	}
	st, err = decodeState(body)
	if err != nil {
		return st, fmt.Errorf("%w: %v", ErrNoCheckpoint, err)
	}
	return st, nil
}

// encodeState serializes a store image (see DESIGN.md §13 for the layout).
func encodeState(w *bytes.Buffer, st dynamic.State) error {
	var scratch [binary.MaxVarintLen64]byte
	u64 := func(v uint64) { w.Write(binary.LittleEndian.AppendUint64(scratch[:0], v)) }
	flag := func(b bool) {
		c := byte(0)
		if b {
			c = 1
		}
		w.WriteByte(c)
	}
	snap := func(s *dynamic.Snapshot) error {
		u64(uint64(s.Version))
		if err := graph.EncodeBinary(w, s.G); err != nil {
			return err
		}
		for _, c := range s.Colors {
			w.Write(binary.AppendVarint(scratch[:0], int64(c)))
		}
		u64(uint64(s.NumColors))
		return nil
	}

	u64(uint64(st.Version))
	flag(st.Healthy)
	u64(math.Float64bits(st.FallbackDirtyFraction))
	u64(uint64(len(st.Backend)))
	w.WriteString(st.Backend)
	if err := snap(&dynamic.Snapshot{G: st.G, Colors: st.Colors, NumColors: st.NumColors, Version: st.Version}); err != nil {
		return err
	}
	for _, r := range st.Removed {
		flag(r)
	}
	for _, p := range statFields(&st.Stats) {
		u64(uint64(*p))
	}
	// Last-good is elided when it is the current state (the healthy common
	// case): recovery reconstitutes it from the snapshot itself.
	lg := st.LastGood
	if lg != nil && st.Healthy && lg.Version == st.Version {
		lg = nil
	}
	flag(lg != nil)
	if lg != nil {
		return snap(lg)
	}
	return nil
}

// statFields lists a store's cumulative counters in checkpoint order.
func statFields(s *dynamic.Stats) []*int64 {
	return []*int64{&s.Batches, &s.Mutations, &s.Incremental, &s.Recomputes,
		&s.Fallbacks, &s.Failures, &s.Recolored, &s.Rounds}
}

// decodeState parses one encodeState body, validating as it goes. It
// accepts only what encodeState writes: minimal varints, 0/1 bools, and no
// explicit last-good where the encoder elides it.
func decodeState(body []byte) (dynamic.State, error) {
	r := codec.NewReader(body, "durable: bad checkpoint")
	st := dynamic.State{Version: int64(r.U64()), Healthy: r.Bool()}
	st.FallbackDirtyFraction = math.Float64frombits(r.U64())
	if blen := r.U64(); blen > 256 {
		r.Failf("backend name length %d implausible", blen)
	} else {
		st.Backend = string(r.Skip(int(blen)))
	}
	cur := readSnap(&r)
	if cur == nil {
		return st, r.Err()
	}
	if cur.Version != st.Version {
		return st, fmt.Errorf("durable: checkpoint snapshot version %d != header %d", cur.Version, st.Version)
	}
	st.G, st.Colors, st.NumColors = cur.G, cur.Colors, cur.NumColors
	st.Removed = make([]bool, st.G.N())
	for i := range st.Removed {
		st.Removed[i] = r.Bool()
	}
	for _, p := range statFields(&st.Stats) {
		*p = int64(r.U64())
	}
	switch hasLG := r.Bool(); {
	case hasLG:
		st.LastGood = readSnap(&r)
		if lg := st.LastGood; lg != nil && st.Healthy && lg.Version == st.Version {
			r.Failf("explicit last-good at the current version %d of a healthy store", st.Version)
		}
	case st.Healthy:
		st.LastGood = cur
	}
	return st, r.End()
}

// readSnap reads one snapshot: version, graph image, one varint color per
// vertex, palette size. It returns nil once r has failed.
func readSnap(r *codec.Reader) *dynamic.Snapshot {
	ver := int64(r.U64())
	g, size, err := graph.DecodeBinary(r.Rest())
	if err != nil {
		r.Failf("%w", err)
		return nil
	}
	r.Skip(size)
	colors := make([]int, g.N())
	for i := range colors {
		colors[i] = int(r.Varint())
	}
	k := r.U64()
	if k > uint64(g.N())+1 {
		r.Failf("numColors %d implausible for n=%d", k, g.N())
	}
	if r.Err() != nil {
		return nil
	}
	return &dynamic.Snapshot{G: g, Colors: colors, NumColors: int(k), Version: ver}
}
