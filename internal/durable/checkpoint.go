package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

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
	st, err = decodeState(bytes.NewReader(body))
	if err != nil {
		return st, fmt.Errorf("%w: %v", ErrNoCheckpoint, err)
	}
	return st, nil
}

// encodeState serializes a store image (see DESIGN.md §13 for the layout).
func encodeState(w *bytes.Buffer, st dynamic.State) error {
	var scratch [binary.MaxVarintLen64]byte
	writeU64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		w.Write(b[:])
	}
	writeVarint := func(v int64) {
		n := binary.PutVarint(scratch[:], v)
		w.Write(scratch[:n])
	}
	writeBool := func(b bool) {
		if b {
			w.WriteByte(1)
		} else {
			w.WriteByte(0)
		}
	}
	writeSnap := func(g *graph.Graph, colors []int, numColors int, version int64) error {
		writeU64(uint64(version))
		if err := graph.EncodeBinary(w, g); err != nil {
			return err
		}
		for _, c := range colors {
			writeVarint(int64(c))
		}
		writeU64(uint64(numColors))
		return nil
	}

	writeU64(uint64(st.Version))
	writeBool(st.Healthy)
	writeU64(math.Float64bits(st.FallbackDirtyFraction))
	writeU64(uint64(len(st.Backend)))
	w.WriteString(st.Backend)
	if err := writeSnap(st.G, st.Colors, st.NumColors, st.Version); err != nil {
		return err
	}
	for _, r := range st.Removed {
		writeBool(r)
	}
	for _, v := range []int64{
		st.Stats.Batches, st.Stats.Mutations, st.Stats.Incremental,
		st.Stats.Recomputes, st.Stats.Fallbacks, st.Stats.Failures,
		st.Stats.Recolored, st.Stats.Rounds,
	} {
		writeU64(uint64(v))
	}
	// Last-good is elided when it is the current state (the healthy common
	// case): recovery reconstitutes it from the snapshot itself.
	sameAsCurrent := st.LastGood != nil && st.Healthy && st.LastGood.Version == st.Version
	writeBool(st.LastGood != nil && !sameAsCurrent)
	if st.LastGood != nil && !sameAsCurrent {
		if err := writeSnap(st.LastGood.G, st.LastGood.Colors, st.LastGood.NumColors, st.LastGood.Version); err != nil {
			return err
		}
	}
	return nil
}

// decodeState parses one encodeState body, validating as it goes.
func decodeState(r *bytes.Reader) (dynamic.State, error) {
	var st dynamic.State
	readU64 := func() (uint64, error) {
		var b [8]byte
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(b[:]), nil
	}
	readBool := func() (bool, error) {
		b, err := r.ReadByte()
		if err != nil {
			return false, err
		}
		if b > 1 {
			return false, fmt.Errorf("durable: bad bool byte %d", b)
		}
		return b == 1, nil
	}
	readSnap := func() (*dynamic.Snapshot, error) {
		ver, err := readU64()
		if err != nil {
			return nil, err
		}
		g, err := graph.DecodeBinary(r)
		if err != nil {
			return nil, err
		}
		colors := make([]int, g.N())
		for i := range colors {
			c, err := binary.ReadVarint(r)
			if err != nil {
				return nil, err
			}
			colors[i] = int(c)
		}
		k, err := readU64()
		if err != nil {
			return nil, err
		}
		if k > uint64(g.N())+1 {
			return nil, fmt.Errorf("durable: checkpoint numColors %d implausible for n=%d", k, g.N())
		}
		return &dynamic.Snapshot{G: g, Colors: colors, NumColors: int(k), Version: int64(ver)}, nil
	}

	ver, err := readU64()
	if err != nil {
		return st, err
	}
	st.Version = int64(ver)
	if st.Healthy, err = readBool(); err != nil {
		return st, err
	}
	fracBits, err := readU64()
	if err != nil {
		return st, err
	}
	st.FallbackDirtyFraction = math.Float64frombits(fracBits)
	blen, err := readU64()
	if err != nil {
		return st, err
	}
	if blen > 256 {
		return st, fmt.Errorf("durable: backend name length %d implausible", blen)
	}
	name := make([]byte, blen)
	if _, err := io.ReadFull(r, name); err != nil {
		return st, err
	}
	st.Backend = string(name)
	cur, err := readSnap()
	if err != nil {
		return st, err
	}
	if cur.Version != st.Version {
		return st, fmt.Errorf("durable: checkpoint snapshot version %d != header %d", cur.Version, st.Version)
	}
	st.G, st.Colors, st.NumColors = cur.G, cur.Colors, cur.NumColors
	st.Removed = make([]bool, st.G.N())
	for i := range st.Removed {
		if st.Removed[i], err = readBool(); err != nil {
			return st, err
		}
	}
	stats := make([]int64, 8)
	for i := range stats {
		v, err := readU64()
		if err != nil {
			return st, err
		}
		stats[i] = int64(v)
	}
	st.Stats = dynamic.Stats{
		Batches: stats[0], Mutations: stats[1], Incremental: stats[2],
		Recomputes: stats[3], Fallbacks: stats[4], Failures: stats[5],
		Recolored: stats[6], Rounds: stats[7],
	}
	hasLG, err := readBool()
	if err != nil {
		return st, err
	}
	if hasLG {
		if st.LastGood, err = readSnap(); err != nil {
			return st, err
		}
	} else if st.Healthy {
		st.LastGood = cur
	}
	if r.Len() != 0 {
		return st, fmt.Errorf("durable: %d trailing checkpoint bytes", r.Len())
	}
	return st, nil
}
