// Package durable gives the dynamic-graph store (internal/dynamic) crash-stop
// durability: a per-graph write-ahead log of acknowledged mutation batches
// plus periodic checkpoint snapshots of the full store state, and a recovery
// path that replays checkpoint+tail, tolerates torn or corrupt log tails, and
// re-verifies every recovered coloring against the sequential oracle before
// it is ever served.
//
// The layering mirrors the repository's fault philosophy (DESIGN.md §8, §11):
// the LOCAL model the paper analyses is fault-free, so recoverability is a
// system-layer concern. A crashed process loses only work that was never
// acknowledged; under the `always` fsync policy an acknowledged batch is on
// stable storage before the client sees the ack, and a recovered graph either
// serves a coloring that passed the oracle or reports itself unhealthy with
// its last known good snapshot — never a silently invalid coloring.
//
// On-disk layout, one directory per graph:
//
//	<dir>/checkpoint.ckpt   atomic (tmp+rename) snapshot: CSR graph, colors,
//	                        tombstones, health, last-good, stats, options
//	<dir>/wal.log           header + length-prefixed CRC32C-checksummed
//	                        records, one per acknowledged batch, versioned
//
// See DESIGN.md §13 for the record format and the exact recovery contract.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"

	"deltacoloring/internal/codec"
	"deltacoloring/internal/dynamic"
)

// FsyncPolicy names when the WAL is flushed to stable storage.
type FsyncPolicy string

const (
	// FsyncAlways syncs after every append, before the batch is
	// acknowledged: a crash loses no acknowledged batch.
	FsyncAlways FsyncPolicy = "always"
	// FsyncInterval syncs on a background ticker every 100 ms: a crash
	// loses at most the last interval's acknowledged batches.
	FsyncInterval FsyncPolicy = "interval"
	// FsyncOff never syncs explicitly: the OS flushes at its leisure, and a
	// crash may lose any batch since the last checkpoint. Appends still hit
	// the page cache, so a clean process exit loses nothing.
	FsyncOff FsyncPolicy = "off"
)

// ParseFsyncPolicy validates a policy name (the -fsync flag).
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch FsyncPolicy(s) {
	case FsyncAlways, FsyncInterval, FsyncOff:
		return FsyncPolicy(s), nil
	case "":
		return FsyncAlways, nil
	}
	return "", fmt.Errorf("durable: unknown fsync policy %q (want always, interval, or off)", s)
}

// ckptVersion is the checkpoint format's version, byte 5 of ckptMagic.
// Version 2 embeds the DCSRv1 graph image; version 1 had a magic-less
// layout of the same arrays.
const ckptVersion = 2

var (
	walMagic  = []byte("DWAL\x00\x01\x00\x00")
	ckptMagic = []byte{'D', 'C', 'K', 'P', 0, ckptVersion, 0, 0}
	castTable = crc32.MakeTable(crc32.Castagnoli)
)

// walRecordHeader is the fixed per-record framing: payload length then
// CRC32C of the payload.
const walRecordHeader = 8

// maxRecordPayload guards ReadWAL against a corrupt length field committing
// the reader to a giant allocation; a batch is bounded by the service's
// MaxMutationsPerBatch at a few bytes per mutation, so 64 MiB is generous.
const maxRecordPayload = 64 << 20

// Record is one decoded WAL entry: the mutation batch acknowledged at
// Version (i.e. the batch that advanced the store from Version-1).
type Record struct {
	Version int64
	Batch   []dynamic.Mutation
	// Offset and Size locate the framed record in the file (inspection).
	Offset int64
	Size   int64
}

// walOps maps a WAL opcode to its mutation op; index 0 is no op.
var walOps = [...]dynamic.Op{1: dynamic.OpAddEdge, 2: dynamic.OpRemoveEdge, 3: dynamic.OpAddVertex, 4: dynamic.OpRemoveVertex}

// minMutationBytes is a mutation's shortest encoding: the opcode and two
// one-byte varints.
const minMutationBytes = 3

// encodeRecord frames one record: 4-byte payload length, 4-byte CRC32C,
// payload = version + batch.
func encodeRecord(version int64, batch []dynamic.Mutation) ([]byte, error) {
	payload := make([]byte, 0, 16+4*len(batch))
	payload = binary.LittleEndian.AppendUint64(payload, uint64(version))
	payload = binary.AppendUvarint(payload, uint64(len(batch)))
	for _, m := range batch {
		c := slices.Index(walOps[:], m.Op)
		if c <= 0 {
			return nil, fmt.Errorf("durable: unknown mutation op %q", m.Op)
		}
		payload = append(payload, byte(c))
		payload = binary.AppendVarint(payload, int64(m.U))
		payload = binary.AppendVarint(payload, int64(m.V))
	}
	rec := make([]byte, 0, walRecordHeader+len(payload))
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.Checksum(payload, castTable))
	return append(rec, payload...), nil
}

// decodePayload parses one checksummed payload back into a record. It
// accepts only what encodeRecord writes, and refuses a batch count the
// payload cannot hold before allocating for it.
func decodePayload(payload []byte) (int64, []dynamic.Mutation, error) {
	r := codec.NewReader(payload, "durable: bad record payload")
	version := int64(r.U64())
	batch := make([]dynamic.Mutation, r.Count(minMutationBytes))
	for i := 0; i < len(batch) && r.Err() == nil; i++ {
		c := r.Byte()
		if c == 0 || int(c) >= len(walOps) {
			r.Failf("unknown mutation opcode %d", c)
			break
		}
		batch[i] = dynamic.Mutation{Op: walOps[c], U: int(r.Varint()), V: int(r.Varint())}
	}
	if err := r.End(); err != nil {
		return 0, nil, err
	}
	return version, batch, nil
}

// WALInfo summarizes one log scan.
type WALInfo struct {
	// Records are the valid entries, in file order.
	Records []Record
	// ValidLen is the byte offset after the last valid record; everything
	// past it is a torn or corrupt tail that recovery truncates.
	ValidLen int64
	// FileLen is the file's actual size.
	FileLen int64
	// TornReason is non-empty when FileLen > ValidLen, naming why the tail
	// was rejected (short header, short payload, CRC mismatch, ...).
	TornReason string
}

// Torn reports whether the scan found bytes past the last valid record.
func (w *WALInfo) Torn() bool { return w.FileLen > w.ValidLen }

// ReadWAL scans a log file, stopping at the first torn or corrupt record. A
// missing file is an empty log; only I/O errors (not corruption) are
// returned as errors — corruption is data, reported in the WALInfo, because
// recovery's job is to truncate it, not to fail on it.
func ReadWAL(path string) (*WALInfo, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return &WALInfo{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("durable: read wal: %w", err)
	}
	info := &WALInfo{FileLen: int64(len(data))}
	if len(data) < len(walMagic) {
		info.TornReason = "short or missing header"
		return info, nil
	}
	if string(data[:len(walMagic)]) != string(walMagic) {
		info.TornReason = "bad magic"
		return info, nil
	}
	off := int64(len(walMagic))
	info.ValidLen = off
	for off < int64(len(data)) {
		rest := data[off:]
		if len(rest) < walRecordHeader {
			info.TornReason = "torn record header"
			return info, nil
		}
		plen := int64(binary.LittleEndian.Uint32(rest))
		crc := binary.LittleEndian.Uint32(rest[4:])
		if plen > maxRecordPayload {
			info.TornReason = fmt.Sprintf("implausible payload length %d", plen)
			return info, nil
		}
		if int64(len(rest)) < walRecordHeader+plen {
			info.TornReason = "torn record payload"
			return info, nil
		}
		payload := rest[walRecordHeader : walRecordHeader+plen]
		if crc32.Checksum(payload, castTable) != crc {
			info.TornReason = "CRC mismatch"
			return info, nil
		}
		version, batch, derr := decodePayload(payload)
		if derr != nil {
			info.TornReason = derr.Error()
			return info, nil
		}
		info.Records = append(info.Records, Record{
			Version: version,
			Batch:   batch,
			Offset:  off,
			Size:    walRecordHeader + plen,
		})
		off += walRecordHeader + plen
		info.ValidLen = off
	}
	return info, nil
}

// walWriter appends framed records to an open log file.
type walWriter struct {
	f    *os.File
	size int64
}

// createWAL writes a fresh log (header only), syncing it and its directory.
func createWAL(path string) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: create wal: %w", err)
	}
	if _, err := f.Write(walMagic); err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: write wal header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: sync wal: %w", err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, err
	}
	return &walWriter{f: f, size: int64(len(walMagic))}, nil
}

// openWAL opens an existing log for appending at validLen, truncating any
// torn tail past it first.
func openWAL(path string, validLen int64) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if errors.Is(err, os.ErrNotExist) {
		return createWAL(path)
	}
	if err != nil {
		return nil, fmt.Errorf("durable: open wal: %w", err)
	}
	if validLen < int64(len(walMagic)) {
		// Header itself was torn: rewrite from scratch.
		f.Close()
		return createWAL(path)
	}
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: truncate wal: %w", err)
	}
	if _, err := f.Seek(validLen, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: seek wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: sync wal: %w", err)
	}
	return &walWriter{f: f, size: validLen}, nil
}

// append frames and writes one record; flushing is the caller's policy.
func (w *walWriter) append(version int64, batch []dynamic.Mutation) (int, error) {
	rec, err := encodeRecord(version, batch)
	if err != nil {
		return 0, err
	}
	n, err := w.f.Write(rec)
	w.size += int64(n)
	if err != nil {
		return n, fmt.Errorf("durable: append wal record: %w", err)
	}
	return n, nil
}

func (w *walWriter) sync() error { return w.f.Sync() }

// reset truncates the log back to its header (after a checkpoint subsumed
// the records) and syncs.
func (w *walWriter) reset() error {
	if err := w.f.Truncate(int64(len(walMagic))); err != nil {
		return fmt.Errorf("durable: reset wal: %w", err)
	}
	if _, err := w.f.Seek(int64(len(walMagic)), io.SeekStart); err != nil {
		return fmt.Errorf("durable: reset wal: %w", err)
	}
	w.size = int64(len(walMagic))
	return w.f.Sync()
}

func (w *walWriter) close() error { return w.f.Close() }

// syncDir fsyncs a directory so renames and creates in it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("durable: open dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("durable: sync dir %s: %w", dir, err)
	}
	return nil
}
