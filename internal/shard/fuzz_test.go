package shard

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"deltacoloring/internal/graph"
	"deltacoloring/internal/local"
)

// FuzzPartition throws arbitrary edge lists and shard counts at the
// partitioner and pins the structural contract on every one: each vertex in
// exactly one shard, every cut edge ghosted on both sides, and the shards'
// edges reassembling into a byte-identical CSR. On small instances it also
// replays the full sharded run against the single-process oracle, fuzzing
// the bit-identity contract itself.
func FuzzPartition(f *testing.F) {
	f.Add(uint8(6), uint8(2), []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0})
	f.Add(uint8(9), uint8(3), []byte{0, 1, 0, 2, 1, 2, 3, 4, 6, 7, 7, 8})
	f.Add(uint8(1), uint8(4), []byte{})
	f.Add(uint8(12), uint8(5), []byte{0, 11, 1, 10, 2, 9, 3, 8, 4, 7, 5, 6, 0, 6, 3, 9})
	f.Fuzz(func(t *testing.T, n, k uint8, raw []byte) {
		if n == 0 {
			return
		}
		if k == 0 {
			k = 1 // BuildPartition rejects k < 1 by contract; Run clamps the same way
		}
		b := graph.NewBuilder(int(n))
		for i := 0; i+1 < len(raw); i += 2 {
			u, v := int(raw[i])%int(n), int(raw[i+1])%int(n)
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		p, err := BuildPartition(g, int(k))
		if err != nil {
			t.Fatalf("BuildPartition(n=%d, k=%d): %v", n, k, err)
		}
		if err := VerifyPartition(g, p); err != nil {
			t.Fatalf("VerifyPartition: %v", err)
		}
		if err := Reassemble(g, p); err != nil {
			t.Fatalf("Reassemble: %v", err)
		}

		net := local.New(g)
		wantColors, wantRounds, err := SolveSingle(net)
		net.Close()
		if err != nil {
			t.Fatalf("SolveSingle: %v", err)
		}
		res, err := Run(context.Background(), g, Config{K: int(k)})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if !reflect.DeepEqual(res.Colors, wantColors) || res.Rounds != wantRounds {
			t.Fatalf("sharded run diverges: rounds %d vs %d, colors %v vs %v",
				res.Rounds, wantRounds, res.Colors, wantColors)
		}
	})
}

// wireSeeds returns one valid request frame per op, the init built from a
// real partition so the fuzzers start from frames a coordinator sends.
func wireSeeds(f *testing.F) [][]byte {
	g := graph.Grid(4, 3)
	p, err := BuildPartition(g, 2)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graph.EncodeBinary(&buf, p.Parts[0].Sub.G); err != nil {
		f.Fatal(err)
	}
	toParent := make([]int32, len(p.Parts[0].Sub.ToParent))
	for i, pv := range p.Parts[0].Sub.ToParent {
		toParent[i] = int32(pv)
	}
	var out [][]byte
	for _, req := range []*RoundsRequest{
		{Op: "init", Session: "s", Shard: 0, Graph: buf.Bytes(), ToParent: toParent, Locals: p.Parts[0].Locals, ParentN: g.N(), Delta: g.MaxDegree()},
		{Op: "step", Session: "s", Shard: 1, Updates: []Update{{V: 3, C: 0}, {V: 7, C: 2}}},
		{Op: "finish", Session: "s", Shard: 1},
		{Op: "abort", Session: "", Shard: 300},
	} {
		b, err := EncodeRequest(req)
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// FuzzRoundsRequest feeds arbitrary bytes to the request decoder every
// worker host runs on untrusted input. Every input must yield an error or a
// request that re-encodes to exactly its bytes, alone and as a stream
// record; a decoded request of modest
// parent size must then go through a stream's worker table without a
// panic, and leave no worker once the stream ends.
func FuzzRoundsRequest(f *testing.F) {
	for _, b := range wireSeeds(f) {
		f.Add(b)
	}
	f.Add([]byte(`{"op":"step","session":"s","shard":0}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(data)
		if err != nil {
			return
		}
		again, err := EncodeRequest(req)
		if err != nil {
			t.Fatalf("decoded request does not encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", again, data)
		}
		if rec, err := encodeRecord(req); err != nil || !bytes.Equal(rec, appendRecord(nil, data)) {
			t.Fatalf("encodeRecord = %x, %v; want the frame as one record", rec, err)
		}
		if req.ParentN <= 1<<12 {
			host := NewHost(0)
			stream := host.newStreamTable()
			if resp := host.handle(req, stream); resp.OK && req.Op == "init" {
				host.handle(&RoundsRequest{Op: "step", Session: req.Session, Shard: req.Shard}, stream)
				host.handle(&RoundsRequest{Op: "finish", Session: req.Session, Shard: req.Shard}, stream)
			}
			stream.abortAll()
			if n := host.Sessions(); n != 0 {
				t.Fatalf("%d workers left after the stream's end", n)
			}
		}
	})
}

// FuzzRoundsResponse feeds arbitrary bytes to the response decoder the
// coordinator runs on each worker's reply: an error or a response that
// re-encodes to exactly its bytes.
func FuzzRoundsResponse(f *testing.F) {
	for _, resp := range []*RoundsResponse{
		{OK: true},
		{OK: true, Changed: []Update{{V: 1, C: 0}, {V: 9, C: 3}}, NotDone: 17},
		{OK: true, Colors: []Update{{V: 0, C: 1}, {V: 2, C: 0}}},
		{Error: "ghost recolored from 1 to 2", Violation: "exchange"},
	} {
		f.Add(EncodeResponse(resp))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := DecodeResponse(data)
		if err != nil {
			return
		}
		if again := EncodeResponse(resp); !bytes.Equal(again, data) {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", again, data)
		}
	})
}

// appendRecord appends frame as one stream record.
func appendRecord(b, frame []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(frame)))
	return append(b, frame...)
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// FuzzRoundsStream feeds arbitrary bytes to the stream server as a request
// body. The server must never panic. It must answer exactly one response
// frame per request record that decodes, up to the first bad record, which
// is a 400 with a text body when it is the first. It must drop every
// session the stream opened. And it must refuse an over-limit record on its
// length: reading stops within one read-ahead buffer past the length, so
// nothing was read, let alone allocated, for the record itself.
func FuzzRoundsStream(f *testing.F) {
	const limit = 1 << 12
	const readAhead = 4096 // bufio.NewReader's buffer
	seeds := wireSeeds(f)
	var all []byte
	for _, b := range seeds {
		f.Add(appendRecord(nil, b))
		all = appendRecord(all, b)
	}
	f.Add(all)
	f.Add(append(bytes.Clone(all), 0))
	over := binary.AppendUvarint(appendRecord(nil, seeds[1]), limit+1)
	f.Add(append(over, make([]byte, 3*limit)...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// The oracle walks the records on its own: the frames that decode
		// before the first bad record, and where an over-limit length ends.
		good, overEnd := 0, -1
		for rest := data; ; {
			n, k := binary.Uvarint(rest)
			if k <= 0 {
				break
			}
			if n > limit {
				overEnd = len(data) - len(rest) + k
				break
			}
			if uint64(len(rest)-k) < n {
				break
			}
			if _, err := DecodeRequest(rest[k : k+int(n)]); err != nil {
				break
			}
			good++
			rest = rest[k+int(n):]
		}

		host := NewHost(1 << 12)
		body := &countingReader{r: bytes.NewReader(data)}
		rec := httptest.NewRecorder()
		host.ServeRounds(rec, httptest.NewRequest(http.MethodPost, StreamPath, body), limit)

		if good == 0 {
			if rec.Code != http.StatusBadRequest || !strings.HasPrefix(rec.Header().Get("Content-Type"), "text/plain") {
				t.Fatalf("no good record: status %d, %q; want 400 with a text body", rec.Code, rec.Header().Get("Content-Type"))
			}
		} else {
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d after %d good records", rec.Code, good)
			}
			br := bufio.NewReader(rec.Body)
			answered := 0
			for {
				frame, err := readRecord(br, math.MaxInt64, nil)
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					t.Fatalf("answer %d: %v", answered, err)
				}
				if _, err := DecodeResponse(frame); err != nil {
					t.Fatalf("answer %d: %v", answered, err)
				}
				answered++
			}
			if answered != good {
				t.Fatalf("%d answers to %d good records", answered, good)
			}
		}
		if overEnd >= 0 && body.n > overEnd+readAhead {
			t.Fatalf("read %d bytes past an over-limit length ending at %d", body.n, overEnd)
		}
		if n := host.Sessions(); n != 0 {
			t.Fatalf("the ended stream left %d sessions", n)
		}
	})
}
