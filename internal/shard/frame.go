package shard

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"

	"deltacoloring/internal/codec"
)

// The /v1/shard/stream wire: one long-lived, full-duplex HTTP/1.1 request
// per worker host per run. The request body is a sequence of records, each
// a uvarint length followed by one request frame; the response body is the
// same sequence of response frames, one per request frame, in request
// order. All integers are little-endian or unsigned varints.
//
// Request frame:
//
//	byte     version (frameVersion)
//	byte     op: 1 init, 2 step, 3 finish, 4 abort
//	uvarint  len(session), then the session bytes
//	uvarint  shard
//	init:    uvarint parent n, uvarint Δ,
//	         uvarint len(graph), then the DCSRv1 image (graph.EncodeBinary),
//	         uvarint len(to_parent), then one int32 each,
//	         uvarint len(locals), then one int32 each
//	step:    uvarint len(updates), then one (v, c) int32 pair each
//
// Response frame:
//
//	byte     version (frameVersion)
//	byte     ok: 0 or 1
//	uvarint  len(error), then the error bytes
//	uvarint  len(violation), then the violation tag bytes
//	uvarint  not_done
//	uvarint  len(changed), then one (v, c) int32 pair each
//	uvarint  len(colors), then one (v, c) int32 pair each
//
// The decoders read untrusted bytes through a codec.Reader, which checks
// every count against the bytes that remain before allocating and rejects a
// non-minimal varint, a scalar above math.MaxInt32 and trailing bytes; the
// decoders add an unknown version or op, so every frame that decodes
// re-encodes to exactly its own bytes. They do not judge the payload:
// vertex and color values, the graph image and the parent mapping are the
// worker's to validate (the exchange contract, the CSR decoder,
// NewPartFromWire). A record's length is checked against the reader's limit
// before anything is allocated for it. A server answers a first record that
// does not decode with HTTP 400 and a text body, so a coordinator and a
// worker built from different wire versions fail cleanly instead of
// misreading each other; a later bad record ends the stream.

// frameVersion leads every frame; bump it on any layout change. The graph
// image is opaque bytes to the frame and carries its own version in its
// magic, so an image change leaves frameVersion alone: a worker refuses an
// image of another version in its CSR decoder, as "bad shard graph".
const frameVersion = 1

// frameContentType labels both frame kinds on the wire.
const frameContentType = "application/octet-stream"

// maxPrealloc caps the record buffer sized from an untrusted length: past
// it, the buffer grows only with the bytes that actually arrive.
const maxPrealloc = 4 << 20

// opNames maps the op byte to RoundsRequest.Op; index 0 is no op.
var opNames = [...]string{1: "init", 2: "step", 3: "finish", 4: "abort"}

func opCode(op string) (byte, bool) {
	for i, name := range opNames {
		if i > 0 && name == op {
			return byte(i), true
		}
	}
	return 0, false
}

// EncodeRequest serializes one request frame. Only the payload of req.Op is
// written; the other op's fields are ignored.
func EncodeRequest(req *RoundsRequest) ([]byte, error) {
	if err := checkRequest(req); err != nil {
		return nil, err
	}
	return appendRequest(make([]byte, 0, requestLen(req)), req), nil
}

// encodeRecord serializes req as one stream record.
func encodeRecord(req *RoundsRequest) ([]byte, error) {
	if err := checkRequest(req); err != nil {
		return nil, err
	}
	return appendRequestRecord(nil, req), nil
}

// appendRequestRecord appends req to b as one stream record: the frame's
// uvarint length, then the frame, encoded in place. checkRequest has
// passed req.
func appendRequestRecord(b []byte, req *RoundsRequest) []byte {
	n := requestLen(req)
	b = slices.Grow(b, uvarintLen(n)+n)
	b = binary.AppendUvarint(b, uint64(n))
	return appendRequest(b, req)
}

// checkRequest refuses a request whose frame would not decode.
func checkRequest(req *RoundsRequest) error {
	if _, ok := opCode(req.Op); !ok {
		return fmt.Errorf("shard: encode: unknown op %q", req.Op)
	}
	if min(req.Shard, req.ParentN, req.Delta) < 0 || max(req.Shard, req.ParentN, req.Delta) > math.MaxInt32 {
		return fmt.Errorf("shard: encode: shard %d, parent n %d or delta %d out of range", req.Shard, req.ParentN, req.Delta)
	}
	return nil
}

// requestLen is the exact length of req's frame.
func requestLen(req *RoundsRequest) int {
	n := 2 + uvarintLen(len(req.Session)) + len(req.Session) + uvarintLen(req.Shard)
	switch req.Op {
	case "init":
		n += uvarintLen(req.ParentN) + uvarintLen(req.Delta) + uvarintLen(len(req.Graph)) + len(req.Graph) +
			uvarintLen(len(req.ToParent)) + 4*len(req.ToParent) + uvarintLen(len(req.Locals)) + 4*len(req.Locals)
	case "step":
		n += uvarintLen(len(req.Updates)) + 8*len(req.Updates)
	}
	return n
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x int) int {
	return (bits.Len64(uint64(x)|1) + 6) / 7
}

// appendRequest appends req's frame to b; checkRequest has passed it.
func appendRequest(b []byte, req *RoundsRequest) []byte {
	op, _ := opCode(req.Op)
	b = append(b, frameVersion, op)
	b = appendString(b, req.Session)
	b = binary.AppendUvarint(b, uint64(req.Shard))
	switch req.Op {
	case "init":
		b = binary.AppendUvarint(b, uint64(req.ParentN))
		b = binary.AppendUvarint(b, uint64(req.Delta))
		b = binary.AppendUvarint(b, uint64(len(req.Graph)))
		b = append(b, req.Graph...)
		b = appendInt32s(b, req.ToParent)
		b = appendInt32s(b, req.Locals)
	case "step":
		b = appendUpdates(b, req.Updates)
	}
	return b
}

// DecodeRequest parses one request frame. The returned Graph aliases b.
func DecodeRequest(b []byte) (*RoundsRequest, error) {
	r := newFrameReader(b)
	req := &RoundsRequest{}
	switch op := r.Byte(); {
	case r.Err() != nil:
	case int(op) >= len(opNames) || op == 0:
		r.Failf("unknown op %d", op)
	default:
		req.Op = opNames[op]
	}
	req.Session = string(r.Bytes())
	req.Shard = r.Scalar()
	switch req.Op {
	case "init":
		req.ParentN = r.Scalar()
		req.Delta = r.Scalar()
		req.Graph = r.Bytes()
		req.ToParent = r.Int32s()
		req.Locals = r.Int32s()
	case "step":
		req.Updates = readUpdates(&r)
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	return req, nil
}

// EncodeResponse serializes one response frame. NotDone must not be
// negative; the decoder rejects the value a negative one would encode to.
func EncodeResponse(resp *RoundsResponse) []byte {
	b := make([]byte, 0, 2+5*binary.MaxVarintLen64+len(resp.Error)+len(resp.Violation)+
		8*(len(resp.Changed)+len(resp.Colors)))
	ok := byte(0)
	if resp.OK {
		ok = 1
	}
	b = append(b, frameVersion, ok)
	b = appendString(b, resp.Error)
	b = appendString(b, resp.Violation)
	b = binary.AppendUvarint(b, uint64(resp.NotDone))
	b = appendUpdates(b, resp.Changed)
	b = appendUpdates(b, resp.Colors)
	return b
}

// DecodeResponse parses one response frame.
func DecodeResponse(b []byte) (*RoundsResponse, error) {
	r := newFrameReader(b)
	resp := &RoundsResponse{}
	switch ok := r.Byte(); {
	case r.Err() != nil:
	case ok > 1:
		r.Failf("bad ok byte %d", ok)
	default:
		resp.OK = ok == 1
	}
	resp.Error = string(r.Bytes())
	resp.Violation = string(r.Bytes())
	resp.NotDone = r.Scalar()
	resp.Changed = readUpdates(&r)
	resp.Colors = readUpdates(&r)
	if err := r.End(); err != nil {
		return nil, err
	}
	return resp, nil
}

// newFrameReader returns a reader over frame b that has checked its
// version byte.
func newFrameReader(b []byte) codec.Reader {
	r := codec.NewReader(b, "shard: bad frame")
	if v := r.Byte(); r.Err() == nil && v != frameVersion {
		r.Failf("unknown version %d, want %d", v, frameVersion)
	}
	return r
}

// readUpdates reads a count-prefixed run of (v, c) int32 pairs.
func readUpdates(r *codec.Reader) []Update {
	n := r.Count(8)
	if n == 0 {
		return nil
	}
	b := r.Skip(8 * n)
	out := make([]Update, n)
	for i := range out {
		out[i] = Update{
			V: int32(binary.LittleEndian.Uint32(b[8*i:])),
			C: int32(binary.LittleEndian.Uint32(b[8*i+4:])),
		}
	}
	return out
}

// readRecord reads one record into buf's storage: a uvarint length, then
// that many frame bytes. A length above limit is refused before anything is
// allocated for it. io.EOF means the stream ended cleanly between records;
// a record cut short is io.ErrUnexpectedEOF.
func readRecord(r *bufio.Reader, limit int64, buf []byte) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > uint64(limit) {
		return nil, fmt.Errorf("record of %d bytes exceeds the %d-byte limit", n, limit)
	}
	b := bytes.NewBuffer(buf[:0])
	// MinRead of headroom lets ReadFrom see EOF without growing the buffer.
	b.Grow(int(min(n, maxPrealloc)) + bytes.MinRead)
	got, err := b.ReadFrom(io.LimitReader(r, int64(n)))
	if err == nil && uint64(got) < n {
		err = io.ErrUnexpectedEOF
	}
	return b.Bytes(), err
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendInt32s(b []byte, xs []int32) []byte {
	b = binary.AppendUvarint(b, uint64(len(xs)))
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint32(b, uint32(x))
	}
	return b
}

func appendUpdates(b []byte, us []Update) []byte {
	b = binary.AppendUvarint(b, uint64(len(us)))
	for _, u := range us {
		b = binary.LittleEndian.AppendUint32(b, uint32(u.V))
		b = binary.LittleEndian.AppendUint32(b, uint32(u.C))
	}
	return b
}
