// Package codec reads the repository's binary layouts from untrusted bytes:
// shard frames (internal/shard), WAL payloads and checkpoint bodies
// (internal/durable). A Reader consumes one whole input front to back, and
// holds every decoder to one contract: a count is checked against the bytes
// left before anything is allocated for it, a varint must be minimal, a bool
// must be 0 or 1, and bytes past the end are refused. A layout read only
// through a Reader therefore has one encoding per value, so a decode
// followed by an encode gives back the input exactly. The CSR image embedded
// in a checkpoint or a frame is graph.DecodeBinary's to read (Rest, Skip).
package codec

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Reader consumes a byte slice front to back. The first failure sticks:
// later reads return zero values, and Err and End report it. It is a value
// meant for the caller's stack; the byte slices it returns alias the input.
type Reader struct {
	b      []byte
	err    error
	prefix string
}

// NewReader returns a Reader over b whose errors begin with prefix and ": ".
func NewReader(b []byte, prefix string) Reader {
	return Reader{b: b, prefix: prefix}
}

// Failf records a failure, unless one is already recorded. The format may
// use %w.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(r.prefix+": "+format, args...)
	}
}

// Err reports the first failure so far.
func (r *Reader) Err() error { return r.err }

// End reports the first failure, or the bytes left after a whole input.
func (r *Reader) End() error {
	if r.err == nil && len(r.b) != 0 {
		r.Failf("%d trailing bytes", len(r.b))
	}
	return r.err
}

// Skip consumes the next n bytes and returns them.
func (r *Reader) Skip(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.b) {
		r.Failf("truncated: %d bytes wanted, %d left", n, len(r.b))
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

// Rest returns the bytes left without consuming them (nil after a failure),
// for an embedded layout whose own decoder reports its length; Skip then
// consumes that length.
func (r *Reader) Rest() []byte {
	if r.err != nil {
		return nil
	}
	return r.b
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if b := r.Skip(1); b != nil {
		return b[0]
	}
	return 0
}

// Bool reads a byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	c := r.Byte()
	if c > 1 {
		r.Failf("bad bool byte %d", c)
	}
	return c == 1
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.Skip(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Uvarint reads a minimal unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	switch {
	case n <= 0:
		r.Failf("truncated or overflowing varint")
		return 0
	case n > 1 && r.b[n-1] == 0: // a minimal encoding never ends in a zero byte
		r.Failf("non-minimal varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint reads a minimal zig-zag signed varint (binary.AppendVarint's form).
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	x := int64(u >> 1)
	if u&1 != 0 {
		x = ^x
	}
	return x
}

// Scalar reads a Uvarint in [0, math.MaxInt32].
func (r *Reader) Scalar() int {
	v := r.Uvarint()
	if v > math.MaxInt32 {
		r.Failf("value %d out of range", v)
		return 0
	}
	return int(v)
}

// Count reads an element count as a Uvarint and checks that the bytes left
// can hold that many elements of at least minSize bytes each, before the
// caller allocates anything for them.
func (r *Reader) Count(minSize int) int {
	v := r.Uvarint()
	if r.err == nil && v > uint64(len(r.b)/minSize) {
		r.Failf("count %d exceeds the %d bytes left", v, len(r.b))
	}
	if r.err != nil {
		return 0
	}
	return int(v)
}

// Bytes reads a Count-prefixed byte run, aliasing the input; an empty run
// is nil.
func (r *Reader) Bytes() []byte {
	if n := r.Count(1); n > 0 {
		return r.Skip(n)
	}
	return nil
}

// Int32s reads a Count-prefixed run of little-endian int32s into a new
// slice; an empty run is nil.
func (r *Reader) Int32s() []int32 {
	n := r.Count(4)
	if n == 0 {
		return nil
	}
	b := r.Skip(4 * n)
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}
