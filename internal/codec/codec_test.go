package codec

import (
	"strings"
	"testing"
)

// TestReader: each row reads one input through a sequence of calls and
// expects the first failure it names, or none.
func TestReader(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []byte
		read func(r *Reader)
		want string // substring of End's error; "" means accepted
	}{
		{"minimal uvarint", []byte{0x80, 0x01}, func(r *Reader) { r.Uvarint() }, ""},
		{"non-minimal uvarint", []byte{0x81, 0x00}, func(r *Reader) { r.Uvarint() }, "non-minimal varint"},
		{"non-minimal zero", []byte{0x80, 0x00}, func(r *Reader) { r.Varint() }, "non-minimal varint"},
		{"overflowing uvarint", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}, func(r *Reader) { r.Uvarint() }, "overflowing"},
		{"truncated uvarint", []byte{0x80}, func(r *Reader) { r.Uvarint() }, "truncated"},
		{"scalar above int32", []byte{0x80, 0x80, 0x80, 0x80, 0x08}, func(r *Reader) { r.Scalar() }, "out of range"},
		{"bool two", []byte{2}, func(r *Reader) { r.Bool() }, "bad bool byte 2"},
		{"count fits", []byte{2, 1, 2, 3, 4, 5, 6, 7, 8}, func(r *Reader) { r.Int32s() }, ""},
		{"count beyond bytes", []byte{3, 1, 2, 3, 4, 5, 6, 7, 8}, func(r *Reader) { r.Int32s() }, "count 3 exceeds the 8 bytes left"},
		{"huge count", []byte{0xff, 0xff, 0xff, 0xff, 0x0f}, func(r *Reader) { r.Count(1) }, "exceeds the 0 bytes left"},
		{"short u64", []byte{1, 2, 3}, func(r *Reader) { r.U64() }, "truncated"},
		{"trailing bytes", []byte{1, 2}, func(r *Reader) { r.Byte() }, "1 trailing bytes"},
		{"first error sticks", []byte{0x81, 0x00, 2}, func(r *Reader) {
			r.Uvarint() // non-minimal: fails here
			r.Failf("later failure")
			if r.Byte() != 0 || r.Rest() != nil || r.Skip(1) != nil {
				r.Failf("read after a failure returned data")
			}
		}, "non-minimal varint"},
	} {
		r := NewReader(tc.in, "test")
		tc.read(&r)
		err := r.End()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want) || !strings.HasPrefix(err.Error(), "test: ")):
			t.Errorf("%s: err = %v, want test: …%s…", tc.name, err, tc.want)
		}
	}
}

// TestReaderValues: accepted reads return what binary.Append* wrote.
func TestReaderValues(t *testing.T) {
	r := NewReader([]byte{
		1,          // Bool
		0xd1, 0x02, // Uvarint 337
		0x03,                   // Varint -2
		8, 7, 6, 5, 4, 3, 2, 1, // U64
		2, 'h', 'i', // Bytes
		0, // empty Bytes
	}, "test")
	b, u, v, x, s, e := r.Bool(), r.Uvarint(), r.Varint(), r.U64(), r.Bytes(), r.Bytes()
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
	if !b || u != 337 || v != -2 || x != 0x0102030405060708 || string(s) != "hi" || e != nil {
		t.Fatalf("read %v %d %d %#x %q %v", b, u, v, x, s, e)
	}
}
