package shard

import (
	"reflect"
	"strings"
	"testing"
)

// TestFrameRoundTrip: every request op and response shape decodes to the
// value it was encoded from, field for field.
func TestFrameRoundTrip(t *testing.T) {
	for _, req := range []*RoundsRequest{
		{Op: "init", Session: "s-1", Shard: 3, Graph: []byte{1, 2, 3}, ToParent: []int32{7, 0, 9}, Locals: []int32{1, 2}, ParentN: 10, Delta: 4},
		{Op: "step", Session: "s-1", Shard: 1 << 20, Updates: []Update{{V: 5, C: 0}, {V: -1, C: 1 << 20}}},
		{Op: "finish", Session: "", Shard: 0},
		{Op: "abort", Session: "ü", Shard: 2},
	} {
		b, err := EncodeRequest(req)
		if err != nil {
			t.Fatalf("%s: %v", req.Op, err)
		}
		got, err := DecodeRequest(b)
		if err != nil {
			t.Fatalf("%s: %v", req.Op, err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("%s: decoded %+v, want %+v", req.Op, got, req)
		}
	}
	for _, resp := range []*RoundsResponse{
		{OK: true, Changed: []Update{{V: 1, C: 2}}, NotDone: 9},
		{OK: true, Colors: []Update{{V: 0, C: 0}, {V: 3, C: 1}}},
		{Error: "vertex 4 finished uncolored", Violation: "merge"},
	} {
		got, err := DecodeResponse(EncodeResponse(resp))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, resp) {
			t.Fatalf("decoded %+v, want %+v", got, resp)
		}
	}
}

// TestDecodeAllocs pins the allocations of one decode: the frame struct,
// the session string and one slice per non-empty array. The reader itself
// stays on the stack, and the init image aliases the frame.
func TestDecodeAllocs(t *testing.T) {
	init, err := EncodeRequest(&RoundsRequest{Op: "init", Session: "s-1", Shard: 3, Graph: []byte{1, 2, 3},
		ToParent: []int32{7, 0, 9}, Locals: []int32{1, 2}, ParentN: 10, Delta: 4})
	if err != nil {
		t.Fatal(err)
	}
	step, err := EncodeRequest(&RoundsRequest{Op: "step", Session: "s-1", Shard: 1, Updates: []Update{{V: 5, C: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	resp := EncodeResponse(&RoundsResponse{OK: true, Changed: []Update{{V: 1, C: 2}}, Colors: []Update{{V: 0, C: 0}}})
	for _, tc := range []struct {
		name   string
		decode func() error
		want   float64
	}{
		{"init", func() error { _, err := DecodeRequest(init); return err }, 4},
		{"step", func() error { _, err := DecodeRequest(step); return err }, 3},
		{"response", func() error { _, err := DecodeResponse(resp); return err }, 3},
	} {
		if err := tc.decode(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := testing.AllocsPerRun(100, func() { tc.decode() }); got != tc.want {
			t.Errorf("%s: %v allocations per decode, want %v", tc.name, got, tc.want)
		}
	}
}

// TestEncodeRequestRefusesWhatCannotDecode: the encoder refuses an op or a
// scalar the decoder would reject, instead of sending a frame no worker
// accepts.
func TestEncodeRequestRefusesWhatCannotDecode(t *testing.T) {
	for name, req := range map[string]*RoundsRequest{
		"unknown op":     {Op: "bogus"},
		"negative shard": {Op: "step", Shard: -1},
		"huge parent n":  {Op: "init", ParentN: 1 << 31},
	} {
		if _, err := EncodeRequest(req); err == nil || !strings.Contains(err.Error(), "shard: encode") {
			t.Errorf("%s: err = %v", name, err)
		}
	}
}
