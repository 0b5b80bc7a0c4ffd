package durable

import (
	"reflect"
	"testing"

	"deltacoloring/internal/dynamic"
)

// FuzzWALPayload feeds arbitrary bytes to the payload decoder recovery runs
// on every checksummed WAL record. Every input must yield an error or a
// batch, never a panic; a decoded batch must survive an encode/decode round
// trip unchanged (varints may arrive non-minimal, so the bytes need not).
func FuzzWALPayload(f *testing.F) {
	for _, b := range [][]dynamic.Mutation{
		nil,
		{{Op: dynamic.OpAddEdge, U: 0, V: 1}},
		{{Op: dynamic.OpRemoveEdge, U: 7, V: 3}, {Op: dynamic.OpAddVertex, U: -1, V: -1}},
		{{Op: dynamic.OpRemoveVertex, U: 1 << 40, V: -(1 << 40)}},
	} {
		rec, err := encodeRecord(42, b)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec[walRecordHeader:])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		version, batch, err := decodePayload(payload)
		if err != nil {
			return
		}
		rec, err := encodeRecord(version, batch)
		if err != nil {
			t.Fatalf("decoded batch does not encode: %v", err)
		}
		v2, b2, err := decodePayload(rec[walRecordHeader:])
		if err != nil || v2 != version || !reflect.DeepEqual(b2, batch) {
			t.Fatalf("round trip: version %d→%d, batch %v→%v, err %v", version, v2, batch, b2, err)
		}
	})
}
