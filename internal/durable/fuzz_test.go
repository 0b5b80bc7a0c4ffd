package durable

import (
	"bytes"
	"math/rand"
	"testing"

	"deltacoloring/internal/dynamic"
	"deltacoloring/internal/graph"
)

// FuzzWALPayload feeds arbitrary bytes to the payload decoder recovery runs
// on every checksummed WAL record. Every input must yield an error or a
// batch, never a panic; a decoded batch must re-encode to exactly the
// payload it came from.
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
		if !bytes.Equal(rec[walRecordHeader:], payload) {
			t.Fatalf("re-encoding differs: % x, want % x", rec[walRecordHeader:], payload)
		}
	})
}

// FuzzCheckpointState feeds arbitrary bytes to the snapshot decoder recovery
// runs on every checksummed checkpoint body. Every input must yield an error
// or a state, never a panic; a decoded state must have the shape
// dynamic.NewFromState checks (one color and one removed flag per vertex,
// last-good colors matching its graph) and must re-encode to exactly body.
func FuzzCheckpointState(f *testing.F) {
	live, err := dynamic.New(graph.ErdosRenyi(12, 0.3, rand.New(rand.NewSource(5))), dynamic.Options{})
	if err != nil {
		f.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 3; i++ {
		if _, err := live.Apply(flipBatch(rng, live)); err != nil {
			f.Fatal(err)
		}
	}
	healthy := live.State()
	// An unhealthy image carries its last-good snapshot explicitly.
	unhealthy := healthy
	unhealthy.Healthy = false
	unhealthy.Version++
	unhealthy.G = graph.Path(4)
	unhealthy.Colors, unhealthy.Removed = []int{0, 1, 0, 1}, make([]bool, 4)
	for _, st := range []dynamic.State{healthy, unhealthy} {
		var body bytes.Buffer
		if err := encodeState(&body, st); err != nil {
			f.Fatal(err)
		}
		f.Add(body.Bytes())
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		st, err := decodeState(body)
		if err != nil {
			return
		}
		if n := st.G.N(); len(st.Colors) != n || len(st.Removed) != n {
			t.Fatalf("shape: n=%d, %d colors, %d removed flags", n, len(st.Colors), len(st.Removed))
		}
		if lg := st.LastGood; lg != nil && len(lg.Colors) != lg.G.N() {
			t.Fatalf("last-good shape: n=%d, %d colors", lg.G.N(), len(lg.Colors))
		}
		var again bytes.Buffer
		if err := encodeState(&again, st); err != nil {
			t.Fatalf("decoded state does not encode: %v", err)
		}
		if !bytes.Equal(again.Bytes(), body) {
			t.Fatalf("re-encoding differs from the %d-byte body", len(body))
		}
	})
}
