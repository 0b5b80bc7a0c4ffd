package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"deltacoloring/internal/graph"
)

// chaosGraph has plenty of cut edges at every shard count, so corruption
// faults always get a real opportunity to fire.
func chaosGraph() *graph.Graph {
	return graph.PermuteIDs(graph.Grid(9, 7), rand.New(rand.NewSource(77)))
}

// TestChaosNeverYieldsWrongColoring is the chaos contract: under every fault
// mode and many seeds, a sharded run either fails with an error or returns a
// result bit-identical to the fault-free single-process run. There is no
// third outcome.
func TestChaosNeverYieldsWrongColoring(t *testing.T) {
	g := chaosGraph()
	want := runSingle(t, g)
	modes := []string{ChaosCrash, ChaosHang, ChaosCorruptExchange, ChaosCorruptFinish}
	for _, mode := range modes {
		for seed := uint64(0); seed < 8; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", mode, seed), func(t *testing.T) {
				tr := NewChaosTransport(NewInProcess(), ChaosPlan{Mode: mode, Seed: seed, Prob: 0.3})
				res, err := Run(context.Background(), g, Config{
					K: 3, Transport: tr, CallTimeout: 100 * time.Millisecond,
				})
				if err != nil {
					return // clean failure is always acceptable
				}
				if tr.Fired() && (mode == ChaosCrash || mode == ChaosHang) {
					t.Fatal("a crashed/hung worker still produced a 'successful' run")
				}
				if !reflect.DeepEqual(res.Colors, want.colors) || res.Rounds != want.rounds {
					t.Fatal("chaos run succeeded with a result differing from the oracle")
				}
			})
		}
	}
}

// TestChaosCorruptExchangeSurfacesTyped: a corrupted cross-cut message must
// surface as a named *ExchangeViolation, never as a silent wrong coloring.
func TestChaosCorruptExchangeSurfacesTyped(t *testing.T) {
	g := chaosGraph()
	tr := NewChaosTransport(NewInProcess(), ChaosPlan{Mode: ChaosCorruptExchange, Seed: 5, Prob: 1})
	_, err := Run(context.Background(), g, Config{K: 3, Transport: tr})
	if !tr.Fired() {
		t.Fatal("corruption never fired on a graph with cut edges")
	}
	var ev *ExchangeViolation
	if !errors.As(err, &ev) {
		t.Fatalf("got %v, want *ExchangeViolation", err)
	}
}

// TestChaosCorruptFinishSurfacesTyped: a corrupted final color must surface
// as a named *MergeViolation.
func TestChaosCorruptFinishSurfacesTyped(t *testing.T) {
	g := chaosGraph()
	tr := NewChaosTransport(NewInProcess(), ChaosPlan{Mode: ChaosCorruptFinish, Seed: 5, Prob: 1})
	_, err := Run(context.Background(), g, Config{K: 3, Transport: tr})
	if !tr.Fired() {
		t.Fatal("corruption never fired")
	}
	var mv *MergeViolation
	if !errors.As(err, &mv) {
		t.Fatalf("got %v, want *MergeViolation", err)
	}
}

// TestChaosCrashFailsCleanly: a killed worker aborts the run with a shard-
// attributed error.
func TestChaosCrashFailsCleanly(t *testing.T) {
	g := chaosGraph()
	tr := NewChaosTransport(NewInProcess(), ChaosPlan{Mode: ChaosCrash, Seed: 3, Prob: 1})
	res, err := Run(context.Background(), g, Config{K: 4, Transport: tr})
	if err == nil || res != nil {
		t.Fatal("crashed worker produced a result")
	}
	if !tr.Fired() {
		t.Fatal("crash never fired at Prob=1")
	}
}

// TestChaosDeterministicPerSeed: the same plan over the same run must yield
// exactly the same outcome at any shard count, so chaos failures reproduce
// from their seed alone. At k > 1 the coordinator fans a round out to the
// shards concurrently, but ChaosTransport steps each round as one batch and
// rolls the faults shard by shard in ascending order, so the victim does not
// depend on which goroutine runs first.
func TestChaosDeterministicPerSeed(t *testing.T) {
	g := chaosGraph()
	for _, k := range []int{1, 4} {
		outcome := func(seed uint64) string {
			tr := NewChaosTransport(NewInProcess(), ChaosPlan{Mode: ChaosCrash, Seed: seed, Prob: 0.4})
			_, err := Run(context.Background(), g, Config{K: k, Transport: tr})
			if err == nil {
				return "ok"
			}
			return err.Error()
		}
		for seed := uint64(0); seed < 4; seed++ {
			first := outcome(seed)
			for i := 0; i < 3; i++ {
				if got := outcome(seed); got != first {
					t.Fatalf("k=%d seed %d outcome drifted:\n%s\nvs\n%s", k, seed, first, got)
				}
			}
		}
	}
}
