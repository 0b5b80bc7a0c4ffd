package shard

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"deltacoloring/internal/graph"
	"deltacoloring/internal/local"
)

// TestQuietShardsAreSkipped pins the frontier idea at the cluster level: on
// a long path the coloring wave drains shard by shard, so finished shards
// stop being stepped and StepCalls lands well under K × rounds. Over a
// 2-host HTTP cluster, where a round's steps go out as one batch per host,
// quiet shards stay out of the batch: StepCalls and Rounds match the
// in-process run's.
func TestQuietShardsAreSkipped(t *testing.T) {
	g := graph.Path(96)
	res, err := Run(context.Background(), g, Config{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	dense := res.K * res.Rounds
	if res.Traffic.StepCalls >= dense {
		t.Fatalf("StepCalls = %d, dense stepping would be %d — quiet shards were not skipped",
			res.Traffic.StepCalls, dense)
	}
	tr, err := NewHTTPTransport(newTestCluster(t, 2), "quiet", nil)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := Run(context.Background(), g, Config{K: 4, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	if remote.Traffic.StepCalls != res.Traffic.StepCalls || remote.Rounds != res.Rounds {
		t.Fatalf("over HTTP: StepCalls %d, Rounds %d; in process: %d, %d",
			remote.Traffic.StepCalls, remote.Rounds, res.Traffic.StepCalls, res.Rounds)
	}
}

// TestRunHonorsContextCancel: a canceled context stops the run with the
// context's error rather than a wrong result.
func TestRunHonorsContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := graph.Grid(8, 8)
	if _, err := Run(ctx, g, Config{K: 3}); err == nil {
		t.Fatal("canceled run returned a result")
	} else if !errors.Is(err, context.Canceled) && !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// errTransport fails a chosen operation to exercise the coordinator's
// abort-and-fail path.
type errTransport struct {
	Transport
	failStep   bool
	failFinish bool
	aborted    int
}

func (e *errTransport) Step(ctx context.Context, shard int, updates []Update) (*StepResult, error) {
	if e.failStep {
		return nil, errors.New("worker lost")
	}
	return e.Transport.Step(ctx, shard, updates)
}

func (e *errTransport) Finish(ctx context.Context, shard int) ([]Update, error) {
	if e.failFinish {
		return nil, errors.New("worker lost")
	}
	return e.Transport.Finish(ctx, shard)
}

func (e *errTransport) Abort(shard int) {
	e.aborted++
	e.Transport.Abort(shard)
}

func TestRunAbortsAllShardsOnFailure(t *testing.T) {
	g := graph.Grid(6, 6)
	for _, mode := range []string{"step", "finish"} {
		tr := &errTransport{Transport: NewInProcess()}
		if mode == "step" {
			tr.failStep = true
		} else {
			tr.failFinish = true
		}
		res, err := Run(context.Background(), g, Config{K: 3, Transport: tr})
		if err == nil || res != nil {
			t.Fatalf("%s failure: Run returned a result", mode)
		}
		if tr.aborted == 0 {
			t.Fatalf("%s failure: no shard was aborted", mode)
		}
	}
}

// ownerStealTransport reports one vertex from the wrong shard, which the
// merge must refuse as a *MergeViolation.
type ownerStealTransport struct {
	Transport
}

func (o *ownerStealTransport) Finish(ctx context.Context, shard int) ([]Update, error) {
	finals, err := o.Transport.Finish(ctx, shard)
	if err != nil || shard != 0 || len(finals) == 0 {
		return finals, err
	}
	// Duplicate the first final under a different color: the merge sees the
	// vertex reported twice (or owner-mismatched on another shard's turn).
	return append(finals, finals[0]), nil
}

func TestMergeRefusesDoubleReports(t *testing.T) {
	g := graph.Grid(6, 6)
	_, err := Run(context.Background(), g, Config{K: 3, Transport: &ownerStealTransport{NewInProcess()}})
	var mv *MergeViolation
	if !errors.As(err, &mv) {
		t.Fatalf("got %v, want *MergeViolation", err)
	}
}

// TestRunRecordsPhases checks the span stream covers the three coordinator
// phases, so service traces of sharded runs stay structured.
func TestRunRecordsPhases(t *testing.T) {
	var names []string
	g := graph.PermuteIDs(graph.Grid(5, 5), rand.New(rand.NewSource(3)))
	_, err := Run(context.Background(), g, Config{
		K:        2,
		SpanHook: func(sp local.Span) { names = append(names, sp.Name) },
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"shard/partition": false, "shard/solve": false, "shard/merge": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Fatalf("phase %q missing from spans %v", n, names)
		}
	}
}

// TestCallTimeoutBoundsHungWorker: a worker that never answers fails the run
// within the per-call budget instead of wedging the coordinator forever.
func TestCallTimeoutBoundsHungWorker(t *testing.T) {
	g := graph.Grid(6, 6)
	tr := NewChaosTransport(NewInProcess(), ChaosPlan{Mode: ChaosHang, Seed: 1, Prob: 1})
	start := time.Now()
	_, err := Run(context.Background(), g, Config{K: 2, Transport: tr, CallTimeout: 50 * time.Millisecond})
	if err == nil {
		t.Fatal("hung worker produced a result")
	}
	if !tr.Fired() {
		t.Fatal("hang fault never fired")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("coordinator took %v to give up on a hung worker", elapsed)
	}
}
