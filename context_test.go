package deltacoloring

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deltacoloring/internal/graph"
)

// Cancelling mid-run must abort between pipeline phases and surface
// ctx.Err(), not a panic or a coloring. The cancellation is triggered from
// the span hook, so the run is provably past its first phase.
func TestDeterministicContextCancelMidRun(t *testing.T) {
	g := GenHardCliqueBipartite(16, 16)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fired := 0
	res, err := DeterministicContext(ctx, g, ScaledParams(), &RunOptions{
		SpanHook: func(Span) {
			fired++
			cancel()
		},
	})
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got res=%v err=%v", res != nil, err)
	}
	if fired == 0 {
		t.Fatal("cancellation did not come from a closed span")
	}
}

func TestDeterministicContextExpiredDeadline(t *testing.T) {
	g := GenEasyCliqueRing(4, 16)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := DeterministicContext(ctx, g, ScaledParams(), nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

func TestRandomizedContextCancel(t *testing.T) {
	g := GenEasyCliqueRing(4, 16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RandomizedContext(ctx, g, ScaledRandomizedParams(), 1, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// A background context must not change behavior: the context-aware entry
// point with no options is exactly the plain one.
func TestContextVariantsAgree(t *testing.T) {
	g := GenEasyCliqueRing(4, 16)
	plain, err := Deterministic(g, ScaledParams())
	if err != nil {
		t.Fatal(err)
	}
	var spans int
	ctxRes, err := DeterministicContext(context.Background(), g, ScaledParams(), &RunOptions{
		SpanHook: func(sp Span) { spans++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Rounds != ctxRes.Rounds {
		t.Fatalf("rounds differ: %d vs %d", plain.Rounds, ctxRes.Rounds)
	}
	for i := range plain.Colors {
		if plain.Colors[i] != ctxRes.Colors[i] {
			t.Fatalf("color %d differs", i)
		}
	}
	if spans == 0 {
		t.Fatal("span hook never fired")
	}
	if err := Verify(g, ctxRes.Colors); err != nil {
		t.Fatal(err)
	}
}

// countdownCtx is a context that cancels itself after a set number of Err
// calls once armed. The pipeline's interrupt check calls Err at every round
// boundary, on the algorithm goroutine and on Algorithm 3's planning
// goroutines alike, so arming it when a phase closes cancels the run a
// fixed amount of work into the next one.
type countdownCtx struct {
	context.Context
	done  chan struct{}
	once  sync.Once
	left  atomic.Int64
	armed atomic.Bool
}

func newCountdownCtx() *countdownCtx {
	return &countdownCtx{Context: context.Background(), done: make(chan struct{})}
}

func (c *countdownCtx) arm(calls int64) {
	c.left.Store(calls)
	c.armed.Store(true)
}

func (c *countdownCtx) Done() <-chan struct{} { return c.done }

func (c *countdownCtx) Err() error {
	if !c.armed.Load() || c.left.Add(-1) >= 0 {
		return nil
	}
	c.once.Do(func() { close(c.done) })
	return context.Canceled
}

// Cancelling inside Algorithm 3's layer coloring, where the Workers=4 run
// plans layers on goroutines of its own, must return context.Canceled
// without a panic, leave no goroutine behind, and leave the next run on the
// same graph bit-identical to the golden pin.
func TestDeterministicCancelDuringLayerPlanning(t *testing.T) {
	ring, _ := graph.EasyCliqueRing(256, 16)
	g := graph.PermuteIDs(ring, rand.New(rand.NewSource(1)))
	const pinHash, pinRounds = 0x90ebb4272f325535, 2835 // TestDeterministicGoldenPins
	before := runtime.NumGoroutine()
	for _, calls := range []int64{1, 40, 400} {
		ctx := newCountdownCtx()
		res, err := DeterministicContext(ctx, g, ScaledParams(), &RunOptions{
			Workers: 4,
			SpanHook: func(sp Span) {
				if sp.Name == "alg3/rulingset" {
					ctx.arm(calls)
				}
			},
		})
		if res != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel after %d checks: want context.Canceled, got res=%v err=%v", calls, res != nil, err)
		}
		if !ctx.armed.Load() {
			t.Fatal("the run never reached Algorithm 3's layers")
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the cancelled runs, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
	res, err := DeterministicContext(context.Background(), g, ScaledParams(), &RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if h := colorsHash(res.Colors); h != pinHash || res.Rounds != pinRounds {
		t.Fatalf("run after cancellation: hash %#x rounds %d, pinned %#x rounds %d", h, res.Rounds, uint64(pinHash), pinRounds)
	}
}

// The post-shattering components of a checked randomized run publish to
// the run's harness. HardCliqueBipartite has no easy cliques, so only the
// components run Algorithm 3 and publish its phases.
func TestCheckedRandomizedChecksComponents(t *testing.T) {
	g := GenHardCliqueBipartite(16, 16)
	for seed := int64(1); seed <= 3; seed++ {
		res, rep, err := RunCheckedRandomizedContext(context.Background(), g, ScaledRandomizedParams(), seed, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Rand.Components == 0 {
			t.Fatalf("seed %d: no post-shattering components", seed)
		}
		if !slices.Contains(rep.Phases, "alg3/layers") || !slices.Contains(rep.Phases, "alg3/rulingset") {
			t.Fatalf("seed %d: component phases unchecked: %d checks over %v", seed, rep.Checks, rep.Phases)
		}
	}
}
