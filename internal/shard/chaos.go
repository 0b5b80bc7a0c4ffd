package shard

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"
)

// Chaos fault modes.
const (
	// ChaosCrash fails one Step call outright, as a crashed worker would.
	ChaosCrash = "crash"
	// ChaosHang blocks one Step until the coordinator's per-call deadline
	// fires, as a wedged worker would.
	ChaosHang = "hang"
	// ChaosCorruptExchange rewrites one boundary update to an impossible
	// color before the receiving worker sees it; the exchange contract must
	// surface it as *ExchangeViolation.
	ChaosCorruptExchange = "corrupt-exchange"
	// ChaosCorruptFinish rewrites one final color to an impossible value;
	// the merge contract must surface it as *MergeViolation.
	ChaosCorruptFinish = "corrupt-finish"
)

// corruptColor is far outside any legal palette [0, Δ], so every corruption
// is detectable by range checks alone.
const corruptColor = int32(1) << 20

// ChaosPlan is a seeded schedule of transport faults.
type ChaosPlan struct {
	// Mode is one of the Chaos* constants.
	Mode string
	// Seed drives the splitmix64 stream picking the victim call.
	Seed uint64
	// Prob is the per-opportunity firing probability in [0,1]
	// (default 0.2). The plan fires at most once.
	Prob float64
}

// ChaosTransport wraps an inner transport and injects exactly one seeded
// fault per run, deterministically for a given (plan, call sequence). Run
// hands it each round as one batch, so under Run the fault depends on the
// plan and the run alone, at any shard count. It is the shard analogue of
// the engine's fault hooks: faults live at the transport layer, where a
// real cluster breaks.
type ChaosTransport struct {
	inner Transport
	plan  ChaosPlan

	mu    sync.Mutex
	rng   uint64
	fired bool
}

// NewChaosTransport wraps inner with the plan's fault schedule.
func NewChaosTransport(inner Transport, plan ChaosPlan) *ChaosTransport {
	if plan.Prob <= 0 || plan.Prob > 1 {
		plan.Prob = 0.2
	}
	return &ChaosTransport{inner: inner, plan: plan, rng: plan.Seed}
}

// Fired reports whether the fault has been injected yet.
func (t *ChaosTransport) Fired() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.fired
}

// splitmix64 advances the deterministic stream; t.mu must be held.
func (t *ChaosTransport) splitmix64() uint64 {
	t.rng += 0x9e3779b97f4a7c15
	z := t.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d49bb133111eb
	return z ^ (z >> 31)
}

// roll decides whether the fault fires on this opportunity; at most one
// fault fires per transport lifetime.
func (t *ChaosTransport) roll(mode string) bool {
	if t.plan.Mode != mode {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.fired {
		return false
	}
	// Map the top 53 bits to [0,1).
	u := float64(t.splitmix64()>>11) / float64(1<<53)
	if u >= t.plan.Prob {
		return false
	}
	t.fired = true
	return true
}

// Init passes through untouched: faults target the round loop and merge.
func (t *ChaosTransport) Init(ctx context.Context, shard int, part *Part, delta, parentN int) error {
	return t.inner.Init(ctx, shard, part, delta, parentN)
}

// Step injects crash, hang, or exchange-corruption faults.
func (t *ChaosTransport) Step(ctx context.Context, shard int, updates []Update) (*StepResult, error) {
	switch mode, updates := t.stepFault(updates); mode {
	case ChaosCrash:
		return nil, crashed(shard)
	case ChaosHang:
		<-ctx.Done()
		return nil, ctx.Err()
	default:
		return t.inner.Step(ctx, shard, updates)
	}
}

// stepRound steps a round as one batch: it rolls each shard's fault in
// ascending shard order, so the victim depends on the plan and the run
// alone, never on goroutine scheduling, then steps the shards left through
// the inner transport. A hung shard fails at the round's deadline.
func (t *ChaosTransport) stepRound(ctx context.Context, timeout time.Duration, r *round) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	rest := *r
	rest.active = make([]int, 0, len(r.active))
	hung := -1
	for _, s := range r.active {
		switch mode, updates := t.stepFault(r.updates[s]); mode {
		case ChaosCrash:
			r.errs[s] = crashed(s)
		case ChaosHang:
			hung = s
		case ChaosCorruptExchange:
			rest.updates = slices.Clone(r.updates)
			rest.updates[s] = updates
			fallthrough
		default:
			rest.active = append(rest.active, s)
		}
	}
	runRound(ctx, t.inner, timeout, &rest)
	if hung >= 0 {
		<-ctx.Done()
		r.errs[hung] = ctx.Err()
	}
}

// stepFault rolls one step's fault and returns its mode ("" for none) and
// the updates to deliver. Corruption only rolls when the step carries
// updates, so the single shot is never wasted on a quiet exchange.
func (t *ChaosTransport) stepFault(updates []Update) (string, []Update) {
	if t.roll(ChaosCrash) {
		return ChaosCrash, nil
	}
	if t.roll(ChaosHang) {
		return ChaosHang, nil
	}
	if len(updates) > 0 && t.roll(ChaosCorruptExchange) {
		t.mu.Lock()
		victim := int(t.splitmix64() % uint64(len(updates)))
		t.mu.Unlock()
		mangled := slices.Clone(updates)
		mangled[victim].C = corruptColor
		return ChaosCorruptExchange, mangled
	}
	return "", updates
}

func crashed(shard int) error {
	return fmt.Errorf("chaos: shard %d worker crashed", shard)
}

// Finish injects finish-corruption faults.
func (t *ChaosTransport) Finish(ctx context.Context, shard int) ([]Update, error) {
	finals, err := t.inner.Finish(ctx, shard)
	if err != nil {
		return nil, err
	}
	if len(finals) > 0 && t.roll(ChaosCorruptFinish) {
		t.mu.Lock()
		victim := int(t.splitmix64() % uint64(len(finals)))
		t.mu.Unlock()
		mangled := make([]Update, len(finals))
		copy(mangled, finals)
		mangled[victim].C = corruptColor
		return mangled, nil
	}
	return finals, nil
}

// Abort passes through.
func (t *ChaosTransport) Abort(shard int) { t.inner.Abort(shard) }
