package invariant

import (
	"context"
	"errors"
	"fmt"

	"deltacoloring/internal/graph"
	"deltacoloring/internal/local"
	"deltacoloring/internal/shard"
)

// ShardCounts is the shard-count sweep of the sharded metamorphic suite.
var ShardCounts = []int{1, 2, 4}

// shardedSuite is the cluster half of the bit-identity contract: on every
// workload graph the wire algorithm is run once densely in a single process
// (the oracle) and then across every shard count in ShardCounts, each run
// harness-instrumented. Colors and rounds must match exactly; the partition
// and final-coloring checkpoints must fire; and corruption controls prove a
// damaged partition or a corrupted cross-cut exchange surfaces as a named
// violation, never as a silently wrong coloring.
func shardedSuite(w Workload, opt Options) SuiteResult {
	s := SuiteResult{Suite: "sharded"}
	g := w.Graph

	// Single-process oracle with the harness attached: the dense run itself
	// must publish a checked final coloring.
	oracleH := NewHarness(g)
	var oracleColors []int
	var oracleRounds int
	err := func() (err error) {
		net := local.New(g)
		defer net.Close()
		defer local.RecoverInterrupt(&err)
		oracleH.Attach(net)
		oracleColors, oracleRounds, err = shard.SolveSingle(net)
		return err
	}()
	if err != nil {
		s.Err = fmt.Errorf("single-process oracle: %w", err)
		return s
	}
	if oracleH.Checks() == 0 {
		s.Err = fmt.Errorf("single-process oracle published no checked artifacts")
		return s
	}

	cut := 0
	for _, k := range ShardCounts {
		h := NewHarness(g)
		res, err := shard.Run(context.Background(), g, shard.Config{K: k, NetHook: h.Attach})
		if err != nil {
			s.Err = fmt.Errorf("k=%d: %w", k, err)
			return s
		}
		for v := range oracleColors {
			if res.Colors[v] != oracleColors[v] {
				s.Err = fmt.Errorf("k=%d: vertex %d colored %d, single-process run says %d",
					k, v, res.Colors[v], oracleColors[v])
				return s
			}
		}
		if res.Rounds != oracleRounds {
			s.Err = fmt.Errorf("k=%d: %d cross-cut rounds, single-process run used %d",
				k, res.Rounds, oracleRounds)
			return s
		}
		if !contains(h.Phases(), "shard/partition") || !contains(h.Phases(), "final") {
			s.Err = fmt.Errorf("k=%d: harness phases %v missing shard/partition or final", k, h.Phases())
			return s
		}
		if res.K > 1 {
			cut = res.Traffic.CutEdges
		}
		opt.logf("  sharded k=%d: rounds=%d cut=%d boundary-updates=%d step-calls=%d",
			k, res.Rounds, res.Traffic.CutEdges, res.Traffic.BoundaryUpdates, res.Traffic.StepCalls)
	}

	if !opt.SkipNegative {
		if err := shardedNegative(g, cut); err != nil {
			s.Err = err
			return s
		}
	}
	s.Detail = fmt.Sprintf("k=%v bit-identical, %d cut edges", ShardCounts, cut)
	return s
}

// shardedNegative runs the per-shard corruption controls: each must end in
// its named violation type. A corrupted partition checkpoint must trip the
// harness; a corrupted exchange or finish must trip the worker/merge
// contracts. cut is the 2-shard run's cut-edge count — on zero-cut
// workloads no boundary message ever exists to corrupt, so that control is
// vacuous by construction (not silently skipped: the partition and finish
// controls still must fire).
func shardedNegative(g *graph.Graph, cut int) error {
	// Control 1: damage the partition artifact at its checkpoint; the
	// harness's shard/partition checker must refuse the run with a
	// *Violation naming the phase.
	h := NewHarness(g)
	h.CorruptPhase("shard/partition")
	_, err := shard.Run(context.Background(), g, shard.Config{K: 2, NetHook: h.Attach})
	if h.CorruptMissed() {
		// Single-vertex graphs partition into one shard; Owner cannot be
		// damaged meaningfully.
		if g.N() > 1 {
			return fmt.Errorf("negative control: partition artifact could not be damaged")
		}
	} else {
		var v *Violation
		if !errors.As(err, &v) {
			return fmt.Errorf("negative control: corrupted partition yielded %v, want *Violation", err)
		}
		if v.Phase != "shard/partition" {
			return fmt.Errorf("negative control: violation blames phase %q, want shard/partition", v.Phase)
		}
	}

	// Control 2: corrupt one cross-cut exchange message. The receiving
	// worker must refuse it as *ExchangeViolation. Vacuous when the 2-shard
	// partition has no cut edges (nothing ever crosses).
	tr := shard.NewChaosTransport(shard.NewInProcess(),
		shard.ChaosPlan{Mode: shard.ChaosCorruptExchange, Seed: 99, Prob: 1})
	_, err = shard.Run(context.Background(), g, shard.Config{K: 2, Transport: tr})
	if tr.Fired() {
		var ev *shard.ExchangeViolation
		if !errors.As(err, &ev) {
			return fmt.Errorf("negative control: corrupted exchange yielded %v, want *ExchangeViolation", err)
		}
	} else if cut > 0 {
		return fmt.Errorf("negative control: %d cut edges but the exchange corruption never fired", cut)
	}

	// Control 3: corrupt one shard's final colors. The merge must refuse
	// them as *MergeViolation.
	tr = shard.NewChaosTransport(shard.NewInProcess(),
		shard.ChaosPlan{Mode: shard.ChaosCorruptFinish, Seed: 99, Prob: 1})
	_, err = shard.Run(context.Background(), g, shard.Config{K: 2, Transport: tr})
	if !tr.Fired() {
		return fmt.Errorf("negative control: the finish corruption never fired")
	}
	var mv *shard.MergeViolation
	if !errors.As(err, &mv) {
		return fmt.Errorf("negative control: corrupted finish yielded %v, want *MergeViolation", err)
	}
	return nil
}
