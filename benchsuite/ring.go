package main

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"time"

	"deltacoloring"
	"deltacoloring/internal/graph"
)

// ring_scale: the deterministic pipeline as a library call on one large
// clique ring (k=12500 cliques of Δ=16: n=2·10⁵, 3.2·10⁶ half-edges), IDs
// permuted by the seed. Runs alternate between Workers=GOMAXPROCS (the main
// operation) and Workers=1 (the side operation), closed loop, until the
// timed section's seconds are up. The same core and local layers as
// color_mix run here on one large graph instead of many small ones, so an
// optimisation for large n that adds per-job overhead, or the reverse,
// shows in one workload and not the other; the side operation shows what
// the parallel engine buys.
const ringK, ringDelta = 12500, 16

type ringInst struct {
	cfg          *config
	g            *graph.Graph
	buildNsPerHE float64
}

// ringWorkers are the worker counts of the main and the side operation.
var ringWorkers = [2]int{runtime.GOMAXPROCS(0), 1}

func setupRing(cfg *config) (instance, error) {
	k := ringK
	if cfg.toy {
		k = 64
	}
	t0 := time.Now()
	base, err := graph.EasyCliqueRingStream(k, ringDelta, ringWorkers[0])
	if err != nil {
		return nil, err
	}
	g := graph.PermuteIDs(base, rand.New(rand.NewSource(cfg.seed)))
	r := &ringInst{cfg: cfg, g: g, buildNsPerHE: float64(time.Since(t0).Nanoseconds()) / float64(2*g.M())}
	res, err := r.run(ringWorkers[0], nil)
	if err != nil {
		return nil, err
	}
	if err := deltacoloring.Verify(g, res.Colors); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *ringInst) close() {}

func (r *ringInst) run(workers int, clock *phaseClock) (*deltacoloring.Result, error) {
	opts := &deltacoloring.RunOptions{Workers: workers}
	if clock != nil {
		opts.SpanHook = clock.hook
	}
	return deltacoloring.DeterministicContext(context.Background(), r.g, deltacoloring.ScaledParams(), opts)
}

func (r *ringInst) measure(tr *tracer) (*outcome, error) {
	o := newOutcome()
	var lat [2][]float64
	var cpu, rounds, verify []float64
	var pipe pipelineTotals
	deadline := time.Now().Add(time.Duration(r.cfg.seconds * float64(time.Second)))
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		var iterCPU time.Duration // the runs' own CPU time, checks excluded
		for k, w := range ringWorkers {
			var clock *phaseClock
			if tr != nil {
				clock = newPhaseClock()
			}
			o.attempted++
			c0, t0 := cpuTime(), time.Now()
			res, err := r.run(w, clock)
			t1 := time.Now()
			iterCPU += cpuTime() - c0
			if err != nil {
				o.fail("ring_scale: run %d: %v", o.attempted, err)
				lat[k] = append(lat[k], math.Inf(1))
				continue
			}
			lat[k] = append(lat[k], ms(t1.Sub(t0)))
			if k == 0 {
				rounds = append(rounds, float64(res.Rounds))
			}
			if r.cfg.flip && o.info["flipped"] == 0 {
				flipColor(r.g, res.Colors)
				o.info["flipped"] = 1
			}
			if err := deltacoloring.Verify(r.g, res.Colors); err != nil {
				o.violate("ring_scale: run %d: %v", o.attempted, err)
			}
			if tr != nil {
				t2 := time.Now()
				op, root := tr.root("ring.run", t0, t1)
				b := tr.child(op, root, "backend.color", t0, t1)
				for _, p := range clock.phases {
					tr.child(op, b, corePhaseMetric(p.name), p.start, p.end)
				}
				op, root = tr.root("ring.verify", t1, t2)
				tr.child(op, root, "coloring.verify", t1, t2)
				verify = append(verify, ms(t2.Sub(t1)))
				pipe.add(clock, res.Frontier)
			}
		}
		cpu = append(cpu, ms(iterCPU)/float64(len(ringWorkers)))
	}
	if len(rounds) == 0 {
		return nil, errIncomplete
	}
	he := float64(2 * r.g.M())
	o.metrics["p50_ms"] = quantile(lat[0], 0.5)
	o.metrics["side_p50_ms"] = median(lat[1])
	o.metrics["cpu_ms"] = median(cpu)
	o.metrics["rounds"] = mean(rounds)
	o.info["p90_ms"] = quantile(lat[0], 0.9)
	o.info["samples"] = float64(len(lat[0]))
	o.info["side_samples"] = float64(len(lat[1]))
	o.info["ns_per_edge"] = o.metrics["p50_ms"] * 1e6 / he
	o.info["cpu_ns_per_edge"] = o.metrics["cpu_ms"] * 1e6 / he
	if tr != nil {
		o.metrics["backend.color_ms"] = mean(append(lat[0], lat[1]...))
		o.metrics["coloring.verify_ms"] = mean(verify)
		o.metrics["graph.build_ns_per_edge"] = r.buildNsPerHE
		pipe.report(o.metrics)
	}
	return o, nil
}
