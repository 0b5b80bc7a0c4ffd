package main

import (
	"math"
	"testing"
)

func toyConfig(t *testing.T) *config {
	return &config{seed: 1, seconds: 0.3, workdir: t.TempDir(), toy: true}
}

// TestWorkloadsToy runs every workload at toy size, traced, and checks the
// run is correct, every end-to-end and per-layer metric appears with its
// unit, no end-to-end metric reads 0, and the spans cover the operations.
func TestWorkloadsToy(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := toyConfig(t)
			cfg.trace = true
			o, err := runWorkload(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(o.violations) > 0 || o.failed > 0 || o.attempted == 0 {
				t.Fatalf("violations %v, %d of %d operations failed", o.violations, o.failed, o.attempted)
			}
			for _, traced := range []bool{false, true} {
				res, err := resultOf(o, traced)
				if err != nil {
					t.Fatal(err)
				}
				list := endToEnd
				if traced {
					list = perLayer
				}
				if len(res.Metrics) != len(list) {
					t.Errorf("traced=%t: %d metrics, want %d", traced, len(res.Metrics), len(list))
				}
				for _, m := range list {
					v, ok := res.Metrics[m.name]
					if !ok || v.Unit != m.unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.name, v, m.unit)
					}
					if !traced && (v.Value <= 0 || math.IsInf(v.Value, 0) || math.IsNaN(v.Value)) {
						t.Errorf("end-to-end %s = %v, want a positive finite value", m.name, v.Value)
					}
				}
			}
			if o.coverage < 0.9 {
				t.Errorf("spans cover only %.1f%% of some operation", 100*o.coverage)
			}
		})
	}
}

// TestGatesRejectFlippedColor is the negative control of every correctness
// gate: one vertex recolored to a neighbor's color in the first output a
// gate checks (a drifted color, for shard_http) must fail the run.
func TestGatesRejectFlippedColor(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := toyConfig(t)
			cfg.flip = true
			o, err := runWorkload(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(o.violations) == 0 {
				t.Fatal("a flipped color passed the correctness gate")
			}
			if res, _ := resultOf(o, false); res.Correct {
				t.Fatal("result line says correct")
			}
		})
	}
}

// TestBenchmarkFileMatchesRegistry keeps BENCHMARK.json and the metrics
// this program prints in step.
func TestBenchmarkFileMatchesRegistry(t *testing.T) {
	def, err := readBenchDef("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(def.Workloads), len(workloads))
	}
	for i, w := range def.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s here", i, w.Name, workloads[i].name)
		}
	}
	if len(def.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d here", len(def.EndToEnd), len(endToEnd))
	}
	var setupBound float64
	for i, m := range def.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: %s %s in BENCHMARK.json, %s %s here", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	for _, m := range def.EndToEnd {
		if m.Bound > setupBound {
			t.Errorf("%s: bound %v above setup_s's %v", m.Name, m.Bound, setupBound)
		}
	}
	if len(def.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d here", len(def.PerLayer), len(perLayer))
	}
	for i, m := range def.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: %s %s in BENCHMARK.json, %s %s here", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{4, 8}, 3, 6, 9},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name string
		b    []float64
		want string
	}{
		{"same", shift(1), "no-worse"},
		{"faster", shift(0.8), "improved"},
		{"slower", shift(1.2), "regressed"},
		{"noisy", []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}, "unresolved"},
	} {
		if v := judge(base, c.b, true, 0.1); v.result != c.want {
			t.Errorf("%s: %s, want %s (%+v)", c.name, v.result, c.want, v)
		}
	}
}
