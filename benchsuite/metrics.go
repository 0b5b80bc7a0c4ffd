package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric names one reported number. BENCHMARK.json at the repository root
// lists the same names and units; TestBenchmarkFileMatchesRegistry keeps the
// two in step.
type metric struct {
	name string
	unit string
}

// endToEnd is what an untraced run reports, on every workload. Each
// workload has a main operation and a side operation; README.md gives both
// for each workload. The main operation's 90th percentile is an info field,
// p90_ms: under a busy neighbour on the host, color_mix's p90 moved by half
// while its p50 moved by a tenth, too far for any bound the format allows.
var endToEnd = []metric{
	{"setup_s", "s"},       // median of the run's set-ups: inputs, servers, warm-up
	{"peak_rss_mb", "MiB"}, // process VmHWM at the end of the run
	{"p50_ms", "ms"},       // main operation latency, from its due time in open loops
	{"side_p50_ms", "ms"},  // side operation latency
	{"cpu_ms", "ms/op"},    // process CPU time per operation of either kind
	{"rounds", "rounds"},   // mean LOCAL rounds charged per main operation
}

// corePhases lists the span names the core pipelines open, in pipeline
// order. Per-layer metrics replace "/" with ".".
var corePhases = []string{
	"alg1/acd", "alg1/classify",
	"alg2/matching", "alg2/heg", "alg2/sparsify", "alg2/triads", "alg2/pairs", "alg2/rest",
	"alg3/rulingset", "alg3/layers",
	"alg4/acd", "alg4/classify", "alg4/preshatter", "alg4/components", "alg4/happylayers",
}

// shardFamilies names the two graph families of shard_http; their per-layer
// metrics are reported apart because one is bound by per-round latency and
// the other by shipping volume.
var shardFamilies = []string{"torus", "regular"}

// perLayer is what a traced run reports, on every workload; a layer the
// workload does not reach reads 0.
var perLayer = func() []metric {
	ms := []metric{
		{"service.wait_ms", "ms"},
		{"service.exec_ms", "ms"},
		{"service.overhead_ms", "ms"},
		{"service.cache_hit_frac", "frac"},
		{"service.decode_ms", "ms"},
		{"service.encode_ms", "ms"},
		{"service.mutate_overhead_ms", "ms"},
		{"service.read_encode_ms", "ms"},
		{"graph.build_ms", "ms"},
		{"graph.build_ns_per_edge", "ns/edge"},
		{"graphio.hash_ms", "ms"},
		{"backend.color_ms", "ms"},
	}
	for _, p := range corePhases {
		n := corePhaseMetric(p)
		ms = append(ms, metric{n + ".ms", "ms"}, metric{n + ".rounds", "rounds"})
	}
	ms = append(ms,
		metric{"coloring.verify_ms", "ms"},
		metric{"local.engine_rounds", "rounds"},
		metric{"local.sparse_rounds", "rounds"},
		metric{"local.skipped_frac", "frac"},
		metric{"dynamic.apply_ms", "ms"},
		metric{"dynamic.recolor_ms", "ms"},
		metric{"dynamic.rebuild_ms", "ms"},
		metric{"dynamic.incremental_frac", "frac"},
		metric{"dynamic.recolored_per_batch", "count"},
		metric{"dynamic.rounds_per_batch", "rounds"},
		metric{"durable.apply_ms", "ms"},
		metric{"durable.wal_ms", "ms"},
		metric{"durable.wal_bytes_per_batch", "B"},
		metric{"durable.fsyncs_per_batch", "count"},
	)
	for _, f := range shardFamilies {
		p := "shard." + f + "."
		ms = append(ms,
			metric{p + "partition_ms", "ms"},
			metric{p + "solve_ms", "ms"},
			metric{p + "merge_ms", "ms"},
			metric{p + "init_ms", "ms"},
			metric{p + "step_ms", "ms"},
			metric{p + "finish_ms", "ms"},
			metric{p + "step_calls", "count"},
			metric{p + "boundary_updates", "count"},
			metric{p + "rounds", "rounds"},
			metric{p + "inproc_ms", "ms"},
		)
	}
	return append(ms,
		metric{"trace.untraced_frac", "frac"},
		metric{"trace.p50_ms", "ms"},
		metric{"trace.cpu_ms", "ms/op"},
	)
}()

// corePhaseMetric returns the per-layer metric prefix of a core span name.
func corePhaseMetric(span string) string {
	return "core." + strings.ReplaceAll(span, "/", ".")
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the nearest-rank q-quantile of xs, or 0 for no samples.
// Failed operations enter as +Inf, so they land above every percentile.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the default exclusive method), the
// definition the spread of a metric is judged by.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := len(s) + 1
	cut := func(i int) float64 {
		j := i * m / n
		j = max(1, min(j, len(s)-1))
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(2), cut(3)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// cpuTime returns the process's user plus system CPU time so far, which
// counts the load generator and the in-process servers alike.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's resident-set high-water mark (VmHWM)
// in MiB, falling back to the Go runtime's reserved memory where procfs is
// unavailable.
func peakRSSMiB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.Sys) / (1 << 20)
}

// stealJiffies returns the host's cumulative CPU steal time from
// /proc/stat (0 where unavailable): a run whose steal grew much was taken
// on a noisy host.
func stealJiffies() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}
