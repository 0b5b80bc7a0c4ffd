// Command deltabench-suite is the benchmark of record for this repository:
// four workloads that together cross every layer, each printed metric by
// name and unit, and a correctness gate on every output. The root
// BENCH_*.json files are historical snapshots of older harnesses, not
// numbers to compare against.
//
// Run it through benchsuite/run.sh from the repository root, which builds
// it from the checkout's sources first. One workload, in this process:
//
//	sh benchsuite/run.sh -workload color_mix -seed 1 -seconds 30 -trace 0
//
// prints an info line and then, as the last line, the result object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics,
// or with -trace 1 the per-layer ones, which come from spans the benchmark
// records around its calls into each layer (-spans FILE writes them).
//
// The suite runs every workload (or -workloads a,b), each in a child
// process, prints every metric, and with -out writes them with an
// environment block; -trace 1 adds a traced run of each workload:
//
//	sh benchsuite/run.sh -suite -seed 1 -out run.json -trace 1 -spans trace.json
//
// Compare two sets of -out files, metric by metric and workload by
// workload, against the bounds in BENCHMARK.json (quote the globs):
//
//	sh benchsuite/run.sh -compare 'base-*.json' 'change-*.json'
//
// A run exits non-zero when an output fails its correctness check; a
// comparison does when a metric regressed or is unresolved. README.md
// gives the workloads, the metrics and what each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this workload in this process and print its result line")
		seed     = flag.Int64("seed", 1, "seed the workload inputs are made from")
		seconds  = flag.Float64("seconds", 30, "length of each workload's timed section")
		trace    = flag.Int("trace", 0, "1: traced run, reporting per-layer metrics")
		spans    = flag.String("spans", "", "with -trace 1, write the recorded spans to this file")
		suite    = flag.Bool("suite", false, "run the workloads, each in a child process")
		names    = flag.String("workloads", "", "comma-separated workloads for -suite (default: all)")
		out      = flag.String("out", "", "with -suite, write the results and environment to this file")
		compare  = flag.Bool("compare", false, "compare two globs of -out files: -compare 'A*.json' 'B*.json'")
		bench    = flag.String("benchmark", "BENCHMARK.json", "benchmark definition holding the bounds -compare applies")
		workdir  = flag.String("workdir", ".bench_build", "scratch directory for durable graph data")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fail("-trace must be 0 or 1")
	}
	if *seconds <= 0 {
		fail("-seconds must be positive")
	}
	cfg := &config{seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: *workdir}
	var err error
	ok := true
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fail("-compare takes two quoted globs, e.g. -compare 'base-*.json' 'change-*.json'")
		}
		ok, err = runCompare(os.Stdout, *bench, flag.Arg(0), flag.Arg(1))
	case *suite:
		var sel []string
		if *names != "" {
			sel = strings.Split(*names, ",")
		}
		ok, err = runSuite(cfg, sel, *spans, *out)
	case *workload != "":
		ok, err = runOne(cfg, *workload, *spans)
	default:
		fail("need -workload NAME, -suite or -compare")
	}
	if err != nil {
		fail(err.Error())
	}
	if !ok {
		os.Exit(1)
	}
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "deltabench-suite:", msg)
	os.Exit(2)
}

// resultLine is the last line a workload run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// infoLine precedes the result line: numbers reported but not gated.
type infoLine struct {
	Info       map[string]float64 `json:"info"`
	Violations []string           `json:"violations,omitempty"`
}

// runOne runs one workload in this process and prints its info line and
// result line. It reports false when an output failed its check.
func runOne(cfg *config, name, spansPath string) (bool, error) {
	w, err := findWorkload(name)
	if err != nil {
		return false, err
	}
	o, err := runWorkload(w, cfg)
	if err != nil {
		return false, err
	}
	if cfg.trace {
		printSelfTimes(os.Stderr, name, o.layers, o.ops)
		if spansPath != "" {
			if err := writeSpans(spansPath, map[string][]span{name: o.spans}); err != nil {
				return false, err
			}
		}
	}
	res, err := resultOf(o, cfg.trace)
	if err != nil {
		return false, fmt.Errorf("%s: %w", name, err)
	}
	for _, v := range o.failures {
		fmt.Fprintln(os.Stderr, "operation failed:", v)
	}
	for _, v := range o.violations {
		fmt.Fprintln(os.Stderr, "check failed:", v)
	}
	for k, v := range o.info {
		o.info[k] = finite(v)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(infoLine{Info: o.info, Violations: o.violations}); err != nil {
		return false, err
	}
	if err := enc.Encode(res); err != nil {
		return false, err
	}
	return res.Correct, nil
}

// resultOf renders a run's result line: every end-to-end metric, or in a
// traced run every per-layer one, with its unit. A layer the workload does
// not reach reads 0; an end-to-end metric must have been measured.
func resultOf(o *outcome, traced bool) (resultLine, error) {
	res := resultLine{Correct: len(o.violations) == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: map[string]metricValue{}}
	list := endToEnd
	if traced {
		list = perLayer
	}
	for _, m := range list {
		v, found := o.metrics[m.name]
		if !found && !traced {
			return res, fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metricValue{Value: finite(v), Unit: m.unit}
	}
	return res, nil
}

// finite maps the +Inf a run of mostly failed operations can produce onto
// the largest float, which JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}
