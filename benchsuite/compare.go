package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchDef is the part of BENCHMARK.json the comparison and the harness
// test read.
type benchDef struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchDef(path string) (*benchDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d benchDef
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return &d, nil
}

// verdict is the comparison of one (metric, workload) pair.
type verdict struct {
	medA, medB float64
	iqrA, iqrB float64 // interquartile ranges
	change     float64 // (B-A)/A, signed so that positive is worse
	win        float64 // share of (a, b) pairs where b is better
	result     string
}

// judge applies the rule of the choosing-metrics guide, section 8, to runs
// a (the base) and b (the change). B improved when it wins at least nine
// tenths of all pairs, ties counting for neither, and its median beats A's
// by more than A's own interquartile range. Otherwise, when either side's
// spread (IQR over median) is wider than the bound, the pair is unresolved
// unless every b beats every a; else B regressed when its median is worse
// than A's by more than the bound, and is no worse when not.
func judge(a, b []float64, lowerBetter bool, bound float64) verdict {
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	v := verdict{medA: ma, medB: mb, iqrA: q3a - q1a, iqrB: q3b - q1b}
	better := func(x, y float64) bool { return (lowerBetter && x < y) || (!lowerBetter && x > y) }
	if ma != 0 {
		v.change = (mb - ma) / ma
		if !lowerBetter {
			v.change = -v.change
		}
	}
	wins, all := 0, true
	for _, x := range a {
		for _, y := range b {
			if better(y, x) {
				wins++
			} else {
				all = false
			}
		}
	}
	v.win = float64(wins) / float64(len(a)*len(b))
	spread := 0.0
	if ma != 0 && mb != 0 {
		spread = max(v.iqrA/ma, v.iqrB/mb)
	}
	switch {
	case v.win >= 0.9 && better(mb, ma) && math.Abs(mb-ma) > v.iqrA:
		v.result = "improved"
	case spread > bound && !all:
		v.result = "unresolved"
	case v.change > bound:
		v.result = "regressed"
	default:
		v.result = "no-worse"
	}
	return v
}

// runCompare compares every end-to-end metric on every workload between
// the -out files matching globA (the base) and globB (the change). It
// reports false when any pair regressed or is unresolved.
func runCompare(w io.Writer, benchPath, globA, globB string) (bool, error) {
	def, err := readBenchDef(benchPath)
	if err != nil {
		return false, err
	}
	a, err := loadRuns(globA)
	if err != nil {
		return false, err
	}
	b, err := loadRuns(globB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A: %d runs of %s   B: %d runs of %s\n", len(a), globA, len(b), globB)
	ok := true
	for _, wl := range def.Workloads {
		fmt.Fprintf(w, "%s\n  %-14s %-7s %26s %26s %8s %5s  %s\n", wl.Name,
			"metric", "unit", "A median [IQR]", "B median [IQR]", "change", "win", "verdict")
		for _, m := range def.EndToEnd {
			xs, ys := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(xs) == 0 || len(ys) == 0 {
				fmt.Fprintf(w, "  %-14s missing in A or B\n", m.Name)
				ok = false
				continue
			}
			v := judge(xs, ys, m.Better == "lower", m.Bound)
			fmt.Fprintf(w, "  %-14s %-7s %14.4f [%8.4f] %14.4f [%8.4f] %+7.2f%% %5.2f  %s (bound %.0f%%)\n",
				m.Name, m.Unit, v.medA, v.iqrA, v.medB, v.iqrB, 100*v.change, v.win, v.result, 100*m.Bound)
			if v.result == "regressed" || v.result == "unresolved" {
				ok = false
			}
		}
	}
	return ok, nil
}

// loadRuns reads every -out file matching pattern, in name order.
func loadRuns(pattern string) ([]*suiteRun, error) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no files match %q", pattern)
	}
	sort.Strings(paths)
	runs := make([]*suiteRun, 0, len(paths))
	for _, p := range paths {
		r, err := readSuiteRun(p)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// values collects one metric of one workload across runs.
func values(runs []*suiteRun, workload, metric string) []float64 {
	var xs []float64
	for _, r := range runs {
		if e := r.Workloads[workload]; e != nil {
			if v, ok := e.Metrics[metric]; ok {
				xs = append(xs, v.Value)
			}
		}
	}
	return xs
}
