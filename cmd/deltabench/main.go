// Command deltabench runs the evaluation suite (experiments E1-E16, E18 and
// E19 of EXPERIMENTS.md) and prints one table per experiment.
//
// Usage:
//
//	deltabench [-scale quick|standard|full] [-only E1,E5,...]
//	deltabench ... [-cpuprofile cpu.out] [-memprofile mem.out]
//
// Standard scale finishes in a few minutes; full scale adds the paper-exact
// Δ=126 instances and large n points and can take considerably longer.
// E18 is the fault-tolerance experiment: a pipeline coloring is damaged by
// seeded crash-stop + corruption plans at increasing rates and repaired
// distributedly. E19 is the frontier-occupancy experiment: each flagship
// workload reports its sparse-round share and skipped vertex evaluations,
// cross-checked round-for-round against the dense engine, and fails on any
// divergence (DESIGN.md "Frontier scheduling contract"). -only names the
// experiments to run; an id that names no experiment is an error.
// -cpuprofile and -memprofile write pprof profiles of the run; see
// CONTRIBUTING.md for the profiling workflow.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"deltacoloring/internal/bench"
)

// runners lists every experiment deltabench can run, in report order.
var runners = []struct {
	id string
	fn func(bench.Scale) (*bench.Table, error)
}{
	{"E1", bench.E1}, {"E2", bench.E2}, {"E3", bench.E3}, {"E4", bench.E4},
	{"E5", bench.E5}, {"E6", bench.E6}, {"E7", bench.E7}, {"E8", bench.E8},
	{"E9", bench.E9}, {"E10", bench.E10}, {"E11", bench.E11}, {"E12", bench.E12},
	{"E13", bench.EDelta63}, {"E14", bench.LogStarDemo}, {"E15", bench.E15},
	{"E16", bench.E16}, {"E18", bench.E18}, {"E19", bench.E19},
}

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "deltabench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("deltabench", flag.ContinueOnError)
	scaleFlag := fs.String("scale", "standard", "experiment scale: quick, standard, or full")
	onlyFlag := fs.String("only", "", "comma-separated experiment ids to run (e.g. E1,E5,E19); empty = all")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile (after the run) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var scale bench.Scale
	switch *scaleFlag {
	case "quick":
		scale = bench.Quick
	case "standard":
		scale = bench.Standard
	case "full":
		scale = bench.Full
	default:
		return fmt.Errorf("unknown scale %q", *scaleFlag)
	}
	only := map[string]bool{}
	if *onlyFlag != "" {
		known := map[string]bool{}
		for _, r := range runners {
			known[r.id] = true
		}
		for _, id := range strings.Split(*onlyFlag, ",") {
			id = strings.ToUpper(strings.TrimSpace(id))
			if !known[id] {
				return fmt.Errorf("unknown experiment %q in -only", id)
			}
			only[id] = true
		}
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer func() {
			runtime.GC()
			if werr := pprof.WriteHeapProfile(f); werr != nil {
				fmt.Fprintln(os.Stderr, "deltabench: memprofile:", werr)
			}
			f.Close()
		}()
	}

	for _, r := range runners {
		if len(only) > 0 && !only[r.id] {
			continue
		}
		start := time.Now()
		tab, err := r.fn(scale)
		if err != nil {
			return fmt.Errorf("%s: %w", r.id, err)
		}
		if _, err := tab.WriteTo(w); err != nil {
			return err
		}
		fmt.Fprintf(w, "(%s finished in %v)\n\n", r.id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
