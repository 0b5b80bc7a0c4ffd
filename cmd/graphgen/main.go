// Command graphgen writes graph instances for deltacolor, deltaserved, and
// deltabench: the dense paper families plus the streamable scale families
// (circulant regular graphs, clique rings sized by -n), in either the text
// edge-list format or the binary mmap format (see internal/graphio and
// DESIGN.md §14).
//
// Usage:
//
//	graphgen -family hard -m 16 -delta 16 > hard.edges
//	graphgen -family regular -n 1000000 -d 16 -format binary -o reg.dcsr
//	graphgen -family ring -n 1000000 -delta 16 -format binary -o ring.dcsr
//
// The scale families build through the streaming parallel CSR path, so
// generating an n=10⁷ graph allocates the CSR arrays and nothing else.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"deltacoloring/internal/graph"
	"deltacoloring/internal/graphio"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("graphgen", flag.ContinueOnError)
	family := fs.String("family", "hard", "hard, easy, mixed, regular, or ring")
	m := fs.Int("m", 16, "cliques per side (hard/mixed) or ring length (easy)")
	delta := fs.Int("delta", 16, "clique size = maximum degree (dense families)")
	n := fs.Int("n", 0, "vertex count for the scale families (regular/ring)")
	d := fs.Int("d", 16, "degree of the regular family (even)")
	workers := fs.Int("workers", runtime.NumCPU(), "parallel CSR build workers for the scale families")
	format := fs.String("format", "text", "output format: text (edge list) or binary (mmap CSR)")
	out := fs.String("o", "", "output path (default stdout; required for -format binary)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var g *graph.Graph
	var err error
	desc := ""
	switch *family {
	case "regular":
		g, err = graph.Circulant(*n, *d, *workers)
		desc = fmt.Sprintf("regular family (circulant), n=%d, d=%d", *n, *d)
	case "ring":
		if *delta <= 0 || *n%*delta != 0 {
			return fmt.Errorf("ring family needs -n divisible by -delta, got n=%d delta=%d", *n, *delta)
		}
		g, err = graph.EasyCliqueRingStream(*n / *delta, *delta, *workers)
		desc = fmt.Sprintf("ring family, n=%d, delta=%d", *n, *delta)
	case "hard", "easy", "mixed":
		g, err = graph.DenseFamily(*family, *m, *delta, 0)
		desc = fmt.Sprintf("%s family, m=%d, delta=%d", *family, *m, *delta)
	default:
		return fmt.Errorf("unknown family %q", *family)
	}
	if err != nil {
		return err
	}
	switch *format {
	case "binary":
		if *out == "" {
			return fmt.Errorf("-format binary requires -o (binary graphs do not stream to stdout)")
		}
		return graphio.WriteBinaryFile(*out, g)
	case "text":
		var w io.Writer = os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				return err
			}
			defer f.Close()
			bw := bufio.NewWriterSize(f, 1<<20)
			defer bw.Flush()
			w = bw
		}
		return graphio.Write(w, g, desc)
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
}
