// Command deltacolor generates or reads a graph, runs the deterministic or
// randomized Δ-coloring algorithm on it, verifies the result, and prints a
// summary (and optionally the colors themselves).
//
// Usage:
//
//	deltacolor -gen hard -m 16 -delta 16 [-algo det|rand] [-seed 1] [-colors]
//	deltacolor -in graph.edges [-algo det] [-paper]
//	graphgen ... | deltacolor -in -
//
// Graph files use a plain edge-list format: the first line is the vertex
// count, each further line "u v" is an edge; '#' starts a comment. The
// special path "-" reads the graph from standard input. Files in the binary
// graph format (graphgen -format binary) are detected by their magic and
// opened through the memory-mapped loader, so -in works unchanged on
// multi-gigabyte instances.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"deltacoloring"
	"deltacoloring/internal/backend"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/graphio"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "deltacolor:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("deltacolor", flag.ContinueOnError)
	genFlag := fs.String("gen", "", "generator: hard, easy, or mixed")
	mFlag := fs.Int("m", 16, "cliques per side (hard/mixed) or ring length (easy)")
	deltaFlag := fs.Int("delta", 16, "clique size = maximum degree")
	inFlag := fs.String("in", "", "read an edge-list graph file instead of generating (\"-\" for stdin)")
	algoFlag := fs.String("algo", "det", "algorithm: det (Theorem 1) or rand (Theorem 2)")
	backendFlag := fs.String("backend", "", "pipeline backend to run (overrides -algo): a backend name or auto for the portfolio selector")
	seedFlag := fs.Int64("seed", 1, "seed for -algo rand")
	paperFlag := fs.Bool("paper", false, "use the paper-exact parameters (ε=1/63, needs Δ ⪆ 85)")
	colorsFlag := fs.Bool("colors", false, "print the per-vertex colors")
	dotFlag := fs.String("dot", "", "write the colored graph as Graphviz DOT to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var (
		g      *deltacoloring.Graph
		closer io.Closer
		err    error
	)
	switch {
	case *inFlag != "":
		g, closer, err = readGraph(*inFlag)
	case *genFlag != "":
		g, err = graph.DenseFamily(*genFlag, *mFlag, *deltaFlag, 0)
	default:
		return fmt.Errorf("choose -gen hard|easy|mixed or -in FILE")
	}
	if err != nil {
		return err
	}
	if closer != nil {
		defer closer.Close()
	}
	fmt.Fprintf(w, "graph: n=%d m=%d Δ=%d\n", g.N(), g.M(), g.MaxDegree())

	// -algo names one of the two theorems' pipelines; -backend, when set,
	// overrides it with any table name or auto.
	name := *backendFlag
	if name == "" {
		if *algoFlag != "det" && *algoFlag != "rand" {
			return fmt.Errorf("unknown -algo %q", *algoFlag)
		}
		name = *algoFlag
	}
	b, res, err := runBackend(w, g, name, *paperFlag, *seedFlag)
	if err != nil {
		return err
	}
	// A backend's results use at most Δ + PaletteSlack colors (greedy is a
	// Δ+1 coloring); that is the bound verified and printed.
	k := g.MaxDegree() + b.PaletteSlack
	if err := deltacoloring.VerifyWithin(g, res.Colors, k); err != nil {
		return fmt.Errorf("verification failed: %w", err)
	}
	bound := "Δ"
	if b.PaletteSlack > 0 {
		bound = fmt.Sprintf("Δ+%d", b.PaletteSlack)
	}
	fmt.Fprintf(w, "%s-coloring verified: %d colors, %d LOCAL rounds\n", bound, k, res.Rounds)
	fmt.Fprintf(w, "cliques: %d total, %d hard, %d easy; triads: %d; G_V degree %d (bound %d)\n",
		res.Stats.NumCliques, res.Stats.HardCliques, res.Stats.EasyCliques,
		res.Stats.Triads, res.Stats.PairGraphMaxDeg, g.MaxDegree()-2)
	if r := res.Rand; r != nil {
		fmt.Fprintf(w, "shattering: %d T-nodes kept of %d proposed, %d components (max size %d)\n",
			r.TNodesKept, r.TNodesProposed, r.Components, r.MaxComponent)
	}
	fmt.Fprintln(w, "round breakdown:")
	for _, sp := range res.Spans {
		if sp.Rounds > 0 {
			fmt.Fprintf(w, "  %-18s %6d\n", sp.Name, sp.Rounds)
		}
	}
	if *colorsFlag {
		for v, c := range res.Colors {
			fmt.Fprintf(w, "%d %d\n", v, c)
		}
	}
	if *dotFlag != "" {
		f, err := os.Create(*dotFlag)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := deltacoloring.WriteDOT(f, g, res.Colors); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", *dotFlag)
	}
	return nil
}

// runBackend runs the named backend, or the portfolio selector's pick for
// "auto"; the effective pick is printed either way. Unknown names fail fast
// listing the table.
func runBackend(w io.Writer, g *deltacoloring.Graph, name string, paper bool, seed int64) (*backend.Backend, *backend.Result, error) {
	p := backend.Presets(paper, seed)
	b, err := backend.Resolve(name, g, p)
	if err != nil {
		return nil, nil, fmt.Errorf("unknown -backend %q (want auto or one of: %s)",
			name, strings.Join(backend.Names(), ", "))
	}
	if name == "auto" {
		fmt.Fprintf(w, "backend: %s (selected by auto)\n", b.Name)
	} else {
		fmt.Fprintf(w, "backend: %s\n", b.Name)
	}
	res, err := b.Color(nil, g, p, nil)
	if err != nil {
		return nil, nil, err
	}
	return b, res, nil
}

func readGraph(path string) (*deltacoloring.Graph, io.Closer, error) {
	return readGraphFrom(path, os.Stdin)
}

// readGraphFrom resolves the graph source: the conventional "-" means stdin
// (text edge list only — binary graphs need a seekable file); a path goes
// through the format-sniffing loader, which memory-maps binary graphs. The
// returned closer (nil for stdin) owns any mapping and must outlive every
// use of the graph.
func readGraphFrom(path string, stdin io.Reader) (*deltacoloring.Graph, io.Closer, error) {
	if path == "-" {
		g, err := graphio.Read(stdin)
		if err != nil {
			return nil, nil, fmt.Errorf("stdin: %w", err)
		}
		return g, nil, nil
	}
	g, closer, err := graphio.Load(path)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, closer, nil
}
