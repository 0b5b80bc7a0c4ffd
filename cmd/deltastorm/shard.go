package main

// Cluster load mode (-shard): benchmarks the deltashard sharded coordinator
// across shard counts and transports. Each (family, transport, k) cell runs
// concurrent coordinator streams — the in-process transport measures the
// pure partition/fan-out/merge machinery, the http transport adds the full
// /v1/shard/rounds wire protocol against loopback worker hosts. Every run's
// coloring is compared bit-for-bit against the single-process greedy oracle,
// so the numbers are for runs that provably kept the bit-identity contract.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"deltacoloring/internal/graph"
	"deltacoloring/internal/local"
	"deltacoloring/internal/shard"
)

// shardCellResult is one (family, transport, shard-count) measurement.
type shardCellResult struct {
	Name      string `json:"name"`
	N         int    `json:"n"`
	M         int    `json:"m"`
	Delta     int    `json:"delta"`
	Shards    int    `json:"shards"`
	Transport string `json:"transport"` // "inproc" or "http"
	// Workers is the worker-host count behind the http transport (0 for
	// inproc); shards land on hosts round-robin.
	Workers int `json:"workers,omitempty"`
	Runs    int `json:"runs"`
	// NsPerOp is total wall time across all concurrent streams divided by
	// the number of runs; P50/P99 are per-run latency percentiles.
	NsPerOp float64 `json:"ns_per_op"`
	P50MS   float64 `json:"p50_ms"`
	P99MS   float64 `json:"p99_ms"`
	Rounds  int     `json:"rounds"`
	// Cut-traffic counters from one run (deterministic per cell).
	CutEdges        int `json:"cut_edges"`
	Ghosts          int `json:"ghosts"`
	BoundaryUpdates int `json:"boundary_updates"`
	StepCalls       int `json:"step_calls"`
	// BitIdentical records the per-run comparison against the
	// single-process greedy oracle; the bench aborts if any run drifts, so a
	// written file always says true.
	BitIdentical bool `json:"bit_identical"`
}

type shardOutput struct {
	Description string            `json:"description"`
	Generated   string            `json:"generated"`
	GoVersion   string            `json:"go_version"`
	NumCPU      int               `json:"num_cpu"`
	Concurrency int               `json:"concurrency"`
	Cells       []shardCellResult `json:"cells"`
}

func shardFamilies(quick bool) []family {
	fams := []family{
		{"torus_64x64", graph.Torus(64, 64)},
		{"erdos_n1000", graph.ErdosRenyi(1000, 0.01, rand.New(rand.NewSource(7)))},
	}
	if !quick {
		fams = append(fams,
			family{"torus_128x128", graph.Torus(128, 128)},
			family{"regular_n20000_d8", graph.RandomRegular(20000, 8, rand.New(rand.NewSource(9)))},
		)
	}
	return fams
}

// solveOracle runs the greedy wire algorithm densely in a single process —
// the bit-identity reference for every sharded cell.
func solveOracle(g *graph.Graph) ([]int, int, error) {
	net := local.New(g)
	defer net.Close()
	return shard.SolveSingle(net)
}

// workerFleet spins nWorkers loopback HTTP hosts serving /v1/shard/rounds.
func workerFleet(nWorkers int) (addrs []string, stop func()) {
	servers := make([]*httptest.Server, nWorkers)
	for i := range servers {
		mux := http.NewServeMux()
		mux.Handle("POST "+shard.RoundsPath, shard.NewHost(0))
		servers[i] = httptest.NewServer(mux)
		addrs = append(addrs, servers[i].URL)
	}
	return addrs, func() {
		for _, s := range servers {
			s.Close()
		}
	}
}

// runShardCell drives conc concurrent coordinator streams of runsPerStream
// runs each and aggregates latency. transport is "inproc" or "http" (with
// addrs naming the worker fleet).
func runShardCell(fam family, k int, transport string, addrs []string, conc, runsPerStream int, oracle []int, oracleRounds int) (shardCellResult, error) {
	r := shardCellResult{
		Name:      fam.name,
		N:         fam.g.N(),
		M:         fam.g.M(),
		Delta:     fam.g.MaxDegree(),
		Shards:    k,
		Transport: transport,
		Workers:   len(addrs),
		Runs:      conc * runsPerStream,
	}
	lats := make([][]float64, conc)
	errs := make([]error, conc)
	var firstRes *shard.Result
	var mu sync.Mutex
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < runsPerStream; i++ {
				cfg := shard.Config{K: k, Session: fmt.Sprintf("bench-%s-k%d-c%d-r%d", fam.name, k, c, i)}
				if transport == "http" {
					tr, err := shard.NewHTTPTransport(addrs, cfg.Session, nil)
					if err != nil {
						errs[c] = err
						return
					}
					cfg.Transport = tr
				}
				t0 := time.Now()
				res, err := shard.Run(context.Background(), fam.g, cfg)
				lat := time.Since(t0)
				if err != nil {
					errs[c] = fmt.Errorf("k=%d run %d: %w", k, i, err)
					return
				}
				for v := range oracle {
					if res.Colors[v] != oracle[v] {
						errs[c] = fmt.Errorf("k=%d run %d: vertex %d drifted from the oracle", k, i, v)
						return
					}
				}
				if res.Rounds != oracleRounds {
					errs[c] = fmt.Errorf("k=%d run %d: %d rounds, oracle used %d", k, i, res.Rounds, oracleRounds)
					return
				}
				lats[c] = append(lats[c], float64(lat.Nanoseconds())/1e6)
				mu.Lock()
				if firstRes == nil {
					firstRes = res
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return r, err
		}
	}
	var all []float64
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Float64s(all)
	r.NsPerOp = float64(elapsed.Nanoseconds()) / float64(r.Runs)
	r.P50MS = percentile(all, 0.50)
	r.P99MS = percentile(all, 0.99)
	r.Rounds = firstRes.Rounds
	r.CutEdges = firstRes.Traffic.CutEdges
	r.Ghosts = firstRes.Traffic.Ghosts
	r.BoundaryUpdates = firstRes.Traffic.BoundaryUpdates
	r.StepCalls = firstRes.Traffic.StepCalls
	r.BitIdentical = true
	return r, nil
}

// runShardBench is the -shard entry point.
func runShardBench(quick bool, conc int, out string) error {
	if conc < 1 {
		conc = 1
	}
	shardCounts := []int{1, 2, 4, 8}
	runsPerStream := 8
	httpRuns := 3
	if quick {
		shardCounts = []int{1, 2, 4}
		runsPerStream = 3
		httpRuns = 2
	}
	var cells []shardCellResult
	for _, fam := range shardFamilies(quick) {
		oracle, oracleRounds, err := solveOracle(fam.g)
		if err != nil {
			return fmt.Errorf("%s: oracle: %w", fam.name, err)
		}
		for _, k := range shardCounts {
			cell, err := runShardCell(fam, k, "inproc", nil, conc, runsPerStream, oracle, oracleRounds)
			if err != nil {
				return fmt.Errorf("%s: %w", fam.name, err)
			}
			cells = append(cells, cell)
			fmt.Printf("%-20s inproc k=%d  n=%-6d %10.0f ns/op  p50=%7.2fms p99=%7.2fms  rounds=%-3d cut=%-6d boundary=%-7d steps=%d\n",
				fam.name, k, cell.N, cell.NsPerOp, cell.P50MS, cell.P99MS, cell.Rounds, cell.CutEdges, cell.BoundaryUpdates, cell.StepCalls)
		}
		// HTTP transport: k=4 over a 2-host loopback fleet — the full wire
		// protocol including graph shipping. Fixed at 4 in both modes so the
		// quick cells are a strict subset of the full run's (the CI shape
		// diff depends on that).
		addrs, stop := workerFleet(2)
		k := 4
		cell, err := runShardCell(fam, k, "http", addrs, conc, httpRuns, oracle, oracleRounds)
		stop()
		if err != nil {
			return fmt.Errorf("%s: http: %w", fam.name, err)
		}
		cells = append(cells, cell)
		fmt.Printf("%-20s http   k=%d  n=%-6d %10.0f ns/op  p50=%7.2fms p99=%7.2fms  rounds=%-3d cut=%-6d boundary=%-7d steps=%d\n",
			fam.name, k, cell.N, cell.NsPerOp, cell.P50MS, cell.P99MS, cell.Rounds, cell.CutEdges, cell.BoundaryUpdates, cell.StepCalls)
	}

	if out != "" {
		o := shardOutput{
			Description: "deltashard cluster benchmarks: the sharded coordinator across shard counts, in-process and over the /v1/shard/rounds HTTP protocol against loopback worker hosts. Each cell runs concurrent coordinator streams; ns/op is total wall time over all runs, p50/p99 are per-run latencies, and the cut-traffic counters (cut_edges, ghosts, boundary_updates, step_calls) come from one deterministic run. Every run's coloring was compared bit-for-bit against the single-process greedy oracle. Regenerate with: go run ./cmd/deltastorm -shard -out BENCH_shard.json",
			Generated:   time.Now().UTC().Format(time.RFC3339),
			GoVersion:   runtime.Version(),
			NumCPU:      runtime.NumCPU(),
			Concurrency: conc,
			Cells:       cells,
		}
		data, err := json.MarshalIndent(&o, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d cells)\n", out, len(cells))
	}
	return nil
}
