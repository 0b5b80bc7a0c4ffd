package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"deltacoloring"
	"deltacoloring/internal/bench"
	"deltacoloring/internal/coloring"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/graphio"
)

// The -scalebench mode (EXPERIMENTS.md table E24): the big-graph substrate
// exercised end to end. Two workload families, sized by -scale:
//
//   - regular: the circulant C_n(1..8) — sparse, 16-regular, streamed
//     through the parallel CSR builder, written to the binary format,
//     reopened through the mmap loader, and (deg+1)-greedy-colored with the
//     word-wide palette kernels.
//   - ring: the dense clique-ring family at scale, streamed and pushed
//     through the full deterministic pipeline.
//
// Every phase reports ns per half-edge and the process peak RSS after it
// ran (VmHWM is a high-water mark, so the column is monotone down the
// table; the interesting numbers are the steps). Before any timing, both
// workload shapes replay at subsampled n through the conformance oracle —
// the ring through RunChecked (every phase checker plus the sequential
// oracle), the circulant through the independent verifier — so a scale run
// whose workloads would produce invalid colorings fails before publishing
// numbers. BENCH_scale.json tracks the standard-scale snapshot.

// scaleRecord is one workload phase of the -scalebench report.
type scaleRecord struct {
	Name string `json:"name"`
	// N and Edges give the instance shape; Edges counts half-edges (2m),
	// the unit every ns_per_edge figure normalizes by.
	N     int `json:"n"`
	Edges int `json:"edges"`
	// Ns is the phase wall time in nanoseconds (one shot — these phases
	// are big enough that iteration averaging would only burn time).
	Ns        float64 `json:"ns"`
	NsPerEdge float64 `json:"ns_per_edge"`
	// PeakRSSBytes is VmHWM after the phase completed.
	PeakRSSBytes int64 `json:"peak_rss_bytes"`
	Rounds       int   `json:"rounds,omitempty"`
	Colors       int   `json:"colors,omitempty"`
	FileBytes    int64 `json:"file_bytes,omitempty"`
}

type scaleReport struct {
	Description string        `json:"description"`
	Generated   string        `json:"generated"`
	GoVersion   string        `json:"go_version"`
	NumCPU      int           `json:"num_cpu"`
	Scale       string        `json:"scale"`
	Workloads   []scaleRecord `json:"workloads"`
}

// peakRSS reads the process high-water resident set (VmHWM) from
// /proc/self/status, in bytes. Returns 0 where procfs is unavailable.
func peakRSS() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseInt(f[0], 10, 64)
				if err == nil {
					return kb * 1024
				}
			}
		}
	}
	return 0
}

// verifyScaleWorkloads replays both workload shapes at subsampled n through
// the conformance oracle before any timing runs.
func verifyScaleWorkloads() error {
	const d = 16
	reg, err := graph.Circulant(8192, d, 4)
	if err != nil {
		return err
	}
	// Bit-identity: the parallel streamed build must match the sequential
	// one exactly (the fuzz harness covers this too; here it guards the
	// exact workload shape).
	seq, err := graph.Circulant(8192, d, 1)
	if err != nil {
		return err
	}
	var pb, sb bytes.Buffer
	if err := graph.EncodeBinary(&pb, reg); err != nil {
		return err
	}
	if err := graph.EncodeBinary(&sb, seq); err != nil {
		return err
	}
	if !bytes.Equal(pb.Bytes(), sb.Bytes()) {
		return fmt.Errorf("parallel circulant build diverges from sequential")
	}
	out := coloring.NewPartial(reg.N())
	if err := coloring.GreedyComplete(reg, out, d+1); err != nil {
		return err
	}
	if err := deltacoloring.VerifyWithin(reg, out.Colors, d+1); err != nil {
		return fmt.Errorf("regular workload rejected by verifier: %w", err)
	}
	ring, err := graph.EasyCliqueRingStream(64, 16, 4)
	if err != nil {
		return err
	}
	_, rep, err := deltacoloring.RunChecked(ring, deltacoloring.ScaledParams())
	if err != nil {
		return fmt.Errorf("ring workload rejected by checked run: %w", err)
	}
	fmt.Fprintf(os.Stderr, "oracle: regular n=8192 verified (%d colors), ring k=64 checked (%d checker firings)\n",
		countColors(out.Colors), rep.Checks)
	return nil
}

// countColors returns the number of distinct colors a complete coloring
// spends.
func countColors(colors []int) int {
	maxColor := -1
	for _, c := range colors {
		if c > maxColor {
			maxColor = c
		}
	}
	return maxColor + 1
}

// runScale executes the big-graph workloads and writes the E24 JSON report.
func runScale(w io.Writer, scale bench.Scale) error {
	var nReg, ringK int
	var scaleName string
	switch scale {
	case bench.Quick:
		nReg, ringK, scaleName = 200_000, 12_500, "quick"
	case bench.Standard:
		nReg, ringK, scaleName = 1_000_000, 62_500, "standard"
	default:
		nReg, ringK, scaleName = 10_000_000, 625_000, "full"
	}
	const d, delta = 16, 16
	workers := runtime.NumCPU()

	if err := verifyScaleWorkloads(); err != nil {
		return fmt.Errorf("subsampled oracle verification: %w", err)
	}

	var records []scaleRecord
	note := func(rec scaleRecord) {
		rec.NsPerEdge = rec.Ns / float64(max(rec.Edges, 1))
		rec.PeakRSSBytes = peakRSS()
		records = append(records, rec)
		fmt.Fprintf(os.Stderr, "%-22s n=%-9d ne=%-10d %9.2f ns/edge  %7.0f MB peak\n",
			rec.Name, rec.N, rec.Edges, rec.NsPerEdge, float64(rec.PeakRSSBytes)/(1<<20))
	}
	dir, err := os.MkdirTemp("", "deltascale-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Regular family: streamed parallel build, binary write, mmap reopen,
	// deg+1 greedy coloring on the mapped view.
	start := time.Now()
	reg, err := graph.Circulant(nReg, d, workers)
	if err != nil {
		return err
	}
	ne := 2 * reg.M()
	note(scaleRecord{Name: "regular_build", N: nReg, Edges: ne, Ns: float64(time.Since(start).Nanoseconds())})

	path := filepath.Join(dir, "regular.dcsr")
	start = time.Now()
	if err := graphio.WriteBinaryFile(path, reg); err != nil {
		return err
	}
	wrote := float64(time.Since(start).Nanoseconds())
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	note(scaleRecord{Name: "regular_write", N: nReg, Edges: ne, Ns: wrote, FileBytes: st.Size()})
	reg = nil // the mapped view takes over; let the heap copy go

	start = time.Now()
	mg, closer, err := graphio.OpenBinary(path)
	if err != nil {
		return err
	}
	defer closer.Close()
	if mg.N() != nReg || 2*mg.M() != ne {
		return fmt.Errorf("mmap reopen shape mismatch: n=%d ne=%d", mg.N(), 2*mg.M())
	}
	note(scaleRecord{Name: "regular_mmap_open", N: nReg, Edges: ne, Ns: float64(time.Since(start).Nanoseconds())})

	start = time.Now()
	out := coloring.NewPartial(mg.N())
	if err := coloring.GreedyComplete(mg, out, d+1); err != nil {
		return err
	}
	colorNs := float64(time.Since(start).Nanoseconds())
	if err := deltacoloring.VerifyWithin(mg, out.Colors, d+1); err != nil {
		return fmt.Errorf("regular_color produced an invalid coloring: %w", err)
	}
	note(scaleRecord{Name: "regular_color", N: nReg, Edges: ne, Ns: colorNs, Colors: countColors(out.Colors)})

	// Ring family: streamed build, then the full deterministic pipeline.
	start = time.Now()
	ring, err := graph.EasyCliqueRingStream(ringK, delta, workers)
	if err != nil {
		return err
	}
	ringNe := 2 * ring.M()
	note(scaleRecord{Name: "ring_build", N: ring.N(), Edges: ringNe, Ns: float64(time.Since(start).Nanoseconds())})

	start = time.Now()
	res, err := deltacoloring.Deterministic(ring, deltacoloring.ScaledParams())
	if err != nil {
		return err
	}
	pipeNs := float64(time.Since(start).Nanoseconds())
	if err := deltacoloring.Verify(ring, res.Colors); err != nil {
		return fmt.Errorf("ring_pipeline produced an invalid coloring: %w", err)
	}
	note(scaleRecord{Name: "ring_pipeline", N: ring.N(), Edges: ringNe, Ns: pipeNs,
		Rounds: res.Rounds, Colors: countColors(res.Colors)})

	// Dense-attack reference point: the flagship m=16 instance, averaged —
	// ties the scale snapshot to the BENCH_frontier.json series tracking
	// the hot dense phases (ACD, classification, palette kernels).
	attack := deltacoloring.GenHardCliqueBipartite(16, 16)
	attackNe := 2 * attack.M()
	const attackIters = 10
	start = time.Now()
	rounds := 0
	for i := 0; i < attackIters; i++ {
		ares, err := deltacoloring.Deterministic(attack, deltacoloring.ScaledParams())
		if err != nil {
			return err
		}
		rounds = ares.Rounds
	}
	note(scaleRecord{Name: "dense_attack_m16", N: attack.N(), Edges: attackNe,
		Ns: float64(time.Since(start).Nanoseconds()) / attackIters, Rounds: rounds})

	report := scaleReport{
		Description: "Big-graph substrate benchmarks (EXPERIMENTS.md table E24). regular_* streams the 16-regular circulant through the parallel CSR builder, the binary graph format, the mmap loader, and a deg+1 greedy coloring on the mapped view; ring_* streams the clique-ring family and runs the full deterministic pipeline; dense_attack_m16 is the flagship dense instance averaged over 10 runs, linking this series to BENCH_frontier.json. Edges counts half-edges; peak_rss_bytes is VmHWM after the phase (a monotone high-water mark). Regenerate with: go run ./cmd/deltabench -scalebench -scale standard -bench-out BENCH_scale.json",
		Generated:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		Scale:       scaleName,
		Workloads:   records,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&report)
}
