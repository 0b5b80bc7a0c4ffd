package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// env records what a suite run ran on, so runs from a noisy or different
// host can be told apart.
type env struct {
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Start      string  `json:"start"`
}

// suiteRun is the -out file: one suite run over its workloads.
type suiteRun struct {
	Env       env                    `json:"env"`
	Workloads map[string]*suiteEntry `json:"workloads"`
}

// suiteEntry is one workload's result in a suite run.
type suiteEntry struct {
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Metrics    map[string]metricValue `json:"metrics"`
	Info       map[string]float64     `json:"info"`
	Violations []string               `json:"violations,omitempty"`
	// StealJiffies is the host's CPU steal time while the workload ran.
	StealJiffies int64 `json:"steal_jiffies"`
	// WallS is the child process's wall time, set-up and checks included.
	WallS float64 `json:"wall_s"`
	// Trace holds the traced run's result, per-layer metrics included.
	Trace *suiteEntry `json:"trace,omitempty"`
}

// runSuite runs each named workload (all when names is empty) in a child
// process of this binary, then a traced one when cfg.trace is set, prints
// every metric, and writes outPath and spansPath when given. It reports
// false when any run failed a correctness check.
func runSuite(cfg *config, names []string, spansPath, outPath string) (bool, error) {
	if len(names) == 0 {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	for _, n := range names {
		if _, err := findWorkload(n); err != nil {
			return false, err
		}
	}
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	run := suiteRun{Env: hostEnv(cfg), Workloads: map[string]*suiteEntry{}}
	allSpans := map[string][]span{}
	ok := true
	for _, name := range names {
		e, err := runChild(exe, cfg, name, false, "")
		if err != nil {
			return false, err
		}
		printEntry(name, e, endToEnd)
		if cfg.trace {
			tmp := filepath.Join(cfg.workdir, "spans-"+name+".json")
			if e.Trace, err = runChild(exe, cfg, name, true, tmp); err != nil {
				return false, err
			}
			printEntry(name+" (traced)", e.Trace, perLayer)
			if spansPath != "" {
				s, err := readSpans(tmp, name)
				if err != nil {
					return false, err
				}
				allSpans[name] = s
			}
			os.Remove(tmp)
		}
		ok = ok && e.Correct && (e.Trace == nil || e.Trace.Correct)
		run.Workloads[name] = e
	}
	if outPath != "" {
		b, err := json.MarshalIndent(&run, "", "  ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(outPath, append(b, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	if spansPath != "" && cfg.trace {
		if err := writeSpans(spansPath, allSpans); err != nil {
			return false, err
		}
	}
	return ok, nil
}

// runChild runs one workload in a child process and parses its last two
// output lines. The child's standard error passes through.
func runChild(exe string, cfg *config, name string, traced bool, spansPath string) (*suiteEntry, error) {
	args := []string{"-workload", name, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'f', -1, 64), "-workdir", cfg.workdir, "-trace", "0"}
	if traced {
		args[len(args)-1] = "1"
		args = append(args, "-spans", spansPath)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	steal0, t0 := stealJiffies(), time.Now()
	runErr := cmd.Run()
	wall, steal := time.Since(t0).Seconds(), stealJiffies()-steal0
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) < 2 {
		return nil, fmt.Errorf("%s: child printed no result (%v)", name, runErr)
	}
	var info infoLine
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &info); err != nil {
		return nil, fmt.Errorf("%s: info line: %w", name, err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", name, err)
	}
	return &suiteEntry{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: res.Metrics, Info: info.Info, Violations: info.Violations, StealJiffies: steal, WallS: wall}, nil
}

func printEntry(name string, e *suiteEntry, list []metric) {
	fmt.Printf("%s: correct=%t attempted=%d failed=%d steal=%d wall=%.1fs\n", name, e.Correct, e.Attempted, e.Failed, e.StealJiffies, e.WallS)
	for _, m := range list {
		v := e.Metrics[m.name]
		fmt.Printf("  %-36s %14.4f %s\n", m.name, v.Value, v.Unit)
	}
	keys := make([]string, 0, len(e.Info))
	for k := range e.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  info %-31s %14.4f\n", k, e.Info[k])
	}
}

func readSpans(path, name string) ([]span, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f struct {
		Workloads map[string][]span `json:"workloads"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return f.Workloads[name], nil
}

// hostEnv fills the environment block. The commit comes from git when the
// benchmark runs in a work tree, else from the build's VCS stamp.
func hostEnv(cfg *config) env {
	e := env{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: "unknown", Seed: cfg.seed, Seconds: cfg.seconds, Start: time.Now().UTC().Format(time.RFC3339)}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			e.Dirty = len(bytes.TrimSpace(st)) > 0
		}
		return e
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				e.Dirty = s.Value == "true"
			}
		}
	}
	return e
}

// readSuiteRun loads one -out file.
func readSuiteRun(path string) (*suiteRun, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r suiteRun
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return &r, nil
}
