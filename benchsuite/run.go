package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"deltacoloring/internal/graph"
	"deltacoloring/internal/service"
)

// config is one run's parameters.
type config struct {
	seed    int64
	seconds float64 // how long the timed section runs
	trace   bool
	workdir string // scratch space for durable graph data
	// toy shrinks every input and rate so the harness test runs each
	// workload in well under a second.
	toy bool
	// flip is the negative control of the correctness gates: the first
	// output each gate checks gets one vertex recolored to a neighbor's
	// color, which every gate must reject.
	flip bool
}

// A run sets its workload up at least setupReps times and, while the
// repeats so far took less than setupBudget, up to maxSetupReps times;
// setup_s is the median. A quick set-up gets more repeats, so its median
// is as steady as a slow one's. Each repeat builds everything afresh and
// tears the previous one down, so work moved into set-up shows in every
// repeat.
const (
	setupReps    = 3
	maxSetupReps = 9
	setupBudget  = time.Second
)

// workload is one set of inputs the benchmark runs; each workload's file
// says why it is there.
type workload struct {
	name  string
	setup func(cfg *config) (instance, error)
}

// instance is a set-up workload, ready for its timed section.
type instance interface {
	// measure runs the timed section, then checks every output. tr is nil
	// in untraced runs.
	measure(tr *tracer) (*outcome, error)
	close()
}

var workloads = []workload{
	{"color_mix", setupColor},
	{"graph_stream", setupStream},
	{"ring_scale", setupRing},
	{"shard_http", setupShard},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// outcome is what one run reports.
type outcome struct {
	attempted int
	failed    int
	// violations lists the correctness gates that failed; the run is
	// correct when it is empty. failures describes the first failed
	// operations.
	violations []string
	failures   []string
	// metrics holds every end-to-end value and, in traced runs, every
	// per-layer value the workload reaches.
	metrics map[string]float64
	// info holds numbers reported beside the metrics but not gated:
	// sample counts, p99, generator lateness.
	info map[string]float64
	// spans, layers, coverage and ops summarize a traced run.
	spans    []span
	layers   []layerTime
	coverage float64
	ops      int64
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, info: map[string]float64{}}
}

// violate records a failed correctness gate, keeping the first few
// messages and a total count.
func (o *outcome) violate(format string, args ...any) {
	if len(o.violations) < 8 {
		o.violations = append(o.violations, fmt.Sprintf(format, args...))
	}
	o.info["violations"]++
}

// fail counts a failed or refused operation, keeping the first few
// reasons.
func (o *outcome) fail(format string, args ...any) {
	if len(o.failures) < 8 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
	o.failed++
}

// runWorkload sets w up setupReps times, measures the last set-up, and
// fills the run-level metrics.
func runWorkload(w workload, cfg *config) (*outcome, error) {
	minReps, maxReps := setupReps, maxSetupReps
	if cfg.toy {
		minReps, maxReps = 1, 1
	}
	var inst instance
	var setups []float64
	var spent time.Duration
	for len(setups) < minReps || (spent < setupBudget && len(setups) < maxReps) {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		var err error
		if inst, err = w.setup(cfg); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		d := time.Since(start)
		spent += d
		setups = append(setups, d.Seconds())
	}
	defer inst.close()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	o, err := inst.measure(tr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	o.metrics["setup_s"] = median(setups)
	o.metrics["peak_rss_mb"] = peakRSSMiB()
	o.info["setup_reps"] = float64(len(setups))
	if tr != nil {
		var untraced float64
		o.layers, untraced, o.coverage = tr.selfTimes()
		o.spans, o.ops = tr.spans, tr.ops
		o.metrics["trace.untraced_frac"] = untraced
		o.metrics["trace.p50_ms"] = o.metrics["p50_ms"]
		o.metrics["trace.cpu_ms"] = o.metrics["cpu_ms"]
		o.info["trace.min_coverage"] = o.coverage
	}
	return o, nil
}

// poissonDues returns n arrival offsets of a Poisson process at rate per
// second: the schedule of an open loop.
func poissonDues(rng *rand.Rand, n int, rate float64) []time.Duration {
	dues := make([]time.Duration, n)
	t := 0.0
	for i := range dues {
		t += rng.ExpFloat64() / rate
		dues[i] = time.Duration(t * float64(time.Second))
	}
	return dues
}

// opTimes is one operation's timeline in an open loop.
type opTimes struct {
	due, dispatched, sent, done time.Time
}

// lane is one open-loop stream: operations fall due at fixed offsets from
// the start whatever the system does, and senders goroutines, each with at
// most one request in flight, serve them in due order. An operation that
// finds every sender busy waits, and that wait counts in its latency.
type lane struct {
	due     []time.Duration
	senders int
	do      func(i int) // performs operation i on a sender goroutine
	times   []opTimes
}

// windowLen splits an open loop's timed section into windows. Latency
// quantiles and CPU per operation are taken per window and the median over
// the windows is reported, so a host disturbance that lasts less than half
// the run does not move them.
const windowLen = 5 * time.Second

// openLoop is a finished open-loop timed section.
type openLoop struct {
	windows int
	cpu     []time.Duration // process CPU time spent in each window
}

// runOpenLoop runs every lane to completion, all starting together, and
// samples the process CPU time at each window boundary; the last window
// lasts until the last operation is done.
func runOpenLoop(seconds float64, lanes ...*lane) *openLoop {
	w := &openLoop{windows: max(1, int(math.Round(seconds/windowLen.Seconds())))}
	start := time.Now()
	marks := []time.Duration{cpuTime()}
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		t := time.NewTicker(windowLen)
		defer t.Stop()
		for len(marks) < w.windows {
			select {
			case <-t.C:
				marks = append(marks, cpuTime())
			case <-stop:
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for _, l := range lanes {
		l.times = make([]opTimes, len(l.due))
		// Sized to the number of sends, so the dispatcher never blocks
		// and keeps the schedule however far the senders fall behind.
		queue := make(chan int, len(l.due))
		wg.Add(1 + l.senders)
		go func() {
			defer wg.Done()
			defer close(queue)
			for i, d := range l.due {
				due := start.Add(d)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				l.times[i].due, l.times[i].dispatched = due, time.Now()
				queue <- i
			}
		}()
		for s := 0; s < l.senders; s++ {
			go func() {
				defer wg.Done()
				for i := range queue {
					l.times[i].sent = time.Now()
					l.do(i)
					l.times[i].done = time.Now()
				}
			}()
		}
	}
	wg.Wait()
	close(stop)
	<-sampled
	marks = append(marks, cpuTime())
	for k := 1; k < len(marks); k++ {
		w.cpu = append(w.cpu, marks[k]-marks[k-1])
	}
	w.windows = len(w.cpu)
	return w
}

// window returns the window operation i of l fell due in.
func (w *openLoop) window(l *lane, i int) int {
	return min(int(l.due[i]/windowLen), w.windows-1)
}

// stat returns the median over windows of f applied to the values of the
// operations of l that keep accepts (all when keep is nil).
func (w *openLoop) stat(l *lane, vals []float64, keep func(i int) bool, f func([]float64) float64) float64 {
	groups := make([][]float64, w.windows)
	for i, v := range vals {
		if keep == nil || keep(i) {
			k := w.window(l, i)
			groups[k] = append(groups[k], v)
		}
	}
	var xs []float64
	for _, g := range groups {
		if len(g) > 0 {
			xs = append(xs, f(g))
		}
	}
	return median(xs)
}

// cpuPerOp returns the median over windows of the process CPU time per
// operation of l due in the window.
func (w *openLoop) cpuPerOp(l *lane) float64 {
	count := make([]int, w.windows)
	for i := range l.due {
		count[w.window(l, i)]++
	}
	var xs []float64
	for k, c := range count {
		if c > 0 {
			xs = append(xs, ms(w.cpu[k])/float64(c))
		}
	}
	return median(xs)
}

// p50 and p90 are quantile functions for openLoop.stat.
func p50(xs []float64) float64 { return quantile(xs, 0.5) }
func p90(xs []float64) float64 { return quantile(xs, 0.9) }

// latencies returns each operation's latency in ms from its due time,
// +Inf for the failed ones, and the dispatcher's lateness.
func (l *lane) latencies(failed func(i int) bool) (lat, late []float64) {
	lat = make([]float64, len(l.times))
	late = make([]float64, len(l.times))
	for i, t := range l.times {
		lat[i] = ms(t.done.Sub(t.due))
		if failed(i) {
			lat[i] = math.Inf(1)
		}
		late[i] = ms(t.dispatched.Sub(t.due))
	}
	return lat, late
}

// traceRequest records an open-loop operation's root span and the two
// layers seen from outside it: the wait for a free sender, then the HTTP
// round trip, whose span ID it returns for server-side children.
func traceRequest(tr *tracer, name string, t opTimes) (op, http int64) {
	op, root := tr.root(name, t.due, t.done)
	tr.child(op, root, "client.wait", t.due, t.sent)
	return op, tr.child(op, root, "service.http", t.sent, t.done)
}

// encodeJSON encodes v the way the service writes a response body.
func encodeJSON(v any) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	return enc.Encode(v)
}

// server is one in-process service instance on a loopback port, built with
// the shipped defaults plus whatever the workload sets.
type server struct {
	svc    *service.Server
	hs     *http.Server
	url    string
	served chan struct{}
}

func startServer(cfg service.Config) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{svc: service.New(cfg), url: "http://" + ln.Addr().String(), served: make(chan struct{})}
	s.hs = &http.Server{Handler: s.svc.Handler()}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return s, nil
}

// close stops the listener, waits for in-flight requests, then drains the
// service.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a timeout here leaves nothing further to do
	<-s.served
	_ = s.svc.Shutdown(ctx)
}

// newClient returns an HTTP client holding at most conns connections per
// host.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// call sends one request and reads the whole answer.
func call(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// reply is one recorded HTTP answer.
type reply struct {
	status int
	body   []byte
	err    error
}

func (r reply) ok() bool { return r.err == nil && r.status == http.StatusOK }

// String describes the reply for a failure report.
func (r reply) String() string {
	if r.err != nil {
		return r.err.Error()
	}
	return fmt.Sprintf("HTTP %d: %s", r.status, bytes.TrimSpace(r.body))
}

// expect sends a request outside any timed section and fails unless the
// answer has the wanted status.
func expect(c *http.Client, method, url string, body []byte, want int) ([]byte, error) {
	st, b, err := call(c, method, url, body)
	if err != nil {
		return nil, err
	}
	if st != want {
		return nil, fmt.Errorf("%s %s: HTTP %d (want %d): %s", method, url, st, want, bytes.TrimSpace(b))
	}
	return b, nil
}

// errIncomplete marks a run that could not produce its metrics.
var errIncomplete = errors.New("no operation completed")

// flipColor recolors vertex 0 to the color of its first neighbor: the
// negative control every correctness gate must catch.
func flipColor(g *graph.Graph, colors []int) {
	if g.N() > 0 && g.Degree(0) > 0 {
		colors[0] = colors[g.Neighbors(0)[0]]
	}
}

// relabeledEdges returns g's edges under a random vertex permutation, so a
// graph of a known family reaches the service as a new input with new IDs.
func relabeledEdges(g *graph.Graph, rng *rand.Rand) [][2]int {
	perm := rng.Perm(g.N())
	edges := make([][2]int, 0, g.M())
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Neighbors(v) {
			if v < int(w) {
				edges = append(edges, [2]int{perm[v], perm[w]})
			}
		}
	}
	return edges
}

// buildSpec builds a graph from an inline spec the way the service does.
func buildSpec(n int, edges [][2]int) (*graph.Graph, error) {
	b := graph.NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}
