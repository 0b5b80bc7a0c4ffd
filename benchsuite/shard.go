package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"deltacoloring/internal/graph"
	"deltacoloring/internal/local"
	"deltacoloring/internal/service"
	"deltacoloring/internal/shard"
)

// shard_http: one coordinator stream running shard.Run with k=4 over
// HTTPTransport to two loopback hosts serving the shipped service handler,
// closed loop, alternating torus_64x64 (the main operation: 127 rounds,
// little cut volume, so bound by per-round latency) and
// regular_n20000_d8 (the side operation: about 23 rounds and 47,700
// boundary updates, so bound by shipping volume). A wire change that helps one and
// hurts the other shows in p50_ms against side_p50_ms.
const (
	shardK     = 4
	shardHosts = 2
)

type shardFamily struct {
	name   string
	g      *graph.Graph
	oracle []int
	rounds int
}

type shardInst struct {
	cfg    *config
	fams   [2]shardFamily
	hosts  []*server
	addrs  []string
	client *http.Client
	runs   int
}

func setupShard(cfg *config) (instance, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	w, n := 64, 20000
	if cfg.toy {
		w, n = 16, 1000
	}
	s := &shardInst{cfg: cfg, fams: [2]shardFamily{
		{name: shardFamilies[0], g: graph.Torus(w, w)},
		{name: shardFamilies[1], g: graph.RandomRegular(n, 8, rng)},
	}}
	for i := range s.fams {
		f := &s.fams[i]
		net := local.New(f.g)
		var err error
		f.oracle, f.rounds, err = shard.SolveSingle(net)
		net.Close()
		if err != nil {
			return nil, fmt.Errorf("%s oracle: %w", f.name, err)
		}
	}
	// One connection per host: the coordinator's fan-out to four shards
	// uses at most two connections in all.
	s.client = newClient(1)
	for i := 0; i < shardHosts; i++ {
		h, err := startServer(service.Config{})
		if err != nil {
			s.close()
			return nil, err
		}
		s.hosts = append(s.hosts, h)
		s.addrs = append(s.addrs, h.url)
	}
	for i := range s.fams {
		res, err := s.run(&s.fams[i], nil, nil)
		if err == nil {
			err = s.fams[i].check(res)
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up %s: %w", s.fams[i].name, err)
		}
	}
	return s, nil
}

func (s *shardInst) close() {
	s.client.CloseIdleConnections()
	for _, h := range s.hosts {
		h.close()
	}
}

// run executes one sharded run over HTTP. A non-nil clock receives the
// coordinator's phase spans; a non-nil calls wraps the transport to time
// every Init, Step and Finish.
func (s *shardInst) run(f *shardFamily, clock *phaseClock, calls *timedTransport) (*shard.Result, error) {
	s.runs++
	session := fmt.Sprintf("bench-%d-%d", s.cfg.seed, s.runs)
	ht, err := shard.NewHTTPTransport(s.addrs, session, s.client)
	if err != nil {
		return nil, err
	}
	cfg := shard.Config{K: shardK, Transport: ht, Session: session}
	if clock != nil {
		cfg.SpanHook = clock.hook
	}
	if calls != nil {
		calls.inner = ht
		cfg.Transport = calls
	}
	return shard.Run(context.Background(), f.g, cfg)
}

// check is the drift gate: a sharded run must match the single-process
// oracle in every color and in the round count.
func (f *shardFamily) check(res *shard.Result) error {
	if res.Rounds != f.rounds {
		return fmt.Errorf("%s: %d rounds, the single-process run took %d", f.name, res.Rounds, f.rounds)
	}
	for v, c := range f.oracle {
		if res.Colors[v] != c {
			return fmt.Errorf("%s: vertex %d drifted from the single-process coloring", f.name, v)
		}
	}
	return nil
}

// shardLayers sums one family's per-layer numbers over its traced runs.
type shardLayers struct {
	runs                        int
	phaseMS                     map[string]float64
	initMS, finishMS            float64
	stepMS                      []float64
	stepCalls, boundary, rounds float64
}

func (s *shardInst) measure(tr *tracer) (*outcome, error) {
	o := newOutcome()
	var lat [2][]float64
	var cpu, rounds []float64
	layers := [2]shardLayers{}
	deadline := time.Now().Add(time.Duration(s.cfg.seconds * float64(time.Second)))
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		var iterCPU time.Duration // the runs' own CPU time, checks excluded
		for fi := range s.fams {
			f := &s.fams[fi]
			var clock *phaseClock
			var calls *timedTransport
			if tr != nil {
				clock, calls = newPhaseClock(), &timedTransport{}
			}
			o.attempted++
			c0, t0 := cpuTime(), time.Now()
			res, err := s.run(f, clock, calls)
			t1 := time.Now()
			iterCPU += cpuTime() - c0
			if err != nil {
				o.fail("shard_http: run %d: %v", o.attempted, err)
				lat[fi] = append(lat[fi], math.Inf(1))
				continue
			}
			lat[fi] = append(lat[fi], ms(t1.Sub(t0)))
			if fi == 0 {
				rounds = append(rounds, float64(res.Rounds))
			}
			if s.cfg.flip && o.info["flipped"] == 0 {
				flipColor(f.g, res.Colors)
				o.info["flipped"] = 1
			}
			if err := f.check(res); err != nil {
				o.violate("shard_http: run %d: %v", o.attempted, err)
			}
			if tr != nil {
				layers[fi].add(tr, t0, t1, clock, calls, res)
			}
		}
		cpu = append(cpu, ms(iterCPU)/float64(len(s.fams)))
	}
	if len(rounds) == 0 {
		return nil, errIncomplete
	}
	o.metrics["p50_ms"] = quantile(lat[0], 0.5)
	o.metrics["side_p50_ms"] = median(lat[1])
	o.metrics["cpu_ms"] = median(cpu)
	o.metrics["rounds"] = mean(rounds)
	o.info["p90_ms"] = quantile(lat[0], 0.9)
	o.info["samples"] = float64(len(lat[0]))
	o.info["side_samples"] = float64(len(lat[1]))
	o.info["side_p90_ms"] = quantile(lat[1], 0.9)
	if tr == nil {
		return o, nil
	}
	for fi := range s.fams {
		inproc, err := s.inProcess(&s.fams[fi])
		if err != nil {
			return nil, err
		}
		layers[fi].report(o.metrics, "shard."+s.fams[fi].name+".", inproc)
	}
	return o, nil
}

// inProcess times the same runs over the in-process transport, the
// baseline that shows the wire's share.
func (s *shardInst) inProcess(f *shardFamily) (float64, error) {
	reps := 10
	if s.cfg.toy {
		reps = 2
	}
	var lat []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		res, err := shard.Run(context.Background(), f.g, shard.Config{K: shardK})
		if err != nil {
			return 0, err
		}
		lat = append(lat, ms(time.Since(t0)))
		if err := f.check(res); err != nil {
			return 0, err
		}
	}
	return median(lat), nil
}

// add records one traced run: its root span, the coordinator phases, and
// every transport call under the phase it ran in.
func (l *shardLayers) add(tr *tracer, t0, t1 time.Time, clock *phaseClock, calls *timedTransport, res *shard.Result) {
	if l.phaseMS == nil {
		l.phaseMS = map[string]float64{}
	}
	l.runs++
	op, root := tr.root("shard.run", t0, t1)
	type parent struct {
		id         int64
		start, end time.Time
	}
	var phases []parent
	for _, p := range clock.phases {
		id := tr.child(op, root, strings.ReplaceAll(p.name, "/", "."), p.start, p.end)
		phases = append(phases, parent{id, p.start, p.end})
		l.phaseMS[p.name] += ms(p.end.Sub(p.start))
	}
	for _, c := range calls.calls {
		under := root
		for _, p := range phases {
			if !c.start.Before(p.start) && c.start.Before(p.end) {
				under = p.id
			}
		}
		tr.child(op, under, c.name, c.start, c.end)
		d := ms(c.end.Sub(c.start))
		switch c.name {
		case "shard.init":
			l.initMS += d
		case "shard.step":
			l.stepMS = append(l.stepMS, d)
		case "shard.finish":
			l.finishMS += d
		}
	}
	l.stepCalls += float64(res.Traffic.StepCalls)
	l.boundary += float64(res.Traffic.BoundaryUpdates)
	l.rounds += float64(res.Rounds)
}

// report writes per-run means under prefix (per-call for steps).
func (l *shardLayers) report(m map[string]float64, prefix string, inproc float64) {
	if l.runs == 0 {
		return
	}
	runs := float64(l.runs)
	m[prefix+"partition_ms"] = l.phaseMS["shard/partition"] / runs
	m[prefix+"solve_ms"] = l.phaseMS["shard/solve"] / runs
	m[prefix+"merge_ms"] = l.phaseMS["shard/merge"] / runs
	m[prefix+"init_ms"] = l.initMS / runs
	m[prefix+"step_ms"] = mean(l.stepMS)
	m[prefix+"finish_ms"] = l.finishMS / runs
	m[prefix+"step_calls"] = l.stepCalls / runs
	m[prefix+"boundary_updates"] = l.boundary / runs
	m[prefix+"rounds"] = l.rounds / runs
	m[prefix+"inproc_ms"] = inproc
}

// timedTransport wraps a shard transport and times every call. The
// coordinator fans Step out to the shards concurrently, hence the lock.
type timedTransport struct {
	inner shard.Transport
	mu    sync.Mutex
	calls []transportCall
}

type transportCall struct {
	name       string
	start, end time.Time
}

func (t *timedTransport) record(name string, start time.Time) {
	end := time.Now()
	t.mu.Lock()
	t.calls = append(t.calls, transportCall{name, start, end})
	t.mu.Unlock()
}

func (t *timedTransport) Init(ctx context.Context, s int, part *shard.Part, delta, parentN int) error {
	defer t.record("shard.init", time.Now())
	return t.inner.Init(ctx, s, part, delta, parentN)
}

func (t *timedTransport) Step(ctx context.Context, s int, updates []shard.Update) (*shard.StepResult, error) {
	defer t.record("shard.step", time.Now())
	return t.inner.Step(ctx, s, updates)
}

func (t *timedTransport) Finish(ctx context.Context, s int) ([]shard.Update, error) {
	defer t.record("shard.finish", time.Now())
	return t.inner.Finish(ctx, s)
}

func (t *timedTransport) Abort(s int) { t.inner.Abort(s) }
