package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"time"

	"deltacoloring"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/graphio"
	"deltacoloring/internal/service"
)

// color_mix: an open loop of POST /v1/color from a pool of pre-encoded
// bodies. A quarter of the pool asks for the randomized pipeline; a fifth
// of the requests repeat a recent one exactly and so hit the result cache.
// Fresh requests cycle through the pool in a fixed order, so an entry
// comes back only after the whole pool has passed — twice the cache's 256
// entries — and always misses.
const (
	colorRate         = 120.0 // requests per second, about half of two cores
	colorConns        = 2
	colorPool         = 512
	colorRandFrac     = 0.25
	colorRepeatFrac   = 0.20
	colorRepeatWindow = 32
	warmupOps         = 20
)

// colorFamilies returns the pool's base graphs: hard, mixed and easy dense
// families at Δ=16, the degree the scaled parameters are made for.
func colorFamilies(toy bool) []*graph.Graph {
	if toy {
		h, _ := graph.HardCliqueBipartite(16, 16)
		e, _ := graph.EasyCliqueRing(8, 16)
		return []*graph.Graph{h, e}
	}
	h16, _ := graph.HardCliqueBipartite(16, 16)
	h24, _ := graph.HardCliqueBipartite(24, 16)
	m20, _ := graph.HardWithEasyPatch(20, 16)
	e48, _ := graph.EasyCliqueRing(48, 16)
	return []*graph.Graph{h16, h24, m20, e48}
}

// colorEntry is one pre-encoded request body and the graph it names.
type colorEntry struct {
	g    *graph.Graph
	body []byte
}

type colorOp struct {
	entry  int
	repeat bool
}

type colorInst struct {
	cfg    *config
	srv    *server
	client *http.Client
	pool   []colorEntry // the timed section's entries; warm-up uses its own
	ops    []colorOp
	due    []time.Duration
	// randRedraws counts randomized-pipeline seeds redrawn at set-up.
	randRedraws int
}

func setupColor(cfg *config) (instance, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	fams := colorFamilies(cfg.toy)
	poolSize := colorPool
	if cfg.toy {
		poolSize = 8
	}
	c := &colorInst{cfg: cfg}
	entries := make([]colorEntry, poolSize+warmupOps)
	for i := range entries {
		base := fams[i%len(fams)]
		edges := relabeledEdges(base, rng)
		req := service.ColorRequest{Graph: &service.GraphSpec{N: base.N(), Edges: edges}}
		g, err := buildSpec(base.N(), edges)
		if err != nil {
			return nil, err
		}
		if rng.Float64() < colorRandFrac {
			// The randomized pipeline fails on a rare (graph, seed) pair;
			// such a request would fail on every try, so its seed is
			// redrawn here and the redraws are counted.
			req.Algo = "rand"
			for tries := 0; ; tries++ {
				req.Seed = rng.Int63()
				_, err := deltacoloring.Randomized(g, deltacoloring.ScaledRandomizedParams(), req.Seed)
				if err == nil {
					break
				}
				if tries == 7 {
					return nil, fmt.Errorf("pool entry %d: randomized pipeline rejected 8 seeds: %w", i, err)
				}
				c.randRedraws++
			}
		}
		body, err := json.Marshal(&req)
		if err != nil {
			return nil, err
		}
		entries[i] = colorEntry{g: g, body: body}
	}
	c.pool = entries[:poolSize]
	n := int(math.Round(colorRate * cfg.seconds))
	c.due = poissonDues(rng, n, colorRate)
	c.ops = make([]colorOp, n)
	order := rng.Perm(poolSize)
	var fresh []int
	for i := range c.ops {
		if len(fresh) > 2 && rng.Float64() < colorRepeatFrac {
			// Skip the two newest requests, which may still be in flight.
			back := 2 + rng.Intn(min(colorRepeatWindow, len(fresh))-2)
			c.ops[i] = colorOp{entry: fresh[len(fresh)-1-back], repeat: true}
			continue
		}
		e := order[len(fresh)%poolSize]
		fresh = append(fresh, e)
		c.ops[i] = colorOp{entry: e}
	}

	var err error
	if c.srv, err = startServer(service.Config{}); err != nil {
		return nil, err
	}
	c.client = newClient(colorConns)
	for _, e := range entries[poolSize:] {
		if _, err := expect(c.client, "POST", c.srv.url+"/v1/color", e.body, http.StatusOK); err != nil {
			c.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return c, nil
}

func (c *colorInst) close() {
	c.client.CloseIdleConnections()
	c.srv.close()
}

// colorReply is the part of a ColorResponse the gate and the trace read.
type colorReply struct {
	Cached    bool    `json:"cached"`
	Colors    []int   `json:"colors"`
	Rounds    int     `json:"rounds"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

func (c *colorInst) measure(tr *tracer) (*outcome, error) {
	replies := make([]reply, len(c.ops))
	url := c.srv.url + "/v1/color"
	l := &lane{due: c.due, senders: colorConns, do: func(i int) {
		st, b, err := call(c.client, "POST", url, c.pool[c.ops[i].entry].body)
		replies[i] = reply{st, b, err}
	}}
	w := runOpenLoop(c.cfg.seconds, l)

	// Everything below runs after the timed section.
	o := newOutcome()
	parsed := make([]*colorReply, len(replies))
	for i, r := range replies {
		o.attempted++
		if !r.ok() {
			o.fail("color_mix: request %d: %v", i, r)
			continue
		}
		p := &colorReply{}
		if err := json.Unmarshal(r.body, p); err != nil {
			o.fail("color_mix: request %d: %v", i, err)
			continue
		}
		parsed[i] = p
	}
	lat, late := l.latencies(func(i int) bool { return parsed[i] == nil })
	var rounds, wait, exec, overhead []float64
	hits := 0
	for i, p := range parsed {
		if p == nil {
			continue
		}
		g := c.pool[c.ops[i].entry].g
		if c.cfg.flip && o.info["flipped"] == 0 {
			flipColor(g, p.Colors)
			o.info["flipped"] = 1
		}
		if err := deltacoloring.VerifyWithin(g, p.Colors, g.MaxDegree()); err != nil {
			o.violate("color_mix: request %d: %v", i, err)
		}
		rounds = append(rounds, float64(p.Rounds))
		t := l.times[i]
		x := 0.0 // a cache hit never reaches a worker
		if p.Cached {
			hits++
		} else {
			x = p.ElapsedMS
		}
		wait = append(wait, ms(t.sent.Sub(t.due)))
		exec = append(exec, x)
		overhead = append(overhead, ms(t.done.Sub(t.sent))-x)
		if tr != nil {
			op, h := traceRequest(tr, "color.request", t)
			if x > 0 {
				tr.child(op, h, "service.exec", t.done.Add(-time.Duration(x*1e6)), t.done)
			}
		}
	}
	if len(rounds) == 0 {
		return nil, errIncomplete
	}
	repeat := func(i int) bool { return c.ops[i].repeat }
	o.metrics["p50_ms"] = w.stat(l, lat, nil, p50)
	o.metrics["side_p50_ms"] = w.stat(l, lat, repeat, p50)
	o.metrics["cpu_ms"] = w.cpuPerOp(l)
	o.metrics["rounds"] = mean(rounds)
	o.info["p90_ms"] = w.stat(l, lat, nil, p90)
	o.info["p99_ms"] = quantile(lat, 0.99)
	o.info["samples"] = float64(len(lat))
	o.info["windows"] = float64(w.windows)
	o.info["gen_late_p99_ms"] = quantile(late, 0.99)
	o.info["rand_redraws"] = float64(c.randRedraws)
	if tr == nil {
		return o, nil
	}
	o.metrics["service.wait_ms"] = mean(wait)
	o.metrics["service.exec_ms"] = mean(exec)
	o.metrics["service.overhead_ms"] = mean(overhead)
	o.metrics["service.cache_hit_frac"] = float64(hits) / float64(len(rounds))
	if err := c.replay(tr, o); err != nil {
		return nil, err
	}
	return o, nil
}

// replay pushes every pool entry once more through the layers a request
// crosses, called directly and timed one by one: request decoding, CSR
// build, canonical hash, the pipeline (with its phases from the span hook),
// verification and response encoding.
func (c *colorInst) replay(tr *tracer, o *outcome) error {
	var decode, build, hash, color, verify, encode []float64
	var pipe pipelineTotals
	for i, e := range c.pool {
		t0 := time.Now()
		dec := json.NewDecoder(bytes.NewReader(e.body))
		dec.DisallowUnknownFields()
		req := &service.ColorRequest{}
		if err := dec.Decode(req); err != nil {
			return fmt.Errorf("replay %d: decode: %w", i, err)
		}
		t1 := time.Now()
		g, err := buildSpec(req.Graph.N, req.Graph.Edges)
		if err != nil {
			return fmt.Errorf("replay %d: build: %w", i, err)
		}
		t2 := time.Now()
		_ = graphio.CanonicalHash(g)
		t3 := time.Now()
		clock := newPhaseClock()
		opts := &deltacoloring.RunOptions{SpanHook: clock.hook}
		var res *deltacoloring.Result
		var shatter *deltacoloring.RandStats
		if req.Algo == "rand" {
			rr, rerr := deltacoloring.RandomizedContext(context.Background(), g, deltacoloring.ScaledRandomizedParams(), req.Seed, opts)
			if rr != nil {
				res, shatter = &rr.Result, &rr.Rand
			}
			err = rerr
		} else {
			res, err = deltacoloring.DeterministicContext(context.Background(), g, deltacoloring.ScaledParams(), opts)
		}
		if err != nil {
			return fmt.Errorf("replay %d: pipeline: %w", i, err)
		}
		t4 := time.Now()
		if err := deltacoloring.VerifyWithin(g, res.Colors, g.MaxDegree()); err != nil {
			o.violate("color_mix: replay %d: %v", i, err)
		}
		t5 := time.Now()
		if err := encodeJSON(replayResponse(g, res, shatter)); err != nil {
			return fmt.Errorf("replay %d: encode: %w", i, err)
		}
		t6 := time.Now()

		op, root := tr.root("color.replay", t0, t6)
		tr.child(op, root, "service.decode", t0, t1)
		tr.child(op, root, "graph.build", t1, t2)
		tr.child(op, root, "graphio.hash", t2, t3)
		b := tr.child(op, root, "backend.color", t3, t4)
		for _, p := range clock.phases {
			tr.child(op, b, corePhaseMetric(p.name), p.start, p.end)
		}
		tr.child(op, root, "coloring.verify", t4, t5)
		tr.child(op, root, "service.encode", t5, t6)
		decode = append(decode, ms(t1.Sub(t0)))
		build = append(build, ms(t2.Sub(t1)))
		hash = append(hash, ms(t3.Sub(t2)))
		color = append(color, ms(t4.Sub(t3)))
		verify = append(verify, ms(t5.Sub(t4)))
		encode = append(encode, ms(t6.Sub(t5)))
		pipe.add(clock, res.Frontier)
	}
	o.metrics["service.decode_ms"] = mean(decode)
	o.metrics["graph.build_ms"] = mean(build)
	o.metrics["graphio.hash_ms"] = mean(hash)
	o.metrics["backend.color_ms"] = mean(color)
	o.metrics["coloring.verify_ms"] = mean(verify)
	o.metrics["service.encode_ms"] = mean(encode)
	pipe.report(o.metrics)
	return nil
}

// replayResponse builds the response body the service encodes for a run.
func replayResponse(g *graph.Graph, res *deltacoloring.Result, shatter *deltacoloring.RandStats) *service.ColorResponse {
	resp := &service.ColorResponse{State: "done", N: g.N(), M: g.M(), Delta: g.MaxDegree(),
		Colors: res.Colors, Rounds: res.Rounds}
	for _, sp := range res.Spans {
		if sp.Rounds > 0 {
			resp.Spans = append(resp.Spans, service.PhaseSpan{Name: sp.Name, Rounds: sp.Rounds})
		}
	}
	if shatter != nil {
		resp.Shatter = &service.ShatterStats{TNodesProposed: shatter.TNodesProposed,
			TNodesKept: shatter.TNodesKept, Components: shatter.Components, MaxComponent: shatter.MaxComponent}
	}
	return resp
}
