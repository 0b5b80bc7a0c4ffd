package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"deltacoloring"
	"deltacoloring/internal/durable"
	"deltacoloring/internal/dynamic"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/service"
)

// graph_stream: one durable graph, ER(n=8000, p=0.0008), created through
// POST /v1/graphs; then an open loop of mutation batches on one connection
// beside an open loop of coloring reads on the other. Writes and reads
// share the store, so a change to snapshot publication that helps one and
// hurts the other shows in p50_ms against side_p50_ms.
const (
	streamN   = 8000
	streamP   = 0.0008
	batchRate = 100.0 // mutation batches per second
	readRate  = 50.0  // coloring reads per second
	// replayBatches caps the batch-stream prefix the traced run replays
	// through the bare dynamic and durable layers.
	replayBatches = 1000
)

type streamInst struct {
	cfg     *config
	srv     *server
	client  *http.Client
	dataDir string
	id      string
	g0      *graph.Graph
	final   *mirror // the graph after every batch, as the client tracks it
	// batches holds the warm-up batches, then the timed ones.
	batches  [][]dynamic.Mutation
	bodies   [][]byte
	batchDue []time.Duration
	readDue  []time.Duration
}

func setupStream(cfg *config) (instance, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	n, p, sizes := streamN, streamP, [3]int{1, 64, 512}
	if cfg.toy {
		n, p, sizes = 500, 0.01, [3]int{1, 8, 32}
	}
	edges := erdosRenyi(n, p, rng)
	g0, err := buildSpec(n, edges)
	if err != nil {
		return nil, err
	}
	s := &streamInst{cfg: cfg, g0: g0, final: newMirror(edges)}
	nb := int(math.Round(batchRate * cfg.seconds))
	for i := 0; i < warmupOps+nb; i++ {
		size := sizes[0] // 70% single mutations, 25% of 64, 5% of 512
		switch x := rng.Float64(); {
		case x >= 0.95:
			size = sizes[2]
		case x >= 0.70:
			size = sizes[1]
		}
		b := s.final.toggleBatch(rng, n, size)
		body, err := json.Marshal(&service.MutateRequest{Mutations: b})
		if err != nil {
			return nil, err
		}
		s.batches = append(s.batches, b)
		s.bodies = append(s.bodies, body)
	}
	s.batchDue = poissonDues(rng, nb, batchRate)
	s.readDue = poissonDues(rng, int(math.Round(readRate*cfg.seconds)), readRate)

	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	if s.dataDir, err = os.MkdirTemp(cfg.workdir, "stream-*"); err != nil {
		return nil, err
	}
	if s.srv, err = startServer(service.Config{DataDir: s.dataDir}); err != nil {
		os.RemoveAll(s.dataDir)
		return nil, err
	}
	s.client = newClient(2)
	if err := s.create(edges); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// create waits for the server's (empty) recovery, creates the graph and
// applies the warm-up batches.
func (s *streamInst) create(edges [][2]int) error {
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if st, _, err := call(s.client, "GET", s.srv.url+"/readyz", nil); err == nil && st == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready after 10s")
		}
	}
	body, err := json.Marshal(&service.CreateGraphRequest{Graph: &service.GraphSpec{N: s.g0.N(), Edges: edges}})
	if err != nil {
		return err
	}
	b, err := expect(s.client, "POST", s.srv.url+"/v1/graphs", body, http.StatusCreated)
	if err != nil {
		return err
	}
	var gr service.GraphResponse
	if err := json.Unmarshal(b, &gr); err != nil {
		return err
	}
	s.id = gr.ID
	for i := 0; i < warmupOps; i++ {
		b, err := expect(s.client, "POST", s.mutationsURL(), s.bodies[i], http.StatusOK)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		var mr service.MutateResponse
		if err := json.Unmarshal(b, &mr); err != nil || !mr.Healthy {
			return fmt.Errorf("warm-up batch %d not acked healthy: %s", i, b)
		}
	}
	return nil
}

func (s *streamInst) mutationsURL() string { return s.srv.url + "/v1/graphs/" + s.id + "/mutations" }
func (s *streamInst) coloringURL() string  { return s.srv.url + "/v1/graphs/" + s.id + "/coloring" }

func (s *streamInst) close() {
	s.client.CloseIdleConnections()
	s.srv.close()
	os.RemoveAll(s.dataDir)
}

func (s *streamInst) measure(tr *tracer) (*outcome, error) {
	timed := s.bodies[warmupOps:]
	muts := make([]reply, len(timed))
	reads := make([]reply, len(s.readDue))
	murl, curl := s.mutationsURL(), s.coloringURL()
	mut := &lane{due: s.batchDue, senders: 1, do: func(i int) {
		st, b, err := call(s.client, "POST", murl, timed[i])
		muts[i] = reply{st, b, err}
	}}
	read := &lane{due: s.readDue, senders: 1, do: func(i int) {
		st, _, err := call(s.client, "GET", curl, nil)
		reads[i] = reply{status: st, err: err}
	}}
	w := runOpenLoop(s.cfg.seconds, mut, read)

	// Everything below runs after the timed section.
	o := newOutcome()
	acked := make([]bool, len(muts))
	var rounds []float64
	for i, r := range muts {
		o.attempted++
		var mr service.MutateResponse
		if !r.ok() || json.Unmarshal(r.body, &mr) != nil || mr.Result == nil {
			o.fail("graph_stream: batch %d: %v", i, r)
			continue
		}
		acked[i] = true
		if !mr.Healthy {
			o.violate("graph_stream: batch %d acked with an unhealthy store", i)
		}
		rounds = append(rounds, float64(mr.Result.Rounds))
	}
	for i, r := range reads {
		o.attempted++
		if !r.ok() {
			o.fail("graph_stream: read %d: %v", i, r)
		}
	}
	if len(rounds) == 0 {
		return nil, errIncomplete
	}
	if err := s.checkFinal(o); err != nil {
		return nil, err
	}
	lat, late := mut.latencies(func(i int) bool { return !acked[i] })
	side, _ := read.latencies(func(i int) bool { return !reads[i].ok() })
	o.metrics["p50_ms"] = w.stat(mut, lat, nil, p50)
	o.metrics["side_p50_ms"] = w.stat(read, side, nil, p50)
	o.metrics["cpu_ms"] = w.cpuPerOp(mut)
	o.metrics["rounds"] = mean(rounds)
	o.info["p90_ms"] = w.stat(mut, lat, nil, p90)
	o.info["p99_ms"] = quantile(lat, 0.99)
	o.info["samples"] = float64(len(lat))
	o.info["side_samples"] = float64(len(side))
	o.info["side_p90_ms"] = quantile(side, 0.9)
	o.info["windows"] = float64(w.windows)
	o.info["gen_late_p99_ms"] = quantile(late, 0.99)
	if tr == nil {
		return o, nil
	}
	var wait, rtt []float64
	for i, t := range mut.times {
		traceRequest(tr, "stream.mutate", t)
		if acked[i] {
			wait = append(wait, ms(t.sent.Sub(t.due)))
			rtt = append(rtt, ms(t.done.Sub(t.sent)))
		}
	}
	for _, t := range read.times {
		traceRequest(tr, "stream.read", t)
	}
	o.metrics["service.wait_ms"] = mean(wait)
	if err := s.replay(tr, o); err != nil {
		return nil, err
	}
	o.metrics["service.mutate_overhead_ms"] = mean(rtt) - o.metrics["durable.apply_ms"]
	return o, nil
}

// checkFinal is the end-of-stream gate: the served coloring must be a
// proper deg+1 coloring of the graph the client built batch by batch, and
// the server's own oracle (?check=1) must pass it too.
func (s *streamInst) checkFinal(o *outcome) error {
	b, err := expect(s.client, "GET", s.coloringURL(), nil, http.StatusOK)
	if err != nil {
		return fmt.Errorf("final coloring: %w", err)
	}
	var cr service.ColoringResponse
	if err := json.Unmarshal(b, &cr); err != nil {
		return fmt.Errorf("final coloring: %w", err)
	}
	g, err := graph.FromEdges(s.g0.N(), s.final.edges)
	if err != nil {
		return err
	}
	if s.cfg.flip {
		flipColor(g, cr.Colors)
	}
	if want := int64(1 + len(s.batches)); cr.Stale || cr.Version != want {
		o.violate("graph_stream: final coloring is version %d (stale=%t), want %d", cr.Version, cr.Stale, want)
	}
	if err := deltacoloring.VerifyWithin(g, cr.Colors, g.MaxDegree()+1); err != nil {
		o.violate("graph_stream: final coloring against the client's graph: %v", err)
	}
	b, err = expect(s.client, "GET", s.coloringURL()+"?check=1", nil, http.StatusOK)
	if err != nil {
		o.violate("graph_stream: ?check=1: %v", err)
	} else if err := json.Unmarshal(b, &cr); err != nil || !cr.Checked {
		o.violate("graph_stream: ?check=1 answered without a check: %s", b)
	}
	return nil
}

// replay pushes the batch stream's prefix through a bare dynamic store and
// through a durable store, timing each Apply, then times encoding the
// replayed store's coloring the way a read answers it.
func (s *streamInst) replay(tr *tracer, o *outcome) error {
	batches := s.batches[:min(len(s.batches), replayBatches)]
	live, err := dynamic.New(s.g0, dynamic.Options{})
	if err != nil {
		return err
	}
	var apply, recolor []float64
	var incremental, recolored, rounds float64
	for i, b := range batches {
		t0 := time.Now()
		res, err := live.Apply(b)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("dynamic replay batch %d: %w", i, err)
		}
		rc := time.Duration(res.RecolorNanos)
		op, root := tr.root("dynamic.replay", t0, t1)
		a := tr.child(op, root, "dynamic.apply", t0, t1)
		tr.child(op, a, "dynamic.recolor", t1.Add(-rc), t1)
		apply = append(apply, ms(t1.Sub(t0)))
		recolor = append(recolor, ms(rc))
		if res.Mode == dynamic.ModeIncremental {
			incremental++
		}
		recolored += float64(res.Recolored)
		rounds += float64(res.Rounds)
	}
	nb := float64(len(batches))
	o.metrics["dynamic.apply_ms"] = mean(apply)
	o.metrics["dynamic.recolor_ms"] = mean(recolor)
	o.metrics["dynamic.rebuild_ms"] = mean(apply) - mean(recolor)
	o.metrics["dynamic.incremental_frac"] = incremental / nb
	o.metrics["dynamic.recolored_per_batch"] = recolored / nb
	o.metrics["dynamic.rounds_per_batch"] = rounds / nb

	dir, err := os.MkdirTemp(s.cfg.workdir, "replay-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	live2, err := dynamic.New(s.g0, dynamic.Options{})
	if err != nil {
		return err
	}
	st, err := durable.Create(filepath.Join(dir, "g"), live2, durable.Config{})
	if err != nil {
		return err
	}
	var dapply []float64
	for i, b := range batches {
		t0 := time.Now()
		res, err := st.Apply(b)
		t1 := time.Now()
		if err != nil {
			st.Close()
			return fmt.Errorf("durable replay batch %d: %w", i, err)
		}
		rc := time.Duration(res.RecolorNanos)
		op, root := tr.root("durable.replay", t0, t1)
		a := tr.child(op, root, "durable.apply", t0, t1)
		tr.child(op, a, "dynamic.recolor", t1.Add(-rc), t1)
		dapply = append(dapply, ms(t1.Sub(t0)))
	}
	ws := st.WALStats()
	if err := st.Close(); err != nil {
		return err
	}
	o.metrics["durable.apply_ms"] = mean(dapply)
	o.metrics["durable.wal_ms"] = mean(dapply) - mean(apply)
	o.metrics["durable.wal_bytes_per_batch"] = float64(ws.AppendBytes) / nb
	o.metrics["durable.fsyncs_per_batch"] = float64(ws.Fsyncs) / nb

	snap, _ := live.Snapshot()
	var encode []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		if err := encodeJSON(&service.ColoringResponse{ID: s.id, Version: snap.Version, N: snap.G.N(),
			NumColors: snap.NumColors, Colors: snap.Colors}); err != nil {
			return err
		}
		t1 := time.Now()
		op, root := tr.root("read.replay", t0, t1)
		tr.child(op, root, "service.read_encode", t0, t1)
		encode = append(encode, ms(t1.Sub(t0)))
	}
	o.metrics["service.read_encode_ms"] = mean(encode)
	return nil
}

// erdosRenyi samples G(n, p) by geometric skips over the pairs u < v, in
// time proportional to the edges rather than to n².
func erdosRenyi(n int, p float64, rng *rand.Rand) [][2]int {
	var edges [][2]int
	lq := math.Log(1 - p)
	skip := func() int { return 1 + int(math.Log(1-rng.Float64())/lq) }
	for u := 0; u < n; u++ {
		for v := u + skip(); v < n; v += skip() {
			edges = append(edges, [2]int{u, v})
		}
	}
	return edges
}

// mirror is the client's copy of the graph's edge set, which the batches
// are drawn against and the final coloring is checked against.
type mirror struct {
	edges []graph.Edge
	at    map[graph.Edge]int // position in edges
}

func newMirror(edges [][2]int) *mirror {
	m := &mirror{at: make(map[graph.Edge]int, len(edges))}
	for _, e := range edges {
		m.add(graph.Edge{U: e[0], V: e[1]})
	}
	return m
}

func (m *mirror) add(e graph.Edge) {
	m.at[e] = len(m.edges)
	m.edges = append(m.edges, e)
}

func (m *mirror) remove(e graph.Edge) {
	i, last := m.at[e], m.edges[len(m.edges)-1]
	m.edges[i], m.at[last] = last, i
	m.edges = m.edges[:len(m.edges)-1]
	delete(m.at, e)
}

// toggleBatch draws a batch of size mutations over vertices [0, n): each
// removes a random present edge or adds a random absent pair with equal
// odds, so the edge count wanders around its start instead of growing. No
// edge is touched twice in one batch, which the store would reject.
func (m *mirror) toggleBatch(rng *rand.Rand, n, size int) []dynamic.Mutation {
	touched := make(map[graph.Edge]bool, size)
	batch := make([]dynamic.Mutation, 0, size)
	for len(batch) < size {
		var e graph.Edge
		op := dynamic.OpAddEdge
		if len(m.edges) > 0 && rng.Intn(2) == 0 {
			e, op = m.edges[rng.Intn(len(m.edges))], dynamic.OpRemoveEdge
		} else {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			e = graph.Edge{U: min(u, v), V: max(u, v)}
			if _, present := m.at[e]; present {
				continue
			}
		}
		if touched[e] {
			continue
		}
		touched[e] = true
		if op == dynamic.OpAddEdge {
			m.add(e)
		} else {
			m.remove(e)
		}
		batch = append(batch, dynamic.Mutation{Op: op, U: e.U, V: e.V})
	}
	return batch
}
