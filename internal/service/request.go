package service

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"strings"

	"deltacoloring"
	"deltacoloring/internal/backend"
	"deltacoloring/internal/graph"
	"deltacoloring/internal/graphio"
	"deltacoloring/internal/invariant"
)

// ColorRequest is the body of POST /v1/color. Exactly one of EdgeList,
// Graph, or Gen must be set.
type ColorRequest struct {
	// Algo selects the algorithm: "det" (Theorem 1, default) or "rand"
	// (Theorem 2).
	Algo string `json:"algo,omitempty"`
	// Backend names a pipeline backend to run instead of the Algo default
	// — any name from the internal/backend table ("det", "greedy", "rand",
	// "ruling", "simple") or "auto" for the portfolio selector, which picks
	// by Δ, density, and ACD shape. ?backend= on the URL is an equivalent
	// spelling. Unknown names answer 400 listing the table.
	Backend string `json:"backend,omitempty"`
	// Seed seeds the randomized algorithm (ignored for det).
	Seed int64 `json:"seed,omitempty"`
	// Paper selects the paper-exact parameters (ε = 1/63, needs Δ ⪆ 85)
	// instead of the scaled preset.
	Paper bool `json:"paper,omitempty"`
	// EdgeList is a graph in the graphio edge-list format.
	EdgeList string `json:"edge_list,omitempty"`
	// Graph is an inline vertex-count + edge-pair spec.
	Graph *GraphSpec `json:"graph,omitempty"`
	// Gen names one of the built-in dense generator families.
	Gen *GenSpec `json:"gen,omitempty"`
	// File names a graph file staged under the server's -graph-dir (text
	// or binary format, sniffed), as a relative path confined to that
	// directory. Requests using it answer 400 when the server has no graph
	// directory configured.
	File string `json:"file,omitempty"`
	// Async makes the request return 202 with a job ID immediately;
	// poll GET /v1/jobs/{id} for the result.
	Async bool `json:"async,omitempty"`
	// TimeoutMS caps the run's wall time (0 = server default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// NoCache bypasses the result cache for this request.
	NoCache bool `json:"no_cache,omitempty"`
	// Shards > 0 runs the greedy wire algorithm sharded across this many
	// workers with cross-cut LOCAL rounds (in-process by default, over the
	// cluster's /v1/shard/stream workers when the server was started with
	// -workers-addrs). The merged coloring is bit-identical to the
	// single-process greedy run at any shard count. ?shards= on the URL is
	// an equivalent spelling. Incompatible with algo=rand and with any
	// backend other than "greedy".
	Shards int `json:"shards,omitempty"`
	// Check runs the job under the conformance harness: every pipeline phase
	// checkpoints its intermediate state for the invariant checkers, and the
	// final coloring is cross-checked against the sequential oracle. The
	// response reports the firing count and phases. ?check=1 on the URL is an
	// equivalent spelling. Checked runs are bit-identical to unchecked ones.
	Check bool `json:"check,omitempty"`
	// IdempotencyKey deduplicates retried POSTs: while a job with the same
	// key is retained, a new request joins it instead of recomputing. The
	// Idempotency-Key header is an equivalent spelling.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// GraphSpec is an inline edge-pair graph.
type GraphSpec struct {
	N     int      `json:"n"`
	Edges [][2]int `json:"edges"`
}

// GenSpec names a built-in dense family: hard (clique-bipartite), easy
// (clique ring), or mixed (hard with easy patch). M is the family's size
// parameter (cliques per side / ring length), Delta the clique size.
type GenSpec struct {
	Family string `json:"family"`
	M      int    `json:"m"`
	Delta  int    `json:"delta"`
}

// PhaseSpan mirrors local.Span with stable JSON field names.
type PhaseSpan struct {
	Name   string `json:"name"`
	Rounds int    `json:"rounds"`
}

// ShatterStats mirrors the randomized algorithm's RandStats.
type ShatterStats struct {
	TNodesProposed int `json:"t_nodes_proposed"`
	TNodesKept     int `json:"t_nodes_kept"`
	Components     int `json:"components"`
	MaxComponent   int `json:"max_component"`
}

// ColorResponse is the body of color and job responses. State is one of
// "queued", "running", "done", or "failed".
type ColorResponse struct {
	JobID  string `json:"job_id,omitempty"`
	State  string `json:"state"`
	Cached bool   `json:"cached,omitempty"`
	// Backend is the pipeline backend that produced the coloring (the
	// resolved choice when the request said "auto").
	Backend   string        `json:"backend,omitempty"`
	N         int           `json:"n,omitempty"`
	M         int           `json:"m,omitempty"`
	Delta     int           `json:"delta,omitempty"`
	Colors    []int         `json:"colors,omitempty"`
	Rounds    int           `json:"rounds,omitempty"`
	Spans     []PhaseSpan   `json:"spans,omitempty"`
	Shatter   *ShatterStats `json:"shatter,omitempty"`
	ElapsedMS float64       `json:"elapsed_ms,omitempty"`
	// Shards / CutEdges / BoundaryUpdates describe a sharded run: the shard
	// count actually used (requests above the vertex count are clamped), the
	// parent edges cut by the partition, and the boundary-state messages
	// routed across the cut over the whole run.
	Shards          int `json:"shards,omitempty"`
	CutEdges        int `json:"cut_edges,omitempty"`
	BoundaryUpdates int `json:"boundary_updates,omitempty"`
	// Checks / CheckPhases report the conformance harness of a check=1 run:
	// total checker firings and the distinct validated phase tags.
	Checks      int      `json:"checks,omitempty"`
	CheckPhases []string `json:"check_phases,omitempty"`
	Error       string   `json:"error,omitempty"`
	// Quarantined marks a failed job whose final attempt panicked; the job
	// record is retained for inspection past normal eviction.
	Quarantined bool `json:"quarantined,omitempty"`
}

// decodeStrict decodes a JSON body into T, rejecting unknown fields.
func decodeStrict[T any](r io.Reader) (*T, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	v := new(T)
	if err := dec.Decode(v); err != nil {
		return nil, fmt.Errorf("invalid JSON body: %w", err)
	}
	return v, nil
}

// parseRequest decodes and validates a ColorRequest body.
func parseRequest(r io.Reader) (*ColorRequest, error) {
	req, err := parseBody(r)
	if err != nil {
		return nil, fmt.Errorf("invalid JSON body: %w", err)
	}
	switch req.Algo {
	case "":
		req.Algo = "det"
	case "det", "rand":
	default:
		return nil, fmt.Errorf("unknown algo %q (want det or rand)", req.Algo)
	}
	if err := validateBackendName(req.Backend); err != nil {
		return nil, err
	}
	if req.TimeoutMS < 0 {
		return nil, fmt.Errorf("timeout_ms must be non-negative")
	}
	if req.Shards < 0 {
		return nil, fmt.Errorf("shards must be non-negative")
	}
	if err := validateShardCombo(req); err != nil {
		return nil, err
	}
	if err := checkGraphSource(req); err != nil {
		return nil, err
	}
	return req, nil
}

// checkGraphSource is the one graph-source rule of /v1/color and
// POST /v1/graphs: a request names exactly one of its four sources.
func checkGraphSource(req *ColorRequest) error {
	sources := 0
	for _, set := range []bool{req.EdgeList != "", req.Graph != nil, req.Gen != nil, req.File != ""} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return fmt.Errorf("exactly one of edge_list, graph, gen, or file is required")
	}
	return nil
}

// validateBackendName accepts the empty string (defer to Algo), "auto"
// (the portfolio selector), and any backend name; anything else is a 400
// listing the table so clients can self-correct.
func validateBackendName(name string) error {
	switch name {
	case "", "auto":
		return nil
	}
	if _, err := backend.Get(name); err != nil {
		return fmt.Errorf("unknown backend %q (want auto or one of: %s)",
			name, strings.Join(backend.Names(), ", "))
	}
	return nil
}

// validateShardCombo rejects shard counts combined with knobs the sharded
// path cannot honor: sharding always runs the greedy wire algorithm, so a
// randomized algo or a different explicit backend would be silently ignored.
// Called again after query-param overrides, which can add a backend.
func validateShardCombo(req *ColorRequest) error {
	if req.Shards == 0 {
		return nil
	}
	if req.Algo == "rand" {
		return fmt.Errorf("shards=%d runs the greedy wire algorithm; algo=rand is incompatible", req.Shards)
	}
	if req.Backend != "" && req.Backend != "greedy" {
		return fmt.Errorf("shards=%d runs the greedy wire algorithm; backend %q is incompatible (drop it or use greedy)", req.Shards, req.Backend)
	}
	return nil
}

// buildGraph materializes the request's graph source. maxN caps the vertex
// count of every source before the big allocations happen; graphDir is the
// staged-file root for the file source (empty = disabled).
func buildGraph(req *ColorRequest, maxN int, graphDir string) (*graph.Graph, error) {
	switch {
	case req.File != "":
		return loadStagedGraph(req.File, graphDir, maxN)
	case req.EdgeList != "":
		g, err := graphio.ReadMax(strings.NewReader(req.EdgeList), maxN)
		if err != nil {
			return nil, err
		}
		return g, nil
	case req.Graph != nil:
		if req.Graph.N < 0 || req.Graph.N > maxN {
			return nil, fmt.Errorf("graph n=%d outside [0, %d]", req.Graph.N, maxN)
		}
		b := graph.NewBuilder(req.Graph.N)
		b.Grow(len(req.Graph.Edges))
		for _, e := range req.Graph.Edges {
			b.AddEdge(e[0], e[1])
		}
		return b.Build()
	case req.Gen != nil:
		// DenseFamily turns every bad argument into an error: the service
		// promises 400s, not panics.
		return graph.DenseFamily(req.Gen.Family, req.Gen.M, req.Gen.Delta, maxN)
	}
	return nil, fmt.Errorf("no graph source")
}

// loadStagedGraph serves the file request source: name is resolved
// relative to the operator-staged graph directory and must stay inside it —
// absolute paths and any path whose lexical resolution escapes the root
// (filepath.IsLocal) are rejected before touching the filesystem. The file
// loads into heap-owned arrays (never a mapping, whose lifetime a queued
// async job could not scope), and the vertex cap applies like every other
// source.
func loadStagedGraph(name, dir string, maxN int) (*graph.Graph, error) {
	if dir == "" {
		return nil, fmt.Errorf("file source is disabled (server started without -graph-dir)")
	}
	if !filepath.IsLocal(name) {
		return nil, fmt.Errorf("file %q escapes the graph directory", name)
	}
	g, err := graphio.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return nil, fmt.Errorf("file %q: %w", name, err)
	}
	if g.N() > maxN {
		return nil, fmt.Errorf("file %q has n=%d, above the %d-vertex limit", name, g.N(), maxN)
	}
	return g, nil
}

// cacheKey derives the canonical result-cache key: the graph's structural
// hash plus every knob that changes the output. Randomized runs include the
// seed, so identical (graph, seed) pairs share an entry.
func cacheKey(g *graph.Graph, req *ColorRequest) string {
	key := fmt.Sprintf("%016x|%s|paper=%t", graphio.CanonicalHash(g), req.Algo, req.Paper)
	if req.Algo == "rand" || req.Backend == "rand" {
		key += fmt.Sprintf("|seed=%d", req.Seed)
	}
	if req.Backend != "" {
		// Explicit backend choices get their own entries; requests without
		// one keep the historical key shape. "auto" is cacheable because the
		// portfolio selector is deterministic per graph.
		key += "|backend=" + req.Backend
	}
	if req.Check {
		// Checked runs produce bit-identical colorings but a richer response
		// (checks summary); keep the cache entries separate so an unchecked
		// hit never masquerades as a validated one.
		key += "|check=true"
	}
	if req.Shards > 0 {
		// Sharded runs are bit-identical to the single-process greedy run,
		// but the response carries per-shard traffic counters; isolate the
		// entries per shard count so those never cross-contaminate.
		key += fmt.Sprintf("|shards=%d", req.Shards)
	}
	return key
}

// runResponse converts a finished run into the wire shape. Before a
// coloring is served it passes two checks, in this order: a checked run's
// harness (h non-nil) closes with the sequential oracle, then the coloring
// is re-verified against the producing pipeline's declared palette, Δ plus
// its PaletteSlack (the paper pipelines at Δ, the greedy wire algorithm at
// Δ+1).
func runResponse(g *graph.Graph, h *invariant.Harness, name string, slack int, res *backend.Result) (*ColorResponse, error) {
	k := g.MaxDegree() + slack
	resp := &ColorResponse{
		State:   "done",
		Backend: name,
		N:       g.N(),
		M:       g.M(),
		Delta:   g.MaxDegree(),
		Colors:  res.Colors,
		Rounds:  res.Rounds,
	}
	if h != nil {
		rep, err := h.Oracle(res.Colors, k)
		if err != nil {
			return nil, err
		}
		resp.Checks, resp.CheckPhases = rep.Checks, rep.Phases
	}
	if err := deltacoloring.VerifyWithin(g, res.Colors, k); err != nil {
		return nil, err
	}
	n := 0
	for _, sp := range res.Spans {
		if sp.Rounds > 0 {
			n++
		}
	}
	if n > 0 {
		resp.Spans = make([]PhaseSpan, 0, n)
		for _, sp := range res.Spans {
			if sp.Rounds > 0 {
				resp.Spans = append(resp.Spans, PhaseSpan{Name: sp.Name, Rounds: sp.Rounds})
			}
		}
	}
	if rs := res.Rand; rs != nil {
		resp.Shatter = &ShatterStats{
			TNodesProposed: rs.TNodesProposed,
			TNodesKept:     rs.TNodesKept,
			Components:     rs.Components,
			MaxComponent:   rs.MaxComponent,
		}
	}
	return resp, nil
}
