# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test test-short check race chaos chaos-restart chaos-shard conformance coverage-invariant serve bench bench-smoke bench-arena bench-dynamic bench-wal bench-scale bench-shard profile-ring report report-full report-faults report-frontier fuzz clean

# `check` is the default CI path: gofmt + vet + the full test suite under -race.
all: build check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

check:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) test -race ./...

race:
	$(GO) test -race ./internal/local/ ./internal/baseline/ ./internal/service/ .

# The fault-injection / repair / service-hardening suite under the race
# detector. DELTA_CHAOS_ITERS scales the soak (default 3 fault seeds per
# case; CI uses the default, nightly soaks can raise it).
chaos:
	$(GO) test -race -count=1 -run 'TestChaos|TestPanic|TestQuarantine|TestWatchdog|TestBreaker|TestServerSideRetry|TestIdempotency|TestClientColorRetry|TestHardening|TestServiceChaos' . ./internal/service/
	$(GO) test -race -count=1 ./internal/faults/ ./internal/repair/

# Sharded-cluster chaos (DESIGN.md §15): seeded worker kill/hang/corrupt
# plans through the coordinator and its transports, plus the service-level
# guarantee that a damaged cluster never answers 200 with an invalid or
# partial coloring. DELTA_CHAOS_ITERS scales the root soak.
chaos-shard:
	$(GO) test -race -count=1 -run 'TestChaos' ./internal/shard/
	$(GO) test -race -count=1 -run 'TestChaosShard' .
	$(GO) test -race -count=1 -run 'TestShardChaosNeverServesBadColoring|TestShardWorkerEndpointRoundTrip|TestColorShardedConcurrent' ./internal/service/

# The restart chaos harness (DESIGN.md §13): a child deltaserved process on
# a durable data dir is SIGKILLed at seeded points mid-mutation-stream and
# relaunched; the run fails if any acknowledged batch is lost or any
# recovered coloring fails the oracle. CHAOS_ROUNDS scales the kill/recover
# cycles (default 3; nightly soaks can raise it).
CHAOS_ROUNDS ?= 3
chaos-restart:
	$(GO) test -race -count=1 -run 'TestRestartChaos' ./internal/service/ -args -chaos-rounds=$(CHAOS_ROUNDS)

# The deltacheck conformance matrix (EXPERIMENTS.md E20, DESIGN.md §10):
# every generator family through every pipeline with all phase checkers,
# differential oracles, metamorphic relations, and per-phase corruption
# controls, plus the dynamic-graph matrix (DESIGN.md §11.6): instrumented
# mutation streams, batch split/reorder metamorphics, and the
# dynamic/maintain corruption control. -quick drops the Δ=63 rejection
# row; `go run ./cmd/deltacheck` runs the full matrix.
conformance:
	$(GO) run -race ./cmd/deltacheck -quick

# The harness must hold itself to the same standard: fail if the
# conformance package's own statement coverage drops below 85%.
coverage-invariant:
	$(GO) test -count=1 -coverprofile=cover-invariant.out ./internal/invariant/
	@$(GO) tool cover -func=cover-invariant.out | awk '/^total:/ { \
		cov = $$3 + 0; printf "internal/invariant coverage: %.1f%% (gate 85%%)\n", cov; \
		if (cov < 85) { print "coverage gate FAILED"; exit 1 } }'
	@rm -f cover-invariant.out

serve:
	$(GO) run ./cmd/deltaserved

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark: catches bit-rot in benchmark code and
# gross perf/alloc regressions without the full calibration cost. The
# deltabench invocations run every pipeline on both engines (frontier and
# dense) and fail on any round-count divergence — the cheap standing
# result-preservation check for frontier scheduling.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./...
	$(GO) run ./cmd/deltabench -bench -bench-iters 1 -bench-out /dev/null
	$(GO) run ./cmd/deltabench -frontier -scale quick

# One-iteration backend arena (EXPERIMENTS.md table E22): every registered
# backend over the dense workload zoo with verified colorings per cell.
# Raise -bench-iters and point -bench-out at BENCH_arena.json to
# regenerate the checked-in artifact.
bench-arena:
	$(GO) run ./cmd/deltabench -arena -bench-iters 1 -bench-out BENCH_arena.ci.json

# The dynamic-maintenance benchmark (EXPERIMENTS.md E21): short mutation
# streams with the per-batch oracle on. Drop -quick and add
# `-out BENCH_dynamic.json` to regenerate the checked-in artifact.
bench-dynamic:
	$(GO) run ./cmd/deltastorm -quick

# The durable-layer benchmark (EXPERIMENTS.md E23): per-batch WAL append
# overhead under each fsync policy against a bare store on the localized
# ~1% stream (acceptance bar: fsync=off <= 10%), plus crash-recovery wall
# time vs replayed log length. Drop -quick and point -out at BENCH_wal.json
# to regenerate the checked-in artifact.
bench-wal:
	$(GO) run ./cmd/deltastorm -wal -quick -out BENCH_wal.ci.json

# The big-graph substrate benchmark (EXPERIMENTS.md table E24): streamed
# parallel CSR builds, binary-format write, mmap reopen, and deg+1 coloring
# on the circulant family, plus the clique ring through the full pipeline,
# all oracle-verified at subsampled n before timing. Quick scale is the CI
# smoke; run with -scale standard and -bench-out BENCH_scale.json to
# regenerate the checked-in artifact.
bench-scale:
	$(GO) run ./cmd/deltabench -scalebench -scale quick -bench-out BENCH_scale.ci.json

# The sharded-cluster benchmark (EXPERIMENTS.md E25): coordinator ns/op and
# per-run p50/p99 across shard counts, in-process and over the
# /v1/shard/rounds HTTP protocol against loopback worker hosts, every run
# compared bit-for-bit against the single-process oracle. Drop -quick and
# point -out at BENCH_shard.json to regenerate the checked-in artifact.
bench-shard:
	$(GO) run ./cmd/deltastorm -shard -quick -out BENCH_shard.ci.json

# CPU and heap profiles of the deterministic pipeline on a permuted clique
# ring (BenchmarkEasyRing): where its time and allocations go at large n.
# Writes cpu.out, mem.out and the core.test binary pprof needs to read
# them: `go tool pprof -top core.test cpu.out`.
profile-ring:
	$(GO) test -run '^$$' -bench '^BenchmarkEasyRing$$' -benchmem -benchtime 20x -cpuprofile cpu.out -memprofile mem.out -o core.test ./internal/core/

# The evaluation tables of EXPERIMENTS.md (standard scale, a few minutes),
# followed by the frontier-occupancy table E19.
report:
	$(GO) run ./cmd/deltabench -scale standard
	$(GO) run ./cmd/deltabench -frontier -scale standard

# Adds the paper-exact Δ=126 instances and large-n points (much longer).
report-full:
	$(GO) run ./cmd/deltabench -scale full

# The fault-tolerance experiment (EXPERIMENTS.md table E18).
report-faults:
	$(GO) run ./cmd/deltabench -faults -scale standard

# The frontier-occupancy experiment (EXPERIMENTS.md table E19).
report-frontier:
	$(GO) run ./cmd/deltabench -frontier -scale standard

fuzz:
	$(GO) test -fuzz FuzzNewGraph -fuzztime 30s .
	$(GO) test -fuzz FuzzVerify -fuzztime 30s .
	$(GO) test -fuzz FuzzVerifiers -fuzztime 30s .
	$(GO) test -fuzz FuzzGraphioRead -fuzztime 30s .
	$(GO) test -fuzz FuzzBuilder -fuzztime 30s ./internal/graph/
	$(GO) test -fuzz FuzzRepair -fuzztime 30s ./internal/repair/
	$(GO) test -fuzz FuzzFrontier -fuzztime 30s ./internal/local/
	$(GO) test -fuzz FuzzPartition -fuzztime 30s ./internal/shard/
	$(GO) test -fuzz FuzzRoundsRequest -fuzztime 30s ./internal/shard/
	$(GO) test -fuzz FuzzRoundsResponse -fuzztime 30s ./internal/shard/
	$(GO) test -fuzz FuzzDecodeBinary -fuzztime 30s ./internal/graph/
	$(GO) test -fuzz FuzzColorRequest -fuzztime 30s ./internal/service/
	$(GO) test -fuzz FuzzWALPayload -fuzztime 30s ./internal/durable/

clean:
	$(GO) clean ./...
