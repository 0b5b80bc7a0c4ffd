# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test test-short check race chaos chaos-restart chaos-shard conformance coverage-invariant serve bench bench-smoke profile-ring report report-full report-faults report-frontier fuzz loc clean

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
	$(GO) test -race -count=1 -run 'TestChaos|TestPanic|TestQuarantine|TestWatchdog|TestBreaker|TestServerSideRetry|TestIdempotency|TestClientColorRetry|TestHardening|TestServiceChaos|TestRetention' . ./internal/service/
	$(GO) test -race -count=1 ./internal/faults/ ./internal/repair/

# Sharded-cluster chaos (DESIGN.md §15): seeded worker kill/hang/corrupt
# plans through the coordinator and its transports, the round path's
# failure handling (a failed step or finish aborts every shard, a hung
# worker fails at the call deadline, quiet shards stay out of the batch),
# the HTTP stream's lifecycle (hung, killed and refusing workers on the
# batched and the per-shard round, cut streams, aborts, two coordinators
# sharing a host under one session label), plus the service-level
# guarantee that a damaged cluster never answers 200 with an invalid or
# partial coloring. DELTA_CHAOS_ITERS scales the root soak.
chaos-shard:
	$(GO) test -race -count=1 -run 'TestChaos|TestStream|TestHTTPTransportRefusesForeignWire|TestRunAbortsAllShardsOnFailure|TestCallTimeoutBoundsHungWorker|TestQuietShardsAreSkipped' ./internal/shard/
	$(GO) test -race -count=1 -run 'TestChaosShard' .
	$(GO) test -race -count=1 -run 'TestShardChaosNeverServesBadColoring|TestShardWorkerEndpointRoundTrip|TestShardCoordinatorsShareWorker|TestColorShardedConcurrent' ./internal/service/

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
# gross perf/alloc regressions without the full calibration cost.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./...

# CPU and heap profiles of the deterministic pipeline on a permuted clique
# ring (BenchmarkEasyRing at GOMAXPROCS workers, the parallel path that
# ring_scale's main operation runs): where its time and allocations go at
# large n. Writes cpu.out, mem.out and the core.test binary pprof needs to
# read them: `go tool pprof -top core.test cpu.out`.
profile-ring:
	$(GO) test -run '^$$' -bench '^BenchmarkEasyRing$$/^workers=max$$' -benchmem -benchtime 20x -cpuprofile cpu.out -memprofile mem.out -o core.test ./internal/core/

# The evaluation tables of EXPERIMENTS.md (E1-E16, E18 and E19; standard
# scale, a few minutes).
report:
	$(GO) run ./cmd/deltabench -scale standard

# Adds the paper-exact Δ=126 instances and large-n points (much longer).
report-full:
	$(GO) run ./cmd/deltabench -scale full

# The fault-tolerance experiment (EXPERIMENTS.md table E18).
report-faults:
	$(GO) run ./cmd/deltabench -only E18 -scale standard

# The frontier-occupancy experiment (EXPERIMENTS.md table E19).
report-frontier:
	$(GO) run ./cmd/deltabench -only E19 -scale standard

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
	$(GO) test -fuzz FuzzRoundsStream -fuzztime 30s ./internal/shard/
	$(GO) test -fuzz FuzzDecodeBinary -fuzztime 30s ./internal/graph/
	$(GO) test -fuzz FuzzReadBinary -fuzztime 30s ./internal/graphio/
	$(GO) test -fuzz FuzzColorRequest -fuzztime 30s ./internal/service/
	$(GO) test -fuzz FuzzWALPayload -fuzztime 30s ./internal/durable/
	$(GO) test -fuzz FuzzCheckpointState -fuzztime 30s ./internal/durable/

# Non-test Go lines of the working tree against BASE (a commit, branch or
# tag): added, deleted and net lines over *.go files, _test.go excluded.
# CHANGES.md reports this number for every change (ROADMAP aim 2). New
# files count once git tracks them (`git add -N` is enough).
BASE ?= HEAD
loc:
	@git diff --numstat $(BASE) -- '*.go' ':(exclude)*_test.go' | \
		awk '{ a += $$1; d += $$2 } END { printf "non-test Go lines vs $(BASE): +%d -%d, net %d\n", a, d, a - d }'

clean:
	$(GO) clean ./...
