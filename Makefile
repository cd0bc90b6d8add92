GO ?= go

.PHONY: build test vet vet-cmd vet-obs race fmt loc fuzz-smoke chaos bench bench-tree bench-fleet bench-load loadgen-smoke bench-compare bench-check verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The cmd packages have no test files, so the default vet run skips
# their *_test.go analysis modes; force them on explicitly.
vet-cmd:
	$(GO) vet -tests=true ./cmd/...

# Library code must log through the slog.Logger it is handed
# (internal/obs), never a bare log.Printf/fmt.Println the embedder
# cannot redirect; it must also not reach for package-level http helpers
# or keep an exported global bool as a behaviour switch.
vet-obs:
	scripts/lint-obs.sh

# gofmt cleanliness: fail listing the files that need formatting.
fmt:
	@files="$$(gofmt -l .)"; \
	if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; \
	fi

# Non-test Go lines per package directory and in total (wc -l): the number
# a simplicity change reports before and after.
loc:
	@total=0; \
	for d in $$(find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' -exec dirname {} \; | sort -u); do \
		n=$$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
		printf '%6d %s\n' $$n $$d; total=$$((total + n)); \
	done; \
	printf '%6d total\n' $$total

# The concurrency-sensitive peer tests (reads, sweeps and pushes sharing
# the system's one lock, self-call and peer-cycle regressions, journal
# flushes under its write side) must stay clean under the race detector.
race:
	$(GO) test -race ./...

# Short-budget coverage-guided fuzzing of the wire parsers journal replay
# depends on, plus the intern/digest cache stability target (go test
# -fuzz takes one target per run).
fuzz-smoke:
	$(GO) test ./internal/peer -run='^$$' -fuzz='^FuzzUnmarshalTree$$' -fuzztime=5s
	$(GO) test ./internal/peer -run='^$$' -fuzz='^FuzzUnmarshalEnvelope$$' -fuzztime=5s
	$(GO) test ./internal/peer -run='^$$' -fuzz='^FuzzUnmarshalDelta$$' -fuzztime=5s
	$(GO) test ./internal/tree -run='^$$' -fuzz='^FuzzSymDigestStability$$' -fuzztime=5s

# The sharded-fleet chaos acceptance: ten durable peers, consistent-hash
# routing, delta replication under injected message loss, crash-restarts,
# stale anchors and duplicated deliveries must converge every owner to
# the single-peer fixpoint digest (with non-zero peer.converge.lag_ns
# samples and a rendering fleet status table), one increment's delta must
# stay a small constant on the wire while a full pull grows with the
# document, and a cross-peer invoke→push cascade must stitch into one
# connected trace.
chaos:
	$(GO) test ./internal/peer -run 'TestFleetChaosConvergence|TestDeltaWireBytesSublinear|TestFleetCrossPeerTraceConnected' -count=1 -v

# The parallel-engine speedup benchmark: raw output lands in bench.out
# (benchstat-compatible, see bench-compare), the JSON trajectory point
# in BENCH_parallel.json.
bench:
	$(GO) test -run '^$$' -bench BenchmarkRunParallel -benchtime 5x -count 1 . | tee bench.out
	scripts/bench-json.sh < bench.out > BENCH_parallel.json
	@echo wrote BENCH_parallel.json

# The million-node interning/indexing benchmarks (pattern match,
# Subsumed, Reduce, Union — fast vs naive, with -benchmem allocation
# profiles). The JSON trajectory point lands in BENCH_tree.json.
bench-tree:
	$(GO) test -run '^$$' -bench 'BenchmarkTree$$' -benchmem -benchtime 3x -count 1 -timeout 30m . | tee bench.tree.out
	scripts/bench-json.sh -tree < bench.tree.out > BENCH_tree.json
	@echo wrote BENCH_tree.json

# The replication-wire benchmark: propagating one increment to a replica
# through a full re-pull vs a digest-anchored delta, with served wire
# bytes per sync. The JSON trajectory point lands in BENCH_fleet.json.
bench-fleet:
	$(GO) test -run '^$$' -bench 'BenchmarkFleet$$' -benchmem -benchtime 3x -count 1 -timeout 30m . | tee bench.fleet.out
	scripts/bench-json.sh -fleet < bench.fleet.out > BENCH_fleet.json
	@echo wrote BENCH_fleet.json

# The capacity benchmark: axml-loadgen drives the canonical open-loop
# and closed-loop mixes plus a step-rate capacity search against a
# 3-peer in-process fleet. The JSON trajectory point (mean/p50/p99/p999
# request latency and max sustainable RPS) lands in BENCH_load.json.
bench-load:
	$(GO) run ./cmd/axml-loadgen -fleet 3 -bench | tee bench.load.out
	scripts/bench-json.sh -load < bench.load.out > BENCH_load.json
	@echo wrote BENCH_load.json

# The loadgen smoke gate (part of verify): the CLI must sustain a short
# open-loop mixed workload against an in-process 3-peer fleet with zero
# errors — the whole path from scenario to typed client to fleet.
loadgen-smoke:
	$(GO) run ./cmd/axml-loadgen -fleet 3 -rate 150 -duration 1s -max-errors 0

# Compare two saved bench.out files: make bench-compare OLD=a.out NEW=b.out
OLD ?= bench.old
NEW ?= bench.out
bench-compare:
	scripts/bench-compare.sh $(OLD) $(NEW)

# Regression gate: re-run the benchmarks and fail if ns_per_op,
# allocs_per_op or mergewait_p99_ns regresses more than 20% against the
# committed BENCH_parallel.json / BENCH_tree.json baselines (workloads
# absent from a baseline pass — adding a benchmark does not require
# regenerating the baseline in the same change).
bench-check:
	$(GO) test -run '^$$' -bench BenchmarkRunParallel -benchtime 5x -count 1 . > bench.check.out
	scripts/bench-json.sh < bench.check.out > bench.check.json
	scripts/bench-compare.sh -check BENCH_parallel.json bench.check.json
	$(GO) test -run '^$$' -bench 'BenchmarkTree$$' -benchmem -benchtime 3x -count 1 -timeout 30m . > bench.check.out
	scripts/bench-json.sh -tree < bench.check.out > bench.check.json
	scripts/bench-compare.sh -check BENCH_tree.json bench.check.json
	$(GO) test -run '^$$' -bench 'BenchmarkFleet$$' -benchmem -benchtime 3x -count 1 -timeout 30m . > bench.check.out
	scripts/bench-json.sh -fleet < bench.check.out > bench.check.json
	scripts/bench-compare.sh -check BENCH_fleet.json bench.check.json
	$(GO) run ./cmd/axml-loadgen -fleet 3 -bench > bench.check.out
	scripts/bench-json.sh -load < bench.check.out > bench.check.json
	scripts/bench-compare.sh -check BENCH_load.json bench.check.json
	@rm -f bench.check.out bench.check.json

# Tier-1 verify: build + tests, extended with gofmt, go vet (test files
# of the test-less cmd packages included), the logging lint, the race
# detector, the fuzz smoke run, the sharded-fleet chaos acceptance and
# the loadgen smoke gate.
verify: build fmt vet vet-cmd vet-obs test race fuzz-smoke chaos loadgen-smoke
