GO ?= go

.PHONY: build test vet vet-cmd vet-obs race fmt loc fuzz-smoke chaos bench bench-check verify

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
# or keep an exported global bool as a behaviour switch or a
# package-level table or lock.
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
# flushes under its write side, one mirror's syncs against anti-entropy
# and delta answers racing growth at the origin) must stay clean under
# the race detector. The recovery, index and adoption tests run again at
# GOMAXPROCS 1 and 4: recovery's per-document fan-out at width one and
# at a width above the core count, first matches racing to build a
# document's index, the served-bytes memo's fills racing its drops, a
# document added at runtime recovering, and overlapping Flushes of one
# publisher. The batch tests run there too: a sweep's batch holds the read
# side across its round trip while self-calls, peer cycles and memo fills
# are served beside it.
race:
	$(GO) test -race ./...
	$(GO) test -race -cpu 1,4 ./internal/core ./internal/pattern ./internal/peer -run 'Restore|Adopt|Lazy|Index|Recover|Snapshot|Subscriber|Publisher|Memo|AddDocument|Batch' -count=1

# Short-budget coverage-guided fuzzing of the wire parsers serving and
# recovery depend on (each XML one checked against the encoding/xml
# oracle; the batch target reads both a batch request and its answers,
# the delta target a 226 answer's framed graft records), of
# graft-record replay itself, the digest cache
# stability target, the keyed join against the nested-loop join,
# pathexpr's snapshot against the query evaluator on path-free queries, and
# the delta rules' rows against the nested loop's fresh rows on grown
# documents (go test -fuzz takes one target per run).
fuzz-smoke:
	$(GO) test ./internal/peer -run='^$$' -fuzz='^FuzzUnmarshalTree$$' -fuzztime=5s
	$(GO) test ./internal/peer -run='^$$' -fuzz='^FuzzUnmarshalEnvelope$$' -fuzztime=5s
	$(GO) test ./internal/peer -run='^$$' -fuzz='^FuzzUnmarshalBatch$$' -fuzztime=5s
	$(GO) test ./internal/peer -run='^$$' -fuzz='^FuzzUnmarshalDelta$$' -fuzztime=5s
	$(GO) test ./internal/peer -run='^$$' -fuzz='^FuzzReplayGraftRecord$$' -fuzztime=5s
	$(GO) test ./internal/peer -run='^$$' -fuzz='^FuzzUnmarshalSnapshot$$' -fuzztime=5s
	$(GO) test ./internal/tree -run='^$$' -fuzz='^FuzzDigestStability$$' -fuzztime=5s
	$(GO) test ./internal/query -run='^$$' -fuzz='^FuzzJoinMatchesNestedLoop$$' -fuzztime=5s
	$(GO) test ./internal/pathexpr -run='^$$' -fuzz='^FuzzRSnapshotMatchesQuery$$' -fuzztime=5s
	$(GO) test ./internal/query -run='^$$' -fuzz='^FuzzDeltaRowsMatchFiltered$$' -fuzztime=5s

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

# The benchmark BENCHMARK.json declares (benchmark/run.sh builds it from
# this checkout and runs every workload once). Ordinary go test -bench
# functions (BenchmarkRunParallel, BenchmarkTree, internal/peer's
# BenchmarkRecover — peer.Open on a durable-ingest crash image, for
# -cpuprofile: open alone, and open+match, the open plus one match on
# every document, where the index builds the open defers land — and
# BenchmarkDeltaSync — one append at a 600-entry
# origin plus one log-mode mirror sync, digest checked — and the other
# per-package ones) run with go test -bench and keep no committed numbers.
# BenchmarkServe/{doc,invoke} (one served read of a document and of a
# declarative answer through the client, allocations reported) runs
# after the benchmark.
bench:
	bash benchmark/run.sh
	$(GO) test ./internal/peer -run '^$$' -bench '^BenchmarkServe$$' -benchtime 2000x

# The benchmark run twice; fails when the two runs disagree beyond
# BENCHMARK.json's bounds.
bench-check:
	bash benchmark/run.sh -repeat 2

# Tier-1 verify: build + tests, extended with gofmt, go vet (test files
# of the test-less cmd packages included), the logging lint, the race
# detector, the fuzz smoke run and the sharded-fleet chaos acceptance. A
# served fleet under load is covered by the tests: benchmark's TestSmoke
# runs fleet-serve untraced and traced at quick counts, and chaos runs the
# ten-peer sharded fleet.
verify: build fmt vet vet-cmd vet-obs test race fuzz-smoke chaos
