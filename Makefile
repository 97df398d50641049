# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml); keep the two in sync.

GO ?= go

.PHONY: build test test-race test-invariant lint lint-certify figures bench bench-check

# The roots of the determinism certificate: the engine entry point,
# the runner worker loop, the timer tree's arm and disarm (the event
# queue's writes), the hot-path observability recorders (attribution +
# time series) whose outputs the CI byte-identity gates cmp, and the
# sharded orchestrator (ROADMAP item 2): its run/merge entry points and
# the obs shard merges, which the shard-equivalence CI job cmps
# byte-for-byte. CI renders the certificate through lint-certify, so
# this is the only copy of the list.
CERT_ROOTS = internal/sim.Run,internal/runner.Map,internal/sim.(*timerTree).arm,internal/sim.(*timerTree).disarm,internal/obs.(*AttrRecorder).Event,internal/obs.(*SeriesRecorder).Event,internal/shard.Run,internal/shard.RunSubs,internal/shard.Merge,internal/obs.(*AttrRecorder).Merge,internal/obs.MergeSeries,internal/obs.MergeShardTraces

build:
	$(GO) build ./...

# The benchmark is its own module under _rsinbench, which ./... skips;
# it imports internal APIs, so vet and test it too (CI's "Benchmark
# module" step).
test:
	$(GO) test ./...
	cd _rsinbench && $(GO) vet ./... && $(GO) test ./...

test-race:
	$(GO) test -race ./...

test-invariant:
	$(GO) test -tags invariant ./...

# gofmt -l prints the files whose formatting differs; any output fails.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/rsinlint ./...

# Regenerate the committed determinism certificate (review the diff!).
# CI re-runs this and fails on any difference against the committed
# lint/determinism.cert.json.
lint-certify:
	$(GO) run ./cmd/rsinlint -certify '$(CERT_ROOTS)'

# Regenerate the committed figures golden (review the diff!).
figures:
	$(GO) run ./cmd/figures -fig all > figures_output.txt

# Refresh the committed engine-throughput baseline: min-of-5 runs of
# BenchmarkEngineThroughput per case, written to BENCH_sim.json
# (schema rsin-bench/1). Run after intentional engine changes and
# commit the result alongside them.
bench:
	$(GO) run ./cmd/bench -out BENCH_sim.json -count 5 -benchtime 3x

# Gate the current tree against the committed baseline: fails when any
# benchmark is >5% slower than BENCH_sim.json on this machine.
bench-check:
	$(GO) run ./cmd/bench -baseline BENCH_sim.json -count 5 -benchtime 3x
