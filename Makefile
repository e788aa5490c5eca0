# Tier-1 verification is `make check`: vet, gofmt, the vitrilint
# analyzer suite, plus the full test suite under the race detector. The
# concurrency stress tests (concurrency_test.go,
# internal/index/parallel_test.go) are only meaningful with -race, so the
# race run gates every PR.

GO ?= go

.PHONY: all build test vet fmtcheck lint lint-stats benchguard race e2e fuzz-smoke crash bench-module check bench bench-ingest bench-checkpoint bench-shard bench-prefilter bench-search bench-serve bench-all

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmtcheck fails (listing the offenders) when any tracked Go file is not
# gofmt-clean. Fixture files under testdata are held to the same bar.
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# lint runs the in-tree analyzer suite (see internal/lint and DESIGN.md
# "Machine-checked invariants"); it exits nonzero on any unsuppressed
# finding.
lint:
	$(GO) run ./cmd/vitrilint ./...

# lint-stats runs the suite with the per-analyzer summary (findings,
# suppressions, wall time, call-graph construction cost) and refreshes
# the committed BENCH_lint.json timing entry.
lint-stats:
	$(GO) run ./cmd/vitrilint -stats -bench BENCH_lint.json ./...

# benchguard fails the build when the committed benchmark numbers say a
# contract has regressed: BENCH_checkpoint.json's engine p99 past 2x the
# quiescent baseline (the non-blocking checkpoint; disk co-tenancy is
# informational), BENCH_shard.json recording non-equivalent sharded
# results or collapsed scatter-gather search throughput,
# BENCH_prefilter.json/BENCH_search.json recording non-equivalent
# pre-filter results, page reads above 0.6x the float64 baseline, or a
# signature-skip fraction below 50%, BENCH_serve.json missing one of the
# three HTTP query workloads or recording request errors, or
# BENCH_ingest.json missing a worker count or recording zero throughput.
benchguard:
	$(GO) run ./cmd/benchguard BENCH_checkpoint.json BENCH_shard.json BENCH_prefilter.json BENCH_search.json BENCH_serve.json BENCH_ingest.json

race:
	$(GO) test -race ./...

# e2e runs the server end-to-end suite (httptest clients against the
# full middleware stack, including shutdown-mid-flight and fault
# injection) under the race detector with verbose failure context.
e2e:
	$(GO) test -race -run 'TestE2E' -count 1 ./internal/server/

# fuzz-smoke gives each fuzzer a short budget on every check: enough to
# replay its corpus plus a few thousand fresh mutations. Covers the store
# codec, the journal replayer, the signature codec, the quantized
# leaf-record codec (hostile bytes must never panic or be misread as
# valid records), and temporal signature derivation/alignment (hostile
# frame values — NaN/Inf included — must never panic or produce
# out-of-range similarities).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadSummaries$$' -fuzztime 5s .
	$(GO) test -run '^$$' -fuzz '^FuzzJournalReplay$$' -fuzztime 5s ./internal/journal/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSignature$$' -fuzztime 5s ./internal/sig/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRecordV3$$' -fuzztime 5s ./internal/index/
	$(GO) test -run '^$$' -fuzz '^FuzzTemporalSignature$$' -fuzztime 5s ./internal/temporal/

# crash runs the crash-simulation suite (crash_test.go): a simulated
# power cut at every write/sync boundary of a snapshot + journal
# workload, recovery checked against an oracle. Verbose, so the verified
# state/boundary counts land in the log.
crash:
	$(GO) test -run 'TestCrash|TestSaveCrash' -count 1 -v .

# bench-module vets and short-tests bench/, the benchmark harness
# BENCHMARK.json runs. It is its own Go module (so `go build ./...` and
# `go test ./...` at the root never compile it) but links against this
# module's packages, internal ones included — a rename here can break it
# silently unless check builds it.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

check: vet fmtcheck lint-stats benchguard race e2e fuzz-smoke crash bench-module

bench:
	$(GO) test -bench . -benchtime 1x -run ^$$ ./...

# bench-ingest measures AddBatch throughput and allocations per video by
# worker count, writing BENCH_ingest.json next to the text table.
bench-ingest:
	$(GO) run ./cmd/vitribench ingest

# bench-checkpoint measures per-mutation latency on a durable 50k-triplet
# store with and without checkpoints folding in the background, writing
# BENCH_checkpoint.json. The gated number is the engine measurement (a
# RAM-backed store, isolating the engine's own blocking): the
# non-blocking checkpoint must keep its p99 within 2x of the quiescent
# baseline. A second, ungated section records what disk co-tenancy
# (snapshot syncs and WAL commits sharing one filesystem journal) adds
# on this machine.
bench-checkpoint:
	$(GO) run ./cmd/vitribench checkpoint

# bench-shard measures the shard-per-core engine at 1/2/4/8 shards on a
# fixed-seed corpus — batch ingest and scatter-gather search throughput —
# and records whether every shard count returned results bit-identical to
# the single engine, writing BENCH_shard.json. benchguard gates on the
# equivalence verdict and on search throughput at 8 shards staying above
# 0.35x the single engine.
bench-shard:
	$(GO) run ./cmd/vitribench shard

# bench-prefilter runs the same fixed-seed corpus and query set through
# four engine configurations — exact float64 pages with no signature
# tier, each optimization alone, and the default engine — verifying
# bit-identical rankings before reporting the page-read ratio and the
# fraction of exact similarity evaluations the signature tier pruned,
# writing BENCH_prefilter.json. benchguard gates on equivalence, page
# reads <= 0.6x baseline, and skip fraction >= 50%.
bench-prefilter:
	$(GO) run ./cmd/vitribench prefilter

# bench-search profiles the default engine's per-query search path —
# latency percentiles, page reads, and pre-filter counters per query —
# writing BENCH_search.json. Timings are informational; benchguard only
# validates the profile's shape and the skip-fraction floor.
bench-search:
	$(GO) run ./cmd/vitribench search

# bench-serve drives fixed-seed HTTP load through the full middleware
# stack over all three query workloads — whole-video /search,
# query-by-image /search/image and temporal /search/temporal — writing
# per-endpoint throughput and latency percentiles to BENCH_serve.json.
# benchguard gates on the report's shape (every workload present, zero
# errors); the timings are informational.
bench-serve:
	$(GO) run ./cmd/vitribench serve

# bench-all regenerates every committed BENCH_*.json with fixed seeds.
bench-all: bench-ingest bench-checkpoint bench-shard bench-prefilter bench-search bench-serve
