# Tier-1 verification is `make check`: vet, gofmt, the vitrilint
# analyzer suite, plus the full test suite under the race detector. The
# concurrency stress tests (concurrency_test.go, shard_stress_test.go,
# internal/index/concurrent_test.go) are only meaningful with -race, so
# the race run gates every PR. check writes nothing tracked: after it,
# `git status --porcelain` is empty.

GO ?= go

.PHONY: all build test vet fmtcheck lint race e2e fuzz-smoke crash bench-module check bench

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

race:
	$(GO) test -race ./...

# e2e runs the server end-to-end suite (httptest clients against the
# full middleware stack, including shutdown-mid-flight and fault
# injection) under the race detector with verbose failure context.
e2e:
	$(GO) test -race -run 'TestE2E' -count 1 ./internal/server/

# fuzz-smoke gives each fuzzer a short budget on every check: enough to
# replay its corpus plus a few thousand fresh mutations. Covers the store
# decoder (every format it reads; accepted input must re-encode as v3),
# the journal replayer, the quantized leaf-record codec (hostile bytes must never panic or be misread as
# valid records), and temporal signature derivation/alignment (hostile
# frame values — NaN/Inf included — must never panic or produce
# out-of-range similarities).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 5s ./internal/storefmt/
	$(GO) test -run '^$$' -fuzz '^FuzzJournalReplay$$' -fuzztime 5s ./internal/journal/
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

check: vet fmtcheck lint race e2e fuzz-smoke crash bench-module

bench:
	$(GO) test -bench . -benchtime 1x -run ^$$ ./...
