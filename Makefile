GO ?= go

.PHONY: build test race vet check bench-smoke bench-gate golden-ci fuzz-smoke perfbench-vet

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check the packages with real concurrency: the HTTP serving layer, the
# online protocol runner, the snapshot/drain helpers, the write-ahead log
# (group-commit appenders racing rotation, replay and pruning), the network
# whose inference path must stay read-only, the sharded compute kernels in
# mat/gda (worker pool + gda's sharded density pass, ScoreRows and Scale),
# FACTION's tiled select and the active-learning baselines (DDU), which drive
# that pass into storage they own, and the metrics registry whose hot paths
# are lock-free atomics scraped concurrently — ./internal/obs/... recursively
# includes the metric-history sampler and SLO burn-rate engine (tickers
# racing manual SampleNow/Evaluate and the HTTP snapshots).
# ./internal/fleet/... is the multi-replica router: the proxy hot path, probe
# loop and reconciler all share per-replica atomics. ./internal/experiments/...
# runs protocol runs on parallel workers, each of which must hold strategies
# of its own (a FACTION strategy keeps per-run state).
race:
	$(GO) test -race ./internal/server/... ./internal/online/... ./internal/resilience/... ./internal/wal/... ./internal/nn/... ./internal/mat/... ./internal/gda/... ./internal/faction/... ./internal/active/... ./internal/obs/... ./internal/fleet/... ./internal/experiments/...

vet:
	$(GO) vet ./...

# bench-smoke runs every benchmark for exactly one iteration: a cheap guard
# that the benchmark harness never rots (this includes the observability
# benchmarks: history SampleNow, SLO Evaluate, histogram quantile).
bench-smoke:
	$(GO) test -bench . -benchtime=1x ./...

# bench-gate runs the gated package benchmarks (listed in
# cmd/faction-bench/gate.go) at commit BASE and in the working tree, built
# on this host and run alternately, and compares them row by row. It fails
# only on a >2x median ns/op ratio or on an allocation appearing on a path
# the base holds at zero allocs/op. CI sets BASE to the commit the change
# builds on.
BASE ?= HEAD
bench-gate:
	$(GO) run ./cmd/faction-bench -gate $(BASE)

# golden-ci runs every experiment at CI scale (faction-bench -exp all -scale
# ci -seed 42, about a minute on two cores) and compares its output, wall
# clock masked, with results/golden-ci.txt (scripts/golden-ci.sh). A change
# that claims bit-identity must leave it matching; a change that moves a bit
# regenerates it with `scripts/golden-ci.sh -update`. It compares only on
# amd64 below GOAMD64=v3 with the assembly kernels on, where the golden was
# recorded, and skips elsewhere.
golden-ci:
	GO=$(GO) sh scripts/golden-ci.sh

# fuzz-smoke runs each fuzz target for a short burst. The request decoder is
# held differentially to encoding/json; the density and classifier snapshot
# loaders must return an error or a model that scores without panicking; the
# snapshot envelope decoder must fail as corruption or re-encode to exactly
# the bytes it read; an SLO spec that parses must build an engine that
# evaluates without panicking; a WAL feedback or acquisition record that
# decodes must re-encode to exactly its own bytes; any bytes as a WAL
# segment must open without panicking and replay a gapless run of LSNs
# from 1; a metric's HELP text and label value must read back from the
# /metrics exposition through the test's parser; the CSV reader must accept
# and reject what encoding/csv with strconv does and read the same stream bit
# for bit; and its decimal kernel must read any bytes as strconv.ParseFloat
# does, value bits and error alike.
# Inputs that once failed live in the package's testdata/fuzz/ corpus and
# replay on every plain `go test`.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseInstances$$' -fuzztime=10s ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzEstimatorLoad$$' -fuzztime=10s ./internal/gda/
	$(GO) test -run '^$$' -fuzz '^FuzzClassifierLoad$$' -fuzztime=10s ./internal/nn/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEnvelope$$' -fuzztime=10s ./internal/resilience/
	$(GO) test -run '^$$' -fuzz '^FuzzSLOSpec$$' -fuzztime=10s ./internal/obs/slo/
	$(GO) test -run '^$$' -fuzz '^FuzzWALRecord$$' -fuzztime=10s ./internal/wal/
	$(GO) test -run '^$$' -fuzz '^FuzzWALOpen$$' -fuzztime=10s ./internal/wal/
	$(GO) test -run '^$$' -fuzz '^FuzzExposition$$' -fuzztime=10s ./internal/obs/
	$(GO) test -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime=10s ./internal/data/
	$(GO) test -run '^$$' -fuzz '^FuzzParseDecimal$$' -fuzztime=10s ./internal/data/

# perfbench-vet vets the benchmark module (perfbench/, its own Go module that
# builds against this one through a replace directive), so an API change here
# cannot silently break the benchmark's build: neither `go build ./...` nor
# `go vet ./...` reaches a nested module, so `make check` runs it. Its smoke
# tests stay out of `make test`: the traced smoke run asserts how much of the
# wall clock the stage spans cover, which depends on the machine.
perfbench-vet:
	cd perfbench && $(GO) vet ./...

check: vet build test race perfbench-vet
