GO ?= go

.PHONY: build test race vet check bench-smoke bench-gate fuzz-smoke perfbench-vet

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check the packages with real concurrency: the HTTP serving layer, the
# online protocol runner, the snapshot/drain helpers, the write-ahead log
# (group-commit appenders racing rotation, replay and pruning), the network
# whose inference path must stay read-only, the sharded compute kernels in
# mat/gda (worker pool + parallel ScoreBatch), and the metrics registry whose
# hot paths are lock-free atomics scraped concurrently — ./internal/obs/...
# recursively includes the metric-history sampler and SLO burn-rate engine
# (tickers racing manual SampleNow/Evaluate and the HTTP snapshots).
# ./internal/fleet/... is the multi-replica router: the proxy hot path, probe
# loop and reconciler all share per-replica atomics.
race:
	$(GO) test -race ./internal/server/... ./internal/online/... ./internal/resilience/... ./internal/wal/... ./internal/nn/... ./internal/mat/... ./internal/gda/... ./internal/obs/... ./internal/fleet/...

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

# fuzz-smoke runs each fuzz target for a short burst. The request decoder is
# held differentially to encoding/json; the density and classifier snapshot
# loaders must return an error or a model that scores without panicking; the
# snapshot envelope decoder must fail as corruption or re-encode to exactly
# the bytes it read; an SLO spec that parses must build an engine that
# evaluates without panicking; a WAL feedback or acquisition record that
# decodes must re-encode to exactly its own bytes.
# Inputs that once failed live in the package's testdata/fuzz/ corpus and
# replay on every plain `go test`.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseInstances$$' -fuzztime=10s ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzEstimatorLoad$$' -fuzztime=10s ./internal/gda/
	$(GO) test -run '^$$' -fuzz '^FuzzClassifierLoad$$' -fuzztime=10s ./internal/nn/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEnvelope$$' -fuzztime=10s ./internal/resilience/
	$(GO) test -run '^$$' -fuzz '^FuzzSLOSpec$$' -fuzztime=10s ./internal/obs/slo/
	$(GO) test -run '^$$' -fuzz '^FuzzWALRecord$$' -fuzztime=10s ./internal/wal/

# perfbench-vet vets the benchmark module (perfbench/, its own Go module that
# builds against this one through a replace directive), so an API change here
# cannot silently break the benchmark's build. Its smoke tests stay out of
# `make test`: the traced smoke run asserts how much of the wall clock the
# stage spans cover, which depends on the machine.
perfbench-vet:
	cd perfbench && $(GO) vet ./...

check: vet build test race
