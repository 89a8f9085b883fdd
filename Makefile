GO ?= go

.PHONY: build test race vet check bench-smoke bench-gate fuzz-smoke perfbench-vet

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check the packages with real concurrency: the HTTP serving layer, the
# request-coalescing micro-batcher, the online protocol runner, the
# snapshot/drain helpers, the write-ahead log (group-commit appenders racing
# rotation, replay and pruning), the network whose inference path must stay
# read-only, the sharded compute kernels in mat/gda (worker pool + parallel
# ScoreBatch), and the metrics registry whose hot paths are lock-free atomics
# scraped concurrently — ./internal/obs/... recursively includes the
# metric-history sampler and SLO burn-rate engine (tickers racing manual
# SampleNow/Evaluate and the HTTP snapshots). ./internal/fleet/... is the
# multi-replica router: the proxy hot path, probe loop and reconciler all
# share per-replica atomics.
race:
	$(GO) test -race ./internal/server/... ./internal/batching/... ./internal/online/... ./internal/resilience/... ./internal/wal/... ./internal/nn/... ./internal/mat/... ./internal/gda/... ./internal/obs/... ./internal/fleet/...

vet:
	$(GO) vet ./...

# bench-smoke runs every benchmark for exactly one iteration: a cheap guard
# that the benchmark harness never rots (this includes the observability
# benchmarks: history SampleNow, SLO Evaluate, histogram quantile). Record
# real numbers with `faction-bench -kernel results/BENCH_kernel.json` /
# `-alloc` / `-serve` / `-wal` / `-obs`.
bench-smoke:
	$(GO) test -bench . -benchtime=1x ./...

# bench-gate re-runs the kernel, read-path allocation and observability
# suites and compares them against the committed baselines in results/. It fails only on a >2x
# ns/op regression (machine variance headroom) or on ANY allocation appearing
# on a path whose baseline is pinned at zero allocs/op. Refresh the baselines
# with `faction-bench -kernel ...` / `-alloc ...` / `-obs ...` in the same
# change that knowingly shifts them.
bench-gate:
	$(GO) run ./cmd/faction-bench -gate results

# fuzz-smoke runs each fuzz target for a short burst. The request decoder is
# held differentially to encoding/json; the density snapshot loader must
# return an error or an estimator that scores without panicking. Inputs that
# once failed live in the package's testdata/fuzz/ corpus and replay on every
# plain `go test`.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseInstances$$' -fuzztime=10s ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzEstimatorLoad$$' -fuzztime=10s ./internal/gda/

# perfbench-vet vets the benchmark module (perfbench/, its own Go module that
# builds against this one through a replace directive), so an API change here
# cannot silently break the benchmark's build. Its smoke tests stay out of
# `make test`: the traced smoke run asserts how much of the wall clock the
# stage spans cover, which depends on the machine.
perfbench-vet:
	cd perfbench && $(GO) vet ./...

check: vet build test race
