// Package bench exposes the compute-kernel micro-benchmarks as plain
// functions, so cmd/faction-bench can run them outside `go test` and record
// a machine-readable performance trajectory (BENCH_kernel.json) alongside
// the paper artifacts. The suite mirrors the in-package benchmarks
// (mat.BenchmarkMulInto, nn.BenchmarkLinearTrainStep,
// gda.BenchmarkGDAScoreBatch) through public APIs only.
package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"faction/internal/data"
	"faction/internal/experiments"
	"faction/internal/gda"
	"faction/internal/mat"
	"faction/internal/nn"
	"faction/internal/obs"
)

// KernelResult is one micro-benchmark headline.
type KernelResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Iterations  int     `json:"iterations"`
}

// Report is the schema of BENCH_kernel.json: kernel headline numbers plus
// enough environment metadata to compare trajectories across commits and
// machines.
type Report struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	// Parallelism is the mat worker-pool width the suite ran with (the
	// shared default for both matmul shards and protocol-level workers).
	Parallelism int            `json:"parallelism"`
	Kernels     []KernelResult `json:"kernels"`
	// Fig2CISeconds is the end-to-end wall-clock of one CI-scale Fig. 2
	// row per dataset: the paper-pipeline number the kernels feed into.
	Fig2CISeconds map[string]float64 `json:"fig2_ci_seconds,omitempty"`
}

func toResult(name string, r testing.BenchmarkResult) KernelResult {
	ns := 0.0
	if r.N > 0 {
		ns = float64(r.T.Nanoseconds()) / float64(r.N)
	}
	return KernelResult{
		Name:        name,
		NsPerOp:     ns,
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		Iterations:  r.N,
	}
}

// stableBench runs f like testing.Benchmark but retries when the result
// reports allocations. testing.Benchmark counts process-wide mallocs, so a
// background runtime event landing inside the timed window shows up as a
// few spurious bytes/op on a kernel that is structurally allocation-free. A
// real allocation in the measured code reproduces on every repetition; a
// one-off background artifact does not, so taking the minimum-alloc
// repetition reports deterministic allocations faithfully while keeping the
// committed baselines (and the gate's pinned-zero entries) free of
// scheduler noise.
func stableBench(f func(b *testing.B)) testing.BenchmarkResult {
	best := testing.Benchmark(f)
	for rep := 0; rep < 2 && best.AllocsPerOp()+best.AllocedBytesPerOp() > 0; rep++ {
		r := testing.Benchmark(f)
		if r.AllocsPerOp() < best.AllocsPerOp() ||
			(r.AllocsPerOp() == best.AllocsPerOp() && r.AllocedBytesPerOp() < best.AllocedBytesPerOp()) {
			best = r
		}
	}
	return best
}

// quiesce drains post-GC background runtime work before a timed window
// opens. testing's runN forces a GC right before invoking the benchmark
// func, and that GC (like any GC triggered by setup allocations) wakes
// background goroutines — most notably the unique package's map-cleanup
// goroutine, which allocates a few dozen bytes per cycle. On a single-CPU
// box those goroutines are routinely descheduled into the benchmark loop,
// charging their allocations to a kernel that performs none (observed as a
// persistent phantom 24–48 B/op on MulInto/1024, whose long per-op window
// makes the race near-certain). Sleeping yields the processor until that
// work finishes, then ResetTimer clears the counters; the loops themselves
// allocate nothing, so no further GC (and no further wakeup) occurs inside
// the window. Deliberately NOT a runtime.GC() here: a GC clears every
// sync.Pool's per-P poolLocal array, so the first Get of each pool inside
// the window would re-allocate it — undoing the setup's pool warmup and
// breaking pinned-zero entries at -benchtime=1x, where N=1 amortizes
// nothing.
func quiesce(b *testing.B) {
	time.Sleep(2 * time.Millisecond)
	b.ResetTimer()
}

// RunKernels executes the micro-benchmark suite and returns the report
// without end-to-end timings (the caller adds Fig2CISeconds when asked to).
func RunKernels() Report {
	rep := Report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Parallelism: mat.Parallelism(),
	}
	for _, n := range []int{64, 256, 1024} {
		rep.Kernels = append(rep.Kernels,
			toResult(fmt.Sprintf("MulInto/%d/serial", n), benchMulInto(n, 1)),
			toResult(fmt.Sprintf("MulInto/%d/parallel", n), benchMulInto(n, 0)))
	}
	rep.Kernels = append(rep.Kernels,
		toResult("LinearTrainStep/batch64-hidden512", benchTrainStep()),
		toResult("GDAScoreBatch/512x64", benchGDAScoreBatch(gda.PrecisionF64)),
		toResult("GDAScoreBatch/512x64/f32", benchGDAScoreBatch(gda.PrecisionF32)),
		toResult("GDAScoreBatchRaw/512x64", benchGDAScoreBatchRaw(gda.PrecisionF64)),
		toResult("GDAScoreBatchRaw/512x64/f32", benchGDAScoreBatchRaw(gda.PrecisionF32)),
		toResult("WhitenMahalanobis/512x64x4/serial", benchWhitenKernel[float64](1)),
		toResult("WhitenMahalanobis/512x64x4/parallel", benchWhitenKernel[float64](0)),
		toResult("WhitenMahalanobis32/512x64x4/serial", benchWhitenKernel[float32](1)),
		toResult("WhitenMahalanobis32/512x64x4/parallel", benchWhitenKernel[float32](0)),
		toResult("ObsCounterInc", benchCounterInc()),
		toResult("ObsHistogramObserve", benchHistogramObserve()))
	return rep
}

// Fig2CIWallClock times one CI-scale Fig. 2 row (all compared methods on one
// dataset, one run) end to end.
func Fig2CIWallClock(dataset string, workers int) (float64, error) {
	ok := false
	for _, name := range data.StreamNames() {
		if name == dataset {
			ok = true
			break
		}
	}
	if !ok {
		return 0, fmt.Errorf("bench: unknown dataset %q (want one of %v)", dataset, data.StreamNames())
	}
	start := time.Now()
	experiments.RunFig2(experiments.Options{
		Seed:     42,
		Runs:     1,
		Scale:    experiments.ScaleCI,
		Datasets: []string{dataset},
		Workers:  workers,
	})
	return time.Since(start).Seconds(), nil
}

func randDense(rng *rand.Rand, r, c int) *mat.Dense {
	m := mat.NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// benchMulInto measures the n×n×n matmul kernel at worker-pool width p
// (p == 1 forces the serial path; p == 0 keeps the current pool width, so a
// width forced by `faction-bench -kernel -parallelism N` carries through).
func benchMulInto(n, p int) testing.BenchmarkResult {
	return stableBench(func(b *testing.B) {
		old := mat.Parallelism()
		if p > 0 {
			mat.SetParallelism(p)
		}
		defer mat.SetParallelism(old)
		rng := rand.New(rand.NewSource(1))
		x := randDense(rng, n, n)
		y := randDense(rng, n, n)
		dst := mat.NewDense(n, n)
		b.ReportAllocs()
		quiesce(b)
		for i := 0; i < b.N; i++ {
			mat.MulInto(dst, x, y)
		}
	})
}

// benchTrainStep measures one fairness-regularized minibatch step of the
// paper's hidden-512 spectral-norm MLP at batch 64 (steady state: scratch
// buffers warm, so the headline allocs/op should be 0).
func benchTrainStep() testing.BenchmarkResult {
	return stableBench(func(b *testing.B) {
		const inputDim, batch = 64, 64
		c := nn.NewClassifier(nn.Config{
			InputDim:     inputDim,
			NumClasses:   2,
			Hidden:       []int{nn.DefaultHidden},
			SpectralNorm: true,
			Seed:         1,
		})
		rng := rand.New(rand.NewSource(2))
		x := randDense(rng, batch, inputDim)
		y := make([]int, batch)
		s := make([]int, batch)
		for i := range y {
			y[i] = rng.Intn(2)
			s[i] = 2*rng.Intn(2) - 1
		}
		opt := nn.NewSGD(0.05, 0.9, 0)
		fair := nn.FairConfig{Mu: 0.1, Eps: 0.01}
		c.TrainStep(x, y, s, opt, fair, 1.0) // warm scratch and optimizer state
		b.ReportAllocs()
		quiesce(b)
		for i := 0; i < b.N; i++ {
			c.TrainStep(x, y, s, opt, fair, 1.0)
		}
	})
}

// benchCounterInc measures the metrics hot path every instrumented request
// and training step pays: an unlabeled counter increment (one atomic add;
// the headline allocs/op must be 0).
func benchCounterInc() testing.BenchmarkResult {
	return stableBench(func(b *testing.B) {
		c := obs.NewRegistry().Counter("bench_counter_total", "benchmark counter")
		b.ReportAllocs()
		quiesce(b)
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
}

// benchHistogramObserve measures one latency observation against the default
// bucket layout: a linear bucket scan plus three atomic updates, 0 allocs/op.
func benchHistogramObserve() testing.BenchmarkResult {
	return stableBench(func(b *testing.B) {
		h := obs.NewRegistry().Histogram("bench_seconds", "benchmark histogram", obs.DefBuckets)
		b.ReportAllocs()
		quiesce(b)
		for i := 0; i < b.N; i++ {
			h.Observe(float64(i%100) * 0.001)
		}
	})
}

// benchScoreFixture fits the 2-class × 2-group estimator on 256 samples at
// the given scoring precision and builds the 512×64 probe batch shared by the
// density-scoring benchmarks.
func benchScoreFixture(b *testing.B, prec gda.Precision) (*gda.Estimator, *mat.Dense) {
	const n, dim = 256, 64
	rng := rand.New(rand.NewSource(17))
	f := randDense(rng, n, dim)
	y := make([]int, n)
	s := make([]int, n)
	for i := range y {
		y[i] = rng.Intn(2)
		s[i] = 2*rng.Intn(2) - 1
	}
	e, err := gda.Fit(f, y, s, 2, []int{-1, 1}, gda.Config{})
	if err != nil {
		b.Fatal(err)
	}
	e.SetPrecision(prec)
	return e, randDense(rng, 512, dim)
}

// benchGDAScoreBatch measures density scoring of a 512×64 probe batch
// against a 2-class × 2-group estimator fitted on 256 samples, at either
// kernel precision — the f64/f32 row pair in one report is the headline
// speedup the -score-precision flag buys.
func benchGDAScoreBatch(prec gda.Precision) testing.BenchmarkResult {
	return stableBench(func(b *testing.B) {
		e, probe := benchScoreFixture(b, prec)
		b.ReportAllocs()
		quiesce(b)
		for i := 0; i < b.N; i++ {
			e.ScoreBatch(probe)
		}
	})
}

// benchGDAScoreBatchRaw measures the pooled scoring path the serving layer
// takes (ScoreBatchRaw → SliceInto → Release) at the same 512×64 shape. Its
// steady state performs no heap allocation at either precision; the committed
// baselines pin allocs/op at 0, so the bench gate flags any allocation
// creeping back in.
func benchGDAScoreBatchRaw(prec gda.Precision) testing.BenchmarkResult {
	return stableBench(func(b *testing.B) {
		e, probe := benchScoreFixture(b, prec)
		var batch gda.BatchScores
		for i := 0; i < 10; i++ { // warm the pools
			raw := e.ScoreBatchRaw(probe)
			raw.SliceInto(&batch, 0, probe.Rows)
			raw.Release()
		}
		b.ReportAllocs()
		quiesce(b)
		for i := 0; i < b.N; i++ {
			raw := e.ScoreBatchRaw(probe)
			raw.SliceInto(&batch, 0, probe.Rows)
			raw.Release()
		}
	})
}

// benchWhitenKernel measures the whitened batch Mahalanobis kernel in
// isolation — 512×64 rows against a 4-factor stack stored at width T, the
// quadratic-form pass under GDAScoreBatch — at worker-pool width p (1 forces
// the serial path; 0 uses the pool default, which `faction-bench -kernel
// -parallelism N` overrides). Both widths share the fixture seed, so the
// f64/f32 row pair isolates the bandwidth win of the halved element width.
// Steady state is allocation-free at any pool width.
func benchWhitenKernel[T float32 | float64](p int) testing.BenchmarkResult {
	return stableBench(func(b *testing.B) {
		old := mat.Parallelism()
		if p > 0 {
			mat.SetParallelism(p)
		}
		defer mat.SetParallelism(old)
		const n, dim, comps = 512, 64, 4
		rng := rand.New(rand.NewSource(31))
		stack := mat.NewWhitenedStack[T](dim)
		for k := 0; k < comps; k++ {
			sample := randDense(rng, dim+8, dim)
			cov := mat.Covariance(sample, mat.MeanCols(sample), 1e-6)
			ch, err := mat.NewCholesky(cov)
			if err != nil {
				b.Fatal(err)
			}
			mean := make([]float64, dim)
			for j := range mean {
				mean[j] = rng.NormFloat64()
			}
			stack.AddFactor(ch, mean)
		}
		probe := randDense(rng, n, dim)
		dst := make([]float64, n*comps)
		stack.MahalanobisInto(dst, probe) // warm the tile/job pools
		b.ReportAllocs()
		quiesce(b)
		for i := 0; i < b.N; i++ {
			stack.MahalanobisInto(dst, probe)
		}
	})
}
