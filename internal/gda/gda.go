// Package gda implements the Gaussian Discriminant Analysis density estimator
// of Section IV-B: a Gaussian mixture with one component per (class label,
// sensitive attribute) pair, fitted by mean/covariance estimation on feature
// vectors. The overall density g(z) = Σ_y Σ_s g(z|y,s)·p(y,s) (Eq. 3)
// measures epistemic uncertainty (low density ⇒ high uncertainty ⇒ likely
// OOD), and the within-class cross-group density gaps
// Δg_c(z) = |g(z|c,s=+1) − g(z|c,s=−1)| (Eqs. 4–5) are the paper's fair
// epistemic uncertainty notion.
//
// A class-only variant (components per class, as in Deep Deterministic
// Uncertainty, Mukhoti et al. 2023) is provided for the DDU baseline.
package gda

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"faction/internal/mat"
	"faction/internal/obs"
)

// Timing instruments on the process-wide registry: Fit runs once per
// task/refit, ScoreBatch on every /score request and acquisition round.
var (
	fitSeconds = obs.Default().Histogram("faction_gda_fit_seconds",
		"Duration of fitting the GDA mixture.", obs.ExpBuckets(1e-4, 4, 8))
	scoreBatchSeconds = obs.Default().Histogram("faction_gda_score_batch_seconds",
		"Duration of scoring one feature batch (Eqs. 3-5).", obs.ExpBuckets(1e-5, 4, 8))
)

// ErrNoData is returned when fitting is attempted on an empty set.
var ErrNoData = errors.New("gda: no samples to fit")

// Config controls covariance estimation.
type Config struct {
	// Ridge is added to covariance diagonals for conditioning (default 1e-6).
	Ridge float64
	// Shrinkage blends each component covariance with the pooled covariance:
	// Σ_k ← (1−α)Σ_k + αΣ_pool. Negative means automatic (α grows as the
	// component's sample count shrinks relative to the dimension). Zero keeps
	// per-component covariances.
	Shrinkage float64
	// MinComponentSamples is the minimum sample count for a component to get
	// its own mean; sparser components fall back to the pooled estimate and
	// are flagged Degenerate. Default 2.
	MinComponentSamples int
}

func (c *Config) setDefaults() {
	if c.Ridge <= 0 {
		c.Ridge = 1e-6
	}
	if c.MinComponentSamples <= 0 {
		c.MinComponentSamples = 2
	}
}

// Component is one Gaussian of the mixture.
type Component struct {
	Y, S       int
	N          int // samples it was fitted on
	Mean       []float64
	Weight     float64 // prior p(y,s)
	Degenerate bool    // true when the component fell back to pooled stats

	// A component's covariance is held in one of two forms: chol, the
	// Cholesky factor of the d×d covariance, or lowRank, its exact low-rank
	// form (mat.LowRank), for components cheaper that way (lowRankCheaper).
	chol        *mat.Cholesky
	lowRank     *mat.LowRank
	logNormBase float64 // −(d/2)·log(2π) − ½·log|Σ|
	logWeight   float64 // log(Weight), precomputed by finalize
	sIdx        int     // index of S in the estimator's SensValues
	ordIdx      int     // index in the estimator's ordered list / whitened stack
}

// Estimator is the fitted density model G(z).
type Estimator struct {
	Dim        int
	Classes    int
	SensValues []int // distinct sensitive values, e.g. {-1, +1}; {0} for class-only

	// TrainLogDensities holds log g(z) for every training sample, in input
	// order — the calibration data for OOD thresholds (e.g. "flag anything
	// below the 5% training quantile"). Persisted by Save/Load.
	TrainLogDensities []float64

	comps map[[2]int]*Component
	// ordered lists the components sorted by (Y, S). Density sums iterate it
	// instead of the map, making every score deterministic (map iteration
	// order would otherwise perturb the floating-point sum run to run) — the
	// property the parallel-equals-serial ScoreBatch guarantee rests on.
	ordered []*Component
	// wstack holds the precomputed scoring operand of every ordered
	// component (the whitening W_k = L_k⁻¹, m̃_k = W_k·μ_k of a dense
	// component, the basis, whitening and residual of a low-rank one), the
	// operand of every density entry point's batch Mahalanobis pass. Derived
	// from the factor bits by buildStack, so Fit and a Load of its snapshot
	// build bit-identical stacks.
	wstack *mat.WhitenedStack
}

// finalize (re)builds the deterministic component ordering, the cached
// per-component terms, and the whitened scoring stack. Called at the end of
// Fit and Load — the snapshot persists only the factors, and because the
// whitening is deterministic in the factor bits, the Load-derived stack
// matches the Fit-derived one exactly.
func (e *Estimator) finalize() {
	sensIdx := make(map[int]int, len(e.SensValues))
	for k, v := range e.SensValues {
		sensIdx[v] = k
	}
	e.ordered = e.ordered[:0]
	for _, c := range e.comps {
		c.sIdx = sensIdx[c.S]
		c.logWeight = math.Log(c.Weight)
		e.ordered = append(e.ordered, c)
	}
	sort.Slice(e.ordered, func(a, b int) bool {
		if e.ordered[a].Y != e.ordered[b].Y {
			return e.ordered[a].Y < e.ordered[b].Y
		}
		return e.ordered[a].S < e.ordered[b].S
	})
	for j, c := range e.ordered {
		c.ordIdx = j
	}
	e.buildStack()
}

// buildStack derives the whitened stack from the ordered components.
func (e *Estimator) buildStack() {
	e.wstack = mat.NewWhitenedStack(e.Dim)
	for _, c := range e.ordered {
		if c.lowRank != nil {
			e.wstack.AddLowRank(c.lowRank, c.Mean)
		} else {
			e.wstack.AddFactor(c.chol, c.Mean)
		}
	}
}

// Fit builds the (class × sensitive) mixture of Section IV-B from feature
// vectors (one row per sample), labels y ∈ [0, classes) and sensitive values
// s (each must appear in sensValues). Components that received no samples are
// absent; callers observe that through Component lookups returning nil.
func Fit(features *mat.Dense, y, s []int, classes int, sensValues []int, cfg Config) (*Estimator, error) {
	start := time.Now()
	defer func() { fitSeconds.Observe(time.Since(start).Seconds()) }()
	cfg.setDefaults()
	n, d := features.Rows, features.Cols
	if n == 0 {
		return nil, ErrNoData
	}
	if len(y) != n || len(s) != n {
		panic(fmt.Sprintf("gda: %d rows but %d labels / %d sensitive values", n, len(y), len(s)))
	}
	if classes < 1 || len(sensValues) < 1 {
		panic(fmt.Sprintf("gda: invalid %d classes / %d sensitive values", classes, len(sensValues)))
	}
	sensIdx := make(map[int]int, len(sensValues))
	for i, v := range sensValues {
		if _, dup := sensIdx[v]; dup {
			panic(fmt.Sprintf("gda: duplicate sensitive value %d", v))
		}
		sensIdx[v] = i
	}

	// Partition row indices per component.
	groups := map[[2]int][]int{}
	for i := 0; i < n; i++ {
		if y[i] < 0 || y[i] >= classes {
			panic(fmt.Sprintf("gda: label %d out of range %d", y[i], classes))
		}
		if _, ok := sensIdx[s[i]]; !ok {
			panic(fmt.Sprintf("gda: sensitive value %d not in %v", s[i], sensValues))
		}
		k := [2]int{y[i], s[i]}
		groups[k] = append(groups[k], i)
	}
	// Fit components in (Y, S) order, so a failing fit names the same
	// component on every run.
	keys := make([][2]int, 0, len(groups))
	usePooled := cfg.Shrinkage != 0
	for k, idx := range groups {
		keys = append(keys, k)
		usePooled = usePooled || len(idx) < cfg.MinComponentSamples
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})

	// The pooled statistics are read only by shrinkage and by components too
	// sparse for their own.
	var globalMean []float64
	var pooled *mat.Dense
	if usePooled {
		globalMean = mat.MeanCols(features)
		pooled = mat.Covariance(features, globalMean, cfg.Ridge)
	}

	e := &Estimator{Dim: d, Classes: classes, SensValues: append([]int(nil), sensValues...), comps: map[[2]int]*Component{}}
	logTwoPi := float64(d) * math.Log(2*math.Pi)
	for _, key := range keys {
		idx := groups[key]
		comp := &Component{Y: key[0], S: key[1], N: len(idx), Weight: float64(len(idx)) / float64(n)}
		sub := mat.NewDense(len(idx), d)
		for r, i := range idx {
			copy(sub.Row(r), features.Row(i))
		}
		var cov *mat.Dense
		if len(idx) < cfg.MinComponentSamples {
			comp.Mean = append([]float64(nil), globalMean...)
			cov = pooled.Clone()
			comp.Degenerate = true
		} else {
			comp.Mean = mat.MeanCols(sub)
			alpha := cfg.Shrinkage
			if alpha < 0 {
				// Automatic: few samples relative to d ⇒ lean on the pool.
				alpha = math.Min(1, float64(d)/float64(len(idx)+1))
			}
			// An unshrunk covariance is a sample covariance plus the ridge,
			// which the low-rank form holds exactly. Non-finite rows or a
			// failed factorization fall through to the dense fit, which
			// reports them.
			if alpha == 0 && lowRankCheaper(len(idx), d) {
				if lr, err := mat.NewLowRank(sub, comp.Mean, cfg.Ridge); err == nil {
					comp.lowRank = lr
					comp.logNormBase = -0.5*logTwoPi - 0.5*lr.LogDet()
					e.comps[key] = comp
					continue
				}
			}
			cov = mat.Covariance(sub, comp.Mean, cfg.Ridge)
			if alpha > 0 {
				cov.Scale(1 - alpha)
				mat.AddScaled(cov, alpha, pooled)
			}
		}
		ch, _, err := mat.NewCholeskyRidge(cov, cfg.Ridge, 14)
		if err != nil {
			return nil, fmt.Errorf("gda: component (y=%d,s=%d): %w", key[0], key[1], err)
		}
		comp.chol = ch
		comp.logNormBase = -0.5*logTwoPi - 0.5*ch.LogDet()
		e.comps[key] = comp
	}
	e.finalize()
	e.TrainLogDensities = make([]float64, n)
	e.LogDensityBatchInto(e.TrainLogDensities, features)
	return e, nil
}

// lowRankCheaper reports whether a component of n rows at dimension d takes
// the low-rank form. It compares the multiply-adds of the fit's own work on
// the component, forming its factor and scoring its n rows, in the two
// forms (r = min(n−1, d)):
//
//	dense     d³/3 + n·d²/2 + n·d²/2      Cholesky and inverse, covariance, rows
//	low rank  2n·r·d + n·r²/2 + r³/3      Gram–Schmidt twice, S, its factor and inverse
//	          + n·(2r·d + r²/2 + d)       rows: projection, triangle, residual
//
// With r ≈ n this picks low rank below r ≈ 0.4·d: at d = 512 every
// component of at most 206 rows, at d = 64 of at most 26. Scoring alone
// breaks even near r ≈ d/4, so a component between the two scores later
// batches a little slower than dense would, and the fit more than pays for
// that (DESIGN.md §16).
func lowRankCheaper(n, d int) bool {
	nf, df := float64(n), float64(d)
	r := float64(min(n-1, d))
	dense := df*df*df/3 + nf*df*df
	low := 2*nf*r*df + nf*r*r/2 + r*r*r/3 + nf*(2*r*df+r*r/2+df)
	return low < dense
}

// FitClassOnly builds the class-conditional mixture of the DDU baseline:
// one component per class, priors p(y). Internally it is the same model with
// a single pseudo sensitive value 0.
func FitClassOnly(features *mat.Dense, y []int, classes int, cfg Config) (*Estimator, error) {
	s := make([]int, features.Rows)
	return Fit(features, y, s, classes, []int{0}, cfg)
}

// Component returns the fitted component for (y, s), or nil when no samples
// with that combination were seen.
func (e *Estimator) Component(y, s int) *Component {
	return e.comps[[2]int{y, s}]
}

// NumComponents returns the number of fitted components.
func (e *Estimator) NumComponents() int { return len(e.comps) }

// DegenerateComponents counts components that fell back to pooled statistics
// for lack of samples. A fit where every component is degenerate carries no
// per-group structure and should not be trusted for the fairness gaps of
// Eqs. 4–5.
func (e *Estimator) DegenerateComponents() int {
	n := 0
	for _, c := range e.comps {
		if c.Degenerate {
			n++
		}
	}
	return n
}

// LogDensity returns log g(z) = log Σ_{y,s} p(y,s)·g(z|y,s) (Eq. 3),
// computed stably in log space. It is a one-row whitened batch: lane
// independence of the kernel makes the value bit-identical to the same row
// scored inside any larger batch, and the (Y, S)-ordered sum makes it
// bit-identical to ScoreBatch's internal sum.
func (e *Estimator) LogDensity(z []float64) float64 {
	e.checkDim(z)
	var out [1]float64
	e.LogDensityBatchInto(out[:], mat.NewDenseData(1, e.Dim, z))
	return out[0]
}

// LogCondDensity returns log g(z|y,s), or −Inf when the component is absent.
// Evaluated through the whitened kernel, so it bit-matches the conditional
// log-pdfs inside ScoreBatchRaw.
func (e *Estimator) LogCondDensity(z []float64, y, s int) float64 {
	e.checkDim(z)
	c := e.Component(y, s)
	if c == nil {
		return math.Inf(-1)
	}
	quads := make([]float64, len(e.ordered))
	e.wstack.MahalanobisInto(quads, mat.NewDenseData(1, e.Dim, z))
	return c.logNormBase - 0.5*quads[c.ordIdx]
}

func (e *Estimator) checkDim(z []float64) {
	if len(z) != e.Dim {
		panic(fmt.Sprintf("gda: feature dim %d, want %d", len(z), e.Dim))
	}
}

// growFloats returns buf resliced to length n, reallocating only when the
// capacity is insufficient — the steady-state reuse primitive of the pooled
// scoring paths.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// densScratch is the per-shard scratch of a density reduction pass: the
// per-component log-pdf terms buffer fed to LogSumExp. Pooled so that
// concurrent shards (and concurrent callers) each check out their own without
// allocating at steady state.
type densScratch struct {
	terms []float64
}

var densScratchPool = sync.Pool{New: func() any { return new(densScratch) }}

func getDensScratch(comps int) *densScratch {
	ds := densScratchPool.Get().(*densScratch)
	ds.terms = growFloats(ds.terms, comps)
	return ds
}

// BatchScores holds the relative densities of a batch on a common scale
// (every value is multiplied by e^{−M}, where M is the batch-wide maximum
// log density; the subsequent min–max normalization of Eq. 7 is invariant to
// this shared scale, which is what makes the mixture usable far from the
// training data where raw densities underflow float64).
type BatchScores struct {
	// G[i] is the scaled overall density g(z_i).
	G []float64
	// Delta[i][c] is the scaled Δg_c(z_i). For two sensitive values this is
	// the paper's |g(z_i|c,+1) − g(z_i|c,−1)| (Eqs. 4–5); for more it
	// generalizes to the worst-case pairwise gap
	// max_{s,s'} |g(z_i|c,s) − g(z_i|c,s')| (the multi-valued extension of
	// Section IV-H). Zero when a class has fewer than two fitted group
	// components. All rows view one flattened n×classes backing slice.
	Delta [][]float64
	// LogG[i] is the unscaled log g(z_i) (Eq. 3) — the same value LogDensity
	// returns, already computed inside the batch pass before rescaling.
	// Consumers needing absolute densities (OOD thresholds, drift feeding)
	// read it here instead of paying a second per-row density pass.
	LogG []float64
	// LogScale is M, the subtracted log-scale (exported for diagnostics).
	LogScale float64

	// deltaFlat is the backing of Delta, kept so SliceInto can reuse it.
	deltaFlat []float64
}

// scoreBatchMinGrain is the smallest per-shard sample count worth a pool
// handoff when the log-space reduction shards a batch (the O(components·Dim²)
// Mahalanobis work runs in the whitened kernel pass beforehand; the reduction
// is O(components) per sample, so shards are kept coarser).
const scoreBatchMinGrain = 8

// ScoreBatch evaluates the overall density and the per-class fairness gaps
// for each feature row, on a shared numeric scale (see BatchScores).
//
// The quadratic forms are evaluated by the whitened batch kernel
// (mat.WhitenedStack.MahalanobisInto) — one packed pass over all rows ×
// components instead of per-row triangular solves — then a sharded log-space
// reduction turns them into densities and gaps. Kernel lanes and reduction
// rows are row-independent with a fixed accumulation order, so the result is
// bit-identical to a serial evaluation at any parallelism. Per-component
// log-pdfs are computed once per sample and shared between the overall
// density and the conditional gaps, and all per-sample storage views
// flattened backing slices.
//
// ScoreBatch is SliceInto(0, n) over one raw log-space pass; slicing any
// sub-range of a pass gives the bits scoring those rows alone would. The
// returned BatchScores owns its storage (the raw pass is released back to
// the pool before returning).
func (e *Estimator) ScoreBatch(features *mat.Dense) BatchScores {
	raw := e.ScoreBatchRaw(features)
	var out BatchScores
	raw.SliceInto(&out, 0, features.Rows)
	raw.Release()
	return out
}

// RawScores is the scale-free half of a batch scoring pass: per-sample log
// densities (overall and per-component) before any common-scale rescaling.
// Because every per-row value depends only on that row, RawScores of a
// concatenated batch carries exactly the values each sub-range would have
// produced on its own — Slice/SliceInto recover them bit-identically.
//
// RawScores are pooled: call Release when done (after the last Slice) to
// recycle the storage. Using one after Release panics.
type RawScores struct {
	// LogG[i] is log g(z_i) (Eq. 3), identical to LogDensity(z_i).
	LogG []float64

	// logCond[(i·classes+c)·ns+k] = log g(z_i | c, SensValues[k]); filled
	// only when cond is set, i.e. by ScoreBatchRaw on an estimator with two
	// or more sensitive values (otherwise there are no gaps to compute).
	logCond []float64
	cond    bool
	// rowMax[i] is the per-row maximum over logG[i] and the row's finite
	// component log-pdfs — the quantity a range's common scale M reduces over.
	rowMax []float64
	// quads[i·K+j] is the whitened Mahalanobis distance of row i to ordered
	// component j, filled by one batch kernel pass and reduced to log-pdfs by
	// the sharded reduction.
	quads       []float64
	classes, ns int
	released    bool
}

var rawScoresPool = sync.Pool{New: func() any { return new(RawScores) }}

// Release returns the RawScores to the pool. Every slice taken via SliceInto
// owns its own copies, so Release is safe as soon as the slicing is done.
// Panics on double Release.
func (r *RawScores) Release() {
	if r.released {
		panic("gda: RawScores.Release twice")
	}
	r.released = true
	rawScoresPool.Put(r)
}

// scoreJob carries one raw density pass across the worker pool without
// allocating: pooled jobs pre-bind fn to their run method once (at pool-New
// time), so the hot path never constructs a closure.
type scoreJob struct {
	e   *Estimator
	raw *RawScores
	fn  func(lo, hi int)
}

var scoreJobPool = sync.Pool{New: func() any {
	j := new(scoreJob)
	j.fn = j.run
	return j
}}

func (j *scoreJob) run(lo, hi int) {
	e, raw := j.e, j.raw
	classes, ns := raw.classes, raw.ns
	nc := len(e.ordered)
	ds := getDensScratch(nc)
	terms := ds.terms
	for i := lo; i < hi; i++ {
		qrow := raw.quads[i*nc : (i+1)*nc]
		rowMax := math.Inf(-1)
		var row []float64
		if raw.cond {
			row = raw.logCond[i*classes*ns : (i+1)*classes*ns]
			for j := range row {
				row[j] = math.Inf(-1)
			}
		}
		for j, c := range e.ordered {
			lp := c.logNormBase - 0.5*qrow[j]
			terms[j] = c.logWeight + lp
			if row != nil {
				row[c.Y*ns+c.sIdx] = lp
				if lp > rowMax {
					rowMax = lp
				}
			}
		}
		raw.LogG[i] = mat.LogSumExp(terms)
		if raw.LogG[i] > rowMax {
			rowMax = raw.LogG[i]
		}
		raw.rowMax[i] = rowMax
	}
	densScratchPool.Put(ds)
}

// ScoreBatchRaw runs the sharded density pass of ScoreBatch and returns the
// raw log-space results without choosing a scale. One pass serves any number
// of Slice calls; Release the result when done. Storage is pooled, so a
// steady-state loop of ScoreBatchRaw → SliceInto → Release allocates nothing.
// It is the only density entry point timed as a score pass
// (faction_gda_score_batch_seconds).
func (e *Estimator) ScoreBatchRaw(features *mat.Dense) *RawScores {
	start := time.Now()
	raw := e.rawPass(features, len(e.SensValues) >= 2)
	scoreBatchSeconds.Observe(time.Since(start).Seconds())
	return raw
}

// rawPass is the one pooled density pass behind ScoreBatchRaw and
// LogDensityBatchInto: a whitened kernel pass fills every (row, component)
// Mahalanobis distance, then a sharded reduction does the O(n·K) log-space
// arithmetic. cond additionally records the per-group conditional log-pdfs
// the fairness gaps need. LogG does not depend on cond, so both callers see
// the same bits.
func (e *Estimator) rawPass(features *mat.Dense, cond bool) *RawScores {
	n := features.Rows
	if n > 0 && features.Cols != e.Dim {
		panic(fmt.Sprintf("gda: feature dim %d, want %d", features.Cols, e.Dim))
	}
	raw := rawScoresPool.Get().(*RawScores)
	raw.released = false
	raw.classes, raw.ns, raw.cond = e.Classes, len(e.SensValues), cond
	raw.LogG = growFloats(raw.LogG, n)
	raw.rowMax = growFloats(raw.rowMax, n)
	if n == 0 {
		return raw
	}
	if cond {
		raw.logCond = growFloats(raw.logCond, n*raw.classes*raw.ns)
	}
	raw.quads = growFloats(raw.quads, n*len(e.ordered))
	e.wstack.MahalanobisInto(raw.quads, features)
	j := scoreJobPool.Get().(*scoreJob)
	j.e, j.raw = e, raw
	mat.ParallelFor(n, scoreBatchMinGrain, j.fn)
	j.e, j.raw = nil, nil
	scoreJobPool.Put(j)
	return raw
}

// sliceJob is scoreJob's twin for the rescaling pass of SliceInto.
type sliceJob struct {
	raw *RawScores
	dst *BatchScores
	lo  int
	m   float64
	fn  func(a, b int)
}

var sliceJobPool = sync.Pool{New: func() any {
	j := new(sliceJob)
	j.fn = j.run
	return j
}}

func (j *sliceJob) run(a, b int) {
	r, out, lo, m := j.raw, j.dst, j.lo, j.m
	classes, ns := r.classes, r.ns
	for i := a; i < b; i++ {
		out.G[i] = math.Exp(r.LogG[lo+i] - m)
		if r.cond {
			delta := out.Delta[i]
			for c := 0; c < classes; c++ {
				delta[c] = maxPairwiseGap(r.logCond[((lo+i)*classes+c)*ns:((lo+i)*classes+c+1)*ns], m)
			}
		}
	}
}

// Slice scales rows [lo, hi) onto their own common scale M = max rowMax and
// returns them as a freshly allocated BatchScores; see SliceInto for the
// storage-reusing form.
func (r *RawScores) Slice(lo, hi int) BatchScores {
	var out BatchScores
	r.SliceInto(&out, lo, hi)
	return out
}

// SliceInto scales rows [lo, hi) onto their own common scale M = max rowMax,
// reusing dst's storage (LogG is copied, not aliased, so the RawScores may be
// Released as soon as every slice is taken). The result is bit-identical to
// ScoreBatch over exactly those feature rows: the per-row log values do not
// depend on the rest of the batch, the max reduction is exact, and the
// rescaling arithmetic is the same.
func (r *RawScores) SliceInto(dst *BatchScores, lo, hi int) {
	if r.released {
		panic("gda: RawScores used after Release")
	}
	n := hi - lo
	dst.G = growFloats(dst.G, n)
	dst.LogG = growFloats(dst.LogG, n)
	copy(dst.LogG, r.LogG[lo:hi])
	dst.deltaFlat = growFloats(dst.deltaFlat, n*r.classes)
	if cap(dst.Delta) < n {
		dst.Delta = make([][]float64, n)
	}
	dst.Delta = dst.Delta[:n]
	for i := range dst.Delta {
		dst.Delta[i] = dst.deltaFlat[i*r.classes : (i+1)*r.classes]
	}
	dst.LogScale = 0
	if n == 0 {
		return
	}
	m := math.Inf(-1)
	for _, v := range r.rowMax[lo:hi] {
		if v > m {
			m = v
		}
	}
	if math.IsInf(m, -1) {
		m = 0
	}
	dst.LogScale = m
	j := sliceJobPool.Get().(*sliceJob)
	j.raw, j.dst, j.lo, j.m = r, dst, lo, m
	mat.ParallelFor(n, 4*scoreBatchMinGrain, j.fn)
	j.raw, j.dst = nil, nil
	sliceJobPool.Put(j)
}

// LogDensityBatch returns log g(z_i) for every feature row, sharded across
// the kernel worker pool. Each value is bit-identical to LogDensity on that
// row (same deterministic component order, row-independent), so callers can
// swap serial per-row loops for this without changing a single output bit.
func (e *Estimator) LogDensityBatch(features *mat.Dense) []float64 {
	out := make([]float64, features.Rows)
	e.LogDensityBatchInto(out, features)
	return out
}

// LogDensityBatchInto is LogDensityBatch into caller-owned storage: dst must
// have length features.Rows. It runs ScoreBatchRaw's pooled pass without the
// conditional densities, copies LogG out and releases the pass, so at a fixed
// batch shape the steady state performs no heap allocation. It is not timed
// as a score pass.
func (e *Estimator) LogDensityBatchInto(dst []float64, features *mat.Dense) {
	if len(dst) != features.Rows {
		panic(fmt.Sprintf("gda: dst length %d, want %d rows", len(dst), features.Rows))
	}
	raw := e.rawPass(features, false)
	copy(dst, raw.LogG)
	raw.Release()
}

// maxPairwiseGap returns max_{k,k'} |e^{l_k−m} − e^{l_k'−m}| over the finite
// entries of logs; 0 when fewer than two components are present. Because the
// gap is between the extreme values, it equals e^{max−m} − e^{min−m}.
func maxPairwiseGap(logs []float64, m float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	finite := 0
	for _, l := range logs {
		if math.IsInf(l, -1) {
			continue
		}
		finite++
		if l < lo {
			lo = l
		}
		if l > hi {
			hi = l
		}
	}
	if finite < 2 {
		return 0
	}
	return math.Exp(hi-m) - math.Exp(lo-m)
}
