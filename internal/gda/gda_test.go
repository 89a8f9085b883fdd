package gda

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"faction/internal/mat"
)

// clusters builds a 2-class × 2-group dataset with well-separated Gaussian
// clusters centered at (±c, ±c).
func clusters(rng *rand.Rand, nPer int, c float64) (f *mat.Dense, y, s []int, centers map[[2]int][2]float64) {
	centers = map[[2]int][2]float64{
		{0, -1}: {-c, -c},
		{0, 1}:  {-c, c},
		{1, -1}: {c, -c},
		{1, 1}:  {c, c},
	}
	n := 4 * nPer
	f = mat.NewDense(n, 2)
	y = make([]int, n)
	s = make([]int, n)
	i := 0
	for key, ctr := range centers {
		for k := 0; k < nPer; k++ {
			f.Set(i, 0, ctr[0]+rng.NormFloat64()*0.3)
			f.Set(i, 1, ctr[1]+rng.NormFloat64()*0.3)
			y[i] = key[0]
			s[i] = key[1]
			i++
		}
	}
	return f, y, s, centers
}

func TestFitComponentMeansAndWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f, y, s, centers := clusters(rng, 100, 4)
	e, err := Fit(f, y, s, 2, []int{-1, 1}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if e.NumComponents() != 4 {
		t.Fatalf("components = %d", e.NumComponents())
	}
	for key, ctr := range centers {
		comp := e.Component(key[0], key[1])
		if comp == nil {
			t.Fatalf("missing component %v", key)
		}
		if math.Abs(comp.Mean[0]-ctr[0]) > 0.15 || math.Abs(comp.Mean[1]-ctr[1]) > 0.15 {
			t.Fatalf("component %v mean %v, want ≈%v", key, comp.Mean, ctr)
		}
		if math.Abs(comp.Weight-0.25) > 1e-12 {
			t.Fatalf("component %v weight %g, want 0.25", key, comp.Weight)
		}
		if comp.Degenerate {
			t.Fatalf("component %v should not be degenerate with 100 samples", key)
		}
	}
}

func TestLogDensityEpistemicBehaviour(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f, y, s, _ := clusters(rng, 100, 4)
	e, err := Fit(f, y, s, 2, []int{-1, 1}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	inDist := e.LogDensity([]float64{4, 4})     // a training cluster center
	outDist := e.LogDensity([]float64{40, -40}) // far away
	if inDist <= outDist {
		t.Fatalf("in-distribution density %g should exceed OOD %g", inDist, outDist)
	}
}

func TestLogDensitySingleComponentKnown(t *testing.T) {
	// Many samples from N(0, I): log g(0) ≈ −(d/2)·log(2π·σ̂²) with σ̂ ≈ 1.
	rng := rand.New(rand.NewSource(3))
	n, d := 5000, 2
	f := mat.NewDense(n, d)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	y := make([]int, n)
	s := make([]int, n)
	e, err := Fit(f, y, s, 1, []int{0}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got := e.LogDensity([]float64{0, 0})
	want := -float64(d) / 2 * math.Log(2*math.Pi)
	if math.Abs(got-want) > 0.1 {
		t.Fatalf("log density at mean = %g, want ≈ %g", got, want)
	}
}

func TestLogDensityMonotoneAlongRay(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 500
	f := mat.NewDense(n, 2)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	e, err := FitClassOnly(f, make([]int, n), 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for r := 0.0; r <= 10; r += 0.5 {
		ld := e.LogDensity([]float64{r, r})
		if ld >= prev {
			t.Fatalf("density not decreasing along ray at r=%g", r)
		}
		prev = ld
	}
}

func TestDeltaGFairVsUnfairSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f, y, s, _ := clusters(rng, 200, 3)
	e, err := Fit(f, y, s, 2, []int{-1, 1}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Class-1 components sit at (3,−3) and (3,3). A point equidistant between
	// them, (3,0), is "fair"; a point at one center, (3,3), is "unfair".
	probe := mat.FromRows([][]float64{{3, 0}, {3, 3}})
	scores := e.ScoreBatch(probe)
	fair := scores.Delta[0][1]
	unfair := scores.Delta[1][1]
	if fair >= unfair {
		t.Fatalf("Δg₁(fair)=%g should be below Δg₁(unfair)=%g", fair, unfair)
	}
}

func TestFitClassOnlyHasNoFairnessSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f, y, _, _ := clusters(rng, 50, 3)
	e, err := FitClassOnly(f, y, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if e.NumComponents() != 2 {
		t.Fatalf("components = %d, want 2", e.NumComponents())
	}
	scores := e.ScoreBatch(f)
	for i := range scores.Delta {
		for c := range scores.Delta[i] {
			if scores.Delta[i][c] != 0 {
				t.Fatal("class-only estimator must have zero Δg")
			}
		}
	}
}

func TestMissingGroupComponentGivesZeroDelta(t *testing.T) {
	// Class 1 has only s=+1 samples: Δg₁ must be 0 (no signal), Δg₀ nonzero.
	rng := rand.New(rand.NewSource(7))
	n := 300
	f := mat.NewDense(n, 2)
	y := make([]int, n)
	s := make([]int, n)
	for i := 0; i < n; i++ {
		switch {
		case i < 100:
			y[i], s[i] = 0, -1
			f.Set(i, 0, -3+rng.NormFloat64()*0.3)
			f.Set(i, 1, -3+rng.NormFloat64()*0.3)
		case i < 200:
			y[i], s[i] = 0, 1
			f.Set(i, 0, -3+rng.NormFloat64()*0.3)
			f.Set(i, 1, 3+rng.NormFloat64()*0.3)
		default:
			y[i], s[i] = 1, 1
			f.Set(i, 0, 3+rng.NormFloat64()*0.3)
			f.Set(i, 1, 3+rng.NormFloat64()*0.3)
		}
	}
	e, err := Fit(f, y, s, 2, []int{-1, 1}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Component(1, -1) != nil {
		t.Fatal("component (1,-1) should be absent")
	}
	if !math.IsInf(e.LogCondDensity([]float64{0, 0}, 1, -1), -1) {
		t.Fatal("missing component density should be -Inf")
	}
	scores := e.ScoreBatch(mat.FromRows([][]float64{{-3, -3}}))
	if scores.Delta[0][1] != 0 {
		t.Fatalf("Δg₁ = %g, want 0 for missing component", scores.Delta[0][1])
	}
	if scores.Delta[0][0] == 0 {
		t.Fatal("Δg₀ should be nonzero at a group-specific center")
	}
}

func TestDegenerateComponentFallsBack(t *testing.T) {
	// One (y,s) cell has a single sample: it must be flagged and usable.
	f := mat.FromRows([][]float64{
		{0, 0}, {0.1, 0}, {0, 0.1}, {1, 1}, {1.1, 1}, {1, 1.1},
		{5, 5},
	})
	y := []int{0, 0, 0, 1, 1, 1, 1}
	s := []int{1, 1, 1, 1, 1, 1, -1}
	e, err := Fit(f, y, s, 2, []int{-1, 1}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	comp := e.Component(1, -1)
	if comp == nil || !comp.Degenerate {
		t.Fatalf("component (1,-1) = %+v, want degenerate", comp)
	}
	// Density must still be finite.
	if math.IsInf(e.LogDensity([]float64{0, 0}), 0) {
		t.Fatal("density should be finite with degenerate components")
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(mat.NewDense(0, 2), nil, nil, 2, []int{-1, 1}, Config{}); !errors.Is(err, ErrNoData) {
		t.Fatalf("err = %v, want ErrNoData", err)
	}
	f := mat.NewDense(1, 2)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("bad label", func() { Fit(f, []int{5}, []int{1}, 2, []int{-1, 1}, Config{}) })          //nolint:errcheck
	mustPanic("bad sensitive", func() { Fit(f, []int{0}, []int{3}, 2, []int{-1, 1}, Config{}) })      //nolint:errcheck
	mustPanic("dup sensitive", func() { Fit(f, []int{0}, []int{1}, 2, []int{1, 1}, Config{}) })       //nolint:errcheck
	mustPanic("length mismatch", func() { Fit(f, []int{0, 1}, []int{1}, 2, []int{-1, 1}, Config{}) }) //nolint:errcheck
	mustPanic("wrong dim query", func() { e, _ := simpleEstimator(t); e.LogDensity([]float64{1}) })   //nolint:errcheck
	mustPanic("zero classes", func() { Fit(f, []int{0}, []int{1}, 0, []int{1}, Config{}) })           //nolint:errcheck
}

// TestFitErrorNamesFirstFailingComponent: with NaN rows in (0,−1) and
// (1,−1), both components fail to factorize, and Fit reports the first in
// (Y, S) order on every run.
func TestFitErrorNamesFirstFailingComponent(t *testing.T) {
	nan := math.NaN()
	f := mat.FromRows([][]float64{
		{nan, 0}, {0, 1}, {1, 0}, // (0, −1)
		{0, 0}, {0, 1}, {1, 0}, // (0, +1)
		{nan, 0}, {2, 1}, {3, 0}, // (1, −1)
		{2, 0}, {2, 1}, {3, 0}, // (1, +1)
	})
	y := []int{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1}
	s := []int{-1, -1, -1, 1, 1, 1, -1, -1, -1, 1, 1, 1}
	for run := 0; run < 20; run++ {
		_, err := Fit(f, y, s, 2, []int{-1, 1}, Config{})
		if err == nil || !strings.Contains(err.Error(), "component (y=0,s=-1)") {
			t.Fatalf("run %d: err = %v, want it to name component (y=0,s=-1)", run, err)
		}
	}
}

func simpleEstimator(t *testing.T) (*Estimator, error) {
	t.Helper()
	rng := rand.New(rand.NewSource(8))
	f, y, s, _ := clusters(rng, 20, 2)
	return Fit(f, y, s, 2, []int{-1, 1}, Config{})
}

func TestScoreBatchEmpty(t *testing.T) {
	e, err := simpleEstimator(t)
	if err != nil {
		t.Fatal(err)
	}
	scores := e.ScoreBatch(mat.NewDense(0, 2))
	if len(scores.G) != 0 || len(scores.Delta) != 0 {
		t.Fatal("empty batch should give empty scores")
	}
}

// Property: batch scores are nonnegative and finite, with max relative
// density ≤ 1 by construction of the shared scale.
func TestScoreBatchBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f, y, s, _ := clusters(rng, 60, 3)
	e, err := Fit(f, y, s, 2, []int{-1, 1}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		probe := mat.NewDense(n, 2)
		for i := range probe.Data {
			probe.Data[i] = r.NormFloat64() * 8
		}
		sc := e.ScoreBatch(probe)
		for i := 0; i < n; i++ {
			if sc.G[i] < 0 || math.IsNaN(sc.G[i]) || math.IsInf(sc.G[i], 0) {
				return false
			}
			for _, dlt := range sc.Delta[i] {
				if dlt < 0 || math.IsNaN(dlt) || math.IsInf(dlt, 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: ScoreBatch ordering of G matches LogDensity ordering (the shared
// scale is order-preserving).
func TestScoreBatchOrderConsistencyProperty(t *testing.T) {
	e, err := simpleEstimator(t)
	if err != nil {
		t.Fatal(err)
	}
	f := func(x0, x1, w0, w1 float64) bool {
		if math.IsNaN(x0) || math.IsNaN(x1) || math.IsNaN(w0) || math.IsNaN(w1) {
			return true
		}
		clamp := func(v float64) float64 { return math.Max(-50, math.Min(50, v)) }
		a := []float64{clamp(x0), clamp(x1)}
		b := []float64{clamp(w0), clamp(w1)}
		probe := mat.FromRows([][]float64{a, b})
		sc := e.ScoreBatch(probe)
		la, lb := e.LogDensity(a), e.LogDensity(b)
		if la > lb {
			return sc.G[0] >= sc.G[1]
		}
		return sc.G[0] <= sc.G[1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFit4Comp64d(b *testing.B) { benchmarkFit4Comp(b, 500, 64) }

// BenchmarkFit4Comp512d fits at the paper's hidden width with protocol-paper's
// middle labelled count: about 75 rows per component, so every component
// covariance is rank-deficient and leans on the ridge.
func BenchmarkFit4Comp512d(b *testing.B) { benchmarkFit4Comp(b, 300, 512) }

func benchmarkFit4Comp(b *testing.B, n, d int) {
	rng := rand.New(rand.NewSource(10))
	f := mat.NewDense(n, d)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	y := make([]int, n)
	s := make([]int, n)
	for i := range y {
		y[i] = rng.Intn(2)
		s[i] = 2*rng.Intn(2) - 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(f, y, s, 2, []int{-1, 1}, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScoreBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	n, d := 500, 64
	f := mat.NewDense(n, d)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	y := make([]int, n)
	s := make([]int, n)
	for i := range y {
		y[i] = rng.Intn(2)
		s[i] = 2*rng.Intn(2) - 1
	}
	e, err := Fit(f, y, s, 2, []int{-1, 1}, Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScoreBatch(f)
	}
}

// TestMultiGroupDelta exercises the multi-valued sensitive extension: with
// three groups, Δg must be the worst-case pairwise gap and must vanish where
// all group components agree.
func TestMultiGroupDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	// One class, three groups at x = -4, 0, +4.
	n := 300
	f := mat.NewDense(n, 2)
	y := make([]int, n)
	s := make([]int, n)
	for i := 0; i < n; i++ {
		g := i % 3
		s[i] = g
		f.Set(i, 0, float64(g-1)*4+rng.NormFloat64()*0.3)
		f.Set(i, 1, rng.NormFloat64()*0.3)
	}
	e, err := Fit(f, y, s, 1, []int{0, 1, 2}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if e.NumComponents() != 3 {
		t.Fatalf("components = %d", e.NumComponents())
	}
	// Probe at group 1's center: very typical of group 1, atypical of the
	// others → large Δg. Probe far away: all densities ≈ 0 → small Δg.
	probes := mat.FromRows([][]float64{{0, 0}, {100, 100}})
	sc := e.ScoreBatch(probes)
	if sc.Delta[0][0] <= sc.Delta[1][0] {
		t.Fatalf("group-center Δg %g should exceed far-away Δg %g", sc.Delta[0][0], sc.Delta[1][0])
	}
}

// TestMultiGroupDeltaEqualsExtremes: the generalized Δg must equal the gap
// between the extreme group densities.
func TestMultiGroupDeltaEqualsExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := 300
	f := mat.NewDense(n, 2)
	y := make([]int, n)
	s := make([]int, n)
	for i := 0; i < n; i++ {
		g := i % 3
		s[i] = g
		f.Set(i, 0, float64(g)*2+rng.NormFloat64()*0.4)
		f.Set(i, 1, rng.NormFloat64()*0.4)
	}
	e, err := Fit(f, y, s, 1, []int{0, 1, 2}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	probe := mat.FromRows([][]float64{{1, 0}})
	sc := e.ScoreBatch(probe)
	z := probe.Row(0)
	m := sc.LogScale
	ds := make([]float64, 3)
	for g := 0; g < 3; g++ {
		ds[g] = math.Exp(e.LogCondDensity(z, 0, g) - m)
	}
	lo, hi := ds[0], ds[0]
	for _, v := range ds[1:] {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if math.Abs(sc.Delta[0][0]-(hi-lo)) > 1e-12 {
		t.Fatalf("Δg = %g, want extreme gap %g", sc.Delta[0][0], hi-lo)
	}
}

// Property: fitting on a dataset duplicated k times leaves means, weights
// and densities unchanged (sufficient statistics are sample averages).
func TestFitDuplicationInvarianceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	f, y, s, _ := clusters(rng, 30, 3)
	dup := mat.NewDense(f.Rows*2, f.Cols)
	dupY := make([]int, f.Rows*2)
	dupS := make([]int, f.Rows*2)
	for i := 0; i < f.Rows; i++ {
		copy(dup.Row(i), f.Row(i))
		copy(dup.Row(i+f.Rows), f.Row(i))
		dupY[i], dupY[i+f.Rows] = y[i], y[i]
		dupS[i], dupS[i+f.Rows] = s[i], s[i]
	}
	a, err := Fit(f, y, s, 2, []int{-1, 1}, Config{Shrinkage: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fit(dup, dupY, dupS, 2, []int{-1, 1}, Config{Shrinkage: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{1, -1}
	if math.Abs(a.LogDensity(probe)-b.LogDensity(probe)) > 1e-9 {
		t.Fatalf("duplication changed density: %g vs %g", a.LogDensity(probe), b.LogDensity(probe))
	}
	for _, yv := range []int{0, 1} {
		for _, sv := range []int{-1, 1} {
			ca, cb := a.Component(yv, sv), b.Component(yv, sv)
			if math.Abs(ca.Weight-cb.Weight) > 1e-12 {
				t.Fatal("weights changed under duplication")
			}
			for d := range ca.Mean {
				if math.Abs(ca.Mean[d]-cb.Mean[d]) > 1e-12 {
					t.Fatal("means changed under duplication")
				}
			}
		}
	}
}
