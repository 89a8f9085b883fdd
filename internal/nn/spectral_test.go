package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"faction/internal/mat"
)

func TestSpectralNormEstimateDiagonal(t *testing.T) {
	// Diagonal matrix: the spectral norm is the largest |diagonal| entry.
	w := mat.FromRows([][]float64{{3, 0, 0}, {0, 7, 0}, {0, 0, 2}})
	rng := rand.New(rand.NewSource(1))
	got := SpectralNormEstimate(rng, w, 50)
	if math.Abs(got-7) > 1e-6 {
		t.Fatalf("sigma = %g, want 7", got)
	}
}

func TestSpectralNormEstimateRankOne(t *testing.T) {
	// w = u·vᵀ with ‖u‖=5, ‖v‖=2 has spectral norm 10.
	w := mat.FromRows([][]float64{{3 * 2, 0}, {4 * 2, 0}})
	rng := rand.New(rand.NewSource(2))
	got := SpectralNormEstimate(rng, w, 50)
	if math.Abs(got-10) > 1e-6 {
		t.Fatalf("sigma = %g, want 10", got)
	}
}

func TestSpectralScaleIdentityWhenContractive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	st := newSpectralState(rng, 2, 2, 1)
	w := mat.FromRows([][]float64{{0.5, 0}, {0, 0.3}}) // σ = 0.5 ≤ 1
	for i := 0; i < 20; i++ {
		if sc := st.scale(w, true); sc != 1 {
			t.Fatalf("scale = %g, want 1 for contractive weight", sc)
		}
	}
}

func TestSpectralScaleCapsNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	st := newSpectralState(rng, 2, 2, 1)
	w := mat.FromRows([][]float64{{4, 0}, {0, 1}}) // σ = 4
	var sc float64
	for i := 0; i < 50; i++ {
		sc = st.scale(w, true)
	}
	if math.Abs(sc-0.25) > 1e-6 {
		t.Fatalf("scale = %g, want 0.25", sc)
	}
	// Effective spectral norm after scaling is the cap.
	eff := w.Clone()
	eff.Scale(sc)
	rng2 := rand.New(rand.NewSource(5))
	if got := SpectralNormEstimate(rng2, eff, 50); math.Abs(got-1) > 1e-6 {
		t.Fatalf("effective sigma = %g, want 1", got)
	}
}

func TestSpectralZeroWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	st := newSpectralState(rng, 3, 3, 1)
	w := mat.NewDense(3, 3)
	if sc := st.scale(w, true); sc != 1 {
		t.Fatalf("scale on zero weight = %g, want 1", sc)
	}
}

// Property: after repeated power iterations, scaling by the returned factor
// yields an operator with spectral norm ≤ coeff (up to tolerance), i.e. the
// spectrally-normalized linear layer is coeff-Lipschitz.
func TestSpectralLipschitzProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := 2 + r.Intn(6)
		out := 2 + r.Intn(6)
		w := mat.NewDense(in, out)
		for i := range w.Data {
			w.Data[i] = r.NormFloat64() * 3
		}
		coeff := 0.5 + r.Float64()*2
		st := newSpectralState(r, in, out, coeff)
		var sc float64
		for i := 0; i < 60; i++ {
			sc = st.scale(w, true)
		}
		eff := w.Clone()
		eff.Scale(sc)
		sigma := SpectralNormEstimate(rand.New(rand.NewSource(seed+1)), eff, 60)
		return sigma <= coeff*1.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestFreshLinearSpectralNormalizesAtInference: a never-trained spectral
// layer must already serve normalized — σ is seeded by one power iteration
// at construction, so inference-before-train does not silently run with
// scale 1.
func TestFreshLinearSpectralNormalizesAtInference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	coeff := 0.05 // far below any He-initialized σ, forcing scale < 1
	l := NewLinear(rng, 16, 16, true, coeff)
	sigma := l.sn.Sigma()
	if sigma <= coeff {
		t.Fatalf("construction σ = %g, want a real estimate above the %g cap", sigma, coeff)
	}
	x := mat.NewDense(1, 16)
	for j := range x.Row(0) {
		x.Row(0)[j] = rng.NormFloat64()
	}
	out := l.Infer(x, nil)
	raw := mat.Mul(x, l.W.Value)
	scale := coeff / sigma
	b := l.B.Value.Row(0)
	for j, v := range out.Row(0) {
		want := raw.Row(0)[j]*scale + b[j]
		if math.Abs(v-want) > 1e-12 {
			t.Fatalf("inference output %d = %g, want normalized %g", j, v, want)
		}
	}
}

func TestSpectralLinearLayerBoundsOutputs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := NewLinear(rng, 4, 4, true, 1)
	// Inflate the raw weights.
	l.W.Value.Scale(10)
	x1 := mat.FromRows([][]float64{{1, 2, 3, 4}})
	x2 := mat.FromRows([][]float64{{0, 2, 3, 4}})
	// Warm up the power iteration.
	for i := 0; i < 50; i++ {
		l.Forward(x1)
	}
	o1 := l.Infer(x1, nil)
	o2 := l.Infer(x2, nil)
	dOut := mat.Norm2(mat.SubVec(o1.Row(0), o2.Row(0)))
	dIn := mat.Norm2(mat.SubVec(x1.Row(0), x2.Row(0)))
	if dOut > dIn*1.02 {
		t.Fatalf("spectral-normalized layer expanded distance: %g > %g", dOut, dIn)
	}
}
