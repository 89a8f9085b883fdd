package nn

import (
	"math"
	"math/rand"
	"testing"

	"faction/internal/mat"
)

func TestIndividualPenaltyZeroForConsistent(t *testing.T) {
	// Identical logits everywhere: perfectly consistent.
	logits := mat.FromRows([][]float64{{0, 1}, {0, 1}, {0, 1}})
	x := mat.FromRows([][]float64{{0, 0}, {0.1, 0}, {0, 0.1}})
	v, _ := IndividualPenalty(logits, x, 1)
	if v != 0 {
		t.Fatalf("v = %g, want 0", v)
	}
}

func TestIndividualPenaltyPositiveForInconsistent(t *testing.T) {
	// Two nearly identical inputs with opposite predictions.
	logits := mat.FromRows([][]float64{{-5, 5}, {5, -5}})
	x := mat.FromRows([][]float64{{0, 0}, {0.01, 0}})
	v, grad := IndividualPenalty(logits, x, 1)
	if v < 0.9 {
		t.Fatalf("v = %g, want ≈1 for opposite confident predictions", v)
	}
	if grad == nil {
		t.Fatal("expected gradient")
	}
}

func TestIndividualPenaltyDistanceDiscount(t *testing.T) {
	// v is a similarity-weighted average, so a disagreeing sample contributes
	// less as it moves away from the consistent cluster. Points 0 and 1 are a
	// close consistent pair; point 2 disagrees, either nearby or far away.
	logits := mat.FromRows([][]float64{{-2, 2}, {-2, 2}, {2, -2}})
	near := mat.FromRows([][]float64{{0, 0}, {0.1, 0}, {0.2, 0}})
	far := mat.FromRows([][]float64{{0, 0}, {0.1, 0}, {5, 0}})
	vNear, _ := IndividualPenalty(logits, near, 1)
	vFar, _ := IndividualPenalty(logits, far, 1)
	if vNear <= vFar*10 {
		t.Fatalf("near disagreement %g should far outweigh distant %g", vNear, vFar)
	}
}

func TestIndividualPenaltyDegenerateCases(t *testing.T) {
	// Single sample: undefined.
	if v, g := IndividualPenalty(mat.NewDense(1, 2), mat.NewDense(1, 3), 1); v != 0 || g != nil {
		t.Fatal("single sample should be (0, nil)")
	}
	// All pairs far beyond the kernel's reach: weights underflow.
	logits := mat.FromRows([][]float64{{0, 1}, {1, 0}})
	x := mat.FromRows([][]float64{{0, 0}, {1e6, 1e6}})
	if v, g := IndividualPenalty(logits, x, 1); v != 0 || g != nil {
		t.Fatal("unreachable pairs should be (0, nil)")
	}
}

func TestIndividualPenaltyPanics(t *testing.T) {
	mustPanic := func(fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		fn()
	}
	mustPanic(func() { IndividualPenalty(mat.NewDense(2, 2), mat.NewDense(3, 2), 1) })
	mustPanic(func() { IndividualPenalty(mat.NewDense(2, 3), mat.NewDense(2, 2), 1) })
}

// TestIndividualPenaltyGradientCheck verifies the analytic gradient against
// finite differences through a real network.
func TestIndividualPenaltyGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := &Network{Layers: []Layer{
		NewLinear(rng, 2, 5, false, 0),
		NewReLU(),
		NewLinear(rng, 5, 2, false, 0),
	}}
	x := mat.FromRows([][]float64{
		{0.1, 0.2},
		{0.15, 0.25},
		{-0.5, 0.9},
		{1.2, -0.3},
	})
	lossFn := func() float64 {
		logits, _ := net.Infer(x, nil)
		v, _ := IndividualPenalty(logits, x, 0.8)
		return v
	}
	logits := net.Forward(x)
	_, grad := IndividualPenalty(logits, x, 0.8)
	if grad == nil {
		t.Fatal("no gradient")
	}
	net.ZeroGrad()
	net.Backward(grad)
	for _, p := range net.Params() {
		want := numericGrad(p, lossFn)
		for i := range want.Data {
			diff := math.Abs(p.Grad.Data[i] - want.Data[i])
			scale := 1 + math.Abs(want.Data[i])
			if diff/scale > 1e-5 {
				t.Fatalf("%s grad[%d] = %g, numeric %g", p.Name, i, p.Grad.Data[i], want.Data[i])
			}
		}
	}
}

// TestIndividualPenaltyTrainingImprovesConsistency trains with the penalty on
// data where a spurious feature flips predictions for near-identical points,
// and checks the penalized model treats them more consistently.
func TestIndividualPenaltyTrainingImprovesConsistency(t *testing.T) {
	consistency := func(indMu float64) float64 {
		rng := rand.New(rand.NewSource(7))
		n := 240
		x := mat.NewDense(n, 2)
		y := make([]int, n)
		for i := 0; i < n; i++ {
			// Label depends almost entirely on a high-frequency spurious
			// second feature; first feature is the "real" position.
			x.Set(i, 0, rng.NormFloat64())
			spur := float64(i%2)*2 - 1
			x.Set(i, 1, spur*0.05)
			if spur > 0 {
				y[i] = 1
			} else {
				y[i] = 0
			}
		}
		c := NewClassifier(Config{InputDim: 2, NumClasses: 2, Hidden: []int{16}, Seed: 8})
		c.Train(x, y, make([]int, n), NewAdam(0.01), TrainOpts{
			Epochs: 30, BatchSize: 32,
			Fair: FairConfig{IndividualMu: indMu, IndividualSigma: 0.5},
		}, rng)
		logits := c.Logits(x)
		v, _ := IndividualPenalty(logits, x, 0.5)
		return v
	}
	plain := consistency(0)
	penalized := consistency(5)
	if penalized >= plain {
		t.Fatalf("penalized consistency %g should beat plain %g", penalized, plain)
	}
}
