package nn

import (
	"math"
	"math/rand"
	"testing"

	"faction/internal/mat"
)

// separableData builds a linearly separable binary problem where the sensitive
// attribute s correlates with the label at the given rate (0.5 = no bias).
func separableData(rng *rand.Rand, n int, bias float64) (x *mat.Dense, y, s []int) {
	x = mat.NewDense(n, 2)
	y = make([]int, n)
	s = make([]int, n)
	for i := 0; i < n; i++ {
		yi := rng.Intn(2)
		y[i] = yi
		cx := -2.0
		if yi == 1 {
			cx = 2.0
		}
		x.Set(i, 0, cx+rng.NormFloat64()*0.5)
		x.Set(i, 1, rng.NormFloat64()*0.5)
		if rng.Float64() < bias {
			s[i] = 2*yi - 1 // aligned with label
		} else {
			s[i] = 1 - 2*yi
		}
	}
	return x, y, s
}

func TestClassifierLearnsSeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y, _ := separableData(rng, 200, 0.5)
	c := NewClassifier(Config{InputDim: 2, NumClasses: 2, Hidden: []int{16}, Seed: 7})
	opt := NewSGD(0.1, 0.9, 0)
	stats := c.Train(x, y, nil, opt, TrainOpts{Epochs: 30, BatchSize: 32}, rng)
	if stats.Accuracy < 0.97 {
		t.Fatalf("train accuracy %g, want ≥ 0.97", stats.Accuracy)
	}
}

func TestClassifierLogisticRegressionConfig(t *testing.T) {
	c := NewClassifier(Config{InputDim: 3, NumClasses: 2, Seed: 1})
	if c.FeatureDim() != 2 {
		t.Fatalf("linear model feature dim = %d, want logits dim 2", c.FeatureDim())
	}
	x := mat.NewDense(4, 3)
	logits, feats := c.LogitsAndFeatures(x, nil)
	if feats != logits {
		t.Fatal("linear model features should be the logits themselves")
	}
}

func TestClassifierProbsSumToOne(t *testing.T) {
	c := NewClassifier(Config{InputDim: 4, NumClasses: 3, Hidden: []int{8}, Seed: 2})
	rng := rand.New(rand.NewSource(3))
	x := mat.NewDense(5, 4)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	p := c.Probs(x)
	for i := 0; i < p.Rows; i++ {
		if math.Abs(mat.SumVec(p.Row(i))-1) > 1e-9 {
			t.Fatalf("row %d sums to %g", i, mat.SumVec(p.Row(i)))
		}
	}
}

func TestClassifierFeatureDim(t *testing.T) {
	c := NewClassifier(Config{InputDim: 10, NumClasses: 2, Hidden: []int{32, 16}, Seed: 4})
	if c.FeatureDim() != 32 {
		t.Fatalf("feature dim = %d, want first hidden width 32", c.FeatureDim())
	}
	f := c.Features(mat.NewDense(3, 10))
	if f.Rows != 3 || f.Cols != 32 {
		t.Fatalf("features %dx%d", f.Rows, f.Cols)
	}
}

func TestClassifierCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, y, _ := separableData(rng, 50, 0.5)
	a := NewClassifier(Config{InputDim: 2, NumClasses: 2, Hidden: []int{8}, Seed: 6})
	b := a.Clone()
	// Same initial predictions.
	pa := a.Logits(x)
	pb := b.Logits(x)
	for i := range pa.Data {
		if pa.Data[i] != pb.Data[i] {
			t.Fatal("clone differs before training")
		}
	}
	// Training the clone must not affect the original.
	b.Train(x, y, nil, NewSGD(0.1, 0, 0), TrainOpts{Epochs: 5, BatchSize: 16}, rng)
	pa2 := a.Logits(x)
	for i := range pa.Data {
		if pa.Data[i] != pa2.Data[i] {
			t.Fatal("training the clone mutated the original")
		}
	}
}

func TestClassifierFairnessRegularizationReducesGap(t *testing.T) {
	// Strongly biased data: sensitive attribute nearly determines the label.
	// With the DDP regularizer active, the demographic-parity gap of the
	// trained model must be smaller than without it.
	gap := func(mu float64, seed int64) float64 {
		rng := rand.New(rand.NewSource(seed))
		x, y, s := separableData(rng, 400, 0.95)
		// Append the sensitive attribute as an input feature so the model can
		// exploit (or suppress) it.
		xs := mat.NewDense(x.Rows, 3)
		for i := 0; i < x.Rows; i++ {
			copy(xs.Row(i), x.Row(i))
			xs.Set(i, 2, float64(s[i]))
		}
		c := NewClassifier(Config{InputDim: 3, NumClasses: 2, Hidden: []int{16}, Seed: seed})
		c.Train(xs, y, s, NewSGD(0.05, 0.9, 0), TrainOpts{
			Epochs: 40, BatchSize: 64,
			Fair: FairConfig{Mu: mu, Eps: 0},
		}, rng)
		pred := c.PredictClasses(xs)
		var pos, neg, nPos, nNeg float64
		for i, p := range pred {
			if s[i] == 1 {
				nPos++
				pos += float64(p)
			} else {
				nNeg++
				neg += float64(p)
			}
		}
		return math.Abs(pos/nPos - neg/nNeg)
	}
	unfair := gap(0, 11)
	fair := gap(3, 11)
	if fair >= unfair {
		t.Fatalf("regularized DDP gap %g should be below unregularized %g", fair, unfair)
	}
}

func TestTrainEmptyAndZeroEpochs(t *testing.T) {
	c := NewClassifier(Config{InputDim: 2, NumClasses: 2, Hidden: []int{4}, Seed: 8})
	rng := rand.New(rand.NewSource(9))
	stats := c.Train(mat.NewDense(0, 2), nil, nil, NewSGD(0.1, 0, 0), TrainOpts{Epochs: 3}, rng)
	if stats.Batches != 0 {
		t.Fatal("empty training set should be a no-op")
	}
	x := mat.NewDense(2, 2)
	stats = c.Train(x, []int{0, 1}, nil, NewSGD(0.1, 0, 0), TrainOpts{Epochs: 0}, rng)
	if stats.Batches != 0 {
		t.Fatal("zero epochs should be a no-op")
	}
}

func TestTrainLabelMismatchPanics(t *testing.T) {
	c := NewClassifier(Config{InputDim: 2, NumClasses: 2, Hidden: []int{4}, Seed: 10})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Train(mat.NewDense(3, 2), []int{0}, nil, NewSGD(0.1, 0, 0), TrainOpts{Epochs: 1}, rand.New(rand.NewSource(1)))
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewClassifier(Config{InputDim: 0, NumClasses: 2})
}

func TestSpectralClassifierTrains(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x, y, _ := separableData(rng, 200, 0.5)
	c := NewClassifier(Config{
		InputDim: 2, NumClasses: 2, Hidden: []int{32},
		SpectralNorm: true, SpectralCoeff: 3, Seed: 13,
	})
	stats := c.Train(x, y, nil, NewAdam(0.01), TrainOpts{Epochs: 40, BatchSize: 32}, rng)
	if stats.Accuracy < 0.95 {
		t.Fatalf("spectral-norm classifier accuracy %g, want ≥ 0.95", stats.Accuracy)
	}
}
