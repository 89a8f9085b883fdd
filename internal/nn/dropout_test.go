package nn

import (
	"math"
	"math/rand"
	"testing"

	"faction/internal/mat"
)

func TestDropoutEvalIsIdentity(t *testing.T) {
	d := NewDropout(rand.New(rand.NewSource(1)), 0.5)
	x := mat.FromRows([][]float64{{1, 2, 3}})
	out := d.Infer(x, nil)
	for i := range x.Data {
		if out.Data[i] != x.Data[i] {
			t.Fatal("eval-mode dropout must be identity")
		}
	}
	// Backward after identity forward passes gradients through.
	g := mat.FromRows([][]float64{{1, 1, 1}})
	back := d.Backward(g)
	for i := range g.Data {
		if back.Data[i] != g.Data[i] {
			t.Fatal("identity backward")
		}
	}
}

func TestDropoutTrainMasksAndScales(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := NewDropout(rng, 0.5)
	x := mat.NewDense(1, 10000)
	for i := range x.Data {
		x.Data[i] = 1
	}
	out := d.Forward(x)
	zeros, twos := 0, 0
	for _, v := range out.Data {
		switch v {
		case 0:
			zeros++
		case 2: // 1/(1−0.5)
			twos++
		default:
			t.Fatalf("unexpected activation %g", v)
		}
	}
	frac := float64(zeros) / float64(len(out.Data))
	if math.Abs(frac-0.5) > 0.03 {
		t.Fatalf("dropped fraction %g, want ≈0.5", frac)
	}
	if zeros+twos != len(out.Data) {
		t.Fatal("mask accounting")
	}
	// Expected value preserved (inverted dropout).
	mean := mat.MeanVec(out.Data)
	if math.Abs(mean-1) > 0.05 {
		t.Fatalf("mean activation %g, want ≈1", mean)
	}
}

func TestDropoutBackwardMatchesMask(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := NewDropout(rng, 0.3)
	x := mat.NewDense(2, 8)
	for i := range x.Data {
		x.Data[i] = 1
	}
	out := d.Forward(x)
	g := mat.NewDense(2, 8)
	for i := range g.Data {
		g.Data[i] = 1
	}
	back := d.Backward(g)
	for i := range out.Data {
		if (out.Data[i] == 0) != (back.Data[i] == 0) {
			t.Fatal("gradient mask must match forward mask")
		}
	}
}

func TestDropoutRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDropout(rand.New(rand.NewSource(4)), 1.0)
}

func TestDropoutClassifierTrains(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, y, _ := separableData(rng, 300, 0.5)
	c := NewClassifier(Config{
		InputDim: 2, NumClasses: 2, Hidden: []int{32},
		DropoutRate: 0.2, Seed: 6,
	})
	c.Train(x, y, nil, NewAdam(0.01), TrainOpts{Epochs: 40, BatchSize: 32}, rng)
	if acc := Accuracy(c.Logits(x), y); acc < 0.93 {
		t.Fatalf("dropout classifier accuracy %.3f", acc)
	}
	// Eval-mode predictions are deterministic.
	a := c.Logits(x)
	b := c.Logits(x)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("eval-mode forward must be deterministic")
		}
	}
}

func TestProbsMCRequiresDropout(t *testing.T) {
	c := NewClassifier(Config{InputDim: 2, NumClasses: 2, Hidden: []int{4}, Seed: 7})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic without dropout")
		}
	}()
	c.ProbsMC(mat.NewDense(1, 2), 5)
}

func TestProbsMCBALDSeparatesCertainFromUncertain(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x, y, _ := separableData(rng, 400, 0.5)
	c := NewClassifier(Config{
		InputDim: 2, NumClasses: 2, Hidden: []int{32},
		DropoutRate: 0.3, Seed: 9,
	})
	c.Train(x, y, nil, NewAdam(0.01), TrainOpts{Epochs: 40, BatchSize: 32}, rng)
	// Probe: deep inside class 1 (certain) vs on the boundary (uncertain).
	probe := mat.FromRows([][]float64{{4, 0}, {0, 0}})
	probs, bald := c.ProbsMC(probe, 40)
	if probs.Rows != 2 || len(bald) != 2 {
		t.Fatal("shape")
	}
	for i := 0; i < probs.Rows; i++ {
		if math.Abs(mat.SumVec(probs.Row(i))-1) > 1e-9 {
			t.Fatalf("MC probs row %d sums to %g", i, mat.SumVec(probs.Row(i)))
		}
	}
	for _, v := range bald {
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("BALD must be nonnegative, got %v", bald)
		}
	}
	if bald[1] <= bald[0] {
		t.Fatalf("boundary BALD %g should exceed confident-region BALD %g", bald[1], bald[0])
	}
}

func TestDropoutForceActiveRestored(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x, y, _ := separableData(rng, 100, 0.5)
	c := NewClassifier(Config{InputDim: 2, NumClasses: 2, Hidden: []int{8}, DropoutRate: 0.4, Seed: 11})
	c.Train(x, y, nil, NewAdam(0.01), TrainOpts{Epochs: 5, BatchSize: 32}, rng)
	c.ProbsMC(x, 3)
	// After MC inference, eval forward must be deterministic again.
	a := c.Logits(x)
	b := c.Logits(x)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("ForceActive leaked out of ProbsMC")
		}
	}
}
