package fairness

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDDPKnown(t *testing.T) {
	// Group +1: rates 1,1 → 1.0; group −1: 0,1 → 0.5. DDP = 0.5.
	pred := []int{1, 1, 0, 1}
	s := []int{1, 1, -1, -1}
	if got := DDP(pred, s); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("DDP = %g, want 0.5", got)
	}
}

func TestDDPPerfectParity(t *testing.T) {
	pred := []int{1, 0, 1, 0}
	s := []int{1, 1, -1, -1}
	if got := DDP(pred, s); got != 0 {
		t.Fatalf("DDP = %g, want 0", got)
	}
}

func TestDDPSingleGroupUndefined(t *testing.T) {
	if DDP([]int{1, 0}, []int{1, 1}) != 0 {
		t.Fatal("single-group DDP should be 0")
	}
}

func TestEODKnownTPRGap(t *testing.T) {
	// Positives: group +1 predicted 1,1 (TPR 1); group −1 predicted 0,1
	// (TPR 0.5). Negatives: both groups predicted 0 (FPR gap 0). EOD = 0.5.
	pred := []int{1, 1, 0, 1, 0, 0}
	y := []int{1, 1, 1, 1, 0, 0}
	s := []int{1, 1, -1, -1, 1, -1}
	if got := EOD(pred, y, s); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("EOD = %g, want 0.5", got)
	}
}

func TestEODTakesMaxOfGaps(t *testing.T) {
	// TPR gap 0; FPR gap 1.
	pred := []int{1, 1, 1, 0}
	y := []int{1, 1, 0, 0}
	s := []int{1, -1, 1, -1}
	if got := EOD(pred, y, s); math.Abs(got-1) > 1e-12 {
		t.Fatalf("EOD = %g, want 1", got)
	}
}

func TestEODEmptyCell(t *testing.T) {
	// No negatives at all: FPR gap contributes 0.
	pred := []int{1, 0}
	y := []int{1, 1}
	s := []int{1, -1}
	if got := EOD(pred, y, s); math.Abs(got-1) > 1e-12 {
		t.Fatalf("EOD = %g, want 1 (TPR gap only)", got)
	}
}

func TestEODNonBinaryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EOD([]int{2}, []int{1}, []int{1})
}

func TestMIIndependence(t *testing.T) {
	// Prediction independent of s.
	pred := []int{1, 0, 1, 0}
	s := []int{1, 1, -1, -1}
	if got := MI(pred, s); got > 1e-12 {
		t.Fatalf("MI = %g, want 0", got)
	}
}

func TestMIPerfectDependence(t *testing.T) {
	// ŷ = 1 iff s = +1, balanced: I = ln 2.
	pred := []int{1, 1, 0, 0}
	s := []int{1, 1, -1, -1}
	if got := MI(pred, s); math.Abs(got-math.Ln2) > 1e-12 {
		t.Fatalf("MI = %g, want ln2", got)
	}
}

func TestMIEmpty(t *testing.T) {
	if MI(nil, nil) != 0 {
		t.Fatal("empty MI should be 0")
	}
}

func TestEvaluate(t *testing.T) {
	pred := []int{1, 0, 1, 1}
	y := []int{1, 0, 0, 1}
	s := []int{1, 1, -1, -1}
	r := Evaluate(pred, y, s)
	if math.Abs(r.Accuracy-0.75) > 1e-12 {
		t.Fatalf("acc = %g", r.Accuracy)
	}
	if r.DDP < 0 || r.EOD < 0 || r.MI < 0 {
		t.Fatal("metrics must be nonnegative")
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DDP([]int{1}, []int{1, -1})
}

// Properties over random binary data: DDP ∈ [0,1], EOD ∈ [0,1],
// MI ∈ [0, ln2], and MI = 0 exactly when DDP = 0 on binary data
// (independence of two binary variables ⟺ equal conditional rates).
func TestMetricBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(60)
		pred := make([]int, n)
		y := make([]int, n)
		s := make([]int, n)
		for i := range pred {
			pred[i] = r.Intn(2)
			y[i] = r.Intn(2)
			s[i] = 2*r.Intn(2) - 1
		}
		ddp := DDP(pred, s)
		eod := EOD(pred, y, s)
		mi := MI(pred, s)
		if ddp < 0 || ddp > 1 || eod < 0 || eod > 1 || mi < 0 || mi > math.Ln2+1e-12 {
			return false
		}
		// Both-groups-present case: MI ≈ 0 ⟺ DDP ≈ 0.
		hasPos, hasNeg := false, false
		for _, v := range s {
			if v == 1 {
				hasPos = true
			} else {
				hasNeg = true
			}
		}
		if hasPos && hasNeg {
			if (ddp < 1e-12) != (mi < 1e-10) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: metrics are invariant to permuting the samples.
func TestPermutationInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(40)
		pred := make([]int, n)
		y := make([]int, n)
		s := make([]int, n)
		for i := range pred {
			pred[i] = r.Intn(2)
			y[i] = r.Intn(2)
			s[i] = 2*r.Intn(2) - 1
		}
		before := Evaluate(pred, y, s)
		perm := r.Perm(n)
		p2 := make([]int, n)
		y2 := make([]int, n)
		s2 := make([]int, n)
		for i, j := range perm {
			p2[i], y2[i], s2[i] = pred[j], y[j], s[j]
		}
		after := Evaluate(p2, y2, s2)
		return before == after
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFlipRate(t *testing.T) {
	if FlipRate([]int{1, 0, 1}, []int{1, 1, 0}) != 2.0/3 {
		t.Fatal("flip rate")
	}
	if FlipRate(nil, nil) != 0 {
		t.Fatal("empty flip rate should be 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	FlipRate([]int{1}, []int{1, 0})
}
