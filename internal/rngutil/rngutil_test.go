package rngutil

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeriveDeterministic(t *testing.T) {
	a := Derive(42, "run", "1")
	b := Derive(42, "run", "1")
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same labels must give identical streams")
		}
	}
}

func TestDeriveDistinct(t *testing.T) {
	a := Derive(42, "run", "1")
	b := Derive(42, "run", "2")
	same := 0
	for i := 0; i < 20; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same == 20 {
		t.Fatal("different labels should give different streams")
	}
}

func TestDeriveLabelBoundary(t *testing.T) {
	// ("ab","c") and ("a","bc") must not collide thanks to separators.
	if DeriveSeed(1, "ab", "c") == DeriveSeed(1, "a", "bc") {
		t.Fatal("label concatenation collision")
	}
}

func TestBernoulliEdges(t *testing.T) {
	rng := New(1)
	for i := 0; i < 100; i++ {
		if Bernoulli(rng, 0) {
			t.Fatal("p=0 must never fire")
		}
		if !Bernoulli(rng, 1) {
			t.Fatal("p=1 must always fire")
		}
		if Bernoulli(rng, -0.5) {
			t.Fatal("negative p must never fire")
		}
		if !Bernoulli(rng, 2) {
			t.Fatal("p>1 must always fire")
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	rng := New(2)
	n, hits := 20000, 0
	for i := 0; i < n; i++ {
		if Bernoulli(rng, 0.3) {
			hits++
		}
	}
	freq := float64(hits) / float64(n)
	if math.Abs(freq-0.3) > 0.02 {
		t.Fatalf("frequency %g, want ≈0.3", freq)
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	rng := New(6)
	idx := SampleWithoutReplacement(rng, 10, 5)
	if len(idx) != 5 {
		t.Fatalf("len = %d", len(idx))
	}
	seen := map[int]bool{}
	for _, i := range idx {
		if i < 0 || i >= 10 || seen[i] {
			t.Fatalf("invalid or duplicate index %d", i)
		}
		seen[i] = true
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	rng := New(7)
	xs := []int{1, 2, 3, 4, 5}
	Shuffle(rng, xs)
	sum := 0
	for _, x := range xs {
		sum += x
	}
	if sum != 15 {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
}

// Property: derived seeds are stable and order-sensitive.
func TestDeriveSeedProperty(t *testing.T) {
	f := func(seed int64, a, b string) bool {
		if DeriveSeed(seed, a, b) != DeriveSeed(seed, a, b) {
			return false
		}
		if a != b && DeriveSeed(seed, a, b) == DeriveSeed(seed, b, a) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleWithoutReplacementPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SampleWithoutReplacement(New(1), 3, 5)
}
