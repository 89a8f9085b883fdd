package fairness

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestGroupThresholdsApply(t *testing.T) {
	g := GroupThresholds{Pos: 0.7, Neg: 0.3}
	scores := []float64{0.5, 0.5, 0.8, 0.2}
	s := []int{1, -1, 1, -1}
	pred := g.Apply(scores, s)
	want := []int{0, 1, 1, 0}
	for i := range want {
		if pred[i] != want[i] {
			t.Fatalf("pred = %v, want %v", pred, want)
		}
	}
}

func TestGroupThresholdsApplyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	GroupThresholds{}.Apply([]float64{0.5}, []int{1, -1})
}

// TestFitThresholdsReducesDDP constructs a biased scorer: group +1 gets a
// score boost irrelevant to the label. A shared threshold then over-predicts
// positives for group +1; fitted group thresholds must cancel the boost.
func TestFitThresholdsReducesDDP(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 600
	scores := make([]float64, n)
	y := make([]int, n)
	s := make([]int, n)
	for i := 0; i < n; i++ {
		y[i] = rng.Intn(2)
		s[i] = 2*rng.Intn(2) - 1
		base := 0.25 + 0.5*float64(y[i]) + rng.NormFloat64()*0.08
		if s[i] == 1 {
			base += 0.25 // the bias: group +1 scores systematically higher
		}
		scores[i] = math.Max(0, math.Min(1, base))
	}
	// Shared-threshold baseline at 0.5.
	sharedPred := GroupThresholds{Pos: 0.5, Neg: 0.5}.Apply(scores, s)
	sharedRep := Evaluate(sharedPred, y, s)
	if sharedRep.DDP < 0.2 {
		t.Fatalf("test setup: shared-threshold DDP %.3f should be large", sharedRep.DDP)
	}

	g, rep := FitThresholds(scores, y, s, 0.05)
	if rep.DDP >= sharedRep.DDP/2 {
		t.Fatalf("fitted DDP %.3f should at least halve the shared %.3f", rep.DDP, sharedRep.DDP)
	}
	if g.Pos <= g.Neg {
		t.Fatalf("boosted group should get the higher threshold: %+v", g)
	}
	if rep.Accuracy < 0.75 {
		t.Fatalf("accuracy %.3f collapsed", rep.Accuracy)
	}
}

func TestFitThresholdsRespectsAccuracyFloor(t *testing.T) {
	// Label fully determined by score; groups identical. The fitted pair must
	// keep near-perfect accuracy and near-zero DDP.
	rng := rand.New(rand.NewSource(2))
	n := 200
	scores := make([]float64, n)
	y := make([]int, n)
	s := make([]int, n)
	for i := 0; i < n; i++ {
		y[i] = rng.Intn(2)
		s[i] = 2*rng.Intn(2) - 1
		scores[i] = 0.2 + 0.6*float64(y[i])
	}
	_, rep := FitThresholds(scores, y, s, 0.02)
	if rep.Accuracy < 0.99 {
		t.Fatalf("accuracy = %.3f, want ≈1 on separable scores", rep.Accuracy)
	}
	if rep.DDP > 0.1 {
		t.Fatalf("DDP = %.3f on unbiased data", rep.DDP)
	}
}

func TestFitThresholdsDegenerateInputs(t *testing.T) {
	// Empty input.
	g, rep := FitThresholds(nil, nil, nil, 0.1)
	if g.Pos != 0.5 || rep.Accuracy != 0 {
		t.Fatalf("empty: %+v %+v", g, rep)
	}
	// Single group: still returns usable thresholds.
	scores := []float64{0.1, 0.9, 0.2, 0.8}
	y := []int{0, 1, 0, 1}
	s := []int{1, 1, 1, 1}
	_, rep = FitThresholds(scores, y, s, 0.05)
	if rep.Accuracy != 1 {
		t.Fatalf("single-group accuracy = %.3f", rep.Accuracy)
	}
}

func TestFitThresholdsPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FitThresholds([]float64{0.5}, []int{1, 0}, []int{1}, 0)
}

// referenceFitThresholds is FitThresholds as it was before the per-group
// counts: every candidate pair re-thresholds all n rows and runs Evaluate,
// O(n³). TestFitThresholdsMatchesReference holds FitThresholds to it.
func referenceFitThresholds(scores []float64, y, s []int, slack float64) (GroupThresholds, Report) {
	n := len(scores)
	if len(y) != n || len(s) != n {
		panic(fmt.Sprintf("fairness: %d scores but %d labels / %d sensitive values", n, len(y), len(s)))
	}
	if n == 0 {
		return GroupThresholds{Pos: 0.5, Neg: 0.5}, Report{}
	}
	if slack < 0 {
		slack = 0
	}
	posCands := thresholdCandidates(scores, s, 1)
	negCands := thresholdCandidates(scores, s, -1)

	// Baseline: the best shared threshold by accuracy.
	shared := append(append([]float64{}, posCands...), negCands...)
	bestAcc := 0.0
	for _, t := range shared {
		acc := referenceAccuracyAt(scores, y, s, GroupThresholds{Pos: t, Neg: t})
		if acc > bestAcc {
			bestAcc = acc
		}
	}
	floor := bestAcc * (1 - slack)

	best := GroupThresholds{Pos: 0.5, Neg: 0.5}
	bestReport := Report{}
	bestScore := math.Inf(1)
	found := false
	for _, tp := range posCands {
		for _, tn := range negCands {
			g := GroupThresholds{Pos: tp, Neg: tn}
			pred := g.Apply(scores, s)
			rep := Evaluate(pred, y, s)
			if rep.Accuracy < floor {
				continue
			}
			// Lexicographic-ish objective: DDP first, accuracy as tiebreak.
			score := rep.DDP - 1e-6*rep.Accuracy
			if score < bestScore {
				bestScore = score
				best = g
				bestReport = rep
				found = true
			}
		}
	}
	if !found { // degenerate calibration set: fall back to the shared optimum
		for _, t := range shared {
			g := GroupThresholds{Pos: t, Neg: t}
			pred := g.Apply(scores, s)
			rep := Evaluate(pred, y, s)
			if rep.Accuracy >= bestReport.Accuracy {
				best = g
				bestReport = rep
			}
		}
	}
	return best, bestReport
}

func referenceAccuracyAt(scores []float64, y, s []int, g GroupThresholds) float64 {
	pred := g.Apply(scores, s)
	correct := 0
	for i := range pred {
		if pred[i] == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(pred))
}

// TestFitThresholdsMatchesReference holds FitThresholds to the O(n³) search
// bit for bit, thresholds and every Report field, on random calibration sets
// of 1 to 80 rows: scores on a coarse grid (ties within and across groups)
// or continuous, sensitive values ±1, ±1 with a third value 0, or one group
// only (+1 or −1), and slack from negative to 1. Scores of 0 and 1 put the
// sentinel candidates (min − 1, max + 1) at −1 and 2. The first, fixed set
// takes the fallback: a third group thresholded at Neg, whose candidates come
// from group −1 alone, lets the shared threshold (0.2+0.4)/2 classify all six
// rows while no pair classifies more than five, so at slack 0 no pair
// qualifies.
func TestFitThresholdsMatchesReference(t *testing.T) {
	check := func(name string, scores []float64, y, s []int, slack float64) {
		t.Helper()
		g, rep := FitThresholds(scores, y, s, slack)
		wg, wrep := referenceFitThresholds(scores, y, s, slack)
		same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		if !same(g.Pos, wg.Pos) || !same(g.Neg, wg.Neg) || !same(rep.Accuracy, wrep.Accuracy) ||
			!same(rep.DDP, wrep.DDP) || !same(rep.EOD, wrep.EOD) || !same(rep.MI, wrep.MI) {
			t.Fatalf("%s: %+v %+v; reference %+v %+v", name, g, rep, wg, wrep)
		}
	}
	check("fallback", []float64{0.2, 0.4, 0, 1, 0.25, 0.35}, []int{0, 1, 0, 1, 0, 1}, []int{1, 1, -1, -1, 0, 0}, 0)
	if g, rep := FitThresholds([]float64{0.2, 0.4, 0, 1, 0.25, 0.35}, []int{0, 1, 0, 1, 0, 1}, []int{1, 1, -1, -1, 0, 0}, 0); g.Pos != g.Neg || rep.Accuracy != 1 {
		t.Fatalf("fallback: %+v %+v, want a shared threshold at accuracy 1", g, rep)
	}

	rng := rand.New(rand.NewSource(20261019))
	sets := [][]int{{-1, 1}, {-1, 0, 1}, {1}, {-1}}
	for c := 0; c < 400; c++ {
		n := 1 + rng.Intn(80)
		values := sets[c%len(sets)]
		grid := c%3 != 0
		scores := make([]float64, n)
		y := make([]int, n)
		s := make([]int, n)
		for i := range scores {
			y[i] = rng.Intn(2)
			s[i] = values[rng.Intn(len(values))]
			scores[i] = rng.Float64()
			if grid {
				scores[i] = float64(rng.Intn(11)) / 10
			}
		}
		slack := []float64{-0.1, 0, 0.02, 0.05, 0.3, 1}[rng.Intn(6)]
		check(fmt.Sprintf("case %d (n %d, values %v, slack %v)", c, n, values, slack), scores, y, s, slack)
	}
}
