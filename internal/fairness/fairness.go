// Package fairness implements the three group-fairness metrics the paper
// reports (Section V-A1) — Difference of Demographic Parity (DDP), Equalized
// Odds Difference (EOD) and Mutual Information (MI) — over binary
// predictions and a sensitive attribute with any number of values. With two
// values (the paper's ±1) each is the paper's two-group metric; with more
// (the Section IV-H extension) DDP and EOD report the worst pair of groups
// and MI is the general discrete mutual information.
//
// All metrics are defined so that lower absolute value means fairer, matching
// the figures ("lower is better for fairness metrics").
package fairness

import (
	"fmt"
	"math"
	"slices"
)

// validate checks slice lengths and returns n.
func validate(pred, y, s []int, needY bool) int {
	n := len(pred)
	if len(s) != n {
		panic(fmt.Sprintf("fairness: %d predictions but %d sensitive values", n, len(s)))
	}
	if needY && len(y) != n {
		panic(fmt.Sprintf("fairness: %d predictions but %d labels", n, len(y)))
	}
	return n
}

// groups returns the distinct sensitive values in ascending order. A row's
// group is its value's rank among them (rank): a scan over the few values
// instead of a map.
func groups(s []int) []int {
	var values []int
	for _, v := range s {
		if g := rank(values, v); g == len(values) || values[g] != v {
			values = slices.Insert(values, g, v)
		}
	}
	return values
}

// rank returns the number of values below v.
func rank(values []int, v int) int {
	g := 0
	for _, u := range values {
		if u < v {
			g++
		}
	}
	return g
}

// DDP returns the demographic-parity gap max_{a,b} |P(ŷ=1|s=a) − P(ŷ=1|s=b)|
// over the observed groups: with two groups the paper's
// |P(ŷ=1 | s=+1) − P(ŷ=1 | s=−1)|. It returns 0 with fewer than two groups
// (the gap is undefined).
func DDP(pred, s []int) float64 {
	n := validate(pred, nil, s, false)
	values := groups(s)
	pos := make([]float64, len(values))
	cnt := make([]float64, len(values))
	for i := 0; i < n; i++ {
		g := rank(values, s[i])
		cnt[g]++
		pos[g] += float64(pred[i])
	}
	return MaxRateGap(pos, cnt)
}

// EOD returns the equalized-odds difference (Hardt et al. 2016): the larger
// of the true-positive rate gap and the false-positive rate gap, each the
// widest over pairs of groups. Groups with no row of a label take no part
// in that label's gap, and a gap with fewer than two groups is 0. Labels
// and predictions must be binary.
func EOD(pred, y, s []int) float64 {
	n := validate(pred, y, s, true)
	values := groups(s)
	// pos[y][g] sums the predictions and cnt[y][g] counts the rows of label
	// y in group g.
	var pos, cnt [2][]float64
	for yv := range pos {
		pos[yv] = make([]float64, len(values))
		cnt[yv] = make([]float64, len(values))
	}
	for i := 0; i < n; i++ {
		yi, pi := y[i], pred[i]
		if yi != 0 && yi != 1 || pi != 0 && pi != 1 {
			panic(fmt.Sprintf("fairness: non-binary label %d / prediction %d", yi, pi))
		}
		g := rank(values, s[i])
		cnt[yi][g]++
		pos[yi][g] += float64(pi)
	}
	return math.Max(MaxRateGap(pos[1], cnt[1]), MaxRateGap(pos[0], cnt[0])) // TPR gap vs FPR gap
}

// MaxRateGap returns the largest pairwise difference of pos/cnt rates over
// groups with nonzero counts; it returns 0 with fewer than two nonzero
// groups. The serving layer's windowed fairness-gap gauge shares this
// reduction with DDP and EOD, so the offline evaluation metric and the
// served demographic-parity gap agree by construction. It performs no
// allocation — safe on the per-decision path.
func MaxRateGap(pos, cnt []float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	nonEmpty := 0
	for g := range cnt {
		if cnt[g] == 0 {
			continue
		}
		nonEmpty++
		r := pos[g] / cnt[g]
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	if nonEmpty < 2 {
		return 0
	}
	return hi - lo
}

// MI returns the empirical mutual information I(ŷ; s) in nats between the
// binary prediction and the sensitive attribute, whatever its number of
// values. Zero means independence.
func MI(pred, s []int) float64 {
	n := validate(pred, nil, s, false)
	if n == 0 {
		return 0
	}
	values := groups(s)
	joint := make([][2]float64, len(values))
	for i := 0; i < n; i++ {
		p := pred[i]
		if p != 0 && p != 1 {
			panic(fmt.Sprintf("fairness: non-binary prediction %d", p))
		}
		joint[rank(values, s[i])][p]++
	}
	return mutualInformation(joint, n)
}

// mutualInformation is MI's reduction: joint[g][p] counts the rows of group
// g (in ascending order of sensitive value) with prediction p, out of n > 0
// rows. FitThresholds builds its reports through it from the same counts.
func mutualInformation(joint [][2]float64, n int) float64 {
	fn := float64(n)
	var predMarg [2]float64
	for _, j := range joint {
		predMarg[0] += j[0]
		predMarg[1] += j[1]
	}
	mi := 0.0
	for _, j := range joint {
		pg := (j[0] + j[1]) / fn
		for p := 0; p < 2; p++ {
			pj := j[p] / fn
			pp := predMarg[p] / fn
			if pj > 0 && pg > 0 && pp > 0 {
				mi += pj * math.Log(pj/(pg*pp))
			}
		}
	}
	if mi < 0 { // guard against roundoff
		mi = 0
	}
	return mi
}

// Report bundles one evaluation of all reported metrics on a task.
type Report struct {
	Accuracy float64
	DDP      float64
	EOD      float64
	MI       float64
}

// Evaluate computes accuracy and all three fairness metrics for binary
// predictions pred against ground truth y with sensitive attribute s.
func Evaluate(pred, y, s []int) Report {
	n := validate(pred, y, s, true)
	correct := 0
	for i := 0; i < n; i++ {
		if pred[i] == y[i] {
			correct++
		}
	}
	acc := 0.0
	if n > 0 {
		acc = float64(correct) / float64(n)
	}
	return Report{
		Accuracy: acc,
		DDP:      DDP(pred, s),
		EOD:      EOD(pred, y, s),
		MI:       MI(pred, s),
	}
}

// FlipRate returns the fraction of samples whose prediction changes between
// the factual and counterfactual inputs — the empirical counterfactual
// unfairness of Section IV-H (0 = perfectly counterfactually consistent).
func FlipRate(pred, predCF []int) float64 {
	if len(pred) != len(predCF) {
		panic(fmt.Sprintf("fairness: %d factual but %d counterfactual predictions", len(pred), len(predCF)))
	}
	if len(pred) == 0 {
		return 0
	}
	flips := 0
	for i := range pred {
		if pred[i] != predCF[i] {
			flips++
		}
	}
	return float64(flips) / float64(len(pred))
}
