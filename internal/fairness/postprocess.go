package fairness

import (
	"fmt"
	"math"
	"sort"
)

// GroupThresholds are per-group decision thresholds on P(ŷ=1): a sample from
// group s is predicted positive when its score exceeds the group's
// threshold. Post-processing with group thresholds (Hardt et al., NeurIPS
// 2016) is the third classical fairness mechanism, complementing FACTION's
// in-processing regularizer and fair selection: it needs no retraining and
// can be applied to any already-deployed scorer.
type GroupThresholds struct {
	Pos float64 // threshold for s = +1
	Neg float64 // threshold for s = −1
}

// Apply thresholds the positive-class scores into binary predictions.
func (g GroupThresholds) Apply(scores []float64, s []int) []int {
	if len(scores) != len(s) {
		panic(fmt.Sprintf("fairness: %d scores but %d sensitive values", len(scores), len(s)))
	}
	out := make([]int, len(scores))
	for i, sc := range scores {
		thr := g.Neg
		if s[i] == 1 {
			thr = g.Pos
		}
		if sc > thr {
			out[i] = 1
		}
	}
	return out
}

// FitThresholds searches per-group thresholds on a labeled calibration set
// (positive-class scores, labels, sensitive values) for the pair that
// minimizes DDP subject to accuracy ≥ (1 − slack) × the best single-threshold
// accuracy. Candidate thresholds are the observed score midpoints per group
// (the only places the group's decision function changes), so the search is
// exact over an O(n²) grid. Each pair's Report comes from per-group counts
// of positive predictions by label, taken by binary search over the group's
// sorted scores, through the reductions Evaluate uses, so it equals
// Evaluate on the thresholded predictions bit for bit.
//
// It returns the fitted thresholds and the calibration report achieved. With
// a single group present, both thresholds equal the accuracy-optimal one.
// Labels must be binary.
func FitThresholds(scores []float64, y, s []int, slack float64) (GroupThresholds, Report) {
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
	c := newCalibration(scores, y, s)

	// Baseline: the best shared threshold by accuracy.
	shared := append(append([]float64{}, posCands...), negCands...)
	bestAcc := 0.0
	for _, t := range shared {
		if acc := c.report(t, t).Accuracy; acc > bestAcc {
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
			rep := c.report(tp, tn)
			if rep.Accuracy < floor {
				continue
			}
			// Lexicographic-ish objective: DDP first, accuracy as tiebreak.
			score := rep.DDP - 1e-6*rep.Accuracy
			if score < bestScore {
				bestScore = score
				best = GroupThresholds{Pos: tp, Neg: tn}
				bestReport = rep
				found = true
			}
		}
	}
	if !found { // degenerate calibration set: fall back to the shared optimum
		for _, t := range shared {
			if rep := c.report(t, t); rep.Accuracy >= bestReport.Accuracy {
				best = GroupThresholds{Pos: t, Neg: t}
				bestReport = rep
			}
		}
	}
	return best, bestReport
}

// calibration is a calibration set by group: the distinct sensitive values in
// ascending order (Evaluate's groups), and each group's scores by label,
// sorted, so that a threshold's positive predictions are a count.
type calibration struct {
	n      int
	values []int
	scores [][2][]float64 // [group][label], ascending (NaN first, never above a threshold)
	// One report's counts, [label][group] as EOD keeps them, and the group
	// totals and joint counts DDP and MI reduce.
	pos, cnt    [2][]float64
	all, allCnt []float64
	joint       [][2]float64
}

func newCalibration(scores []float64, y, s []int) *calibration {
	values := groups(s)
	g := len(values)
	c := &calibration{
		n:      len(scores),
		values: values,
		scores: make([][2][]float64, g),
		all:    make([]float64, g),
		allCnt: make([]float64, g),
		joint:  make([][2]float64, g),
	}
	for l := range c.pos {
		c.pos[l] = make([]float64, g)
		c.cnt[l] = make([]float64, g)
	}
	for i, sc := range scores {
		if y[i] != 0 && y[i] != 1 {
			panic(fmt.Sprintf("fairness: non-binary label %d", y[i]))
		}
		gi := rank(values, s[i])
		c.scores[gi][y[i]] = append(c.scores[gi][y[i]], sc)
		c.cnt[y[i]][gi]++
	}
	for gi := range c.scores {
		for l := range c.scores[gi] {
			sort.Float64s(c.scores[gi][l])
		}
	}
	return c
}

// report returns Evaluate(GroupThresholds{Pos: tp, Neg: tn}.Apply(...)) for
// the calibration set: group +1 thresholded at tp, every other group at tn.
func (c *calibration) report(tp, tn float64) Report {
	correct := 0.0
	for g, v := range c.values {
		thr := tn
		if v == 1 {
			thr = tp
		}
		for l, sc := range c.scores[g] {
			c.pos[l][g] = float64(len(sc) - sort.Search(len(sc), func(i int) bool { return sc[i] > thr }))
		}
		c.all[g] = c.pos[0][g] + c.pos[1][g]
		c.allCnt[g] = c.cnt[0][g] + c.cnt[1][g]
		c.joint[g] = [2]float64{c.allCnt[g] - c.all[g], c.all[g]}
		correct += c.pos[1][g] + c.cnt[0][g] - c.pos[0][g]
	}
	return Report{
		Accuracy: correct / float64(c.n),
		DDP:      MaxRateGap(c.all, c.allCnt),
		EOD:      math.Max(MaxRateGap(c.pos[1], c.cnt[1]), MaxRateGap(c.pos[0], c.cnt[0])),
		MI:       mutualInformation(c.joint, c.n),
	}
}

// thresholdCandidates returns decision boundaries for one group: midpoints
// between consecutive distinct scores, plus sentinels below/above all scores.
// When the group is absent, the candidates fall back to all scores.
func thresholdCandidates(scores []float64, s []int, group int) []float64 {
	var vals []float64
	for i, sc := range scores {
		if s[i] == group {
			vals = append(vals, sc)
		}
	}
	if len(vals) == 0 {
		vals = append(vals, scores...)
	}
	sort.Float64s(vals)
	cands := []float64{vals[0] - 1}
	for i := 1; i < len(vals); i++ {
		if vals[i] != vals[i-1] {
			cands = append(cands, (vals[i]+vals[i-1])/2)
		}
	}
	cands = append(cands, vals[len(vals)-1]+1)
	return cands
}
