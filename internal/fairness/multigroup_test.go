package fairness

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// The paper's two-group definitions (Section V-A1) for a ±1 sensitive
// attribute, written out as the reference that DDP, EOD and MI — which take
// any number of groups — must reproduce bit for bit on two groups.

// refRates returns P(ŷ=1 | s=+1) and P(ŷ=1 | s=−1) over the rows keep
// selects, and false when either group has none.
func refRates(pred, s []int, keep func(i int) bool) (pos, neg float64, ok bool) {
	var nPos, nNeg, pPos, pNeg float64
	for i := range pred {
		switch {
		case !keep(i):
		case s[i] == 1:
			nPos++
			pPos += float64(pred[i])
		default:
			nNeg++
			pNeg += float64(pred[i])
		}
	}
	if nPos == 0 || nNeg == 0 {
		return 0, 0, false
	}
	return pPos / nPos, pNeg / nNeg, true
}

func refDDP(pred, s []int) float64 {
	pos, neg, ok := refRates(pred, s, func(int) bool { return true })
	if !ok {
		return 0
	}
	return math.Abs(pos - neg)
}

func refEOD(pred, y, s []int) float64 {
	gap := func(yv int) float64 {
		pos, neg, ok := refRates(pred, s, func(i int) bool { return y[i] == yv })
		if !ok {
			return 0
		}
		return math.Abs(pos - neg)
	}
	return math.Max(gap(1), gap(0)) // TPR gap vs FPR gap
}

func refMI(pred, s []int) float64 {
	if len(pred) == 0 {
		return 0
	}
	var joint [2][2]float64 // [s = +1][ŷ]
	for i, p := range pred {
		si := 0
		if s[i] == 1 {
			si = 1
		}
		joint[si][p]++
	}
	fn := float64(len(pred))
	mi := 0.0
	for a := 0; a < 2; a++ {
		pa := (joint[a][0] + joint[a][1]) / fn
		for b := 0; b < 2; b++ {
			pb := (joint[0][b] + joint[1][b]) / fn
			pab := joint[a][b] / fn
			if pab > 0 && pa > 0 && pb > 0 {
				mi += pab * math.Log(pab/(pa*pb))
			}
		}
	}
	if mi < 0 {
		mi = 0
	}
	return mi
}

// binaryCase draws n ≥ 1 rows of binary predictions and labels with a ±1
// sensitive attribute; some draws hold one group only.
func binaryCase(seed int64) (pred, y, s []int) {
	r := rand.New(rand.NewSource(seed))
	n := 1 + r.Intn(40)
	pred, y, s = make([]int, n), make([]int, n), make([]int, n)
	for i := range pred {
		pred[i] = r.Intn(2)
		y[i] = r.Intn(2)
		s[i] = 2*r.Intn(2) - 1
	}
	return pred, y, s
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// The multi-group formulation is the paper's binary metric on two groups,
// bit for bit.
func TestDDPMultiMatchesBinary(t *testing.T) {
	f := func(seed int64) bool {
		pred, _, s := binaryCase(seed)
		return sameBits(DDP(pred, s), refDDP(pred, s))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEODMultiMatchesBinary(t *testing.T) {
	f := func(seed int64) bool {
		pred, y, s := binaryCase(seed)
		return sameBits(EOD(pred, y, s), refEOD(pred, y, s))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMIMultiMatchesBinary(t *testing.T) {
	f := func(seed int64) bool {
		pred, _, s := binaryCase(seed)
		return sameBits(MI(pred, s), refMI(pred, s))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDDPMultiThreeGroupsKnown(t *testing.T) {
	// Group 0 rate 1.0; group 1 rate 0.5; group 2 rate 0.0 → gap 1.0.
	pred := []int{1, 1, 1, 0, 0, 0}
	s := []int{0, 0, 1, 1, 2, 2}
	if got := DDP(pred, s); math.Abs(got-1) > 1e-12 {
		t.Fatalf("DDP = %g, want 1", got)
	}
}

func TestDDPMultiHidesNothing(t *testing.T) {
	// A middle group with a distinct rate does not change the max gap, but a
	// new extreme group widens it.
	pred := []int{1, 0, 1, 1}
	s := []int{0, 1, 2, 2}
	base := DDP(pred[:2], s[:2]) // groups {0:1.0, 1:0.0} → 1.0
	withMid := DDP(pred, s)
	if base != 1 || withMid != 1 {
		t.Fatalf("gap should stay at the extremes: %g, %g", base, withMid)
	}
}

func TestEODMultiThreeGroups(t *testing.T) {
	// Among positives: group TPRs 1, 0, 1 → gap 1. No negatives.
	pred := []int{1, 0, 1}
	y := []int{1, 1, 1}
	s := []int{0, 1, 2}
	if got := EOD(pred, y, s); math.Abs(got-1) > 1e-12 {
		t.Fatalf("EOD = %g, want 1", got)
	}
}

func TestMIMultiPerfectThreeWay(t *testing.T) {
	// Prediction is determined by group membership for groups {0,1} and
	// uniform within each; MI must be positive but below ln 2.
	pred := []int{1, 1, 0, 0, 1, 0}
	s := []int{0, 0, 1, 1, 2, 2}
	got := MI(pred, s)
	if got <= 0 || got > math.Ln2+1e-12 {
		t.Fatalf("MI = %g", got)
	}
}

func TestMultiSingleGroupZero(t *testing.T) {
	pred := []int{1, 0, 1}
	s := []int{5, 5, 5}
	if DDP(pred, s) != 0 || EOD(pred, []int{1, 0, 1}, s) != 0 {
		t.Fatal("single group must give zero gaps")
	}
	if MI(pred, s) != 0 {
		t.Fatal("single group MI must be 0")
	}
}

// Property: multi-group metrics are bounded and nonnegative for arbitrary
// group labellings.
func TestMultiBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(50)
		groups := 2 + r.Intn(5)
		pred := make([]int, n)
		y := make([]int, n)
		s := make([]int, n)
		for i := range pred {
			pred[i] = r.Intn(2)
			y[i] = r.Intn(2)
			s[i] = r.Intn(groups) * 3 // arbitrary non-contiguous values
		}
		ddp := DDP(pred, s)
		eod := EOD(pred, y, s)
		mi := MI(pred, s)
		return ddp >= 0 && ddp <= 1 && eod >= 0 && eod <= 1 && mi >= 0 && mi <= math.Log(float64(groups))+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
