package mat

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: dot length mismatch %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	return math.Sqrt(Dot(v, v))
}

// AxpyVec computes y += s·x, each element's product rounded before its
// sum. With the assembly kernels on, whole groups of four elements run in
// axpyAVX, whose lanes round as this loop does.
func AxpyVec(y []float64, s float64, x []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: axpy length mismatch %d vs %d", len(x), len(y)))
	}
	if n := len(y) &^ 3; useAsm && n > 0 {
		axpyAVX(y[:n], s, x[:n])
		y, x = y[n:], x[n:]
	}
	for i, v := range x {
		y[i] += s * v
	}
}

// AddVec computes y += x, in addAVX for whole groups of four elements when
// the assembly kernels are on.
func AddVec(y, x []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: add length mismatch %d vs %d", len(x), len(y)))
	}
	if n := len(y) &^ 3; useAsm && n > 0 {
		addAVX(y[:n], x[:n])
		y, x = y[n:], x[n:]
	}
	for i := range y {
		y[i] += x[i]
	}
}

// ScaleVec multiplies v by s in place, in scaleAVX for whole groups of four
// elements when the assembly kernels are on.
func ScaleVec(v []float64, s float64) {
	if n := len(v) &^ 3; useAsm && n > 0 {
		scaleAVX(v[:n], s)
		v = v[n:]
	}
	for i := range v {
		v[i] *= s
	}
}

// SubVec returns a − b as a new slice.
func SubVec(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: sub length mismatch %d vs %d", len(a), len(b)))
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// SumVec returns the sum of v's elements.
func SumVec(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// MeanVec returns the arithmetic mean of v (0 for empty input).
func MeanVec(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return SumVec(v) / float64(len(v))
}

// ArgMax returns the index of the largest element of v (first on ties).
// It returns -1 for an empty slice.
func ArgMax(v []float64) int {
	if len(v) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// ArgMin returns the index of the smallest element of v (first on ties).
// It returns -1 for an empty slice.
func ArgMin(v []float64) int {
	if len(v) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] < v[best] {
			best = i
		}
	}
	return best
}

// MinMax returns the smallest and largest elements of v.
// It panics on an empty slice.
func MinMax(v []float64) (min, max float64) {
	if len(v) == 0 {
		panic("mat: MinMax of empty slice")
	}
	min, max = v[0], v[0]
	for _, x := range v[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// LogSumExp returns log(Σ exp(v_i)) computed stably.
// It returns -Inf for an empty slice.
func LogSumExp(v []float64) float64 {
	if len(v) == 0 {
		return math.Inf(-1)
	}
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	if math.IsInf(m, -1) {
		return m
	}
	s := 0.0
	for _, x := range v {
		s += math.Exp(x - m)
	}
	return m + math.Log(s)
}

// Softmax writes the softmax of logits into out (stable). out may alias logits.
func Softmax(out, logits []float64) {
	if len(out) != len(logits) {
		panic(fmt.Sprintf("mat: softmax length mismatch %d vs %d", len(out), len(logits)))
	}
	if len(logits) == 0 {
		return
	}
	m := logits[0]
	for _, v := range logits[1:] {
		if v > m {
			m = v
		}
	}
	s := 0.0
	for i, v := range logits {
		e := math.Exp(v - m)
		out[i] = e
		s += e
	}
	inv := 1 / s
	for i := range out {
		out[i] *= inv
	}
}

// MeanCols returns the per-column mean of m as a length-Cols slice.
func MeanCols(m *Dense) []float64 {
	mean := make([]float64, m.Cols)
	if m.Rows == 0 {
		return mean
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			mean[j] += v
		}
	}
	inv := 1 / float64(m.Rows)
	for j := range mean {
		mean[j] *= inv
	}
	return mean
}

// covBlock is how many samples Covariance centres and transposes per pass:
// its scratch holds d·covBlock values whatever the sample count, and every
// element's running sum carries from one block into the next.
const covBlock = 64

// Covariance returns the (biased, 1/n) covariance matrix of the rows of m
// around the supplied mean, plus ridge·I on the diagonal for conditioning.
// Only the lower triangle is computed, then mirrored. Element (a, b) adds the
// products of centred columns a and b to 0 in ascending sample order, every
// product included, so a 0 × ±Inf or 0 × NaN term makes it NaN, as MulTA of
// the centred rows does. The centred rows are transposed a block at a time,
// so each element is a dot product over memory read in sequence, and four
// output rows share each read of column b.
func Covariance(m *Dense, mean []float64, ridge float64) *Dense {
	d := m.Cols
	if len(mean) != d {
		panic(fmt.Sprintf("mat: covariance mean length %d != cols %d", len(mean), d))
	}
	cov := NewDense(d, d)
	if m.Rows == 0 {
		for i := 0; i < d; i++ {
			cov.Data[i*d+i] = ridge
		}
		return cov
	}
	c := cov.Data
	bs := min(covBlock, m.Rows)
	ct := make([]float64, d*bs) // ct[a·bs+i] = centred column a of the block's sample i
	for lo := 0; lo < m.Rows; lo += bs {
		nb := min(bs, m.Rows-lo)
		for i := 0; i < nb; i++ {
			for a, v := range m.Row(lo + i) {
				ct[a*bs+i] = v - mean[a]
			}
		}
		a := 0
		for ; a+4 <= d; a += 4 {
			x0 := ct[a*bs:][:nb]
			x1 := ct[(a+1)*bs:][:nb]
			x2 := ct[(a+2)*bs:][:nb]
			x3 := ct[(a+3)*bs:][:nb]
			for b := 0; b <= a; b++ {
				s0, s1, s2, s3 := c[a*d+b], c[(a+1)*d+b], c[(a+2)*d+b], c[(a+3)*d+b]
				for i, v := range ct[b*bs:][:nb] {
					s0 += x0[i] * v
					s1 += x1[i] * v
					s2 += x2[i] * v
					s3 += x3[i] * v
				}
				c[a*d+b], c[(a+1)*d+b], c[(a+2)*d+b], c[(a+3)*d+b] = s0, s1, s2, s3
			}
			for r := a + 1; r < a+4; r++ {
				for b := a + 1; b <= r; b++ {
					c[r*d+b] = dotFrom(c[r*d+b], ct[r*bs:][:nb], ct[b*bs:][:nb])
				}
			}
		}
		for ; a < d; a++ {
			for b := 0; b <= a; b++ {
				c[a*d+b] = dotFrom(c[a*d+b], ct[a*bs:][:nb], ct[b*bs:][:nb])
			}
		}
	}
	inv := 1 / float64(m.Rows)
	for a := 0; a < d; a++ {
		for b := 0; b <= a; b++ {
			v := cov.Data[a*d+b] * inv
			cov.Data[a*d+b] = v
			cov.Data[b*d+a] = v
		}
	}
	for i := 0; i < d; i++ {
		cov.Data[i*d+i] += ridge
	}
	return cov
}

// dotFrom returns s + Σ x[i]·y[i], adding in ascending i.
func dotFrom(s float64, x, y []float64) float64 {
	y = y[:len(x)]
	for i, v := range x {
		s += v * y[i]
	}
	return s
}
