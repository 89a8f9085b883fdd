// Package mat provides the dense linear-algebra kernel used by every other
// subsystem in this repository: row-major float64 matrices, matrix products,
// Cholesky factorization of SPD matrices, and the vector helpers the neural
// network and density estimator are built on.
//
// The package follows the convention of numeric kernels (cf. gonum): dimension
// mismatches are programmer errors and panic; numerical failures (for example
// a covariance matrix that is not positive definite) are reported as errors.
//
// Large products are sharded by output rows over a persistent worker pool
// (see parallel.go) sized by SetParallelism; the parallel path is
// bit-identical to the serial one, and the *Into variants reuse caller
// storage so steady-state training loops run allocation-free.
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewDense allocates an r×c zero matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// NewDenseData wraps data (not copied) as an r×c matrix.
func NewDenseData(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d != %d*%d", len(data), r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: data}
}

// FromRows builds a matrix from row slices, copying the data.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return NewDense(0, 0)
	}
	c := len(rows[0])
	m := NewDense(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("mat: ragged rows: row %d has %d cols, want %d", i, len(row), c))
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.Data[i*m.Cols+j]
}

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.Data[i*m.Cols+j] = v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
}

// Row returns a view (not a copy) of row i.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.Rows))
	}
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// Col returns a copy of column j.
func (m *Dense) Col(j int) []float64 {
	if j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("mat: col %d out of range %d", j, m.Cols))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.Data[i*m.Cols+j]
	}
	return out
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	n := NewDense(m.Rows, m.Cols)
	copy(n.Data, m.Data)
	return n
}

// CopyFrom copies src into m; shapes must match.
func (m *Dense) CopyFrom(src *Dense) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("mat: copy shape mismatch %dx%d <- %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	copy(m.Data, src.Data)
}

// Zero sets every element of m to zero.
func (m *Dense) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	t := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// Mul returns a × b.
func Mul(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: mul shape mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewDense(a.Rows, b.Cols)
	MulInto(out, a, b)
	return out
}

// MulInto computes dst = a × b, reusing dst's storage. Products above the
// flop threshold are sharded over the worker pool by blocks of output rows;
// results are bit-identical to the serial kernel (each output row is computed
// by exactly one shard, in the serial accumulation order).
func MulInto(dst, a, b *Dense) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: mul shape mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: mul dst shape %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	if dst == a || dst == b {
		panic("mat: MulInto dst aliases an operand")
	}
	n, k, p := a.Rows, a.Cols, b.Cols
	if n*k*p < parallelFlopThreshold {
		mulShard(shard{dst: dst, a: a, b: b, lo: 0, hi: n})
		return
	}
	runSharded(n, shardCount(n*k*p), shard{kernel: mulShard, dst: dst, a: a, b: b})
}

// mulShard computes output rows [lo, hi) of dst = a × b. Products at most
// narrowCols wide take the dot-per-output path, shards large enough to
// amortize packing take the cache-blocked path, and the rest run the plain
// ikj kernel (streams through b and dst rows sequentially). All three
// accumulate every output element from +0 in ascending-l order, so the choice
// never changes a bit of the result. Zero A elements are NOT skipped: 0×NaN
// and 0×Inf must contribute NaN (IEEE 754), and a data-dependent branch in the
// innermost loop costs more than the multiply it saves on dense data.
func mulShard(s shard) {
	k, p := s.a.Cols, s.b.Cols
	if p <= narrowCols {
		mulShardNarrow(s)
		return
	}
	if rows := s.hi - s.lo; rows >= packMinRows && rows*k*p >= packFlopThreshold {
		mulShardPacked(s)
		return
	}
	a, b, dst := s.a, s.b, s.dst
	for i := s.lo; i < s.hi; i++ {
		drow := dst.Data[i*p : (i+1)*p]
		clear(drow)
		addProducts(drow, a.Data[i*k:(i+1)*k], b.Data, p)
	}
}

// narrowCols is the widest product mulShard computes one dot product per
// output element: up to it a row update is too short to pay for its loop
// (the two-class head is p = 2), from p = 3 on the four-term row update is
// faster. The measured crossover is in DESIGN.md §7.
const narrowCols = 2

// mulShardNarrow computes output rows [lo, hi) of a product at most
// narrowCols wide as one dot product per element: a's row is read once per
// output column, and b, at most narrowCols floats wide, is read in order.
// The two-class head (p = 2) runs four rows per pass in the head kernel
// (headRowsAVX), and a matrix–vector product (p = 1) four rows per pass in
// dot4; the rows left over run one at a time.
func mulShardNarrow(s shard) {
	a, b, dst := s.a, s.b, s.dst
	k, p := a.Cols, b.Cols
	lo := s.lo
	if rows := (s.hi - lo) &^ 3; useAsm && p == 2 && rows > 0 {
		headRowsAVX(dst.Data[lo*2:(lo+rows)*2], a.Data[lo*k:(lo+rows)*k], b.Data[:2*k], rows, k)
		lo += rows
	}
	if p == 1 {
		// A matrix–vector product: four rows' dot products per pass over b,
		// as four independent sums.
		for ; lo+4 <= s.hi; lo += 4 {
			r := a.Data[lo*k : (lo+4)*k]
			dst.Data[lo], dst.Data[lo+1], dst.Data[lo+2], dst.Data[lo+3] = dot4(r[:k], r[k:2*k], r[2*k:3*k], r[3*k:], b.Data[:k])
		}
	}
	for i := lo; i < s.hi; i++ {
		arow := a.Data[i*k : (i+1)*k]
		drow := dst.Data[i*p : (i+1)*p]
		for j := range drow {
			sum := 0.0
			for l, av := range arow {
				sum += av * b.Data[l*p+j]
			}
			drow[j] = sum
		}
	}
}

// addProducts adds Σ_l a[l]·b[l·stride : l·stride+len(d)] to d, in ascending
// l: in the row-update kernel when the assembly kernels are on, otherwise
// four terms per pass over d. Each element keeps one running value and
// rounds after every multiply and every add, the sequence four single-term
// passes would run, so the bits are theirs; the pass saves three loads and
// three stores of d per element.
func addProducts(d, a, b []float64, stride int) {
	if useAsm {
		rowUpdate(d, a, 1, b, stride, len(a))
		return
	}
	l := 0
	for ; l+4 <= len(a); l += 4 {
		o := l * stride
		axpy4(d, a[l], a[l+1], a[l+2], a[l+3], b[o:], b[o+stride:], b[o+2*stride:], b[o+3*stride:])
	}
	for ; l < len(a); l++ {
		AxpyVec(d, a[l], b[l*stride:l*stride+len(d)])
	}
}

// rowUpdate adds Σ_{l<terms} a[l·as]·b[l·bs : l·bs+len(d)] to d in the
// row-update kernel (rowUpdateAVX), l ascending, each element rounded after
// every multiply and every add. It proves the kernel's reads in bounds first.
func rowUpdate(d, a []float64, as int, b []float64, bs, terms int) {
	if terms == 0 || len(d) == 0 {
		return
	}
	_ = a[(terms-1)*as]
	_ = b[(terms-1)*bs+len(d)-1]
	rowUpdateAVX(d, a, as, b, bs, terms)
}

// dot4 returns the dot products of x with q0, q1, q2 and q3, each from +0
// in ascending index, as Dot adds them: four independent sums, so each
// pass over x keeps four additions in flight instead of one.
func dot4(q0, q1, q2, q3, x []float64) (s0, s1, s2, s3 float64) {
	q0, q1, q2, q3 = q0[:len(x)], q1[:len(x)], q2[:len(x)], q3[:len(x)]
	for c, z := range x {
		s0 += q0[c] * z
		s1 += q1[c] * z
		s2 += q2[c] * z
		s3 += q3[c] * z
	}
	return s0, s1, s2, s3
}

// axpy4 computes d[j] += a0·b0[j], then += a1·b1[j], += a2·b2[j] and
// += a3·b3[j], holding d[j] in a register between the four adds.
func axpy4(d []float64, a0, a1, a2, a3 float64, b0, b1, b2, b3 []float64) {
	b0, b1, b2, b3 = b0[:len(d)], b1[:len(d)], b2[:len(d)], b3[:len(d)]
	for j, v := range d {
		v += a0 * b0[j]
		v += a1 * b1[j]
		v += a2 * b2[j]
		v += a3 * b3[j]
		d[j] = v
	}
}

// Packing pays only when the shard re-reads B often enough to amortize the
// copy: at least packMinRows output rows and packFlopThreshold multiply-adds.
// Vars (not consts) so the property tests can force the packed path onto
// small matrices.
var (
	packMinRows       = 8
	packFlopThreshold = 1 << 18
)

// Panel tile shape: packLB (inner l) × packJB (output j) float64s = 64 KiB,
// sized to sit in L2 while a column block of A streams past it.
const (
	packLB = 128
	packJB = 64
)

// mulShardPacked computes output rows [lo, hi) of dst = a × b with a packed,
// cache-blocked inner kernel: B is copied tile by tile (l-block × j-block)
// into a contiguous panel that is then reused across every output row of the
// shard, turning the strided B accesses of the plain kernel into sequential
// reads of a hot 64 KiB buffer.
//
// Bit-identity with the plain kernel is structural: for any output element
// (i, j), the j-tile containing j zeroes it exactly when the first l-block
// (l0 == 0) arrives and then accumulates a[i,l]*b[l,j] over l-blocks in
// ascending order and, inside each panel, over l in ascending order — the
// exact serial accumulation sequence. Blocking changes which elements are
// computed *near each other in time*, never the per-element operation order.
//
// The panel lives on the stack (not a sync.Pool): a pool entry evicted by a
// GC cycle mid-benchmark re-allocates and shows up as spurious allocs/op on a
// path the bench gate pins at zero. A stack array is structurally
// allocation-free; its one-time zeroing on frame entry is noise next to the
// ≥packFlopThreshold multiply–adds a packed shard is guaranteed to run.
func mulShardPacked(s shard) {
	a, b, dst := s.a, s.b, s.dst
	k, p := a.Cols, b.Cols
	if k == 0 {
		// No l-blocks would run, so zero dst explicitly (an empty sum is 0).
		for i := s.lo; i < s.hi; i++ {
			drow := dst.Data[i*p : (i+1)*p]
			for j := range drow {
				drow[j] = 0
			}
		}
		return
	}
	var panelBuf [packLB * packJB]float64
	panel := panelBuf[:]
	for j0 := 0; j0 < p; j0 += packJB {
		j1 := min(j0+packJB, p)
		jw := j1 - j0
		for l0 := 0; l0 < k; l0 += packLB {
			l1 := min(l0+packLB, k)
			for l := l0; l < l1; l++ {
				copy(panel[(l-l0)*jw:(l-l0+1)*jw], b.Data[l*p+j0:l*p+j1])
			}
			for i := s.lo; i < s.hi; i++ {
				drow := dst.Data[i*p+j0 : i*p+j1 : i*p+j1]
				if l0 == 0 {
					clear(drow)
				}
				addProducts(drow, a.Data[i*k+l0:i*k+l1], panel, jw)
			}
		}
	}
}

// MulTA returns aᵀ × b.
func MulTA(a, b *Dense) *Dense {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: mulTA shape mismatch %dx%d ᵀ* %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewDense(a.Cols, b.Cols)
	MulTAInto(out, a, b)
	return out
}

// MulTAInto computes dst = aᵀ × b, reusing dst's storage, with the same
// shape/alias panics and sharding strategy as MulInto (shards own blocks of
// dst rows, i.e. columns of a).
func MulTAInto(dst, a, b *Dense) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: mulTA shape mismatch %dx%d ᵀ* %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: mulTA dst shape %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	if dst == a || dst == b {
		panic("mat: MulTAInto dst aliases an operand")
	}
	n, k, p := a.Rows, a.Cols, b.Cols
	if n*k*p < parallelFlopThreshold {
		mulTAShard(shard{dst: dst, a: a, b: b, lo: 0, hi: k})
		return
	}
	runSharded(k, shardCount(n*k*p), shard{kernel: mulTAShard, dst: dst, a: a, b: b})
}

// mulTAShard computes output rows [lo, hi) of dst = aᵀ × b. With the
// assembly kernels on and b wider than narrowCols, each output row is one
// row update over all n rows of b, its coefficients a column of a (stride
// k); at p = 2 (the two-class head's weight gradient) whole groups of four
// output rows run in headGradAVX. Otherwise the outer loop stays over a's
// rows (ascending l), four at a time, and a and b are both read row by row.
// Either way every dst element accumulates its terms in the serial order
// regardless of the shard split.
func mulTAShard(s shard) {
	a, b, dst := s.a, s.b, s.dst
	n, k, p := a.Rows, a.Cols, b.Cols
	for i := s.lo; i < s.hi; i++ {
		clear(dst.Data[i*p : (i+1)*p])
	}
	if useAsm && p > narrowCols && n > 0 {
		for i := s.lo; i < s.hi; i++ {
			rowUpdate(dst.Data[i*p:(i+1)*p], a.Data[i:], k, b.Data, p, n)
		}
		return
	}
	if rows := (s.hi - s.lo) &^ 3; useAsm && p == 2 && n > 0 && rows > 0 {
		// The kernel reads a[l·k + lo + i] for l < n and i < rows, inside
		// a.Data[lo:] because lo + rows ≤ k.
		headGradAVX(dst.Data[s.lo*2:(s.lo+rows)*2], a.Data[s.lo:], k, b.Data[:2*n], rows, n)
		s.lo += rows
	}
	l := 0
	for ; l+4 <= n; l += 4 {
		a0, a1 := a.Data[l*k:(l+1)*k], a.Data[(l+1)*k:(l+2)*k]
		a2, a3 := a.Data[(l+2)*k:(l+3)*k], a.Data[(l+3)*k:(l+4)*k]
		b0, b1 := b.Data[l*p:(l+1)*p], b.Data[(l+1)*p:(l+2)*p]
		b2, b3 := b.Data[(l+2)*p:(l+3)*p], b.Data[(l+3)*p:(l+4)*p]
		for i := s.lo; i < s.hi; i++ {
			axpy4(dst.Data[i*p:(i+1)*p], a0[i], a1[i], a2[i], a3[i], b0, b1, b2, b3)
		}
	}
	for ; l < n; l++ {
		arow := a.Data[l*k : (l+1)*k]
		brow := b.Data[l*p : (l+1)*p]
		for i := s.lo; i < s.hi; i++ {
			AxpyVec(dst.Data[i*p:(i+1)*p], arow[i], brow)
		}
	}
}

// MulTB returns a × bᵀ.
func MulTB(a, b *Dense) *Dense {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: mulTB shape mismatch %dx%d *ᵀ %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewDense(a.Rows, b.Rows)
	MulTBInto(out, a, b)
	return out
}

// MulTBInto computes dst = a × bᵀ, reusing dst's storage, with the same
// shape/alias panics and sharding strategy as MulInto.
func MulTBInto(dst, a, b *Dense) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: mulTB shape mismatch %dx%d *ᵀ %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("mat: mulTB dst shape %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	if dst == a || dst == b {
		panic("mat: MulTBInto dst aliases an operand")
	}
	n, k, p := a.Rows, a.Cols, b.Rows
	if n*k*p < parallelFlopThreshold {
		mulTBShard(shard{dst: dst, a: a, b: b, lo: 0, hi: n})
		return
	}
	runSharded(n, shardCount(n*k*p), shard{kernel: mulTBShard, dst: dst, a: a, b: b})
}

// mulTBShard computes output rows [lo, hi) of dst = a × bᵀ (a dot product
// per element, so shard independence is immediate). The dot is written out
// rather than called: at the two-class head's k = 2 the call took a third of
// each element's time. With the assembly kernels on, inner lengths up to
// narrowCols (the head's input gradient) run as row updates instead
// (mulTBShardNarrow).
func mulTBShard(s shard) {
	a, b, dst := s.a, s.b, s.dst
	k := a.Cols
	if useAsm && k <= narrowCols {
		mulTBShardNarrow(s)
		return
	}
	for i := s.lo; i < s.hi; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := dst.Data[i*b.Rows : (i+1)*b.Rows]
		for j := range orow {
			brow := b.Data[j*k : (j+1)*k]
			brow = brow[:len(arow)]
			sum := 0.0
			for l, av := range arow {
				sum += av * brow[l]
			}
			orow[j] = sum
		}
	}
}

// tbPanelCols is the widest block of b's rows mulTBShardNarrow transposes
// at once: a narrowCols × 512 panel, 8 KiB on the stack.
const tbPanelCols = 512

// mulTBShardNarrow computes output rows [lo, hi) of dst = a × bᵀ for an
// inner length k ≤ narrowCols. It copies a block of b's rows, transposed,
// into a k × jw panel, then clears each output row's block and adds its k
// terms as row updates over the panel. Each element starts from +0 and adds
// a[i,l]·b[j,l] in ascending l, the written-out dot's sequence. The panel
// sits on the stack, as mulShardPacked's does.
func mulTBShardNarrow(s shard) {
	a, b, dst := s.a, s.b, s.dst
	k, p := a.Cols, b.Rows
	var panelBuf [narrowCols * tbPanelCols]float64
	for j0 := 0; j0 < p; j0 += tbPanelCols {
		j1 := min(j0+tbPanelCols, p)
		jw := j1 - j0
		panel := panelBuf[:k*jw]
		for j := j0; j < j1; j++ {
			for l, v := range b.Data[j*k : (j+1)*k] {
				panel[l*jw+j-j0] = v
			}
		}
		for i := s.lo; i < s.hi; i++ {
			drow := dst.Data[i*p+j0 : i*p+j1]
			clear(drow)
			rowUpdate(drow, a.Data[i*k:(i+1)*k], 1, panel, jw, k)
		}
	}
}

// Add returns a + b.
func Add(a, b *Dense) *Dense {
	sameShape("add", a, b)
	out := NewDense(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// Sub returns a − b.
func Sub(a, b *Dense) *Dense {
	sameShape("sub", a, b)
	out := NewDense(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
	return out
}

// AddInPlace computes a += b element by element (AddVec).
func AddInPlace(a, b *Dense) {
	sameShape("add", a, b)
	AddVec(a.Data, b.Data)
}

// AddScaled computes a += s·b element by element (AxpyVec); b may be a.
func AddScaled(a *Dense, s float64, b *Dense) {
	sameShape("addScaled", a, b)
	AxpyVec(a.Data, s, b.Data)
}

// Scale multiplies every element of m by s in place (ScaleVec).
func (m *Dense) Scale(s float64) {
	ScaleVec(m.Data, s)
}

// Apply replaces each element x with f(x) in place.
func (m *Dense) Apply(f func(float64) float64) {
	for i, v := range m.Data {
		m.Data[i] = f(v)
	}
}

// MaxAbs returns the largest absolute element of m (0 for an empty matrix).
func (m *Dense) MaxAbs() float64 {
	max := 0.0
	for _, v := range m.Data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Dense) FrobeniusNorm() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

func sameShape(op string, a, b *Dense) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// String renders the matrix for debugging.
func (m *Dense) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Dense(%dx%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			b.WriteString("; ")
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.4g", m.At(i, j))
		}
	}
	b.WriteByte(']')
	return b.String()
}
