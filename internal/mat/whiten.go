package mat

import (
	"fmt"
	"sync"
)

// Whitened batch Mahalanobis scoring.
//
// For an SPD covariance Σ = L·Lᵀ the Mahalanobis distance of z from mean μ is
//
//	(z−μ)ᵀ Σ⁻¹ (z−μ) = ‖L⁻¹(z−μ)‖² = ‖Wz − m̃‖²,  W = L⁻¹,  m̃ = Wμ.
//
// Per-row triangular solves serialize on the forward-substitution dependency
// chain and pay a division per element. The whitened form has neither: W and
// m̃ are computed once per factor, and a batch of rows against a stack of K
// factors becomes K packed triangular matmuls fused with a per-row
// squared-distance reduction — the shape the packed kernel eats. A
// WhitenedStack holds those precomputed factors; MahalanobisInto evaluates a
// whole batch against all of them. A factor held in low-rank form (LowRank:
// a basis of the component's rows plus the ridge) runs the same kernel
// three times: project on the basis, whiten the projection, and add the
// residual off the basis.
//
// The batch is processed in lane blocks: as many rows as fill one 64-byte tile
// row (8 float64 lanes) are transposed into a column-major tile
// (tile[r·lanes+lane] = z_lane[r]) so the inner kernel reads one W element and
// feeds all lanes — on amd64 with AVX2+FMA a single broadcast and two fused
// multiply-adds per W element, four output rows sharing each tile load
// (whiten_amd64.s), and a portable Go kernel everywhere else. Lanes are fully
// independent: a row's result depends only on its own tile column, never on
// which rows share the block (padding lanes are zero-filled), so per-row
// outputs are bit-identical whatever the batch composition, block grouping,
// or shard layout — the property the serving layer's bit-identity and the
// determinism pins rest on. Results are NOT bit-identical to a per-row solve
// (different accumulation order of the same products).

// whitenTileBytes is the width of one tile row, two AVX2 vectors.
const whitenTileBytes = 64

// whitenLanes is the number of rows in one lane block: one tile row of
// float64, and the size of a kernel's output buffer.
const whitenLanes = whitenTileBytes / 8

// whitenKernel is the one lane kernel every pass runs: for each of rows
// output rows j of the operand a (row stride cols) and every lane of the
// tile,
//
//	u_j = init[j·lanes+lane] + Σ_{c<ext_j} a[j·cols+c]·tile[c·lanes+lane]
//	t_j = u_j − m[j],  q[lane] = Σ_j t_j²,  out[j·lanes+lane] = t_j,
//
// where ext_j is j+1 when tri (a lower triangle, rows = cols) and cols
// otherwise, init counts as 0 when empty, and out is written only when
// non-empty. Each u_j adds its products in ascending c and q its squares in
// ascending j. There is a portable Go kernel and, on amd64, an assembly one;
// the stack picks one when it is made.
type whitenKernel func(q *[whitenLanes]float64, tile, a, m, init, out []float64, rows, cols int, tri bool)

// selectWhitenKernel picks the assembly kernel when the assembly kernels are
// on (asm.go), the portable one otherwise.
func selectWhitenKernel() whitenKernel {
	if useAsm {
		return whitenRowsAVX
	}
	return whitenRowsGo
}

// invLowerInto fills w (n×n row major) with the inverse of the
// lower-triangular factor l, one row at a time:
// W[i,:] = (e_i − Σ_{k<i} L[i,k]·W[k,:]) / L[i,i], k ascending. Each W[i,j]
// subtracts L[i,k]·W[k,j] over j ≤ k < i in ascending k, the order of
// column-wise forward substitution, while the pass streams rows of W in
// sequence; four rows share each pass over W[k] for the k below all of them.
// The inverse is deterministic in the factor bits, so whitening derived from
// a persisted factor matches the one derived at fit time exactly.
func invLowerInto(w, l []float64, n int) {
	for i := 0; i < n; i++ {
		clear(w[i*n : (i+1)*n])
		w[i*n+i] = 1
	}
	i := 0
	for ; i+4 <= n; i += 4 {
		w0, w1, w2, w3 := w[i*n:], w[(i+1)*n:], w[(i+2)*n:], w[(i+3)*n:]
		for k := 0; k < i; k++ {
			wk := w[k*n:][:k+1]
			a0, a1, a2, a3 := w0[:len(wk)], w1[:len(wk)], w2[:len(wk)], w3[:len(wk)]
			l0, l1, l2, l3 := l[i*n+k], l[(i+1)*n+k], l[(i+2)*n+k], l[(i+3)*n+k]
			for j, v := range wk {
				a0[j] -= l0 * v
				a1[j] -= l1 * v
				a2[j] -= l2 * v
				a3[j] -= l3 * v
			}
		}
		for r := i; r < i+4; r++ {
			invLowerRow(w, l, n, i, r)
		}
	}
	for ; i < n; i++ {
		invLowerRow(w, l, n, 0, i)
	}
}

// invLowerRow finishes row r of invLowerInto: it subtracts L[r,k]·W[k,:] for
// k in [from, r), ascending, and divides by L[r,r].
func invLowerRow(w, l []float64, n, from, r int) {
	wr := w[r*n:][:r+1]
	for k := from; k < r; k++ {
		lrk := l[r*n+k]
		wk := w[k*n:][:k+1]
		acc := wr[:len(wk)]
		for j, v := range wk {
			acc[j] -= lrk * v
		}
	}
	d := l[r*n+r]
	for j := range wr {
		wr[j] /= d
	}
}

// WhitenedStack is a stack of K factors, ready for batch Mahalanobis
// evaluation against every factor at once. Each factor is a whitenOperand: a
// dense factor (AddFactor) is the d×d triangle W = L⁻¹, a low-rank one
// (AddLowRank) an r×d basis projection, an r×r triangle and a residual
// term. Build it once per fit (or snapshot load); it is immutable afterwards
// and safe for concurrent MahalanobisInto calls.
type WhitenedStack struct {
	d, k    int
	kernel  whitenKernel // chosen once, by NewWhitenedStack
	ops     []whitenOperand
	maxRank int       // widest low-rank basis: the projection tile's rows
	jobs    sync.Pool // *whitenJob
	tiles   sync.Pool // *tileScratch sized for this stack
}

// whitenOperand is one stacked factor: an r-row lower-triangular whitening
// W with whitened mean m̃, scored as ‖W·x − m̃‖². For a dense factor r = d,
// x = z and the basis is the identity, so no projection runs and there is
// no residual term. For a low-rank factor x = Q(z − μ), the projection of
// the centred row on the basis Q, so m̃ = 0, and the distance adds the
// residual ‖(z − μ) − Qᵀx‖² / ρ.
type whitenOperand struct {
	r    int
	w    []float64 // r×r row-major W (lower triangular)
	mtil []float64 // m̃, r values
	// Low-rank factors only (basis != nil).
	basis []float64 // Q, r×d row major
	qmu   []float64 // Q·μ, r values
	negQt []float64 // −Qᵀ, d×r row major
	mean  []float64 // μ, d values
	ridge float64
}

// NewWhitenedStack creates an empty stack for dimension-d factors.
func NewWhitenedStack(d int) *WhitenedStack {
	if d < 0 {
		panic(fmt.Sprintf("mat: negative whitened dimension %d", d))
	}
	s := &WhitenedStack{d: d, kernel: selectWhitenKernel()}
	s.jobs.New = func() any {
		j := &whitenJob{s: s}
		j.fn = j.run
		return j
	}
	s.tiles.New = func() any {
		return &tileScratch{tile: make([]float64, d*whitenLanes), proj: make([]float64, s.maxRank*whitenLanes)}
	}
	return s
}

// Dim returns the feature dimension d.
func (s *WhitenedStack) Dim() int { return s.d }

// Components returns the number of stacked factors.
func (s *WhitenedStack) Components() int { return s.k }

// whiten returns W = L⁻¹ of the n×n factor l and m̃ = W·x.
func whiten(l, x []float64, n int) (w, mtil []float64) {
	w = make([]float64, n*n)
	invLowerInto(w, l, n)
	mtil = make([]float64, n)
	// m̃_j = Σ_{r≤j} W[j,r]·x_r (W is lower triangular).
	for j := 0; j < n; j++ {
		sum := 0.0
		for r, wv := range w[j*n : j*n+j+1] {
			sum += wv * x[r]
		}
		mtil[j] = sum
	}
	return w, mtil
}

// AddFactor appends the whitening of one Cholesky factor and mean, returning
// its index in the stack. W and m̃ are deterministic in the factor and mean
// bits, so a stack rebuilt from a snapshot's factors reproduces these.
func (s *WhitenedStack) AddFactor(c *Cholesky, mean []float64) int {
	d := s.d
	if c.Size() != d || len(mean) != d {
		panic(fmt.Sprintf("mat: whitened factor dim %d / mean %d, want %d", c.Size(), len(mean), d))
	}
	w, mtil := whiten(c.l.Data, mean, d)
	s.ops = append(s.ops, whitenOperand{r: d, w: w, mtil: mtil})
	s.k++
	return s.k - 1
}

// AddLowRank appends a low-rank factor and its mean, returning its index in
// the stack. As in AddFactor, W, Q·μ and −Qᵀ are deterministic in the basis,
// factor and mean bits. The operand keeps views of the basis and the mean,
// so neither may change while the stack is in use.
func (s *WhitenedStack) AddLowRank(f *LowRank, mean []float64) int {
	d, r := s.d, f.Rank()
	if f.Dim() != d || len(mean) != d {
		panic(fmt.Sprintf("mat: low-rank factor dim %d / mean %d, want %d", f.Dim(), len(mean), d))
	}
	q := f.basis.Data
	w, mtil := whiten(f.chol.l.Data, make([]float64, r), r) // m̃ = 0: P is centred
	qmu := make([]float64, r)
	for j := range qmu {
		sum := 0.0
		for c, v := range q[j*d : (j+1)*d] {
			sum += v * mean[c]
		}
		qmu[j] = sum
	}
	negQt := make([]float64, d*r)
	for j := 0; j < r; j++ {
		for c, v := range q[j*d : (j+1)*d] {
			negQt[c*r+j] = -v
		}
	}
	s.ops = append(s.ops, whitenOperand{
		r: r, w: w, mtil: mtil,
		basis: q, qmu: qmu, negQt: negQt, mean: mean, ridge: f.ridge,
	})
	s.maxRank = max(s.maxRank, r)
	s.k++
	return s.k - 1
}

// WhitenedMean returns a view of m̃_k (do not modify). Exposed for the
// persistence round-trip tests proving Load-derived whitening matches
// Fit-derived bits.
func (s *WhitenedStack) WhitenedMean(k int) []float64 { return s.ops[k].mtil }

// Factor returns a view of W_k's row-major data, r×r (do not modify).
func (s *WhitenedStack) Factor(k int) []float64 { return s.ops[k].w }

// Basis returns a view of factor k's basis Q, r×d row major, or nil for a
// dense factor (do not modify).
func (s *WhitenedStack) Basis(k int) []float64 { return s.ops[k].basis }

// tileScratch is the per-shard scratch of a whitened pass: one column-major
// lane tile, the projection tile of a low-rank factor, and the per-kernel-call
// outputs. Pooled so concurrent shards and concurrent callers run
// allocation-free at steady state.
type tileScratch struct {
	tile []float64
	proj []float64
	q    [whitenLanes]float64
	qw   [whitenLanes]float64
}

// whitenJob carries one MahalanobisInto pass across the worker pool without
// allocating (fn pre-bound when the pool makes the job, like gda's score
// jobs).
type whitenJob struct {
	s   *WhitenedStack
	z   *Dense
	dst []float64
	fn  func(lo, hi int)
}

// run processes lane blocks [lob, hib): packs each block's rows into the
// column-major tile and scores it against every stacked factor. A dense
// factor is one triangular pass over the tile. A low-rank factor is three:
// the projection P = Q(z − μ) into the projection tile, the triangle ‖W·P‖²,
// and the residual ‖z − μ − Qᵀ·P‖², which starts each row's sum from the
// tile and subtracts μ at the end.
func (j *whitenJob) run(lob, hib int) {
	s, z, dst := j.s, j.z, j.dst
	d, k, n := s.d, s.k, z.Rows
	ts := s.tiles.Get().(*tileScratch)
	if need := s.maxRank * whitenLanes; len(ts.proj) < need {
		ts.proj = make([]float64, need)
	}
	tile := ts.tile
	for b := lob; b < hib; b++ {
		lo := b * whitenLanes
		rows := min(whitenLanes, n-lo)
		packTile(tile, z, lo, rows)
		for f := range s.ops {
			op := &s.ops[f]
			if op.basis == nil {
				s.kernel(&ts.q, tile, op.w, op.mtil, nil, nil, d, d, true)
				for lane := 0; lane < rows; lane++ {
					dst[(lo+lane)*k+f] = ts.q[lane]
				}
				continue
			}
			p := ts.proj[:op.r*whitenLanes]
			s.kernel(&ts.q, tile, op.basis, op.qmu, nil, p, op.r, d, false)
			s.kernel(&ts.qw, p, op.w, op.mtil, nil, nil, op.r, op.r, true)
			s.kernel(&ts.q, p, op.negQt, op.mean, tile, nil, d, op.r, false)
			for lane := 0; lane < rows; lane++ {
				dst[(lo+lane)*k+f] = ts.qw[lane] + ts.q[lane]/op.ridge
			}
		}
	}
	s.tiles.Put(ts)
}

// packTile transposes rows [lo, lo+rows) of z into the column-major tile
// (tile[r·lanes+lane] = z_lane[r]) and zero-fills the remaining lanes. A
// function of its own so the copy loop keeps its counters in registers.
// With the assembly kernels on, a full block's columns run four at a time
// in packTileAVX, which moves the same values.
func packTile(tile []float64, z *Dense, lo, rows int) {
	d := z.Cols
	if c := d &^ 3; useAsm && rows == whitenLanes && c > 0 {
		block := z.Data[lo*d : (lo+whitenLanes)*d]
		packTileAVX(tile[:c*whitenLanes], block, c)
		for lane := 0; lane < whitenLanes; lane++ {
			for r := c; r < d; r++ {
				tile[r*whitenLanes+lane] = block[lane*d+r]
			}
		}
		return
	}
	for lane := 0; lane < rows; lane++ {
		i := lane
		for _, v := range z.Data[(lo+lane)*d : (lo+lane+1)*d] {
			tile[i] = v
			i += whitenLanes
		}
	}
	// Zero padding lanes: garbage from a previous block must not feed the
	// kernel (lane independence keeps it out of real rows' results, but
	// Inf/NaN garbage could fault-free still produce spurious FP flags and
	// the zero fill is what makes block grouping provably irrelevant).
	for lane := rows; lane < whitenLanes; lane++ {
		for i := lane; i < len(tile); i += whitenLanes {
			tile[i] = 0
		}
	}
}

// MahalanobisInto computes dst[i·K+f], the Mahalanobis distance of every row
// i to every stacked factor f (‖W_f·z_i − m̃_f‖² for a dense factor, the
// low-rank form's two terms for a low-rank one), sharding lane blocks
// across the kernel worker pool. dst must have length z.Rows·Components().
// Per-row results are bit-identical across batch compositions, shard counts
// and repeated runs (see the package comment above); a steady-state loop at
// fixed shape performs no heap allocation.
func (s *WhitenedStack) MahalanobisInto(dst []float64, z *Dense) {
	n := z.Rows
	if n > 0 && z.Cols != s.d {
		panic(fmt.Sprintf("mat: whitened batch dim %d, want %d", z.Cols, s.d))
	}
	if len(dst) != n*s.k {
		panic(fmt.Sprintf("mat: whitened dst length %d, want %d", len(dst), n*s.k))
	}
	if n == 0 || s.k == 0 {
		return
	}
	nb := (n + whitenLanes - 1) / whitenLanes
	j := s.jobs.Get().(*whitenJob)
	j.z, j.dst = z, dst
	ParallelFor(nb, 1, j.fn)
	j.z, j.dst = nil, nil
	s.jobs.Put(j)
}

// whitenRowsGo is the portable kernel: one accumulation chain per lane in
// ascending c, then the subtraction and squared sum. The per-lane
// accumulation order is whitenKernel's, so results are deterministic and
// independent of which rows share the tile.
func whitenRowsGo(q *[whitenLanes]float64, tile, a, m, init, out []float64, rows, cols int, tri bool) {
	var qa, u [whitenLanes]float64
	for j := 0; j < rows; j++ {
		ext := cols
		if tri {
			ext = j + 1
		}
		if len(init) > 0 {
			copy(u[:], init[j*whitenLanes:])
		} else {
			clear(u[:])
		}
		for c, av := range a[j*cols : j*cols+ext] {
			t := tile[c*whitenLanes : c*whitenLanes+whitenLanes]
			for lane, v := range t {
				u[lane] += av * v
			}
		}
		mj := m[j]
		for lane := 0; lane < whitenLanes; lane++ {
			t := u[lane] - mj
			qa[lane] += t * t
			if len(out) > 0 {
				out[j*whitenLanes+lane] = t
			}
		}
	}
	*q = qa
}
