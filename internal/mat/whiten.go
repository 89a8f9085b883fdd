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
// whole batch against all of them.
//
// The stack stores W and m̃ at width T, float64 or float32. Halving the width
// halves the bytes a pass streams, and the kernel is memory-bandwidth bound
// (DESIGN.md §15). Either way the subtract-square reduction q += (u − m̃)²
// accumulates in float64: at float32 only the triangular matvec u = W·z runs
// narrow, and the subtraction is exact because both operands are float32
// values widened to float64.
//
// The batch is processed in lane blocks: as many rows as fill one 64-byte tile
// row (8 float64 or 16 float32 lanes) are transposed into a column-major tile
// (tile[r·lanes+lane] = z_lane[r]) so the inner kernel reads one W element and
// feeds all lanes — on amd64 with AVX2+FMA a single broadcast and two fused
// multiply-adds per W element (whiten*_amd64.s), and a lane-unrolled pure-Go
// kernel everywhere else. Lanes are fully independent: a row's result depends
// only on its own tile column, never on which rows share the block (padding
// lanes are zero-filled), so per-row outputs are bit-identical whatever the
// batch composition, block grouping, or shard layout — the property the
// serving layer's batching bit-identity and the determinism pins rest on.
// Results are NOT bit-identical to a per-row solve (different accumulation
// order of the same products). Feature values outside float32 range overflow
// to ±Inf when a float32 tile is packed and poison only their own row, the
// same NaN/Inf propagation contract as at float64.

// whitenTileBytes is the width of one tile row: the lane count of a stack is
// whitenTileBytes over its element size, two AVX2 vectors at either width.
const whitenTileBytes = 64

// maxWhitenLanes is the widest lane block, float32's: the size of a kernel's
// output buffer at either width.
const maxWhitenLanes = whitenTileBytes / 4

// whitenKernel scores one lane tile against one factor: q[lane] is
// Σ_j (u_j − m̃_j)² with u_j = Σ_{r≤j} W[j,r]·tile[r·lanes+lane], for every lane
// of the tile. Each width has a portable Go kernel and, on amd64, an
// assembly one; NewWhitenedStack picks one per stack.
type whitenKernel[T float32 | float64] func(q *[maxWhitenLanes]float64, tile, w, mtil []T, d int)

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

// WhitenedStack is a packed stack of K whitening factors (W_k = L_k⁻¹, row
// major, lower triangular) and whitened means m̃_k = W_k·μ_k stored at width
// T, ready for batch Mahalanobis evaluation against every factor at once.
// Build it once per fit (or snapshot load) with AddFactor; it is immutable
// afterwards and safe for concurrent MahalanobisInto calls.
type WhitenedStack[T float32 | float64] struct {
	d, k   int
	lanes  int             // rows per lane block: one 64-byte tile row of T
	kernel whitenKernel[T] // chosen once, by NewWhitenedStack
	w      []T             // k panels of d×d row-major W
	mtil   []T             // k rows of m̃
	jobs   sync.Pool       // *whitenJob[T]
	tiles  sync.Pool       // *tileScratch[T] sized for this stack
}

// NewWhitenedStack creates an empty stack for dimension-d factors stored at
// width T.
func NewWhitenedStack[T float32 | float64](d int) *WhitenedStack[T] {
	if d < 0 {
		panic(fmt.Sprintf("mat: negative whitened dimension %d", d))
	}
	s := &WhitenedStack[T]{d: d}
	var kernel any
	switch any(T(0)).(type) {
	case float64:
		s.lanes, kernel = whitenTileBytes/8, whitenKernel64(d)
	case float32:
		s.lanes, kernel = whitenTileBytes/4, whitenKernel32(d)
	}
	s.kernel = kernel.(whitenKernel[T])
	s.jobs.New = func() any {
		j := &whitenJob[T]{s: s}
		j.fn = j.run
		return j
	}
	s.tiles.New = func() any { return &tileScratch[T]{tile: make([]T, d*s.lanes)} }
	return s
}

// Dim returns the feature dimension d.
func (s *WhitenedStack[T]) Dim() int { return s.d }

// Components returns the number of stacked factors.
func (s *WhitenedStack[T]) Components() int { return s.k }

// AddFactor appends the whitening of one Cholesky factor and mean, returning
// its index in the stack. The factor and mean are rounded to T first and W
// and m̃ derived from the rounded values in float64, then stored at T. At
// float64 the rounding is exact; at float32 it makes the stack a function of
// the float32 bits a snapshot persists, so a stack rebuilt from them
// reproduces these exact bits.
func (s *WhitenedStack[T]) AddFactor(c *Cholesky, mean []float64) int {
	d := s.d
	if c.Size() != d || len(mean) != d {
		panic(fmt.Sprintf("mat: whitened factor dim %d / mean %d, want %d", c.Size(), len(mean), d))
	}
	l := make([]float64, d*d)
	for i, v := range c.l.Data {
		l[i] = float64(T(v))
	}
	w := make([]float64, d*d)
	invLowerInto(w, l, d)
	for _, v := range w {
		s.w = append(s.w, T(v))
	}
	// m̃_j = Σ_{r≤j} W[j,r]·μ_r (W is lower triangular).
	for j := 0; j < d; j++ {
		sum := 0.0
		for r, wv := range w[j*d : j*d+j+1] {
			sum += wv * float64(T(mean[r]))
		}
		s.mtil = append(s.mtil, T(sum))
	}
	k := s.k
	s.k++
	return k
}

// WhitenedMean returns a view of m̃_k (do not modify). Exposed for the
// persistence round-trip tests proving Load-derived whitening matches
// Fit-derived bits.
func (s *WhitenedStack[T]) WhitenedMean(k int) []T {
	return s.mtil[k*s.d : (k+1)*s.d]
}

// Factor returns a view of W_k's row-major data (do not modify).
func (s *WhitenedStack[T]) Factor(k int) []T {
	return s.w[k*s.d*s.d : (k+1)*s.d*s.d]
}

// tileScratch is the per-shard scratch of a whitened pass: one column-major
// lane tile plus the per-kernel-call output. Pooled so concurrent shards and
// concurrent callers run allocation-free at steady state.
type tileScratch[T float32 | float64] struct {
	tile []T
	q    [maxWhitenLanes]float64
}

// whitenJob carries one MahalanobisInto pass across the worker pool without
// allocating (fn pre-bound when the pool makes the job, like gda's score
// jobs).
type whitenJob[T float32 | float64] struct {
	s   *WhitenedStack[T]
	z   *Dense
	dst []float64
	fn  func(lo, hi int)
}

// run processes lane blocks [lob, hib): packs each block's rows into the
// column-major tile and scores it against every stacked factor.
func (j *whitenJob[T]) run(lob, hib int) {
	s, z, dst := j.s, j.z, j.dst
	d, k, n, lanes := s.d, s.k, z.Rows, s.lanes
	ts := s.tiles.Get().(*tileScratch[T])
	tile := ts.tile
	for b := lob; b < hib; b++ {
		lo := b * lanes
		rows := min(lanes, n-lo)
		packTile(tile, z, lo, rows, lanes)
		for f := 0; f < k; f++ {
			s.kernel(&ts.q, tile, s.w[f*d*d:(f+1)*d*d], s.mtil[f*d:(f+1)*d], d)
			for lane := 0; lane < rows; lane++ {
				dst[(lo+lane)*k+f] = ts.q[lane]
			}
		}
	}
	s.tiles.Put(ts)
}

// packTile transposes rows [lo, lo+rows) of z into the column-major tile
// (tile[r·lanes+lane] = z_lane[r]) and zero-fills the remaining lanes. A
// function of its own so the copy loop keeps its counters in registers.
func packTile[T float32 | float64](tile []T, z *Dense, lo, rows, lanes int) {
	d := z.Cols
	for lane := 0; lane < rows; lane++ {
		i := lane
		for _, v := range z.Data[(lo+lane)*d : (lo+lane+1)*d] {
			tile[i] = T(v)
			i += lanes
		}
	}
	// Zero padding lanes: garbage from a previous block must not feed the
	// kernel (lane independence keeps it out of real rows' results, but
	// Inf/NaN garbage could fault-free still produce spurious FP flags and
	// the zero fill is what makes block grouping provably irrelevant).
	for lane := rows; lane < lanes; lane++ {
		for i := lane; i < len(tile); i += lanes {
			tile[i] = 0
		}
	}
}

// MahalanobisInto computes dst[i·K+f] = ‖W_f·z_i − m̃_f‖², the Mahalanobis
// distance of every row i to every stacked factor f, sharding lane blocks
// across the kernel worker pool. dst must have length z.Rows·Components().
// Per-row results are bit-identical across batch compositions, shard counts
// and repeated runs (see the package comment above); a steady-state loop at
// fixed shape performs no heap allocation.
func (s *WhitenedStack[T]) MahalanobisInto(dst []float64, z *Dense) {
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
	nb := (n + s.lanes - 1) / s.lanes
	j := s.jobs.Get().(*whitenJob[T])
	j.z, j.dst = z, dst
	ParallelFor(nb, 1, j.fn)
	j.z, j.dst = nil, nil
	s.jobs.Put(j)
}

// whitenQuadTileGo is the portable float64 kernel over the 8 lanes of a tile.
// Eight independent accumulator chains keep the scalar FMA pipeline full; the
// 4-wide halves mirror the two vector registers of the AVX2 kernel. Per-lane
// accumulation order is fixed (ascending r inside ascending j), so results
// are deterministic and independent of which rows share the tile.
func whitenQuadTileGo(q *[maxWhitenLanes]float64, tile, w, mtil []float64, d int) {
	const lanes = whitenTileBytes / 8
	var q0, q1, q2, q3, q4, q5, q6, q7 float64
	for j := 0; j < d; j++ {
		wrow := w[j*d : j*d+j+1]
		var u0, u1, u2, u3, u4, u5, u6, u7 float64
		for r, wv := range wrow {
			t := tile[r*lanes : r*lanes+lanes : r*lanes+lanes]
			u0 += wv * t[0]
			u1 += wv * t[1]
			u2 += wv * t[2]
			u3 += wv * t[3]
			u4 += wv * t[4]
			u5 += wv * t[5]
			u6 += wv * t[6]
			u7 += wv * t[7]
		}
		m := mtil[j]
		u0 -= m
		u1 -= m
		u2 -= m
		u3 -= m
		u4 -= m
		u5 -= m
		u6 -= m
		u7 -= m
		q0 += u0 * u0
		q1 += u1 * u1
		q2 += u2 * u2
		q3 += u3 * u3
		q4 += u4 * u4
		q5 += u5 * u5
		q6 += u6 * u6
		q7 += u7 * u7
	}
	q[0], q[1], q[2], q[3] = q0, q1, q2, q3
	q[4], q[5], q[6], q[7] = q4, q5, q6, q7
}

// whitenQuadTile32Go is the portable float32 kernel over the 16 lanes of a
// tile. The matvec accumulates in float32 (matching the two 8-wide vector
// registers of the AVX2 kernel); the subtraction and squared-sum run in
// float64. Per-lane accumulation order is fixed (ascending r inside ascending
// j), so results are deterministic and independent of which rows share the
// tile.
func whitenQuadTile32Go(q *[maxWhitenLanes]float64, tile, w, mtil []float32, d int) {
	const lanes = whitenTileBytes / 4
	var qa [lanes]float64
	for j := 0; j < d; j++ {
		wrow := w[j*d : j*d+j+1]
		var u [lanes]float32
		for r, wv := range wrow {
			t := tile[r*lanes : r*lanes+lanes : r*lanes+lanes]
			for lane := range u {
				u[lane] += wv * t[lane]
			}
		}
		m := float64(mtil[j])
		for lane := range u {
			// Exact subtraction: both operands are float32 values in float64.
			t := float64(u[lane]) - m
			qa[lane] += t * t
		}
	}
	*q = qa
}
