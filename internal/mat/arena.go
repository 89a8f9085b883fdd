package mat

import (
	"fmt"
	"math/bits"
)

// Arena is scratch storage for Dense matrices that its owner keeps: a pass
// takes whatever intermediate matrices it needs from Get, and Reset ends
// their lifetime, so the next pass reuses them. The i-th Get after a Reset
// reuses the arena's i-th matrix, growing its storage only when the shape
// asks for more than it has ever held, so a loop asking for the same shapes
// allocates nothing after its first pass, whatever the collector does. The
// zero value is an empty arena.
//
// Contract:
//   - An Arena serves one pass at a time; it is NOT safe for concurrent
//     use. Matrices from different arenas are independent, so any number
//     of goroutines may each hold their own.
//   - Get returns a matrix with ARBITRARY contents — callers must fully
//     overwrite it (MulInto and friends do).
//   - Every matrix obtained from Get dies at Reset: the next pass's Gets
//     hand out the same storage. Callers copy out what they keep.
type Arena struct {
	mats []*Dense // every matrix the arena holds, in Get order
	used int      // how many of mats the current pass has taken
}

// Get returns an r×c matrix from the arena. Contents are arbitrary — the
// caller must overwrite every element. The matrix is valid until Reset.
func (a *Arena) Get(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	if a.used == len(a.mats) {
		a.mats = append(a.mats, new(Dense))
	}
	d := a.mats[a.used]
	a.used++
	n := r * c
	if cap(d.Data) < n {
		// Powers of two, so storage that grows with its pass (a labelled
		// set gaining rows each round) reallocates only when it doubles.
		d.Data = make([]float64, 1<<bits.Len(uint(n-1)))
	}
	d.Rows, d.Cols, d.Data = r, c, d.Data[:n]
	return d
}

// Reset ends the lifetime of every matrix Get handed out, keeping their
// storage for the next pass.
func (a *Arena) Reset() { a.used = 0 }
