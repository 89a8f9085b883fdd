package mat

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"sync"
	"testing"

	"faction/internal/testutil"
)

// withParallelism runs f with the knob (and optionally the shard threshold)
// overridden, restoring both afterwards.
func withParallelism(t testing.TB, p, threshold int, f func()) {
	t.Helper()
	oldP, oldT := Parallelism(), parallelFlopThreshold
	SetParallelism(p)
	if threshold > 0 {
		parallelFlopThreshold = threshold
	}
	defer func() {
		SetParallelism(oldP)
		parallelFlopThreshold = oldT
	}()
	f()
}

func randDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
		if rng.Intn(8) == 0 { // exercise exact zeros (no special-cased skip)
			m.Data[i] = 0
		}
	}
	return m
}

// Property: for every product variant, the parallel kernel is bit-identical
// to the serial kernel across shapes, including shapes straddling the flop
// threshold (40³ = 64000 < 2¹⁶ ≤ 41³) and shapes with fewer rows than the
// parallelism.
func TestParallelMulBitIdenticalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][3]int{
		{1, 1, 1}, {1, 64, 64}, {2, 3, 5}, {3, 70, 90},
		{40, 40, 40}, {41, 41, 41}, // threshold boundary
		{64, 64, 64}, {100, 32, 7}, {7, 100, 100}, {129, 65, 33},
	}
	for _, sh := range shapes {
		n, k, p := sh[0], sh[1], sh[2]
		a := randDense(rng, n, k)
		b := randDense(rng, k, p)
		var serial, parallel *Dense

		// MulInto
		withParallelism(t, 1, 0, func() { serial = Mul(a, b) })
		withParallelism(t, 4, 1, func() { parallel = Mul(a, b) })
		requireSameData(t, fmt.Sprintf("MulInto %v", sh), serial, parallel)

		// MulTAInto: operands n×k ᵀ* n×p
		a2 := randDense(rng, n, k)
		b2 := randDense(rng, n, p)
		withParallelism(t, 1, 0, func() { serial = MulTA(a2, b2) })
		withParallelism(t, 4, 1, func() { parallel = MulTA(a2, b2) })
		requireSameData(t, fmt.Sprintf("MulTAInto %v", sh), serial, parallel)

		// MulTBInto: operands n×k *ᵀ p×k
		b3 := randDense(rng, p, k)
		withParallelism(t, 1, 0, func() { serial = MulTB(a, b3) })
		withParallelism(t, 4, 1, func() { parallel = MulTB(a, b3) })
		requireSameData(t, fmt.Sprintf("MulTBInto %v", sh), serial, parallel)
	}
}

func requireSameData(t *testing.T, label string, want, got *Dense) {
	t.Helper()
	if want.Rows != got.Rows || want.Cols != got.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", label, want.Rows, want.Cols, got.Rows, got.Cols)
	}
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("%s: element %d differs: serial %v parallel %v", label, i, want.Data[i], got.Data[i])
		}
	}
}

// Parallelism values far above the row count, and rows that don't divide
// evenly into chunks, must still cover every output row exactly once.
func TestParallelMulOddChunking(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randDense(rng, 13, 31)
	b := randDense(rng, 31, 17)
	var serial, parallel *Dense
	withParallelism(t, 1, 0, func() { serial = Mul(a, b) })
	withParallelism(t, 64, 1, func() { parallel = Mul(a, b) })
	requireSameData(t, "odd chunking", serial, parallel)
}

func TestSetParallelismResets(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)
	SetParallelism(3)
	if Parallelism() != 3 {
		t.Fatalf("Parallelism() = %d, want 3", Parallelism())
	}
	SetParallelism(0)
	if Parallelism() < 1 {
		t.Fatalf("Parallelism() = %d after reset, want >= 1", Parallelism())
	}
}

func TestParallelForCoversRangeOnce(t *testing.T) {
	withParallelism(t, 4, 0, func() {
		const n = 1000
		hits := make([]int32, n)
		var mu sync.Mutex
		ParallelFor(n, 1, func(lo, hi int) {
			mu.Lock()
			for i := lo; i < hi; i++ {
				hits[i]++
			}
			mu.Unlock()
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("index %d covered %d times", i, h)
			}
		}
	})
}

func TestParallelForSerialBelowGrain(t *testing.T) {
	calls := 0
	ParallelFor(10, 100, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 10 {
			t.Fatalf("expected single full range, got [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("expected 1 serial call, got %d", calls)
	}
}

// Concurrent MulInto callers share the pool without racing (run with -race).
func TestParallelMulConcurrentCallers(t *testing.T) {
	withParallelism(t, 4, 1, func() {
		rng := rand.New(rand.NewSource(3))
		a := randDense(rng, 48, 48)
		b := randDense(rng, 48, 48)
		var want *Dense
		withParallelism(t, 1, 0, func() { want = Mul(a, b) })
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rep := 0; rep < 20; rep++ {
					got := Mul(a, b)
					for i := range want.Data {
						if got.Data[i] != want.Data[i] {
							t.Errorf("concurrent result differs at %d", i)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	})
}

func mustPanic(t *testing.T, label string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", label)
		}
	}()
	f()
}

func TestMulTAIntoPanics(t *testing.T) {
	a := NewDense(3, 2)
	b := NewDense(3, 4)
	dst := NewDense(2, 4)
	MulTAInto(dst, a, b) // sanity: valid shapes do not panic

	mustPanic(t, "operand mismatch", func() { MulTAInto(dst, NewDense(5, 2), b) })
	mustPanic(t, "dst shape", func() { MulTAInto(NewDense(3, 4), a, b) })
	mustPanic(t, "dst aliases a", func() {
		sq := NewDense(3, 3)
		MulTAInto(sq, sq, NewDense(3, 3))
	})
	mustPanic(t, "dst aliases b", func() {
		sq := NewDense(3, 3)
		MulTAInto(sq, NewDense(3, 3), sq)
	})
}

func TestMulTBIntoPanics(t *testing.T) {
	a := NewDense(3, 2)
	b := NewDense(4, 2)
	dst := NewDense(3, 4)
	MulTBInto(dst, a, b) // sanity: valid shapes do not panic

	mustPanic(t, "operand mismatch", func() { MulTBInto(dst, a, NewDense(4, 5)) })
	mustPanic(t, "dst shape", func() { MulTBInto(NewDense(4, 3), a, b) })
	mustPanic(t, "dst aliases a", func() {
		sq := NewDense(3, 3)
		MulTBInto(sq, sq, NewDense(3, 3))
	})
	mustPanic(t, "dst aliases b", func() {
		sq := NewDense(3, 3)
		MulTBInto(sq, NewDense(3, 3), sq)
	})
}

// benchModes are the worker-pool widths a kernel benchmark runs at: 1 forces
// the serial path, 0 the GOMAXPROCS default.
var benchModes = []struct {
	name string
	par  int
}{{"serial", 1}, {"parallel", 0}}

func benchmarkMulInto(b *testing.B, size, par int) {
	old := Parallelism()
	SetParallelism(par)
	defer SetParallelism(old)
	rng := rand.New(rand.NewSource(1))
	x := randDense(rng, size, size)
	y := randDense(rng, size, size)
	dst := NewDense(size, size)
	// testing collects garbage before each run, which empties the pooled
	// WaitGroups; refill them outside the timer, or a run of a few
	// iterations reports the refill as allocs/op.
	MulInto(dst, x, y)
	b.ReportAllocs()
	b.SetBytes(int64(size * size * size * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulInto(dst, x, y)
	}
}

func BenchmarkMulInto(b *testing.B) {
	for _, size := range []int{64, 256, 1024} {
		for _, mode := range benchModes {
			b.Run(fmt.Sprintf("%d/%s", size, mode.name), func(b *testing.B) {
				benchmarkMulInto(b, size, mode.par)
			})
		}
	}
}

// The parallel handoff allocates nothing at steady state: shard descriptors
// travel by value and WaitGroups are pooled. Width 2 shards both sizes over
// the worker pool. GC is paused because a cycle empties the WaitGroup pool,
// and its refill would be charged to the product.
func TestMulIntoParallelSteadyStateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("wgPool: race-mode sync.Pool drops Puts; alloc counts not representative")
	}
	old := Parallelism()
	SetParallelism(2)
	defer SetParallelism(old)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{64, 256} {
		x, y, dst := randDense(rng, n, n), randDense(rng, n, n), NewDense(n, n)
		MulInto(dst, x, y)
		if a := testing.AllocsPerRun(10, func() { MulInto(dst, x, y) }); a != 0 {
			t.Fatalf("steady-state parallel MulInto at %d allocates %.1f allocs/op, want 0", n, a)
		}
	}
}
