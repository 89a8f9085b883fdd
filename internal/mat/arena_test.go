package mat

import (
	"math/rand"
	"runtime"
	"testing"
)

func TestArenaGetShapesAndIndependence(t *testing.T) {
	var a Arena
	m1 := a.Get(3, 5)
	m2 := a.Get(3, 5)
	if m1.Rows != 3 || m1.Cols != 5 || len(m1.Data) != 15 {
		t.Fatalf("Get(3,5) shape = %dx%d len %d", m1.Rows, m1.Cols, len(m1.Data))
	}
	if m1 == m2 {
		t.Fatal("two Gets from one arena returned the same matrix")
	}
	// Contents are arbitrary but writable and independent.
	for i := range m1.Data {
		m1.Data[i] = 1
		m2.Data[i] = 2
	}
	for i := range m1.Data {
		if m1.Data[i] != 1 || m2.Data[i] != 2 {
			t.Fatalf("matrices share storage at %d", i)
		}
	}
	// After Reset the same Gets hand out the same matrices, reshaped.
	a.Reset()
	if r := a.Get(5, 3); r != m1 || r.Rows != 5 || r.Cols != 3 || len(r.Data) != 15 {
		t.Fatalf("first Get after Reset = %p %dx%d, want %p 5x3", r, r.Rows, r.Cols, m1)
	}
	if r := a.Get(4, 5); r != m2 || len(r.Data) != 20 {
		t.Fatalf("second Get after Reset = %p len %d, want %p grown to 20", r, len(r.Data), m2)
	}
}

func TestArenaEmptyAndPanics(t *testing.T) {
	var a Arena
	if m := a.Get(0, 7); m.Rows != 0 || m.Cols != 7 || len(m.Data) != 0 {
		t.Fatalf("Get(0,7) = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	mustPanic(t, "negative dims", func() { a.Get(-1, 2) })
}

// Reused matrices must be fully usable as MulInto destinations even though
// their contents are arbitrary.
func TestArenaMatricesWorkWithKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randDense(rng, 6, 9)
	y := randDense(rng, 9, 4)
	want := Mul(x, y)
	// Dirty the arena: take a matrix, scribble on it, reset.
	var a Arena
	d := a.Get(6, 4)
	for i := range d.Data {
		d.Data[i] = 1e30
	}
	a.Reset()
	// The next pass's Get reuses that dirty storage.
	dst := a.Get(6, 4)
	MulInto(dst, x, y)
	requireSameData(t, "arena dst", want, dst)
}

// The whole point: a fixed-shape loop over one owned arena allocates
// nothing after its first pass, even when two collections run between
// passes (a sync.Pool would be empty by then).
func TestArenaSteadyStateZeroAllocs(t *testing.T) {
	x := NewDense(4, 16)
	y := NewDense(16, 32)
	for i := range x.Data {
		x.Data[i] = float64(i)
	}
	for i := range y.Data {
		y.Data[i] = float64(i) * 0.5
	}
	var a Arena
	pass := func() {
		a.Reset()
		h := a.Get(4, 32)
		MulInto(h, x, y)
		_ = a.Get(4, 2)
	}
	pass()
	// Each measured run collects twice before its pass. AllocsPerRun
	// averages over the runs, so a pass that allocates reads at least 1,
	// and a stray allocation of the runtime's own after one collection
	// does not.
	gcThenPass := func() {
		runtime.GC()
		runtime.GC()
		pass()
	}
	if n := testing.AllocsPerRun(20, gcThenPass); n != 0 {
		t.Fatalf("a pass after two collections allocates %.1f times, want 0", n)
	}
}
