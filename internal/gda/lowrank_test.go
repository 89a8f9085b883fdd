package gda

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"testing"

	"faction/internal/mat"
	"faction/internal/testutil"
)

// The rule puts protocol-paper's components (9–188 rows at d = 512) and
// serve-mixed's (over 64 rows at d = 64) on opposite sides.
func TestLowRankCheaper(t *testing.T) {
	for _, tc := range []struct {
		n, d int
		want bool
	}{
		{9, 512, true}, {188, 512, true}, {206, 512, true}, {207, 512, false}, {300, 512, false},
		{26, 64, true}, {27, 64, false}, {65, 64, false}, {500, 64, false},
		{2, 2, false}, {3, 2, false},
	} {
		if got := lowRankCheaper(tc.n, tc.d); got != tc.want {
			t.Errorf("lowRankCheaper(%d, %d) = %v, want %v", tc.n, tc.d, got, tc.want)
		}
	}
}

// lowRankData is protocol-paper's shape at a tenth of its width: four
// components of ~15 rows at d = 48, all cheaper in low-rank form.
func lowRankData() (*mat.Dense, []int, []int) { return fixtureData(60, 48, 2, []int{-1, 1}) }

// Only unshrunk components with their own rows take the low-rank form:
// shrinkage (fixed or automatic) and the degenerate fallback stay dense.
func TestFitLowRankEligibility(t *testing.T) {
	f, y, s := lowRankData()
	for _, tc := range []struct {
		name string
		cfg  Config
		want bool
	}{
		{"default", Config{}, true},
		{"fixed shrinkage", Config{Shrinkage: 0.3}, false},
		{"automatic shrinkage", Config{Shrinkage: -1}, false},
		{"degenerate", Config{MinComponentSamples: 100}, false},
	} {
		e, err := Fit(f, y, s, 2, []int{-1, 1}, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, c := range e.ordered {
			if got := c.lowRank != nil; got != tc.want {
				t.Fatalf("%s: component (%d,%d) of %d rows low rank %v, want %v", tc.name, c.Y, c.S, c.N, got, tc.want)
			}
		}
	}
}

// Fit = Load for low-rank components: the snapshot is version 3, and the
// loaded stack's basis, whitening and whitened means, and therefore every
// scored bit, equal the fitted ones. The f32 case starts from a legacy
// float32 snapshot of the same fit, widened on load, and re-saves it at
// float64.
func TestPersistRoundTripLowRankBits(t *testing.T) {
	f, y, s := lowRankData()
	e, err := Fit(f, y, s, 2, []int{-1, 1}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(83))
	probe := mat.NewDense(13, e.Dim)
	for i := range probe.Data {
		probe.Data[i] = 2 * rng.NormFloat64()
	}
	t.Run("f64", func(t *testing.T) { testLowRankRoundTrip(t, e, probe) })
	t.Run("f32", func(t *testing.T) { testLowRankRoundTrip(t, loadLegacy(t, "testdata/lowrank_v3_f32.gob"), probe) })
}

func testLowRankRoundTrip(t *testing.T, e *Estimator, probe *mat.Dense) {
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var snap lowRankSnapshot
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&snap); err != nil || snap.Version != snapshotVersionLowRank {
		t.Fatalf("snapshot version %d (%v), want %d", snap.Version, err, snapshotVersionLowRank)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, b := e.wstack, loaded.wstack
	for k := 0; k < a.Components(); k++ {
		if a.Basis(k) == nil {
			t.Fatalf("component %d is dense", k)
		}
		for name, pair := range map[string][2][]float64{
			"basis": {a.Basis(k), b.Basis(k)},
			"W":     {a.Factor(k), b.Factor(k)},
			"m̃":    {a.WhitenedMean(k), b.WhitenedMean(k)},
		} {
			if len(pair[0]) != len(pair[1]) {
				t.Fatalf("component %d: %s has %d values after round trip, %d before", k, name, len(pair[1]), len(pair[0]))
			}
			for i := range pair[0] {
				if pair[0][i] != pair[1][i] {
					t.Fatalf("component %d: %s[%d] differs after round trip", k, name, i)
				}
			}
		}
	}
	got, want := loaded.logDensityBatch(probe), e.logDensityBatch(probe)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LogDensity[%d] differs after round trip: %v vs %v", i, got[i], want[i])
		}
	}
}

// An all-dense estimator saves exactly the bytes it saved before low-rank
// components existed: testdata/dense_v1.gob was written by that Save, in a
// fresh process, from this fixture. gob numbers the types a process encodes
// in order of first use and writes the numbers into every stream, so the
// check runs in a child process whose first gob use is a Load of the file,
// through the version-3 type: that must not renumber what a later Save
// writes. The file still loads and scores alike.
func TestSaveAllDenseBytesUnchanged(t *testing.T) {
	if os.Getenv("GDA_SAVE_BYTES_CHILD") == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestSaveAllDenseBytesUnchanged$", "-test.count=1")
		cmd.Env = append(os.Environ(), "GDA_SAVE_BYTES_CHILD=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("child process: %v\n%s", err, out)
		}
		return
	}
	f := denseSnapshotData()
	want, err := os.ReadFile("testdata/dense_v1.gob")
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	e, err := FitClassOnly(f, make([]int, f.Rows), 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The fit's factor and mean come from the plain Go fit loops; its
	// training log-densities come from the scoring kernel, whose bits
	// differ between the assembly and the portable kernel. The recorded
	// ones stand in for them.
	e.TrainLogDensities = loaded.TrainLogDensities
	for name, est := range map[string]*Estimator{"fitted": e, "loaded": loaded} {
		var buf bytes.Buffer
		if err := est.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("f64 %s: Save wrote %d bytes that differ from the recorded %d", name, buf.Len(), len(want))
		}
	}
	if got, want := loaded.logDensityBatch(f), e.logDensityBatch(f); !equalBits(got, want) {
		t.Fatal("f64: loaded densities differ")
	}
}

// denseSnapshotData is the fixture testdata/dense_v{1,2}.gob were fitted on,
// class-only: 24 Gaussian rows at d = 3.
func denseSnapshotData() *mat.Dense {
	rng := rand.New(rand.NewSource(5))
	f := mat.NewDense(24, 3)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	return f
}

func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// The read-path pin on a low-rank estimator: the projection tile comes
// from the stack's pool, so steady-state scoring still allocates nothing.
func TestLowRankScoreBatchRawSteadyStateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-mode sync.Pool drops Puts; alloc counts not representative")
	}
	old := mat.Parallelism()
	mat.SetParallelism(1)
	defer mat.SetParallelism(old)
	f, y, s := lowRankData()
	e, err := Fit(f, y, s, 2, []int{-1, 1}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var bs BatchScores
	loop := func() {
		e.ScoreRows(&bs, 0, f)
		bs.Scale()
	}
	for i := 0; i < 10; i++ {
		loop()
	}
	if n := testing.AllocsPerRun(50, loop); n != 0 {
		t.Fatalf("steady-state low-rank ScoreRows+Scale allocates %.1f allocs/op, want 0", n)
	}
}

// BenchmarkGDAScoreBatchRaw512d is the scoring pass protocol-paper runs each
// acquisition round: fit at d = 512 on 300 rows (four low-rank components
// of ~75 rows, as BenchmarkFit4Comp512d), then score a 512-row pool into
// one reused BatchScores.
func BenchmarkGDAScoreBatchRaw512d(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	const n, d = 300, 512
	f := mat.NewDense(n, d)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	y := make([]int, n)
	s := make([]int, n)
	for i := range y {
		y[i] = rng.Intn(2)
		s[i] = 2*rng.Intn(2) - 1
	}
	e, err := Fit(f, y, s, 2, []int{-1, 1}, Config{})
	if err != nil {
		b.Fatal(err)
	}
	pool := mat.NewDense(512, d)
	for i := range pool.Data {
		pool.Data[i] = rng.NormFloat64()
	}
	var batch BatchScores
	loop := func() {
		e.ScoreRows(&batch, 0, pool)
		batch.Scale()
	}
	loop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loop()
	}
}
