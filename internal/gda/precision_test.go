package gda

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"strings"
	"testing"

	"faction/internal/mat"
	"faction/internal/testutil"
)

func TestPrecisionParseString(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Precision
	}{
		{"", PrecisionF64},
		{"f64", PrecisionF64},
		{"f32", PrecisionF32},
	} {
		got, err := ParsePrecision(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParsePrecision(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParsePrecision("f16"); err == nil {
		t.Fatal("ParsePrecision(\"f16\") succeeded, want error")
	}
	if PrecisionF64.String() != "f64" || PrecisionF32.String() != "f32" {
		t.Fatalf("String(): %q / %q", PrecisionF64.String(), PrecisionF32.String())
	}
}

// Property: the f32 scoring path tracks the f64 path within the DESIGN.md §15
// error model on every fixture — including the ridge-rescued near-singular
// one, where rounding the factor to f32 is amplified by its conditioning —
// and never flips a per-row argmax over the weighted component log-pdfs (the
// decision every consumer of the density ranking acts on). The differential
// corpus mirrors the solve-reference suite.
func TestF32DensityMatchesF64NoArgmaxFlips(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n, d    int
		classes int
		sens    []int
		tol     float64
	}{
		{"two-group", 140, 12, 2, []int{-1, 1}, 1e-3},
		{"multi-valued", 120, 7, 3, []int{0, 1, 2}, 1e-3},
		{"class-only", 90, 16, 2, []int{0}, 1e-3},
		{"near-singular", 20, 16, 2, []int{-1, 1}, 5e-2}, // n ≈ d: shrinkage + ridge rescue
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, f := fitFixture(t, tc.n, tc.d, tc.classes, tc.sens)
			nc := len(e.ordered)
			score := func() (logG []float64, terms [][]float64) {
				raw := e.ScoreBatchRaw(f)
				defer raw.Release()
				logG = append([]float64(nil), raw.LogG...)
				terms = make([][]float64, f.Rows)
				for i := 0; i < f.Rows; i++ {
					terms[i] = make([]float64, nc)
					for j, c := range e.ordered {
						terms[i][j] = c.logWeight + e.LogCondDensity(f.Row(i), c.Y, c.S)
					}
				}
				return logG, terms
			}
			logG64, terms64 := score()
			e.SetPrecision(PrecisionF32)
			defer e.SetPrecision(PrecisionF64)
			logG32, terms32 := score()
			for i := range logG64 {
				if rel := math.Abs(logG32[i]-logG64[i]) / (1 + math.Abs(logG64[i])); rel > tc.tol {
					t.Fatalf("row %d: LogG f32 %v vs f64 %v (rel %g > %g)", i, logG32[i], logG64[i], rel, tc.tol)
				}
				if argmax(terms32[i]) != argmax(terms64[i]) {
					t.Fatalf("row %d: argmax flipped f64 comp %d -> f32 comp %d (terms %v vs %v)",
						i, argmax(terms64[i]), argmax(terms32[i]), terms64[i], terms32[i])
				}
			}
		})
	}
}

func argmax(v []float64) int {
	best, bi := math.Inf(-1), -1
	for i, x := range v {
		if x > best {
			best, bi = x, i
		}
	}
	return bi
}

// Non-finite features must poison exactly their own rows on the f32 path too,
// including feature values that are finite in float64 but overflow float32.
func TestF32NonFinitePropagation(t *testing.T) {
	e, f := fitFixture(t, 40, 8, 2, []int{-1, 1})
	e.SetPrecision(PrecisionF32)
	cleanRaw := e.ScoreBatchRaw(f)
	defer cleanRaw.Release()

	dirty := f.Clone()
	const nanRow, infRow, overflowRow = 3, 17, 29
	dirty.Row(nanRow)[2] = math.NaN()
	dirty.Row(infRow)[5] = math.Inf(-1)
	dirty.Row(overflowRow)[0] = -1e300 // overflows float32 during tile packing
	raw := e.ScoreBatchRaw(dirty)
	defer raw.Release()

	for i := 0; i < dirty.Rows; i++ {
		switch i {
		case nanRow:
			if !math.IsNaN(raw.LogG[i]) {
				t.Fatalf("NaN row LogG = %v, want NaN", raw.LogG[i])
			}
		case infRow, overflowRow:
			if !math.IsNaN(raw.LogG[i]) && !math.IsInf(raw.LogG[i], 0) {
				t.Fatalf("row %d LogG = %v, want non-finite", i, raw.LogG[i])
			}
		default:
			if raw.LogG[i] != cleanRaw.LogG[i] {
				t.Fatalf("clean row %d LogG perturbed by non-finite neighbors: %v vs %v",
					i, raw.LogG[i], cleanRaw.LogG[i])
			}
		}
	}
}

// Switching to f32 and back to f64 must restore the exact f64 bits — the f64
// stack is never touched by the precision switch.
func TestSetPrecisionRoundTripBits(t *testing.T) {
	e, f := fitFixture(t, 60, 9, 2, []int{-1, 1})
	want := e.LogDensityBatch(f)
	e.SetPrecision(PrecisionF32)
	if e.Precision() != PrecisionF32 {
		t.Fatalf("Precision() = %v after SetPrecision(f32)", e.Precision())
	}
	e.SetPrecision(PrecisionF64)
	got := e.LogDensityBatch(f)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LogG[%d] differs after f32 round trip: %v vs %v", i, got[i], want[i])
		}
	}
}

// The pooled serving loop keeps its 0-alloc contract on the f32 path — the
// pin the f32 bench-gate rows enforce.
func TestF32ScoreBatchRawSteadyStateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-mode sync.Pool drops Puts; alloc counts not representative")
	}
	old := mat.Parallelism()
	mat.SetParallelism(1)
	defer mat.SetParallelism(old)
	e, _ := fitFixture(t, 120, 16, 2, []int{-1, 1})
	e.SetPrecision(PrecisionF32)
	rng := rand.New(rand.NewSource(59))
	probe := mat.NewDense(48, 16)
	for i := range probe.Data {
		probe.Data[i] = rng.NormFloat64()
	}
	var batch BatchScores
	loop := func() {
		raw := e.ScoreBatchRaw(probe)
		raw.SliceInto(&batch, 0, probe.Rows)
		raw.Release()
	}
	for i := 0; i < 10; i++ {
		loop()
	}
	if n := testing.AllocsPerRun(50, loop); n != 0 {
		t.Fatalf("steady-state f32 ScoreBatchRaw loop allocates %.1f allocs/op, want 0", n)
	}
}

// An f32-precision estimator persists float32 payloads; Load must restore the
// precision and rebuild a bit-identical f32 whitening stack — the same
// guarantee TestPersistRoundTripWhiteningBits pins for f64 — and the payload
// must actually be smaller (the point of shipping f32 snapshots to a fleet).
func TestPersistRoundTripF32Bits(t *testing.T) {
	e, _ := fitFixture(t, 200, 24, 3, []int{-1, 1})
	var f64Buf bytes.Buffer
	if err := e.Save(&f64Buf); err != nil {
		t.Fatal(err)
	}
	e.SetPrecision(PrecisionF32)
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if ratio := float64(buf.Len()) / float64(f64Buf.Len()); ratio > 0.65 {
		t.Fatalf("f32 snapshot is %d bytes vs f64 %d (ratio %.2f), want ≤ 0.65", buf.Len(), f64Buf.Len(), ratio)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Precision() != PrecisionF32 {
		t.Fatalf("loaded precision = %v, want f32", loaded.Precision())
	}
	a, aok := e.wstack.(*mat.WhitenedStack[float32])
	b, bok := loaded.wstack.(*mat.WhitenedStack[float32])
	if !aok || !bok || a.Components() != b.Components() || a.Dim() != b.Dim() {
		t.Fatalf("f32 stack shape differs after round trip")
	}
	for k := 0; k < a.Components(); k++ {
		fw, lw := a.Factor(k), b.Factor(k)
		for i := range fw {
			if fw[i] != lw[i] {
				t.Fatalf("factor %d: W32[%d] differs after round trip: %v vs %v", k, i, fw[i], lw[i])
			}
		}
		fm, lm := a.WhitenedMean(k), b.WhitenedMean(k)
		for i := range fm {
			if fm[i] != lm[i] {
				t.Fatalf("factor %d: m̃32[%d] differs after round trip: %v vs %v", k, i, fm[i], lm[i])
			}
		}
	}
	// And therefore the f32-scored bits agree too (logNormBase and weights are
	// persisted as float64, so the log-density arithmetic is unchanged).
	rng := rand.New(rand.NewSource(73))
	probe := mat.NewDense(9, e.Dim)
	for i := range probe.Data {
		probe.Data[i] = rng.NormFloat64()
	}
	got := loaded.LogDensityBatch(probe)
	want := e.LogDensityBatch(probe)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("f32 LogDensity[%d] differs after round trip: %v vs %v", i, got[i], want[i])
		}
	}
}

// Malformed precision payloads are rejected, never silently reinterpreted.
func TestLoadRejectsMalformedPrecision(t *testing.T) {
	base := func() estimatorSnapshot {
		return estimatorSnapshot{
			Version: snapshotVersion, Dim: 2, Classes: 1, SensValues: []int{0},
			Comps: []componentSnapshot{{
				Y: 0, S: 0, N: 3, Weight: 1,
				Mean: []float64{0, 0}, Factor: []float64{1, 0, 0, 1},
			}},
		}
	}
	for _, tc := range []struct {
		name string
		mut  func(*estimatorSnapshot)
		want string
	}{
		{"unknown precision", func(s *estimatorSnapshot) { s.Precision = "f16" }, "unknown precision"},
		{"f32 payload in v1", func(s *estimatorSnapshot) {
			s.Precision = "f32"
			s.Comps[0].Mean, s.Comps[0].Factor = nil, nil
			s.Comps[0].Mean32, s.Comps[0].Factor32 = []float32{0, 0}, []float32{1, 0, 0, 1}
		}, "f32 payload in version-1"},
		{"mixed f64 fields in f32 snapshot", func(s *estimatorSnapshot) {
			s.Version, s.Precision = snapshotVersionF32, "f32"
			s.Comps[0].Mean32, s.Comps[0].Factor32 = []float32{0, 0}, []float32{1, 0, 0, 1}
		}, "float64 fields"},
		{"stray f32 fields in f64 snapshot", func(s *estimatorSnapshot) {
			s.Comps[0].Mean32 = []float32{0, 0}
		}, "float32 fields"},
		{"short f32 factor", func(s *estimatorSnapshot) {
			s.Version, s.Precision = snapshotVersionF32, "f32"
			s.Comps[0].Mean, s.Comps[0].Factor = nil, nil
			s.Comps[0].Mean32, s.Comps[0].Factor32 = []float32{0, 0}, []float32{1, 1} // want d(d+1)/2 = 3
		}, "packed factor has 2 values"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap := base()
			tc.mut(&snap)
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
				t.Fatal(err)
			}
			_, err := Load(&buf)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Load = %v, want error containing %q", err, tc.want)
			}
		})
	}
	// The unmutated base must load cleanly (the gauntlet above tests the
	// mutations, not the scaffold).
	snap := base()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err != nil {
		t.Fatalf("base snapshot rejected: %v", err)
	}
}
