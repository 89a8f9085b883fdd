package gda

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"faction/internal/mat"
)

// loadLegacy loads a snapshot recorded by an earlier release.
func loadLegacy(t testing.TB, path string) *Estimator {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return e
}

// legacyCase is a float32 snapshot in testdata, written by Save while the
// float32 scoring path existed, with the float64 fit it was saved from and
// the f32 path's tolerance for that fit.
type legacyCase struct {
	name, file string
	fit        func(testing.TB) (*Estimator, *mat.Dense)
	tol        float64
}

// legacyF32 lists the recorded float32 snapshots: five fitFixture shapes,
// and dense_v2.gob, the class-only fit of denseSnapshotData.
func legacyF32() []legacyCase {
	fixture := func(n, d, classes int, sens []int) func(testing.TB) (*Estimator, *mat.Dense) {
		return func(t testing.TB) (*Estimator, *mat.Dense) { return fitFixture(t, n, d, classes, sens) }
	}
	return []legacyCase{
		{"two-group", "testdata/twogroup_v2_f32.gob", fixture(140, 12, 2, []int{-1, 1}), 1e-3},
		{"multi-valued", "testdata/multivalued_v2_f32.gob", fixture(120, 7, 3, []int{0, 1, 2}), 1e-3},
		{"class-only", "testdata/classonly_v2_f32.gob", fixture(90, 16, 2, []int{0}), 1e-3},
		// n ≈ d: ridge rescue, where rounding the factor to float32 is
		// amplified by its conditioning. Three of its four components are
		// low rank.
		{"near-singular", "testdata/nearsingular_v3_f32.gob", fixture(20, 16, 2, []int{-1, 1}), 5e-2},
		{"low-rank", "testdata/lowrank_v3_f32.gob", fixture(60, 48, 2, []int{-1, 1}), 1e-3},
		{"dense-v2", "testdata/dense_v2.gob", func(t testing.TB) (*Estimator, *mat.Dense) {
			f := denseSnapshotData()
			e, err := FitClassOnly(f, make([]int, f.Rows), 1, Config{})
			if err != nil {
				t.Fatal(err)
			}
			return e, f
		}, 1e-3},
	}
}

// Property: a float32 snapshot from an earlier release loads widened to
// float64 and tracks the float64 fit it was saved from within the f32
// path's tolerance on every fixture, and never flips a per-row argmax over
// the weighted component log-pdfs (the decision every consumer of the
// density ranking acts on).
func TestF32DensityMatchesF64NoArgmaxFlips(t *testing.T) {
	for _, tc := range legacyF32() {
		t.Run(tc.name, func(t *testing.T) {
			fit, f := tc.fit(t)
			legacy := loadLegacy(t, tc.file)
			score := func(e *Estimator) (logG []float64, terms [][]float64) {
				logG = e.logDensityBatch(f)
				terms = make([][]float64, f.Rows)
				for i := range terms {
					for _, c := range e.ordered {
						terms[i] = append(terms[i], c.logWeight+e.logCondDensity(f.Row(i), c.Y, c.S))
					}
				}
				return logG, terms
			}
			logG64, terms64 := score(fit)
			logG32, terms32 := score(legacy)
			if len(terms32[0]) != len(terms64[0]) {
				t.Fatalf("legacy snapshot has %d components, the fit %d", len(terms32[0]), len(terms64[0]))
			}
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

// A legacy float32 snapshot re-saves at float64, as version 1 when all
// dense and version 3 with a low-rank component, and that snapshot loads
// back to a bit-identical whitening stack and identical log densities: the
// widened f32 bits persist exactly.
func TestPersistRoundTripF32Bits(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, tc := range legacyF32() {
		legacy := loadLegacy(t, tc.file)
		wantVersion := snapshotVersion
		for _, c := range legacy.ordered {
			if c.lowRank != nil {
				wantVersion = snapshotVersionLowRank
			}
		}
		var buf bytes.Buffer
		if err := legacy.Save(&buf); err != nil {
			t.Fatal(err)
		}
		var snap lowRankSnapshot
		if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		if snap.Version != wantVersion || snap.Precision != "f64" {
			t.Fatalf("%s: re-saved as version %d %q, want %d \"f64\"", tc.name, snap.Version, snap.Precision, wantVersion)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		a, b := legacy.wstack, loaded.wstack
		for k := 0; k < a.Components(); k++ {
			for name, pair := range map[string][2][]float64{
				"basis": {a.Basis(k), b.Basis(k)},
				"W":     {a.Factor(k), b.Factor(k)},
				"m̃":    {a.WhitenedMean(k), b.WhitenedMean(k)},
			} {
				if !equalBits(pair[0], pair[1]) {
					t.Fatalf("%s component %d: %s differs after re-save", tc.name, k, name)
				}
			}
		}
		probe := mat.NewDense(9, legacy.Dim)
		for i := range probe.Data {
			probe.Data[i] = rng.NormFloat64()
		}
		if !equalBits(loaded.logDensityBatch(probe), legacy.logDensityBatch(probe)) {
			t.Fatalf("%s: log densities differ after re-save", tc.name)
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
