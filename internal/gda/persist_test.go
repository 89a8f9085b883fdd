package gda

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"faction/internal/mat"
	"faction/internal/resilience"
)

func TestEstimatorSaveLoadExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f, y, s, _ := clusters(rng, 60, 3)
	orig, err := Fit(f, y, s, 2, []int{-1, 1}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Dim != orig.Dim || loaded.Classes != orig.Classes || loaded.NumComponents() != orig.NumComponents() {
		t.Fatal("header mismatch")
	}
	// Densities must match exactly on arbitrary probes.
	probes := mat.FromRows([][]float64{{0, 0}, {3, 3}, {-7, 2}, {100, -100}})
	for i := 0; i < probes.Rows; i++ {
		z := probes.Row(i)
		if orig.LogDensity(z) != loaded.LogDensity(z) {
			t.Fatalf("probe %d: density mismatch", i)
		}
		for c := 0; c < 2; c++ {
			for _, sv := range []int{-1, 1} {
				if orig.logCondDensity(z, c, sv) != loaded.logCondDensity(z, c, sv) {
					t.Fatalf("probe %d comp (%d,%d) mismatch", i, c, sv)
				}
			}
		}
	}
	// Batch scores must match too.
	a := orig.scoreBatch(probes)
	b := loaded.scoreBatch(probes)
	for i := range a.G {
		if a.G[i] != b.G[i] {
			t.Fatal("batch score mismatch")
		}
		for c := range a.Delta[i] {
			if a.Delta[i][c] != b.Delta[i][c] {
				t.Fatal("delta mismatch")
			}
		}
	}
}

func TestEstimatorLoadGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("junk")); err == nil {
		t.Fatal("expected decode error")
	}
}

// goodSnapshot is a valid one-component snapshot at Dim 2.
func goodSnapshot() estimatorSnapshot {
	return estimatorSnapshot{
		Version: snapshotVersion, Dim: 2, Classes: 2, SensValues: []int{-1, 1},
		Comps: []componentSnapshot{{
			Y: 0, S: 1, N: 3, Mean: []float64{0, 0}, Weight: 1,
			Factor: []float64{1, 0, 0, 1}, LogNormBase: -1,
		}},
	}
}

// goodLowRankSnapshot is a valid version-3 snapshot at Dim 2 with one
// low-rank component of rank 1.
func goodLowRankSnapshot() lowRankSnapshot {
	return lowRankSnapshot{
		Version: snapshotVersionLowRank, Dim: 2, Classes: 2, SensValues: []int{-1, 1},
		Comps: []lowRankComponentSnapshot{{
			Y: 0, S: 1, N: 2, Mean: []float64{0, 0}, Weight: 1,
			Factor: []float64{1}, LogNormBase: -1,
			LowRank: true, Rank: 1, Basis: []float64{1, 0}, Ridge: 1e-6,
		}},
	}
}

// badSnapshots returns corruptions of goodSnapshot and goodLowRankSnapshot
// that Load must reject.
func badSnapshots() map[string]any {
	cases := map[string]func(*estimatorSnapshot){
		"bad version":    func(s *estimatorSnapshot) { s.Version = 9 },
		"bad dim":        func(s *estimatorSnapshot) { s.Dim = 0 },
		"no sens":        func(s *estimatorSnapshot) { s.SensValues = nil },
		"huge classes":   func(s *estimatorSnapshot) { s.Classes = 1 << 40 },
		"short mean":     func(s *estimatorSnapshot) { s.Comps[0].Mean = []float64{1} },
		"short factor":   func(s *estimatorSnapshot) { s.Comps[0].Factor = []float64{1} },
		"not triangular": func(s *estimatorSnapshot) { s.Comps[0].Factor = []float64{1, 5, 0, 1} },
		"bad diagonal":   func(s *estimatorSnapshot) { s.Comps[0].Factor = []float64{-1, 0, 0, 1} },
		"dup component": func(s *estimatorSnapshot) {
			s.Comps = append(s.Comps, s.Comps[0])
		},
		"nan weight":           func(s *estimatorSnapshot) { s.Comps[0].Weight = math.NaN() },
		"negative weight":      func(s *estimatorSnapshot) { s.Comps[0].Weight = -1 },
		"weight above one":     func(s *estimatorSnapshot) { s.Comps[0].Weight = 1.5 },
		"inf log-normaliser":   func(s *estimatorSnapshot) { s.Comps[0].LogNormBase = math.Inf(1) },
		"nan mean":             func(s *estimatorSnapshot) { s.Comps[0].Mean = []float64{math.NaN(), 0} },
		"inf factor entry":     func(s *estimatorSnapshot) { s.Comps[0].Factor = []float64{1, 0, math.Inf(1), 1} },
		"nan training density": func(s *estimatorSnapshot) { s.TrainLDs = []float64{-1, math.NaN()} },
	}
	lowRank := map[string]func(*lowRankSnapshot){
		"v3 rank above dim": func(s *lowRankSnapshot) {
			c := &s.Comps[0]
			c.Rank, c.Basis, c.Factor = 3, make([]float64, 6), []float64{1, 0, 0, 0, 1, 0, 0, 0, 1}
		},
		"v3 basis not orthonormal": func(s *lowRankSnapshot) { s.Comps[0].Basis = []float64{1, 0.1} },
		"v3 nan basis":             func(s *lowRankSnapshot) { s.Comps[0].Basis = []float64{math.NaN(), 0} },
		"v3 short basis":           func(s *lowRankSnapshot) { s.Comps[0].Basis = []float64{1} },
		"v3 zero ridge":            func(s *lowRankSnapshot) { s.Comps[0].Ridge = 0 },
		"v3 inf factor":            func(s *lowRankSnapshot) { s.Comps[0].Factor = []float64{math.Inf(1)} },
		"v3 nan mean":              func(s *lowRankSnapshot) { s.Comps[0].Mean = []float64{0, math.NaN()} },
		"v3 nan weight":            func(s *lowRankSnapshot) { s.Comps[0].Weight = math.NaN() },
		"v3 dense with basis": func(s *lowRankSnapshot) {
			s.Comps[0].LowRank, s.Comps[0].Factor = false, []float64{1, 0, 0, 1}
		},
	}
	out := make(map[string]any, len(cases)+len(lowRank))
	for name, corrupt := range cases {
		snap := goodSnapshot()
		corrupt(&snap)
		out[name] = snap
	}
	for name, corrupt := range lowRank {
		snap := goodLowRankSnapshot()
		corrupt(&snap)
		out[name] = snap
	}
	return out
}

func encodeSnapshot(t testing.TB, snap any) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestEstimatorLoadBadSnapshots(t *testing.T) {
	for name, snap := range badSnapshots() {
		if _, err := Load(encodeSnapshot(t, snap)); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
	// The uncorrupted snapshots load fine.
	if _, err := Load(encodeSnapshot(t, goodSnapshot())); err != nil {
		t.Fatalf("control snapshot failed: %v", err)
	}
	if _, err := Load(encodeSnapshot(t, goodLowRankSnapshot())); err != nil {
		t.Fatalf("control v3 snapshot failed: %v", err)
	}
}

// FuzzEstimatorLoad: Load of arbitrary bytes either fails or returns an
// estimator that scores a batch of all-zero rows without panicking. Load feeds
// factor and basis bits from outside the program through CholeskyFromFactor,
// LowRankFromFactors and the whitening inverse. Seeds: Save output of a
// dense (version 1) and a low-rank (version 3) estimator, each followed by a
// recorded legacy float32 snapshot of that kind (versions 2 and 3), and the
// snapshots of TestEstimatorLoadBadSnapshots.
func FuzzEstimatorLoad(f *testing.F) {
	dense, _ := fitFixture(f, 40, 3, 2, []int{-1, 1})
	lowRank, _ := fitFixture(f, 16, 16, 2, []int{-1, 1})
	for _, seed := range []struct {
		e      *Estimator
		legacy string
	}{{dense, "testdata/dense_v2.gob"}, {lowRank, "testdata/lowrank_v3_f32.gob"}} {
		var buf bytes.Buffer
		if err := seed.e.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		raw, err := os.ReadFile(seed.legacy)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add(encodeSnapshot(f, goodSnapshot()).Bytes())
	f.Add(encodeSnapshot(f, goodLowRankSnapshot()).Bytes())
	for _, snap := range badSnapshots() {
		f.Add(encodeSnapshot(f, snap).Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := Load(bytes.NewReader(data))
		if err != nil || e.Dim > 64 {
			return
		}
		e.scoreBatch(mat.NewDense(2, e.Dim))
	})
}

func TestEstimatorFileSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f, y, s, _ := clusters(rng, 60, 3)
	orig, err := Fit(f, y, s, 2, []int{-1, 1}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "density.gob")
	if err := orig.SaveFile(path, 1); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	z := []float64{1, -2}
	if orig.LogDensity(z) != loaded.LogDensity(z) {
		t.Fatal("density mismatch after file round trip")
	}
}

func TestEstimatorFileSnapshotCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f, y, s, _ := clusters(rng, 60, 3)
	orig, err := Fit(f, y, s, 2, []int{-1, 1}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "density.gob")
	if err := orig.SaveFile(path, 0); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0x55 // corrupt a payload byte
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); !errors.Is(err, resilience.ErrCorrupt) {
		t.Fatalf("corrupt snapshot: err = %v, want resilience.ErrCorrupt", err)
	}
}
