package gda

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"

	"faction/internal/mat"
	"faction/internal/resilience"
)

// estimatorSnapshot is the gob wire format of a fitted Estimator.
type estimatorSnapshot struct {
	Version    int
	Dim        int
	Classes    int
	SensValues []int
	TrainLDs   []float64
	// Precision is the wire width of the component payloads: "" or "f64"
	// means float64 Mean/Factor fields; "f32" means float32 Mean32/Factor32
	// fields, which only earlier releases wrote (version 2, or 3 with a
	// low-rank component). Save always writes "f64"; Load widens an f32
	// payload to float64 exactly.
	Precision string
	Comps     []componentSnapshot
}

type componentSnapshot struct {
	Y, S       int
	N          int
	Mean       []float64
	Weight     float64
	Degenerate bool
	Factor     []float64 // lower-triangular Cholesky factor, row-major Dim×Dim
	// Mean32/Factor32 replace Mean/Factor in legacy f32 snapshots. Factor32
	// packs only the lower triangle (row-major, length Dim·(Dim+1)/2).
	// LogNormBase and Weight are float64 at either width.
	Mean32      []float32
	Factor32    []float32
	LogNormBase float64
}

// lowRankSnapshot is the version-3 wire format, written when the estimator
// has a low-rank component: estimatorSnapshot's fields, with components that
// may carry a basis. An all-dense estimator keeps writing estimatorSnapshot,
// so its bytes do not change. Load decodes every version into this type
// (gob matches fields by name, so a v1 or v2 stream fills the fields it
// has).
type lowRankSnapshot struct {
	Version    int
	Dim        int
	Classes    int
	SensValues []int
	TrainLDs   []float64
	Precision  string
	Comps      []lowRankComponentSnapshot
}

// lowRankComponentSnapshot is componentSnapshot plus the low-rank form. For
// a LowRank component Factor (Factor32 at f32, packed) is the Rank×Rank
// factor L_S of S + ρI, Basis (Basis32) the Rank×Dim basis Q row major, and
// Ridge ρ; for a dense one the low-rank fields are empty.
type lowRankComponentSnapshot struct {
	Y, S        int
	N           int
	Mean        []float64
	Weight      float64
	Degenerate  bool
	Factor      []float64
	Mean32      []float32
	Factor32    []float32
	LogNormBase float64
	LowRank     bool
	Rank        int
	Basis       []float64
	Basis32     []float32
	Ridge       float64
}

// snapshotVersion is written for an all-dense estimator (byte-compatible
// with every previously persisted f64 snapshot), snapshotVersionLowRank when
// a component is low rank. snapshotVersionF32 marks the float32 payloads
// earlier releases wrote; Load accepts all three.
const (
	snapshotVersion        = 1
	snapshotVersionF32     = 2
	snapshotVersionLowRank = 3
)

// maxSnapshotCells bounds Classes × len(SensValues) in a loaded snapshot.
// Scoring allocates one log-density per (class, sensitive value) cell for
// every row, so without a bound a few header bytes could demand any amount
// of memory from the first scored batch.
const maxSnapshotCells = 1 << 16

// Save serializes the fitted estimator to w, components in (Y, S) order, at
// float64. An all-dense estimator writes version 1, byte for byte as before
// low-rank components existed; one with a low-rank component writes version
// 3.
func (e *Estimator) Save(w io.Writer) error {
	snap := lowRankSnapshot{
		Version:    snapshotVersion,
		Dim:        e.Dim,
		Classes:    e.Classes,
		SensValues: e.SensValues,
		TrainLDs:   e.TrainLogDensities,
		Precision:  "f64",
	}
	for _, c := range e.ordered {
		cs := lowRankComponentSnapshot{
			Y: c.Y, S: c.S, N: c.N,
			Mean:        c.Mean,
			Weight:      c.Weight,
			Degenerate:  c.Degenerate,
			LogNormBase: c.logNormBase,
		}
		if c.lowRank != nil {
			snap.Version = snapshotVersionLowRank
			cs.LowRank, cs.Rank, cs.Ridge = true, c.lowRank.Rank(), c.lowRank.Ridge()
			cs.Basis, cs.Factor = c.lowRank.Basis().Data, c.lowRank.L().Data
		} else {
			cs.Factor = c.chol.L().Data
		}
		snap.Comps = append(snap.Comps, cs)
	}
	if snap.Version == snapshotVersionLowRank {
		return gob.NewEncoder(w).Encode(snap)
	}
	dense := estimatorSnapshot{
		Version: snap.Version, Dim: snap.Dim, Classes: snap.Classes, SensValues: snap.SensValues,
		TrainLDs: snap.TrainLDs, Precision: snap.Precision,
	}
	for _, cs := range snap.Comps {
		dense.Comps = append(dense.Comps, componentSnapshot{
			Y: cs.Y, S: cs.S, N: cs.N, Mean: cs.Mean, Weight: cs.Weight, Degenerate: cs.Degenerate,
			Factor: cs.Factor, LogNormBase: cs.LogNormBase,
		})
	}
	return gob.NewEncoder(w).Encode(dense)
}

func widenSlice64(v []float32) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	return out
}

// unpackLowerTri64 widens a packed float32 lower triangle back to a full
// row-major d×d float64 factor (exact: float32 widens losslessly).
func unpackLowerTri64(p []float32, d int) []float64 {
	out := make([]float64, d*d)
	i := 0
	for j := 0; j < d; j++ {
		for r := 0; r <= j; r++ {
			out[j*d+r] = float64(p[i])
			i++
		}
	}
	return out
}

// SaveFile writes a crash-safe estimator snapshot: checksummed, written to a
// temp file and renamed into place, with up to keep rotated predecessors
// (path.1 … path.keep) kept as fallbacks.
func (e *Estimator) SaveFile(path string, keep int) error {
	return resilience.SaveSnapshot(path, keep, e.Save)
}

// LoadFile loads a snapshot written by SaveFile (or a legacy raw .gob file).
// Truncated or corrupted files are rejected with an error wrapping
// resilience.ErrCorrupt — never half-loaded.
func LoadFile(path string) (*Estimator, error) {
	var e *Estimator
	err := resilience.LoadSnapshot(path, func(r io.Reader) error {
		var lerr error
		e, lerr = Load(r)
		return lerr
	})
	if err != nil {
		return nil, err
	}
	return e, nil
}

// Load reconstructs an estimator saved with Save. Densities match the saved
// model exactly: the snapshot's factors rebuild its whitening stack bit for
// bit. A legacy f32 snapshot's factor, basis and mean widen to float64
// exactly and score at float64. Load rejects, naming the component, a weight outside (0, 1], a
// non-finite log-normaliser, mean, factor or basis entry, a low-rank basis
// with more rows than Dim or not orthonormal within mat.LowRankOrthoTol, and
// NaN training log-densities.
func Load(r io.Reader) (*Estimator, error) {
	var snap lowRankSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("gda: decoding estimator: %w", err)
	}
	if snap.Version < snapshotVersion || snap.Version > snapshotVersionLowRank {
		return nil, fmt.Errorf("gda: unsupported snapshot version %d", snap.Version)
	}
	var f32 bool
	switch snap.Precision {
	case "", "f64":
	case "f32":
		if snap.Version < snapshotVersionF32 {
			return nil, fmt.Errorf("gda: f32 payload in version-%d snapshot", snap.Version)
		}
		f32 = true
	default:
		return nil, fmt.Errorf("gda: snapshot has unknown precision %q (want f64 or f32)", snap.Precision)
	}
	if snap.Dim <= 0 || snap.Classes <= 0 || len(snap.SensValues) == 0 {
		return nil, fmt.Errorf("gda: invalid snapshot header (dim %d, classes %d, %d sensitive values)",
			snap.Dim, snap.Classes, len(snap.SensValues))
	}
	if snap.Classes > maxSnapshotCells/len(snap.SensValues) {
		return nil, fmt.Errorf("gda: snapshot has %d classes × %d sensitive values, more than %d cells",
			snap.Classes, len(snap.SensValues), maxSnapshotCells)
	}
	for i, v := range snap.TrainLDs {
		if math.IsNaN(v) {
			return nil, fmt.Errorf("gda: training log-density %d is NaN", i)
		}
	}
	e := &Estimator{
		Dim:               snap.Dim,
		Classes:           snap.Classes,
		SensValues:        append([]int(nil), snap.SensValues...),
		TrainLogDensities: append([]float64(nil), snap.TrainLDs...),
		comps:             map[[2]int]*Component{},
	}
	sensIdx := make(map[int]bool, len(snap.SensValues))
	for _, v := range snap.SensValues {
		sensIdx[v] = true
	}
	for i, cs := range snap.Comps {
		if cs.Y < 0 || cs.Y >= snap.Classes {
			return nil, fmt.Errorf("gda: component %d label %d out of range %d", i, cs.Y, snap.Classes)
		}
		if !sensIdx[cs.S] {
			return nil, fmt.Errorf("gda: component %d sensitive value %d not in %v", i, cs.S, snap.SensValues)
		}
		c, err := loadComponent(&cs, snap.Dim, f32)
		if err != nil {
			return nil, fmt.Errorf("gda: component %d (y=%d,s=%d): %w", i, cs.Y, cs.S, err)
		}
		key := [2]int{cs.Y, cs.S}
		if _, dup := e.comps[key]; dup {
			return nil, fmt.Errorf("gda: duplicate component (y=%d,s=%d)", cs.Y, cs.S)
		}
		e.comps[key] = c
	}
	e.finalize()
	return e, nil
}

// loadComponent validates one component's payload, at float32 when f32,
// and rebuilds it.
func loadComponent(cs *lowRankComponentSnapshot, d int, f32 bool) (*Component, error) {
	if !(cs.Weight > 0 && cs.Weight <= 1) {
		return nil, fmt.Errorf("weight %g outside (0, 1]", cs.Weight)
	}
	if math.IsNaN(cs.LogNormBase) || math.IsInf(cs.LogNormBase, 0) {
		return nil, fmt.Errorf("log-normaliser %g", cs.LogNormBase)
	}
	if !cs.LowRank && (cs.Rank != 0 || cs.Ridge != 0 || len(cs.Basis) != 0 || len(cs.Basis32) != 0) {
		return nil, errors.New("dense component carries low-rank fields")
	}
	// n is the factor's order: Dim for a dense component, the rank for a
	// low-rank one.
	n := d
	if cs.LowRank {
		if cs.Rank < 0 || cs.Rank > d {
			return nil, fmt.Errorf("rank %d outside [0, %d]", cs.Rank, d)
		}
		n = cs.Rank
	}
	mean, factor, basis := cs.Mean, cs.Factor, cs.Basis
	if f32 {
		if len(cs.Mean) != 0 || len(cs.Factor) != 0 || len(cs.Basis) != 0 {
			return nil, errors.New("float64 fields in an f32 snapshot")
		}
		if len(cs.Mean32) != d {
			return nil, fmt.Errorf("mean has %d values, want %d", len(cs.Mean32), d)
		}
		if want := n * (n + 1) / 2; len(cs.Factor32) != want {
			return nil, fmt.Errorf("packed factor has %d values, want %d", len(cs.Factor32), want)
		}
		mean, factor, basis = widenSlice64(cs.Mean32), unpackLowerTri64(cs.Factor32, n), widenSlice64(cs.Basis32)
	} else if len(cs.Mean32) != 0 || len(cs.Factor32) != 0 || len(cs.Basis32) != 0 {
		return nil, errors.New("float32 fields in an f64 snapshot")
	}
	if len(mean) != d {
		return nil, fmt.Errorf("mean has %d values, want %d", len(mean), d)
	}
	for j, v := range mean {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("mean entry %d = %g", j, v)
		}
	}
	if len(factor) != n*n {
		return nil, fmt.Errorf("factor has %d values, want %d", len(factor), n*n)
	}
	for j, v := range factor {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("factor entry (%d,%d) = %g", j/n, j%n, v)
		}
	}
	c := &Component{
		Y: cs.Y, S: cs.S, N: cs.N,
		Mean:        mean,
		Weight:      cs.Weight,
		Degenerate:  cs.Degenerate,
		logNormBase: cs.LogNormBase,
	}
	var err error
	if cs.LowRank {
		if len(basis) != n*d {
			return nil, fmt.Errorf("basis has %d values, want %d×%d", len(basis), n, d)
		}
		c.lowRank, err = mat.LowRankFromFactors(mat.NewDenseData(n, d, basis), mat.NewDenseData(n, n, factor), cs.Ridge)
	} else {
		c.chol, err = mat.CholeskyFromFactor(mat.NewDenseData(n, n, factor))
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}
