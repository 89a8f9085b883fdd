package gda

import (
	"fmt"

	"faction/internal/mat"
)

// Precision selects the storage width of the whitened scoring kernel. Every
// density entry point (LogDensity, LogCondDensity, ScoreBatchRaw,
// LogDensityBatchInto) streams the estimator's one whitened stack, built at
// the active precision, so the two widths cannot drift apart structurally:
// they share mat.WhitenedStack and differ only in its element type.
// PrecisionF64 is the default and the differential reference; PrecisionF32
// stores whitening matrices and packed means as float32 while accumulating
// the subtract-square reduction in float64 (DESIGN.md §15), halving kernel
// bandwidth and snapshot density bytes at a bounded, property-tested
// relative error.
type Precision uint8

const (
	// PrecisionF64 scores through the float64 whitened stack (the default).
	PrecisionF64 Precision = iota
	// PrecisionF32 scores through the float32 whitened stack with float64
	// accumulation.
	PrecisionF32
)

// String returns the wire name of the precision ("f64" or "f32") — the value
// accepted by ParsePrecision, recorded on /info and in snapshot envelopes.
func (p Precision) String() string {
	if p == PrecisionF32 {
		return "f32"
	}
	return "f64"
}

// ParsePrecision parses a wire precision name. The empty string means f64 —
// the default, and what pre-precision snapshot envelopes carry.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", "f64":
		return PrecisionF64, nil
	case "f32":
		return PrecisionF32, nil
	}
	return PrecisionF64, fmt.Errorf("gda: unknown precision %q (want f64 or f32)", s)
}

// Precision returns the estimator's active scoring precision.
func (e *Estimator) Precision() Precision { return e.precision }

// SetPrecision switches the scoring path by rebuilding the whitened stack
// at width p from the component factors — the same derivation Load of a
// snapshot at that precision performs. Setting the current precision is
// free. Not safe concurrently with scoring — set it at construction, load,
// or install time, before the estimator is published.
func (e *Estimator) SetPrecision(p Precision) {
	if p == e.precision {
		return
	}
	e.precision = p
	e.buildStack()
}

// buildStack derives the whitened stack at the active precision from the
// ordered components. mat.WhitenedStack.AddFactor and AddLowRank round each
// factor, basis and mean to the stack's width before deriving the operand,
// so a stack built here at fit time is bit-identical to one rebuilt from a
// snapshot of that precision.
func (e *Estimator) buildStack() {
	if e.precision == PrecisionF32 {
		e.wstack = newStack[float32](e.Dim, e.ordered)
		return
	}
	e.wstack = newStack[float64](e.Dim, e.ordered)
}

func newStack[T float32 | float64](d int, comps []*Component) *mat.WhitenedStack[T] {
	s := mat.NewWhitenedStack[T](d)
	for _, c := range comps {
		if c.lowRank != nil {
			s.AddLowRank(c.lowRank, c.Mean)
		} else {
			s.AddFactor(c.chol, c.Mean)
		}
	}
	return s
}
