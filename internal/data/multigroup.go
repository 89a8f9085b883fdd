package data

import (
	"fmt"

	"faction/internal/rngutil"
)

// MultiGroupStream builds a stationary stream whose sensitive attribute takes
// `groups` distinct values (0..groups−1) — the multi-valued extension of
// Section IV-H. Each group has its own covariate offset, and each group's
// positive-label rate is spread linearly between baseRate and baseRate+skew,
// injecting a controllable multi-group disparity.
//
// Binary-sensitive learners must not consume these streams (Sample.S is a
// group id, not ±1); they exist for the multi-group density/metric paths
// (gda's Δg with >2 sensitive values, fairness.DDPMulti/EODMulti/MIMulti,
// and faction.Options.SensValues).
func MultiGroupStream(cfg StreamConfig, groups, tasks int, skew float64) *Stream {
	if groups < 2 {
		panic(fmt.Sprintf("data: multi-group stream needs ≥2 groups, got %d", groups))
	}
	const (
		name = "multigroup"
		dim  = 12
	)
	setup := rngutil.Derive(cfg.Seed, name, "setup")
	dir := randUnit(setup, dim)
	base0 := make([]float64, dim)
	base1 := make([]float64, dim)
	const sep = 1.8
	for i := range dir {
		base0[i] = -sep / 2 * dir[i]
		base1[i] = +sep / 2 * dir[i]
	}
	offsets := make([][]float64, groups)
	for g := range offsets {
		off := rngutil.NormalVec(rngutil.Derive(cfg.Seed, name, "group", fmt.Sprint(g)), dim)
		for i := range off {
			off[i] *= 0.5
		}
		offsets[g] = off
	}

	perTask := cfg.samplesPerTask()
	rng := rngutil.Derive(cfg.Seed, name, "samples")
	st := &Stream{Name: name, Dim: dim, Classes: 2}
	for t := 0; t < tasks; t++ {
		pool := NewDataset(fmt.Sprintf("%s/task%d", name, t), dim, 2)
		for i := 0; i < perTask; i++ {
			g := rng.Intn(groups)
			rate := 0.5
			if groups > 1 {
				rate = 0.5 - skew/2 + skew*float64(g)/float64(groups-1)
			}
			y := 0
			if rng.Float64() < rate {
				y = 1
			}
			x := make([]float64, dim)
			base := base0
			if y == 1 {
				base = base1
			}
			for d := range x {
				x[d] = base[d] + offsets[g][d] + 0.7*rng.NormFloat64()
			}
			pool.Append(Sample{X: x, Y: y, S: g, Env: 0})
		}
		st.Tasks = append(st.Tasks, Task{ID: t, Env: 0, Name: fmt.Sprintf("task%d", t), Pool: pool})
	}
	return st
}

// GroupValues returns the distinct sensitive values present in the stream,
// sorted ascending — the SensValues input for multi-group estimators.
func (s *Stream) GroupValues() []int {
	seen := map[int]bool{}
	for _, t := range s.Tasks {
		for _, smp := range t.Pool.Samples {
			seen[smp.S] = true
		}
	}
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	// Insertion sort: tiny slices.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
