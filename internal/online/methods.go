package online

import (
	"fmt"

	"faction/internal/active"
	"faction/internal/faction"
)

// FactionSpec builds the MethodSpec for a FACTION variant: its query
// strategy plus the matching training-time regularization. The strategy
// keeps per-run state, so the spec serves one run at a time; runs that
// overlap each need a spec from their own call.
func FactionSpec(opts faction.Options) MethodSpec {
	s := faction.New(opts)
	return MethodSpec{Name: s.Name(), Strategy: s, Fair: s.Options().TrainFairConfig()}
}

// Methods returns the paper's eight compared methods (Section V-A2) with
// their default hyperparameters: FACTION plus the seven adapted baselines.
// Its FACTION spec serves one run at a time (see FactionSpec).
func Methods(seed int64) []MethodSpec {
	return []MethodSpec{
		FactionSpec(faction.Defaults()),
		{Name: "FAL", Strategy: active.FAL{L: 128}},
		{Name: "FAL-CUR", Strategy: active.FALCUR{K: 8, Beta: 0.5}},
		{Name: "Decoupled", Strategy: active.Decoupled{Threshold: 0.2, Seed: seed}},
		{Name: "QuFUR", Strategy: active.QuFUR{Alpha: 1}},
		{Name: "DDU", Strategy: active.DDU{}},
		{Name: "Entropy-AL", Strategy: active.EntropyAL{}},
		{Name: "Random", Strategy: active.Random{}},
	}
}

// MethodNames lists the canonical method names in the paper's order.
func MethodNames() []string {
	return []string{"FACTION", "FAL", "FAL-CUR", "Decoupled", "QuFUR", "DDU", "Entropy-AL", "Random"}
}

// MethodByName resolves a canonical method name (see MethodNames) plus the
// FACTION ablation names of Fig. 4 / Table I. A FACTION spec serves one run
// at a time (see FactionSpec).
func MethodByName(name string, seed int64) (MethodSpec, error) {
	for _, m := range Methods(seed) {
		if m.Name == name {
			return m, nil
		}
	}
	mkVariant := func(sel, reg bool) MethodSpec {
		o := faction.Defaults()
		o.FairSelect = sel
		o.FairReg = reg
		return FactionSpec(o)
	}
	switch name {
	case "FACTION w/o fair select":
		return mkVariant(false, true), nil
	case "FACTION w/o fair reg":
		return mkVariant(true, false), nil
	case "FACTION w/o fair select & fair reg":
		return mkVariant(false, false), nil
	case "Margin":
		return MethodSpec{Name: "Margin", Strategy: active.Margin{}}, nil
	case "Coreset":
		return MethodSpec{Name: "Coreset", Strategy: active.Coreset{}}, nil
	case "BALD":
		return MethodSpec{Name: "BALD", Strategy: active.BALD{Samples: 10}}, nil
	}
	return MethodSpec{}, fmt.Errorf("online: unknown method %q (want one of %v)", name, MethodNames())
}
