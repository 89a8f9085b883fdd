package faction

import (
	"math"
	"math/rand"
	"testing"

	"faction/internal/active"
	"faction/internal/data"
	"faction/internal/nn"
)

// biasedContext builds a labeled set with clear (class × group) structure and
// a pool containing in-distribution, OOD and "unfair" samples.
func biasedContext(t testing.TB, seed int64) *active.Context {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	labeled := data.NewDataset("labeled", 2, 2)
	type cell struct {
		key [2]int
		ctr [2]float64
	}
	centers := []cell{
		{[2]int{0, -1}, [2]float64{-3, -3}},
		{[2]int{0, 1}, [2]float64{-3, 3}},
		{[2]int{1, -1}, [2]float64{3, -3}},
		{[2]int{1, 1}, [2]float64{3, 3}},
	}
	for _, cc := range centers {
		key, c := cc.key, cc.ctr
		for i := 0; i < 40; i++ {
			labeled.Append(data.Sample{
				X: []float64{c[0] + rng.NormFloat64()*0.4, c[1] + rng.NormFloat64()*0.4},
				Y: key[0], S: key[1],
			})
		}
	}
	pool := data.NewDataset("pool", 2, 2)
	for i := 0; i < 20; i++ {
		// In-distribution, between the two class-1 group clusters ("fair").
		pool.Append(data.Sample{X: []float64{3 + rng.NormFloat64()*0.2, rng.NormFloat64() * 0.2}, Y: 1, S: 1})
	}
	model := nn.NewClassifier(nn.Config{InputDim: 2, NumClasses: 2, Hidden: []int{8}, Seed: seed})
	model.Train(labeled.Matrix(), labeled.Labels(), nil, nn.NewSGD(0.05, 0.9, 0),
		nn.TrainOpts{Epochs: 15, BatchSize: 32}, rng)
	return &active.Context{Model: model, Labeled: labeled, Pool: pool, Rng: rng}
}

func TestDefaultsAndNames(t *testing.T) {
	cases := []struct {
		sel, reg bool
		want     string
	}{
		{true, true, "FACTION"},
		{false, true, "FACTION w/o fair select"},
		{true, false, "FACTION w/o fair reg"},
		{false, false, "FACTION w/o fair select & fair reg"},
	}
	for _, c := range cases {
		o := Defaults()
		o.FairSelect = c.sel
		o.FairReg = c.reg
		if got := New(o).Name(); got != c.want {
			t.Fatalf("name = %q, want %q", got, c.want)
		}
	}
}

func TestTrainFairConfig(t *testing.T) {
	o := Defaults()
	cfg := o.TrainFairConfig()
	if cfg.Mu != o.Mu || cfg.Eps != o.Eps {
		t.Fatalf("fair config = %+v", cfg)
	}
	o.FairReg = false
	if o.TrainFairConfig().Mu != 0 {
		t.Fatal("w/o fair reg must train with Mu=0")
	}
}

func TestOptionDefaultsApplied(t *testing.T) {
	s := New(Options{FairSelect: true, FairReg: true})
	o := s.Options()
	if o.Lambda != 1 || o.Alpha != 1 || len(o.SensValues) != 2 {
		t.Fatalf("defaults not applied: %+v", o)
	}
}

func TestSelectBatchContract(t *testing.T) {
	for _, variant := range []Options{
		Defaults(),
		{FairSelect: false, FairReg: true},
		{FairSelect: true, FairReg: false},
		{},
	} {
		s := New(variant)
		ctx := biasedContext(t, 1)
		got := s.SelectBatch(ctx, 7)
		if len(got) != 7 {
			t.Fatalf("%s: %d picks, want 7", s.Name(), len(got))
		}
		seen := map[int]bool{}
		for _, i := range got {
			if i < 0 || i >= ctx.Pool.Len() || seen[i] {
				t.Fatalf("%s: bad pick set %v", s.Name(), got)
			}
			seen[i] = true
		}
		// Oversized batch clamps to the pool.
		ctx2 := biasedContext(t, 2)
		if got := s.SelectBatch(ctx2, 10_000); len(got) != ctx2.Pool.Len() {
			t.Fatalf("%s: oversized batch returned %d", s.Name(), len(got))
		}
	}
}

func TestColdStartFallsBack(t *testing.T) {
	ctx := biasedContext(t, 3)
	ctx.Labeled = data.NewDataset("empty", 2, 2)
	got := New(Defaults()).SelectBatch(ctx, 5)
	if len(got) != 5 {
		t.Fatalf("cold start returned %d picks", len(got))
	}
}

// TestScoresPreferOODAndUnfair verifies the two halves of Eq. 6 on
// constructed geometry: an OOD sample must score lower (= more queryable)
// than an in-distribution one, and with FairSelect a group-typical ("unfair")
// sample scores lower than the between-groups ("fair") sample.
func TestScoresPreferOODAndUnfair(t *testing.T) {
	ctx := biasedContext(t, 4)
	// Pool: [0] fair in-distribution midpoint, [1] unfair at a group center,
	// [2] far OOD.
	ctx.Pool = data.NewDataset("probe", 2, 2)
	ctx.Pool.Append(
		data.Sample{X: []float64{3, 0}, Y: 1, S: 1},
		data.Sample{X: []float64{3, 3}, Y: 1, S: 1},
		data.Sample{X: []float64{40, 40}, Y: 1, S: 1},
	)
	// Epistemic half, isolated (FairSelect off): u = g(z), so the OOD sample
	// must score below the in-distribution group-center sample.
	optsNoSel := Defaults()
	optsNoSel.FairSelect = false
	u, ok := New(optsNoSel).Scores(ctx)
	if !ok {
		t.Fatal("scores failed")
	}
	if u[2] >= u[1] {
		t.Fatalf("OOD sample should have lower g-only score than in-distribution: u=%v", u)
	}

	// With a large λ the unfair sample must beat the fair one.
	opts := Defaults()
	opts.Lambda = 10
	uFair, _ := New(opts).Scores(ctx)
	if uFair[1] >= uFair[0] {
		t.Fatalf("unfair sample should have lower u with FairSelect: u=%v", uFair)
	}

	// Without FairSelect the Δg term must not contribute: scores equal g(z).
	opts2 := Defaults()
	opts2.FairSelect = false
	uNoSel, _ := New(opts2).Scores(ctx)
	opts3 := Defaults()
	opts3.Lambda = 1e-12 // effectively zero but non-default
	uTiny, _ := New(opts3).Scores(ctx)
	for i := range uNoSel {
		if math.Abs(uNoSel[i]-uTiny[i]) > 1e-9 {
			t.Fatalf("w/o fair select should equal λ→0: %v vs %v", uNoSel, uTiny)
		}
	}
}

// TestHighAlphaPicksLowestScores: with α→∞ every Bernoulli trial fires, so
// selection is exactly the lowest-u prefix.
func TestHighAlphaPicksLowestScores(t *testing.T) {
	opts := Defaults()
	opts.Alpha = 1e9
	s := New(opts)
	ctx := biasedContext(t, 5)
	got := s.SelectBatch(ctx, 5)
	u, _ := s.Scores(ctx)
	maxPicked := math.Inf(-1)
	picked := map[int]bool{}
	for _, i := range got {
		picked[i] = true
		if u[i] > maxPicked {
			maxPicked = u[i]
		}
	}
	for i, v := range u {
		if !picked[i] && v < maxPicked-1e-12 {
			t.Fatalf("sample %d (u=%g) skipped over picked max %g", i, v, maxPicked)
		}
	}
}

func TestSelectDeterministicGivenSeed(t *testing.T) {
	s := New(Defaults())
	a := s.SelectBatch(biasedContext(t, 6), 5)
	b := s.SelectBatch(biasedContext(t, 6), 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic selection: %v vs %v", a, b)
		}
	}
}

// TestMultiGroupSelection runs FACTION's selection with a three-valued
// sensitive attribute (the Section IV-H extension): the density estimator
// fits 2×3 components and the generalized Δg feeds Eq. 6 unchanged.
func TestMultiGroupSelection(t *testing.T) {
	stream := data.MultiGroupStream(data.StreamConfig{Seed: 9, SamplesPerTask: 150}, 3, 2, 0.3)
	labeled := stream.Tasks[0].Pool
	pool := stream.Tasks[1].Pool
	model := nn.NewClassifier(nn.Config{InputDim: stream.Dim, NumClasses: 2, Hidden: []int{16}, Seed: 9})
	rng := rand.New(rand.NewSource(9))
	model.Train(labeled.Matrix(), labeled.Labels(), nil, nn.NewAdam(0.01),
		nn.TrainOpts{Epochs: 8, BatchSize: 32}, rng)
	ctx := &active.Context{Model: model, Labeled: labeled, Pool: pool, Rng: rng}

	opts := Defaults()
	opts.SensValues = stream.GroupValues()
	opts.FairReg = false // the Eq. 9 regularizer remains binary-sensitive
	s := New(opts)
	u, ok := s.Scores(ctx)
	if !ok {
		t.Fatal("multi-group scoring failed")
	}
	for i, v := range u {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("score %d not finite: %g", i, v)
		}
	}
	picks := s.SelectBatch(ctx, 10)
	if len(picks) != 10 {
		t.Fatalf("picks = %d", len(picks))
	}
}

// constantPool is biasedContext(t, 7) with every pool row a copy of the
// first.
func constantPool(t *testing.T) *active.Context {
	ctx := biasedContext(t, 7)
	for i := range ctx.Pool.Samples {
		ctx.Pool.Samples[i].X = ctx.Pool.Samples[0].X
	}
	return ctx
}

// A pool of identical rows scores one u, a constant batch, whose query
// probabilities are all 1 (Eq. 7 prefers no row). At α ≥ 1 every trial
// then takes its row, so a round picks the first a rows in pool order,
// spends exactly a trials and draws nothing from the random stream.
func TestSelectBatchConstantPool(t *testing.T) {
	const a = 7
	want := []int{0, 1, 2, 3, 4, 5, 6}
	for _, alpha := range []float64{1, 3} {
		opts := Defaults()
		opts.Alpha = alpha
		s := New(opts)
		ctx, twin := constantPool(t), constantPool(t)
		u, ok := s.Scores(twin)
		if !ok {
			t.Fatal("scores failed")
		}
		for i, v := range u {
			if v != u[0] {
				t.Fatalf("identical rows scored apart: u[%d] = %v, u[0] = %v", i, v, u[0])
			}
		}
		got := s.SelectBatch(ctx, a)
		if len(got) != a {
			t.Fatalf("α = %g: %d picks, want %d", alpha, len(got), a)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("α = %g: picks %v, want %v", alpha, got, want)
			}
		}
		if s.Trials() != a {
			t.Fatalf("α = %g: %d trials, want %d", alpha, s.Trials(), a)
		}
		if ctx.Rng.Int63() != twin.Rng.Int63() {
			t.Fatalf("α = %g: the round drew from the random stream", alpha)
		}
	}
}

// QueryProbs flips the min–max normalised scores (Eq. 7) into storage the
// caller owns: the lowest u gets 1, the highest 0, and every row of a
// constant batch 1.
func TestQueryProbs(t *testing.T) {
	omega := make([]float64, 3)
	QueryProbs(omega, []float64{2, 4, 6})
	if omega[0] != 1 || omega[1] != 0.5 || omega[2] != 0 {
		t.Fatalf("ω = %v, want [1 0.5 0]", omega)
	}
	QueryProbs(omega[:2], []float64{3, 3})
	if omega[0] != 1 || omega[1] != 1 {
		t.Fatalf("constant batch: ω = %v, want [1 1]", omega[:2])
	}
	QueryProbs(nil, nil) // an empty batch writes nothing
}
