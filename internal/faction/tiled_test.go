package faction

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"faction/internal/active"
	"faction/internal/data"
	"faction/internal/gda"
	"faction/internal/mat"
	"faction/internal/nn"
	"faction/internal/obs"
)

// scoresUntiled is Scores as one pass over the whole pool, kept as the
// tiled pass's reference: one ScoreRows over the pool's features and a
// Scale, with probabilities from the pool's softmax, both from Context's
// cached pass.
func scoresUntiled(s *Strategy, ctx *active.Context) ([]float64, bool) {
	est, err := gda.Fit(ctx.LabeledFeatures(), ctx.Labeled.Labels(), ctx.Labeled.Sensitive(),
		ctx.Labeled.Classes, s.opts.SensValues, s.opts.GDA)
	if err != nil {
		return nil, false
	}
	var batch gda.BatchScores
	est.ScoreRows(&batch, 0, ctx.PoolFeatures())
	batch.Scale()
	probs := ctx.PoolProbs()
	u := make([]float64, len(batch.G))
	for i := range u {
		u[i] = batch.G[i]
		if s.opts.FairSelect {
			fairTerm := 0.0
			for c := 0; c < probs.Cols && c < len(batch.Delta[i]); c++ {
				fairTerm += probs.At(i, c) * batch.Delta[i][c]
			}
			u[i] -= s.opts.Lambda * fairTerm
		}
	}
	return u, true
}

// paperContext builds a selection context at protocol-paper's shape: 16
// inputs, the paper network (hidden 512, spectral norm c = 3), briefly
// trained on labeled rows whose class and group shift the inputs, and a
// pool of poolRows rows from the same distribution.
func paperContext(t testing.TB, labeled, poolRows int, seed int64) *active.Context {
	t.Helper()
	const dim = 16
	rng := rand.New(rand.NewSource(seed))
	draw := func(ds *data.Dataset, n int) {
		for i := 0; i < n; i++ {
			y, s := rng.Intn(2), 2*rng.Intn(2)-1
			x := make([]float64, dim)
			for j := range x {
				x[j] = rng.NormFloat64() + 0.8*float64(y) + 0.3*float64(s)*float64(j%2)
			}
			ds.Append(data.Sample{X: x, Y: y, S: s})
		}
	}
	lab, pool := data.NewDataset("labeled", dim, 2), data.NewDataset("pool", dim, 2)
	draw(lab, labeled)
	draw(pool, poolRows)
	model := nn.NewClassifier(nn.Config{InputDim: dim, NumClasses: 2, Hidden: []int{nn.DefaultHidden},
		SpectralNorm: true, SpectralCoeff: 3, Seed: seed})
	model.Train(lab.Matrix(), lab.Labels(), lab.Sensitive(), nn.NewAdam(0.01),
		nn.TrainOpts{Epochs: 2, BatchSize: 32, Fair: Defaults().TrainFairConfig()}, rng)
	return &active.Context{Model: model, Labeled: lab, Pool: pool, Rng: rng}
}

// Property: Scores, which runs the pool in tiles, gives every bit of u that
// one pass over the whole pool gives: pools of protocol-paper's 2,200 rows,
// one row, one short of a tile, one tile, one past it and none, with and
// without the fairness term, with the assembly kernels on and off. One
// Strategy scores the pools in that order, as rounds of one run reuse its
// storage. Each call counts as one density score pass, whatever its number
// of tiles, and leaves the Strategy's batch at the pool's row count.
func TestScoresTiledMatchesUntiled(t *testing.T) {
	defer mat.SetVectorized(mat.Vectorized())
	scorePasses := obs.Default().Histogram("faction_gda_score_batch_seconds",
		"Duration of scoring one feature batch (Eqs. 3-5).", obs.ExpBuckets(1e-5, 4, 8))
	for _, asm := range []bool{false, true} {
		mat.SetVectorized(asm) // stays off where the CPU lacks the kernels
		for _, fairSelect := range []bool{true, false} {
			opts := Defaults()
			opts.FairSelect = fairSelect
			s := New(opts)
			for _, rows := range []int{2200, 1, nn.TileRows - 1, nn.TileRows, nn.TileRows + 1, 0} {
				name := fmt.Sprintf("asm=%v pool=%d fairSelect=%v", mat.Vectorized(), rows, fairSelect)
				before := scorePasses.Count()
				got, ok := s.Scores(paperContext(t, 120, rows, int64(rows)))
				if passes := scorePasses.Count() - before; passes != 1 {
					t.Fatalf("%s: Scores observed %d score passes, want 1", name, passes)
				}
				if len(s.batch.G) != rows {
					t.Fatalf("%s: Scores left a %d-row batch", name, len(s.batch.G))
				}
				want, wantOK := scoresUntiled(s, paperContext(t, 120, rows, int64(rows)))
				if !ok || !wantOK {
					t.Fatalf("%s: fit failed (tiled %v, untiled %v)", name, ok, wantOK)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d scores, want %d", name, len(got), len(want))
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s: u[%d] = %v, untiled %v", name, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// BenchmarkScoresPaper measures one FACTION select round's scoring at
// protocol-paper's shape: a 2,200 × 16 pool, hidden 512 and 450 labeled
// rows. Each iteration starts from a fresh context, as each round does, so
// it runs the labeled features, the density fit and the pool pass.
func BenchmarkScoresPaper(b *testing.B) {
	ctx := paperContext(b, 450, 2200, 7)
	s := New(Defaults())
	round := func() *active.Context {
		return &active.Context{Model: ctx.Model, Labeled: ctx.Labeled, Pool: ctx.Pool, Rng: ctx.Rng}
	}
	if _, ok := s.Scores(round()); !ok { // grow the arenas and the batch scratch
		b.Fatal("fit failed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Scores(round())
	}
}
