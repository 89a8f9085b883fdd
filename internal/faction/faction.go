// Package faction implements the paper's primary contribution: the FACTION
// sample-selection strategy (Algorithm 1). Each acquisition round it fits the
// (class × sensitive) Gaussian density estimator of Section IV-B on the
// labeled features, scores every unlabeled sample with
//
//	u(x) = g(z) − λ · Σ_c p_c^x · Δg_c(z)        (Eq. 6)
//
// (low u ⇒ high epistemic uncertainty and high unfairness), converts scores
// to query probabilities ω(x) = 1 − Normalize(u(x)) (Eq. 7), and fills the
// acquisition batch by Bernoulli trials with p = min(α·ω, 1), scanning from
// the most probable sample (Algorithm 1 lines 19–36).
//
// The training-side half of FACTION — the fairness-regularized loss of
// Eq. 9 — is exposed through Options.TrainFairConfig, consumed by the online
// runner. The ablation switches FairSelect and FairReg reproduce the
// variants of Fig. 4 / Table I.
package faction

import (
	"faction/internal/active"
	"faction/internal/gda"
	"faction/internal/mat"
	"faction/internal/nn"
)

// Options configures FACTION and its ablated variants.
type Options struct {
	// Lambda is the uncertainty/fairness trade-off λ of Eq. 6 (default 1).
	Lambda float64
	// Alpha is the query-rate parameter α of Algorithm 1 line 29 (default 1).
	Alpha float64
	// Mu is the fairness-regularization strength μ of Eq. 9 (default 0.7).
	Mu float64
	// Eps is the constraint slack ε of Eq. 9.
	Eps float64
	// FairSelect enables the Δg term in the selection score. Disabling it is
	// the "w/o Fair Select" ablation (selection by epistemic uncertainty
	// alone).
	FairSelect bool
	// FairReg enables the fairness-regularized loss. Disabling it is the
	// "w/o Fair Reg" ablation (plain cross-entropy training).
	FairReg bool
	// Mode selects the fairness notion for the regularizer (DDP default).
	Mode nn.FairPenaltyMode
	// OneSided uses the paper's literal [v]_+ projection instead of the
	// symmetric hinge (a design-choice ablation; see DESIGN.md §5).
	OneSided bool
	// IndividualMu adds the Section IV-H individual-fairness consistency
	// penalty to the training loss with this weight (0 disables).
	IndividualMu float64
	// IndividualSigma is the consistency kernel bandwidth (default 1).
	IndividualSigma float64
	// GDA configures the density estimator's covariance estimation.
	GDA gda.Config
	// SensValues lists the sensitive values (default {-1, +1}).
	SensValues []int
}

// Defaults returns the full FACTION configuration with paper-typical
// hyperparameters (λ=1, α=1, μ=0.7, ε=0.01).
func Defaults() Options {
	return Options{
		Lambda:     1,
		Alpha:      1,
		Mu:         0.7,
		Eps:        0.01,
		FairSelect: true,
		FairReg:    true,
	}
}

func (o *Options) setDefaults() {
	if o.Lambda == 0 {
		o.Lambda = 1
	}
	if o.Alpha <= 0 {
		o.Alpha = 1
	}
	if len(o.SensValues) == 0 {
		o.SensValues = []int{-1, 1}
	}
}

// TrainFairConfig returns the nn.FairConfig the online runner should train
// with: the Eq. 9 regularizer when FairReg is on, plain CE otherwise.
func (o Options) TrainFairConfig() nn.FairConfig {
	if !o.FairReg {
		return nn.FairConfig{IndividualMu: o.IndividualMu, IndividualSigma: o.IndividualSigma}
	}
	return nn.FairConfig{
		Mu: o.Mu, Eps: o.Eps, Mode: o.Mode, OneSided: o.OneSided,
		IndividualMu: o.IndividualMu, IndividualSigma: o.IndividualSigma,
	}
}

// Strategy is FACTION's query strategy; it implements active.Strategy.
// It keeps per-run state (the trial count and the density pass's storage,
// reused from round to round), so a Strategy serves one protocol run at a
// time: concurrent runs each need their own.
type Strategy struct {
	opts   Options
	trials int
	batch  gda.BatchScores
	arena  mat.Arena // the labelled features' pass
}

// Trials reports the cumulative number of Bernoulli trials performed across
// all SelectBatch calls — the empirical query complexity Q of Theorem 1.
func (s *Strategy) Trials() int { return s.trials }

// New returns a FACTION strategy with the given options.
func New(opts Options) *Strategy {
	opts.setDefaults()
	return &Strategy{opts: opts}
}

// Options returns the strategy's configuration (defaults resolved).
func (s *Strategy) Options() Options { return s.opts }

// Name identifies the variant, matching the labels of Fig. 4 / Table I.
func (s *Strategy) Name() string {
	switch {
	case s.opts.FairSelect && s.opts.FairReg:
		return "FACTION"
	case !s.opts.FairSelect && s.opts.FairReg:
		return "FACTION w/o fair select"
	case s.opts.FairSelect && !s.opts.FairReg:
		return "FACTION w/o fair reg"
	default:
		return "FACTION w/o fair select & fair reg"
	}
}

// Scores computes the raw u(x) values (Eq. 6) for every pool sample. It is
// exported for tests, diagnostics and the examples; SelectBatch consumes it.
// The boolean reports whether the density estimator could be fitted.
//
// The labelled features live in the Strategy's arena, reset once the
// density model is fitted; the fit does not score them
// (gda.FitUncalibrated), since nothing here reads their log-densities.
// The pool runs in tiles (nn.Classifier.InferTiles): each
// tile's probabilities go into one n × C matrix and its density pass into
// the next rows of the Strategy's gda.BatchScores, whose storage the next
// round reuses. Every per-row value, and the maximum over rows that sets
// the common scale, is independent of the other rows, so the one Scale at
// the end gives the bits of scoring the whole pool at once
// (TestScoresTiledMatchesUntiled).
func (s *Strategy) Scores(ctx *active.Context) ([]float64, bool) {
	est, err := gda.FitUncalibrated(
		ctx.Model.FeaturesIn(ctx.Labeled.Matrix(), &s.arena),
		ctx.Labeled.Labels(),
		ctx.Labeled.Sensitive(),
		ctx.Labeled.Classes,
		s.opts.SensValues,
		s.opts.GDA,
	)
	s.arena.Reset()
	if err != nil {
		return nil, false
	}
	pool := ctx.PoolMatrix()
	n := pool.Rows
	probs := mat.NewDense(n, ctx.Model.Config().NumClasses)
	batch := &s.batch
	// Start the batch at zero rows: an empty pool has no tile to do it, and
	// Scale would rescale the last round's rows.
	est.ScoreRows(batch, 0, &mat.Dense{})
	ctx.Model.InferTiles(pool, func(off int, logits, feats *mat.Dense) {
		for i := 0; i < logits.Rows; i++ {
			mat.Softmax(probs.Row(off+i), logits.Row(i))
		}
		est.ScoreRows(batch, off, feats)
	})
	batch.Scale()
	u := make([]float64, n)
	for i := range u {
		u[i] = batch.G[i]
		if s.opts.FairSelect {
			u[i] = QueryScore(u[i], probs.Row(i), batch.Delta[i], s.opts.Lambda)
		}
	}
	return u, true
}

// QueryScore is Eq. 6 for one sample: u = g − λ·Σ_c p_c·Δg_c, from its
// scaled log-density g, its class probabilities and its per-class group
// gaps Δg (classes beyond either slice are skipped). The sum starts at 0
// and runs in class order; FACTION's select and the server's /score both
// score through here, so they agree bit for bit.
func QueryScore(g float64, probs, delta []float64, lambda float64) float64 {
	fairTerm := 0.0
	for c := 0; c < len(probs) && c < len(delta); c++ {
		fairTerm += probs[c] * delta[c]
	}
	return g - lambda*fairTerm
}

// QueryProbs is Eq. 7 over a batch: it writes ω = 1 − (u − lo)/(hi − lo)
// into omega (len(u) entries, storage the caller owns), so the lowest score
// is the likeliest query. Every row of a constant batch gets 1: no row is
// preferred, and each is as worth a query as the batch's best.
func QueryProbs(omega, u []float64) {
	if len(u) == 0 {
		return
	}
	lo, hi := mat.MinMax(u)
	if hi == lo {
		for i := range u {
			omega[i] = 1
		}
		return
	}
	span := hi - lo
	for i, v := range u {
		omega[i] = 1 - (v-lo)/span
	}
}

// SelectBatch implements active.Strategy (Algorithm 1 lines 19–36).
func (s *Strategy) SelectBatch(ctx *active.Context, a int) []int {
	if n := ctx.Pool.Len(); a > n {
		a = n
	}
	if a <= 0 {
		return nil
	}
	u, ok := s.Scores(ctx)
	if !ok {
		// No labeled data yet (cold start): plain uncertainty sampling.
		return active.EntropyAL{}.SelectBatch(ctx, a)
	}
	omega := make([]float64, len(u))
	QueryProbs(omega, u)
	picks, trials := active.BernoulliSelectCount(ctx, omega, s.opts.Alpha, a)
	s.trials += trials
	return picks
}
