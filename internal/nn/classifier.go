package nn

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"faction/internal/mat"
	"faction/internal/obs"
)

// trainStepSeconds times the per-minibatch hot path on the process-wide
// registry. Histogram.Observe and time.Now are allocation-free, so the
// TrainStep zero-allocs-in-steady-state contract holds.
var trainStepSeconds = obs.Default().Histogram("faction_nn_train_step_seconds",
	"Duration of one fairness-regularized minibatch gradient step.",
	obs.ExpBuckets(1e-4, 4, 8))

// Config describes a classifier architecture. The default experimental model
// in the paper is a two-layer MLP (one hidden layer of width 512 plus the
// output head) with features tapped at the first linear layer; the "wide"
// variant used for the WRN-50 analog (Fig. 6) stacks three wider hidden
// layers. Hidden = nil yields plain multinomial logistic regression, which is
// the convex model used in the Theorem 1 validation experiments.
type Config struct {
	InputDim   int
	NumClasses int
	// Hidden lists hidden-layer widths. Each hidden layer is Linear+ReLU.
	Hidden []int
	// SpectralNorm applies power-iteration spectral normalization to every
	// linear layer (Section IV-B's feature-space regularization).
	SpectralNorm bool
	// SpectralCoeff is the Lipschitz cap c (default 1 when zero).
	SpectralCoeff float64
	// DropoutRate inserts a Dropout layer after every hidden activation
	// (0 disables). Required for ProbsMC / the BALD strategy.
	DropoutRate float64
	// Seed drives weight initialization.
	Seed int64
}

// DefaultHidden is the paper's tabular MLP hidden width.
const DefaultHidden = 512

// WideHidden returns the hidden widths of the WRN-50 analog used for Fig. 6.
func WideHidden() []int { return []int{1024, 1024, 1024} }

// Classifier wraps a Network with the training and inference operations the
// online learners need: logits, probabilities, feature extraction, and
// fairness-regularized minibatch training.
type Classifier struct {
	cfg Config
	net *Network

	scratch lossScratch // per-batch loss buffers, reused across TrainStep calls

	// arena holds the intermediates of the tiled passes and of ProbsMC, one
	// pass at a time: a pass that finds arenaMu held, because another pass
	// runs concurrently or f started it from inside InferTiles, runs in an
	// arena of its own (lockArena).
	arenaMu sync.Mutex
	arena   mat.Arena
}

// NewClassifier builds a classifier from cfg.
func NewClassifier(cfg Config) *Classifier {
	if cfg.InputDim <= 0 || cfg.NumClasses < 2 {
		panic(fmt.Sprintf("nn: invalid config %d inputs, %d classes", cfg.InputDim, cfg.NumClasses))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	coeff := cfg.SpectralCoeff
	if coeff <= 0 {
		coeff = 1
	}
	var layers []Layer
	in := cfg.InputDim
	for _, h := range cfg.Hidden {
		layers = append(layers, NewLinear(rng, in, h, cfg.SpectralNorm, coeff), NewReLU())
		if cfg.DropoutRate > 0 {
			layers = append(layers, NewDropout(rng, cfg.DropoutRate))
		}
		in = h
	}
	layers = append(layers, NewLinear(rng, in, cfg.NumClasses, cfg.SpectralNorm, coeff))
	// Features come from the first linear layer when hidden layers exist
	// (paper Section V-A3); for a pure linear model the input itself would be
	// the feature, so we tap the logits instead.
	tap := 0
	if len(cfg.Hidden) == 0 {
		tap = len(layers) - 1
	}
	return &Classifier{cfg: cfg, net: &Network{Layers: layers, FeatureTap: tap}}
}

// Config returns the architecture description.
func (c *Classifier) Config() Config { return c.cfg }

// FeatureDim returns the dimensionality of the extracted representation z.
func (c *Classifier) FeatureDim() int {
	if len(c.cfg.Hidden) == 0 {
		return c.cfg.NumClasses
	}
	return c.cfg.Hidden[0]
}

// NumParams reports the scalar parameter count.
func (c *Classifier) NumParams() int { return c.net.NumParams() }

// TileRows is the row count of one tile of a whole-set inference pass.
// Logits, the active strategies' pool pass and FACTION's select run the
// network over at most this many rows at a time (InferTiles), so a pass
// holds one tile of intermediates whatever the set's size: at the paper's
// hidden width, about 2 MB that the classifier keeps from pass to pass.
const TileRows = 256

// lockArena returns the classifier's arena with arenaMu held (owned), or a
// fresh arena when another pass holds it. An owner unlocks arenaMu when its
// pass ends.
func (c *Classifier) lockArena() (a *mat.Arena, owned bool) {
	if !c.arenaMu.TryLock() {
		return new(mat.Arena), false
	}
	return &c.arena, true
}

// InferTiles runs the inference pass over x in tiles of TileRows rows, in
// row order, and calls f with each tile's first row of x, its logits and
// its features. Both matrices live in the classifier's arena and are
// overwritten by the next tile; f copies out what it keeps. Every value of
// a row depends only on that row, so the tiles carry the bits of one
// LogitsAndFeatures over all of x.
func (c *Classifier) InferTiles(x *mat.Dense, f func(off int, logits, features *mat.Dense)) {
	a, owned := c.lockArena()
	if owned {
		defer c.arenaMu.Unlock()
	}
	tile := &mat.Dense{Cols: x.Cols}
	for off := 0; off < x.Rows; off += TileRows {
		tile.Rows = min(TileRows, x.Rows-off)
		tile.Data = x.Data[off*x.Cols : (off+tile.Rows)*x.Cols]
		a.Reset()
		logits, features := c.net.Infer(tile, a)
		f(off, logits, features)
	}
}

// Logits runs inference (no power-iteration update) and returns raw scores.
// It runs in tiles (InferTiles), so the n × NumClasses result is all it
// keeps on the heap.
func (c *Classifier) Logits(x *mat.Dense) *mat.Dense {
	out := mat.NewDense(x.Rows, c.cfg.NumClasses)
	c.InferTiles(x, func(off int, logits, _ *mat.Dense) {
		copy(out.Data[off*out.Cols:], logits.Data)
	})
	return out
}

// Probs returns softmax class probabilities, one row per sample.
func (c *Classifier) Probs(x *mat.Dense) *mat.Dense {
	logits := c.Logits(x)
	out := mat.NewDense(logits.Rows, logits.Cols)
	for i := 0; i < logits.Rows; i++ {
		mat.Softmax(out.Row(i), logits.Row(i))
	}
	return out
}

// ProbsAndFeatures returns the softmax class probabilities and the tapped
// features of every row of x: the active strategies' pool pass. It runs in
// tiles (InferTiles), so the n × NumClasses probabilities and the n ×
// FeatureDim features are all it keeps on the heap.
func (c *Classifier) ProbsAndFeatures(x *mat.Dense) (probs, features *mat.Dense) {
	probs = mat.NewDense(x.Rows, c.cfg.NumClasses)
	features = mat.NewDense(x.Rows, c.FeatureDim())
	c.InferTiles(x, func(off int, logits, tileFeats *mat.Dense) {
		for i := 0; i < logits.Rows; i++ {
			mat.Softmax(probs.Row(off+i), logits.Row(i))
		}
		copy(features.Data[off*features.Cols:], tileFeats.Data)
	})
	return probs, features
}

// PredictClasses returns the argmax class per row.
func (c *Classifier) PredictClasses(x *mat.Dense) []int {
	logits := c.Logits(x)
	out := make([]int, logits.Rows)
	for i := range out {
		out[i] = mat.ArgMax(logits.Row(i))
	}
	return out
}

// LogitsAndFeatures runs one inference pass returning both the logits and the
// tapped feature representation (sharing the forward pass). Every matrix of
// the pass comes from a, so a steady-state loop at a fixed batch shape
// allocates nothing (pinned by TestLogitsAndFeaturesScratchSteadyStateAllocs),
// and both results die when a is reset. A nil a allocates them on the
// heap instead; the bits are identical.
//
// Inference methods (Logits, Probs, ProbsAndFeatures, PredictClasses,
// InferTiles, LogitsAndFeatures, Features, FeaturesIn) are read-only on the
// network and safe for concurrent use, as long as callers that pass an
// arena each pass their own. The tiled passes keep their intermediates in
// the classifier's own arena; a pass that finds it taken, by a concurrent
// pass or by one it runs inside, uses a fresh arena of its own, so
// concurrent and re-entrant passes stay correct and only allocate. Train
// and ProbsMC mutate layer state and require external synchronization.
func (c *Classifier) LogitsAndFeatures(x *mat.Dense, a *mat.Arena) (logits, features *mat.Dense) {
	return c.net.Infer(x, a)
}

// Features returns z = r(x, θ) for each row of x, on the heap. It runs the
// network only through the feature tap; the bits are LogitsAndFeatures'
// features.
func (c *Classifier) Features(x *mat.Dense) *mat.Dense {
	return c.net.Features(x, nil)
}

// FeaturesIn is Features with every matrix of the pass, the result too,
// taken from a, so the result dies when a is reset.
func (c *Classifier) FeaturesIn(x *mat.Dense, a *mat.Arena) *mat.Dense {
	return c.net.Features(x, a)
}

// Clone returns a classifier with identical architecture and copied weights.
func (c *Classifier) Clone() *Classifier {
	dst := NewClassifier(c.cfg)
	dst.net.CopyParamsFrom(c.net)
	return dst
}

// TrainOpts controls fairness-regularized minibatch training.
type TrainOpts struct {
	Epochs    int
	BatchSize int
	Fair      FairConfig
	// MaxGradNorm clips the joint gradient norm when positive.
	MaxGradNorm float64
}

// TrainStats summarizes the final epoch of a training call. Callers that
// report training accuracy compute Accuracy(c.Logits(x), y) themselves.
type TrainStats struct {
	Loss    float64 // mean total loss
	CE      float64 // mean cross-entropy component
	FairPen float64 // mean fairness hinge component
	Batches int
}

// Train fits the classifier on (x, y, s) for opts.Epochs passes of shuffled
// minibatches using opt. s may be nil when Fair.Mu == 0.
func (c *Classifier) Train(x *mat.Dense, y, s []int, opt Optimizer, opts TrainOpts, rng *rand.Rand) TrainStats {
	n := x.Rows
	if len(y) != n {
		panic(fmt.Sprintf("nn: %d labels for %d rows", len(y), n))
	}
	if opts.Fair.Mu != 0 && len(s) != n {
		panic(fmt.Sprintf("nn: fairness training needs %d sensitive values, got %d", n, len(s)))
	}
	if n == 0 || opts.Epochs <= 0 {
		return TrainStats{}
	}
	bs := opts.BatchSize
	if bs <= 0 || bs > n {
		bs = n
	}
	var stats TrainStats
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	bx := mat.NewDense(bs, x.Cols)
	by := make([]int, bs)
	bsens := make([]int, bs)
	// The ragged last batch of every epoch views bx's first rows; the
	// layers and the loss reslice their scratch to it the same way.
	tail := bx
	if r := n % bs; r != 0 {
		tail = mat.NewDenseData(r, x.Cols, bx.Data[:r*x.Cols])
	}
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		stats = TrainStats{}
		for start := 0; start < n; start += bs {
			end := start + bs
			if end > n {
				end = n
			}
			m := end - start
			batchX := bx
			batchY := by[:m]
			batchS := bsens[:m]
			if m != bs {
				batchX = tail
			}
			for r := 0; r < m; r++ {
				copy(batchX.Row(r), x.Row(idx[start+r]))
				batchY[r] = y[idx[start+r]]
				if s != nil {
					batchS[r] = s[idx[start+r]]
				}
			}
			res := c.TrainStep(batchX, batchY, batchS, opt, opts.Fair, opts.MaxGradNorm)
			stats.Loss += res.Total
			stats.CE += res.CE
			stats.FairPen += res.Fair
			stats.Batches++
		}
	}
	if stats.Batches > 0 {
		inv := 1 / float64(stats.Batches)
		stats.Loss *= inv
		stats.CE *= inv
		stats.FairPen *= inv
	}
	return stats
}

// TrainStep performs one fairness-regularized gradient step on a prepared
// minibatch: forward, loss, backward, optional clip, optimizer update. It is
// the per-step hot path of Train and the online learners; at a fixed batch
// shape it reuses every layer and loss buffer and runs allocation-free in
// steady state. Like Train, it mutates layer state and requires external
// synchronization against concurrent inference.
func (c *Classifier) TrainStep(x *mat.Dense, y, s []int, opt Optimizer, fair FairConfig, maxGradNorm float64) FairLossResult {
	start := time.Now()
	logits := c.net.Forward(x)
	res, grad := c.scratch.fairRegularizedCE(logits, y, s, fair)
	if fair.IndividualMu > 0 {
		vInd, gInd := IndividualPenalty(logits, x, fair.IndividualSigma)
		if gInd != nil {
			res.Total += fair.IndividualMu * vInd
			res.Fair += fair.IndividualMu * vInd
			mat.AddScaled(grad, fair.IndividualMu, gInd)
		}
	}
	c.net.ZeroGrad()
	c.net.Backward(grad)
	if maxGradNorm > 0 {
		ClipGradNorm(c.net.Params(), maxGradNorm)
	}
	opt.Step(c.net.Params())
	trainStepSeconds.Observe(time.Since(start).Seconds())
	return res
}
