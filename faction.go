package faction

import (
	"io"
	"math/rand"

	"faction/internal/active"
	"faction/internal/data"
	"faction/internal/drift"
	core "faction/internal/faction"
	"faction/internal/fairness"
	"faction/internal/gda"
	"faction/internal/mat"
	"faction/internal/nn"
	"faction/internal/online"
)

// Data types.
type (
	// Sample is one record: features, sensitive attribute (±1), binary label
	// and originating environment.
	Sample = data.Sample
	// Dataset is an ordered collection of samples.
	Dataset = data.Dataset
	// Task is one unlabeled pool of the sequential protocol.
	Task = data.Task
	// Stream is the full sequential problem.
	Stream = data.Stream
	// StreamConfig parameterizes the synthetic benchmark generators.
	StreamConfig = data.StreamConfig
	// Oracle reveals ground-truth labels and counts the budget spent.
	Oracle = data.Oracle
)

// Learning types.
type (
	// Strategy decides which pool samples to query each acquisition round.
	Strategy = active.Strategy
	// Context is what a Strategy may consult (model, labeled set, pool).
	Context = active.Context
	// Classifier is the trainable spectral-normalized MLP backbone.
	Classifier = nn.Classifier
	// ClassifierConfig describes a Classifier architecture.
	ClassifierConfig = nn.Config
	// Options configures FACTION (λ, α, μ, ε and the ablation switches).
	Options = core.Options
	// Optimizer updates classifier parameters from accumulated gradients.
	Optimizer = nn.Optimizer
	// TrainOpts controls fairness-regularized minibatch training.
	TrainOpts = nn.TrainOpts
	// FairConfig parameterizes the fairness-regularized loss of Eq. 9.
	FairConfig = nn.FairConfig
	// DensityEstimator is the fitted (class × sensitive) Gaussian mixture.
	DensityEstimator = gda.Estimator
	// DensityConfig controls the density estimator's covariance estimation.
	DensityConfig = gda.Config
)

// Protocol types.
type (
	// MethodSpec pairs a query strategy with its training-time fairness
	// regularization.
	MethodSpec = online.MethodSpec
	// RunConfig controls a protocol run (budget B, batch A, epochs, model).
	RunConfig = online.Config
	// RunResult is one method's full pass over a stream.
	RunResult = online.RunResult
	// TaskRecord is the per-task evaluation within a RunResult.
	TaskRecord = online.TaskRecord
	// Report bundles Accuracy, DDP, EOD and MI for one evaluation.
	Report = fairness.Report
)

// Matrix is the dense row-major matrix type used throughout.
type Matrix = mat.Dense

// NewStream builds one of the five benchmark streams by name: "rcmnist",
// "celeba", "fairface", "ffhq" or "nysf".
func NewStream(name string, cfg StreamConfig) (*Stream, error) {
	return data.ByName(name, cfg)
}

// StreamNames lists the benchmark streams in the paper's order.
func StreamNames() []string { return data.StreamNames() }

// StationaryStream builds a single-environment stream of the given length —
// the Theorem 1 setting.
func StationaryStream(cfg StreamConfig, tasks int) *Stream {
	return data.Stationary(cfg, tasks)
}

// DefaultOptions returns the full FACTION configuration with paper-typical
// hyperparameters.
func DefaultOptions() Options { return core.Defaults() }

// New builds the FACTION query strategy (Algorithm 1's selection half).
// The strategy keeps per-run state (its trial count and the density pass's
// storage), so it serves one protocol run at a time: runs that overlap
// each need their own strategy from their own call.
func New(opts Options) *core.Strategy { return core.New(opts) }

// FactionMethod builds the complete FACTION method: the query strategy plus
// the matching fairness-regularized training configuration. Its strategy
// serves one run at a time (see New): call FactionMethod once per run when
// runs overlap.
func FactionMethod(opts Options) MethodSpec { return online.FactionSpec(opts) }

// Methods returns FACTION and the seven adapted baselines of the paper's
// evaluation with default hyperparameters. Its FACTION strategy serves one
// run at a time (see New): call Methods once per run when runs overlap.
func Methods(seed int64) []MethodSpec { return online.Methods(seed) }

// MethodNames lists the canonical method names in the paper's order.
func MethodNames() []string { return online.MethodNames() }

// MethodByName resolves a canonical method name, including the FACTION
// ablation variants of Fig. 4 / Table I. A FACTION spec's strategy serves
// one run at a time (see New).
func MethodByName(name string, seed int64) (MethodSpec, error) {
	return online.MethodByName(name, seed)
}

// DefaultRunConfig returns the CI-scale protocol configuration.
func DefaultRunConfig(seed int64) RunConfig { return online.DefaultConfig(seed) }

// Run executes the Fair Active Online Learning protocol (Algorithm 1) for
// one method over a stream. An invalid configuration (e.g. an unknown
// optimizer name) returns an error before any work happens.
func Run(stream *Stream, spec MethodSpec, cfg RunConfig) (RunResult, error) {
	return online.Run(stream, spec, cfg)
}

// NewClassifier builds a trainable classifier backbone.
func NewClassifier(cfg ClassifierConfig) *Classifier { return nn.NewClassifier(cfg) }

// NewSGD returns a stochastic-gradient-descent optimizer with momentum and
// decoupled weight decay.
func NewSGD(lr, momentum, weightDecay float64) Optimizer {
	return nn.NewSGD(lr, momentum, weightDecay)
}

// NewAdam returns an Adam optimizer with the conventional defaults.
func NewAdam(lr float64) Optimizer { return nn.NewAdam(lr) }

// FitDensity fits the (class × sensitive) Gaussian mixture of Section IV-B
// on feature rows with labels y and sensitive values s.
func FitDensity(features *Matrix, y, s []int, classes int, sensValues []int, cfg DensityConfig) (*DensityEstimator, error) {
	return gda.Fit(features, y, s, classes, sensValues, cfg)
}

// Evaluate computes accuracy and the three group-fairness metrics for binary
// predictions against ground truth with sensitive attribute s.
func Evaluate(pred, y, s []int) Report { return fairness.Evaluate(pred, y, s) }

// DDP returns the demographic-parity gap of binary predictions: the widest
// over pairs of sensitive groups, the paper's gap when there are two.
func DDP(pred, s []int) float64 { return fairness.DDP(pred, s) }

// EOD returns the equalized-odds difference of binary predictions: the
// widest over pairs of sensitive groups, the paper's when there are two.
func EOD(pred, y, s []int) float64 { return fairness.EOD(pred, y, s) }

// MI returns the mutual information (nats) between predictions and the
// sensitive attribute, whatever its number of values.
func MI(pred, s []int) float64 { return fairness.MI(pred, s) }

// NewRand returns a seeded random source for use with strategy contexts.
func NewRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// NewMatrix allocates an r×c zero matrix.
func NewMatrix(r, c int) *Matrix { return mat.NewDense(r, c) }

// Extension types (Section IV-H and IV-D of the paper; see DESIGN.md §6).
type (
	// StreamSelector is the single-sample-arrival selector: incremental
	// normalization plus per-sample Bernoulli querying under a hard budget.
	StreamSelector = active.StreamSelector
	// DriftDetector flags environment shifts from drops in the mean
	// feature-space log-density.
	DriftDetector = drift.Detector
	// DriftConfig tunes the drift detector.
	DriftConfig = drift.Config
	// DriftObservation is one batch verdict from the drift detector.
	DriftObservation = drift.Observation
)

// NewStreamSelector builds a per-sample selector with query rate alpha, a
// hard label budget, and a normalization warm-up length (0 = default).
func NewStreamSelector(alpha float64, budget, warmup int) *StreamSelector {
	return active.NewStreamSelector(alpha, budget, warmup)
}

// NewDriftDetector builds an environment-shift detector over mean
// log-densities.
func NewDriftDetector(cfg DriftConfig) *DriftDetector { return drift.New(cfg) }

// Calibration diagnostics and extension metrics.
var (
	// ECE is the expected calibration error of probabilistic predictions.
	ECE = nn.ECE
	// Brier is the mean Brier score (proper scoring rule).
	Brier = nn.Brier
	// IndividualPenalty is the Section IV-H consistency penalty.
	IndividualPenalty = nn.IndividualPenalty
)

// Extra reference strategies beyond the paper's seven baselines.
type (
	// Coreset is the k-center-greedy diversity strategy.
	Coreset = active.Coreset
	// BALD is Bayesian active learning by disagreement (MC dropout).
	BALD = active.BALD
)

// GroupThresholds are per-group decision thresholds for equalized-rate
// post-processing (Hardt et al. 2016) — the third fairness mechanism next to
// FACTION's fair selection and in-processing regularizer.
type GroupThresholds = fairness.GroupThresholds

// FitThresholds searches per-group decision thresholds on a calibration set
// that minimize DDP subject to an accuracy floor; apply the result to any
// already-deployed scorer without retraining.
func FitThresholds(scores []float64, y, s []int, slack float64) (GroupThresholds, Report) {
	return fairness.FitThresholds(scores, y, s, slack)
}

// Multi-group fairness metrics (sensitive attributes with >2 values). DDP,
// EOD and MI take any number of sensitive values; these are the same
// functions under their multi-group names.
var (
	// DDPMulti is DDP: the worst-case pairwise demographic-parity gap.
	DDPMulti = fairness.DDP
	// EODMulti is EOD: the worst-case pairwise equalized-odds difference.
	EODMulti = fairness.EOD
	// MIMulti is MI: the general discrete mutual information I(ŷ; s).
	MIMulti = fairness.MI
	// FlipRate is the counterfactual flip rate (Section IV-H).
	FlipRate = fairness.FlipRate
)

// MultiGroupStream builds a stationary stream whose sensitive attribute
// takes `groups` distinct values — the Section IV-H multi-group extension.
func MultiGroupStream(cfg StreamConfig, groups, tasks int, skew float64) *Stream {
	return data.MultiGroupStream(cfg, groups, tasks, skew)
}

// SaveClassifier serializes a trained classifier (weights + spectral state).
func SaveClassifier(w io.Writer, c *Classifier) error { return c.Save(w) }

// LoadClassifier reconstructs a classifier saved with SaveClassifier;
// predictions match exactly.
func LoadClassifier(r io.Reader) (*Classifier, error) { return nn.LoadClassifier(r) }

// SaveDensity serializes a fitted density estimator.
func SaveDensity(w io.Writer, e *DensityEstimator) error { return e.Save(w) }

// LoadDensity reconstructs an estimator saved with SaveDensity; densities
// match exactly.
func LoadDensity(r io.Reader) (*DensityEstimator, error) { return gda.Load(r) }

// WriteStreamCSV serializes a stream in the canonical task CSV format.
func WriteStreamCSV(w io.Writer, s *Stream) error { return data.WriteCSV(w, s) }

// ReadStreamCSV parses a stream from the canonical task CSV format — the
// entry point for running the protocol on real external datasets.
func ReadStreamCSV(r io.Reader, name string) (*Stream, error) { return data.ReadCSV(r, name) }
