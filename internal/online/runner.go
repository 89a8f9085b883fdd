// Package online implements the Fair Active Online Learning protocol of
// Section IV-A / Algorithm 1: tasks arrive sequentially and unlabeled, the
// learner's performance is recorded with the previous parameters before any
// adaptation, and each task grants a label budget B spent in acquisition
// batches of size A chosen by a query strategy. Training between acquisition
// rounds uses the (optionally fairness-regularized) total loss of Eq. 9.
//
// The runner treats every method — FACTION, its ablations and the seven
// baselines — uniformly through a MethodSpec: a query strategy plus a
// training-time fairness configuration.
package online

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"faction/internal/active"
	"faction/internal/data"
	"faction/internal/fairness"
	"faction/internal/mat"
	"faction/internal/nn"
	"faction/internal/obs"
	"faction/internal/rngutil"
	"faction/internal/wal"
)

// MethodSpec pairs a query strategy with its training-time fairness
// regularization (zero for fairness-unaware methods).
type MethodSpec struct {
	Name     string
	Strategy active.Strategy
	Fair     nn.FairConfig
}

// Config controls one protocol run. Zero fields take the documented defaults.
type Config struct {
	// Budget is B, the per-task label budget (default 200, Section V-B).
	Budget int
	// AcqSize is A, the acquisition batch size per AL iteration (default 50).
	AcqSize int
	// WarmStart is the initial randomly-labeled sample count (default 100).
	WarmStart int
	// Epochs of training per AL iteration (default 15).
	Epochs int
	// BatchSize for minibatch training (default 32).
	BatchSize int
	// LR is the learning rate γ (default 0.01; constant, as in Section IV-F).
	LR float64
	// Hidden is the model architecture (default {64}; the paper uses {512}
	// — configure via the paper-scale experiment configs).
	Hidden []int
	// Linear forces pure logistic regression (no hidden layers), overriding
	// Hidden — the convex setting of Section IV-G's analysis.
	Linear bool
	// DropoutRate builds the protocol model with dropout after every hidden
	// activation (needed by the BALD strategy; 0 disables).
	DropoutRate float64
	// SpectralNorm enables spectral normalization (default on through
	// DefaultConfig; required by FACTION/DDU's density estimation).
	SpectralNorm bool
	// SpectralCoeff caps the per-layer Lipschitz constant (default 3).
	SpectralCoeff float64
	// Optimizer is "adam" (default) or "sgd".
	Optimizer string
	// WeightDecay applies decoupled L2 decay during training — the practical
	// analog of Theorem 1's bounded domain Θ. Zero disables it.
	WeightDecay float64
	// MaxGradNorm clips gradients when positive (default 5).
	MaxGradNorm float64
	// Seed derives every stochastic stream of the run.
	Seed int64
	// TrackRegret additionally fits a fully-supervised per-task oracle model
	// and records the instantaneous-loss regret of Eq. 2 (costly; used by the
	// theory experiments).
	TrackRegret bool
	// OracleEpochs trains the regret oracle (default 40).
	OracleEpochs int
	// Trace, when non-nil, receives one JSON line per task record as the run
	// progresses — the machine-readable audit log of the protocol. The first
	// write failure is surfaced on RunResult.TraceErr.
	Trace io.Writer
	// Metrics selects the registry the run's gauges and histograms register
	// into (obs.Default() when nil); see RegisterMetrics for the families.
	Metrics *obs.Registry
	// Tracer, when non-nil, records a span per task plus per-stage child
	// spans (eval → train → select → acquire → fairness). Export the ring
	// with Tracer.ExportJSONL.
	Tracer *obs.Tracer
	// WAL, when non-nil, receives one acquisition record per label purchase
	// (task, round, picked pool indices) appended before the oracle is
	// queried — a durable audit trail of where the label budget went. The
	// first append failure is surfaced on RunResult.WALErr; the run itself
	// continues, like tracing.
	WAL *wal.WAL
}

// DefaultConfig returns the CI-scale configuration used across experiments.
func DefaultConfig(seed int64) Config {
	return Config{
		Budget:        200,
		AcqSize:       50,
		WarmStart:     100,
		Epochs:        15,
		BatchSize:     32,
		LR:            0.01,
		Hidden:        []int{64},
		SpectralNorm:  true,
		SpectralCoeff: 3,
		Optimizer:     "adam",
		MaxGradNorm:   5,
		Seed:          seed,
	}
}

func (c *Config) setDefaults() {
	if c.Budget <= 0 {
		c.Budget = 200
	}
	if c.AcqSize <= 0 {
		c.AcqSize = 50
	}
	if c.WarmStart < 0 {
		c.WarmStart = 0
	}
	if c.Epochs <= 0 {
		c.Epochs = 15
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.LR <= 0 {
		c.LR = 0.01
	}
	if len(c.Hidden) == 0 && !c.Linear {
		c.Hidden = []int{64}
	}
	if c.SpectralCoeff <= 0 {
		c.SpectralCoeff = 3
	}
	if c.Optimizer == "" {
		c.Optimizer = "adam"
	}
	if c.OracleEpochs <= 0 {
		c.OracleEpochs = 40
	}
}

// TaskRecord is the evaluation of one incoming task, taken with the
// parameters learned before the task (Algorithm 1 line 4), plus the
// adaptation bookkeeping for that task.
type TaskRecord struct {
	TaskID int
	Env    int
	Name   string
	// Report holds Accuracy/DDP/EOD/MI on the full incoming task.
	Report fairness.Report
	// Queries is the number of labels bought for this task.
	Queries int
	// TrainLoss is the final training loss of the task's last AL iteration.
	TrainLoss float64
	// FairViolation is ‖[v(D_t, θ_t)]₊‖ on the labeled pool after the task
	// (the summand of the cumulative violation V in Theorem 1).
	FairViolation float64
	// InstLoss is the instantaneous loss f_t(D_t^U, θ_{t-1}).
	InstLoss float64
	// Regret is InstLoss − f_t*(D_t^U) when Config.TrackRegret is set.
	Regret float64
	// Elapsed is the wall-clock time spent adapting to this task.
	Elapsed time.Duration
}

// RunResult is a full protocol run of one method over one stream.
type RunResult struct {
	Method       string
	Stream       string
	Records      []TaskRecord
	TotalQueries int
	Elapsed      time.Duration
	// TraceErr is the first error hit writing Config.Trace, if any. Tracing
	// never aborts a run, but a truncated audit log must not pass silently.
	TraceErr error `json:"-"`
	// WALErr is the first error appending an acquisition record to
	// Config.WAL, if any — same contract as TraceErr.
	WALErr error `json:"-"`
}

// MeanReport averages the per-task metrics across the run ("mean across all
// tasks", as in Table I).
func (r *RunResult) MeanReport() fairness.Report {
	var out fairness.Report
	if len(r.Records) == 0 {
		return out
	}
	for _, rec := range r.Records {
		out.Accuracy += rec.Report.Accuracy
		out.DDP += rec.Report.DDP
		out.EOD += rec.Report.EOD
		out.MI += rec.Report.MI
	}
	inv := 1 / float64(len(r.Records))
	out.Accuracy *= inv
	out.DDP *= inv
	out.EOD *= inv
	out.MI *= inv
	return out
}

// CumulativeRegret sums per-task regrets (Eq. 2).
func (r *RunResult) CumulativeRegret() float64 {
	total := 0.0
	for _, rec := range r.Records {
		total += rec.Regret
	}
	return total
}

// CumulativeViolation sums per-task fairness violations (Theorem 1's V).
func (r *RunResult) CumulativeViolation() float64 {
	total := 0.0
	for _, rec := range r.Records {
		total += rec.FairViolation
	}
	return total
}

// Run executes the full protocol of Algorithm 1 for one method on a stream.
// An invalid configuration (an unknown Optimizer) returns an error before
// any work happens.
func Run(stream *data.Stream, spec MethodSpec, cfg Config) (RunResult, error) {
	cfg.setDefaults()
	opt, err := nn.NewOptimizer(cfg.Optimizer, cfg.LR, cfg.WeightDecay)
	if err != nil {
		return RunResult{}, fmt.Errorf("online: %w", err)
	}
	start := time.Now()
	runRng := rngutil.Derive(cfg.Seed, "run", stream.Name, spec.Name)
	modelSeed := rngutil.DeriveSeed(cfg.Seed, "model", stream.Name, spec.Name)

	hidden := cfg.Hidden
	if cfg.Linear {
		hidden = nil
	}
	model := nn.NewClassifier(nn.Config{
		InputDim:      stream.Dim,
		NumClasses:    stream.Classes,
		Hidden:        hidden,
		SpectralNorm:  cfg.SpectralNorm,
		SpectralCoeff: cfg.SpectralCoeff,
		DropoutRate:   cfg.DropoutRate,
		Seed:          modelSeed,
	})
	oracle := &data.Oracle{}
	labeled := data.NewDataset("labeled", stream.Dim, stream.Classes)

	trainOpts := nn.TrainOpts{
		Epochs:      cfg.Epochs,
		BatchSize:   cfg.BatchSize,
		Fair:        spec.Fair,
		MaxGradNorm: cfg.MaxGradNorm,
	}

	// Instrumentation: run-level gauges plus per-stage timing histograms.
	// Stage children are resolved once so the loop's hot path is lock-free.
	metrics := RegisterMetrics(cfg.Metrics)
	stageEval := metrics.stageSeconds.With("eval")
	stageTrain := metrics.stageSeconds.With("train")
	stageSelect := metrics.stageSeconds.With("select")
	stageAcquire := metrics.stageSeconds.With("acquire")
	stageFairness := metrics.stageSeconds.With("fairness")
	runCtx := obs.WithTracer(context.Background(), cfg.Tracer)
	cumRegret, cumViolation := 0.0, 0.0

	result := RunResult{Method: spec.Name, Stream: stream.Name}
	// logAcquisition appends one durable audit record per label purchase,
	// before the oracle is queried — so even a crash mid-acquisition leaves
	// evidence of the spend. Failures are recorded once and never abort the
	// run (the record is audit, not state).
	logAcquisition := func(taskID, round int, picks []int) {
		if cfg.WAL == nil {
			return
		}
		p := make([]int64, len(picks))
		for i, v := range picks {
			p[i] = int64(v)
		}
		payload := wal.AppendAcquisition(nil, wal.Acquisition{Task: int64(taskID), Round: int64(round), Picks: p})
		if _, err := cfg.WAL.Append(payload); err != nil && result.WALErr == nil {
			result.WALErr = err
		}
	}
	for ti := range stream.Tasks {
		task := stream.Tasks[ti]
		pool := task.Pool.Clone() // the run consumes the pool
		queriesBefore := oracle.Queries()

		taskCtx, taskSpan := cfg.Tracer.StartSpan(runCtx, "online.task")
		taskSpan.SetAttr("task", task.ID)
		taskSpan.SetAttr("env", task.Env)
		taskSpan.SetAttr("method", spec.Name)

		// Warm start: random labels from the first task, then a first fit,
		// so every method enters the protocol with the same endowment
		// (Section V-A3).
		if ti == 0 && cfg.WarmStart > 0 {
			warm := cfg.WarmStart
			if warm > pool.Len() {
				warm = pool.Len()
			}
			_, warmSpan := cfg.Tracer.StartSpan(taskCtx, "online.warmstart")
			warmSpan.SetAttr("samples", warm)
			idx := rngutil.SampleWithoutReplacement(runRng, pool.Len(), warm)
			logAcquisition(task.ID, 0, idx)
			acquire(labeled, pool, idx, oracle)
			model.Train(labeled.Matrix(), labeled.Labels(), labeled.Sensitive(), opt, trainOpts, runRng)
			warmSpan.End()
		}

		rec := TaskRecord{TaskID: task.ID, Env: task.Env, Name: task.Name}

		// Record the performance of θ_{t-1} on the full incoming task
		// (ground truth used for evaluation only).
		evalStart := time.Now()
		_, evalSpan := cfg.Tracer.StartSpan(taskCtx, "online.eval")
		evalX := pool.Matrix()
		evalLogits := model.Logits(evalX)
		pred := make([]int, evalLogits.Rows)
		for i := range pred {
			pred[i] = mat.ArgMax(evalLogits.Row(i))
		}
		rec.Report = fairness.Evaluate(pred, pool.Labels(), pool.Sensitive())
		instLoss, _ := nn.CrossEntropy(evalLogits, pool.Labels())
		rec.InstLoss = instLoss
		if cfg.TrackRegret {
			rec.Regret = instLoss - bestTaskLoss(pool, cfg, modelSeed+int64(ti))
			if rec.Regret < 0 {
				rec.Regret = 0
			}
		}
		evalSpan.SetAttr("accuracy", rec.Report.Accuracy)
		evalSpan.End()
		stageEval.Observe(time.Since(evalStart).Seconds())

		taskStart := time.Now()
		budget := cfg.Budget
		round := 0
		for budget > 0 && pool.Len() > 0 {
			round++
			// Train on everything labeled so far (Algorithm 1 lines 7–8).
			trainStart := time.Now()
			_, trainSpan := cfg.Tracer.StartSpan(taskCtx, "online.train")
			stats := model.Train(labeled.Matrix(), labeled.Labels(), labeled.Sensitive(), opt, trainOpts, runRng)
			trainSpan.End()
			stageTrain.Observe(time.Since(trainStart).Seconds())
			rec.TrainLoss = stats.Loss

			a := cfg.AcqSize
			if a > budget {
				a = budget
			}
			selectStart := time.Now()
			_, selectSpan := cfg.Tracer.StartSpan(taskCtx, "online.select")
			actx := &active.Context{Model: model, Labeled: labeled, Pool: pool, Rng: runRng}
			picks := spec.Strategy.SelectBatch(actx, a)
			selectSpan.SetAttr("picked", len(picks))
			selectSpan.End()
			stageSelect.Observe(time.Since(selectStart).Seconds())
			if len(picks) == 0 {
				break
			}
			acquireStart := time.Now()
			_, acquireSpan := cfg.Tracer.StartSpan(taskCtx, "online.acquire")
			logAcquisition(task.ID, round, picks)
			acquire(labeled, pool, picks, oracle)
			acquireSpan.End()
			stageAcquire.Observe(time.Since(acquireStart).Seconds())
			budget -= len(picks)
		}
		rec.Queries = oracle.Queries() - queriesBefore
		rec.Elapsed = time.Since(taskStart)

		// Fairness violation of the post-task parameters on the labeled pool.
		if labeled.Len() > 0 {
			fairStart := time.Now()
			_, fairSpan := cfg.Tracer.StartSpan(taskCtx, "online.fairness")
			logits := model.Logits(labeled.Matrix())
			v, _ := nn.FairPenalty(logits, labeled.Labels(), labeled.Sensitive(), spec.Fair.Mode)
			if v > 0 {
				rec.FairViolation = v
			} else {
				rec.FairViolation = -v
			}
			fairSpan.End()
			stageFairness.Observe(time.Since(fairStart).Seconds())
		}
		result.Records = append(result.Records, rec)
		cumRegret += rec.Regret
		cumViolation += rec.FairViolation
		metrics.observeTask(rec, oracle.Queries(), cumRegret, cumViolation)
		taskSpan.SetAttr("queries", rec.Queries)
		taskSpan.End()
		if cfg.Trace != nil {
			if err := writeTrace(cfg.Trace, spec.Name, stream.Name, rec); err != nil && result.TraceErr == nil {
				result.TraceErr = err
			}
		}
	}
	result.TotalQueries = oracle.Queries()
	result.Elapsed = time.Since(start)
	return result, nil
}

// MustRun is Run for code-constructed configurations known to be valid (the
// experiment drivers); it panics on a configuration error.
func MustRun(stream *data.Stream, spec MethodSpec, cfg Config) RunResult {
	res, err := Run(stream, spec, cfg)
	if err != nil {
		panic(err)
	}
	return res
}

// traceLine is the JSONL schema of Config.Trace.
type traceLine struct {
	Method        string  `json:"method"`
	Stream        string  `json:"stream"`
	Task          int     `json:"task"`
	Env           int     `json:"env"`
	Name          string  `json:"name"`
	Accuracy      float64 `json:"accuracy"`
	DDP           float64 `json:"ddp"`
	EOD           float64 `json:"eod"`
	MI            float64 `json:"mi"`
	Queries       int     `json:"queries"`
	TrainLoss     float64 `json:"trainLoss"`
	InstLoss      float64 `json:"instLoss"`
	Regret        float64 `json:"regret"`
	FairViolation float64 `json:"fairViolation"`
	ElapsedMs     float64 `json:"elapsedMs"`
}

// writeTrace emits one task record as a JSON line. Tracing never aborts a
// run — Run keeps going after a failure — but the first error is surfaced on
// RunResult.TraceErr so a truncated audit log is visible to the caller.
func writeTrace(w io.Writer, method, stream string, rec TaskRecord) error {
	line := traceLine{
		Method:        method,
		Stream:        stream,
		Task:          rec.TaskID,
		Env:           rec.Env,
		Name:          rec.Name,
		Accuracy:      rec.Report.Accuracy,
		DDP:           rec.Report.DDP,
		EOD:           rec.Report.EOD,
		MI:            rec.Report.MI,
		Queries:       rec.Queries,
		TrainLoss:     rec.TrainLoss,
		InstLoss:      rec.InstLoss,
		Regret:        rec.Regret,
		FairViolation: rec.FairViolation,
		ElapsedMs:     float64(rec.Elapsed.Microseconds()) / 1000,
	}
	raw, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = w.Write(append(raw, '\n'))
	return err
}

// acquire reveals the labels of pool[idx...] through the oracle and moves the
// samples into the labeled set. Indices are processed in descending order so
// the pool's swap-removal keeps remaining indices valid.
func acquire(labeled, pool *data.Dataset, idx []int, oracle *data.Oracle) {
	sorted := append([]int(nil), idx...)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	for _, i := range sorted {
		s := pool.Samples[i]
		s.Y = oracle.Label(&pool.Samples[i]) // label revealed and charged
		labeled.Append(s)
		pool.Remove(i)
	}
}

// bestTaskLoss fits a fully supervised model on the task (labels visible to
// the loss only, per the regret definition of Eq. 2) and returns its loss —
// the f_t* reference of the regret.
func bestTaskLoss(pool *data.Dataset, cfg Config, seed int64) float64 {
	hidden := cfg.Hidden
	if cfg.Linear {
		hidden = nil
	}
	oracleModel := nn.NewClassifier(nn.Config{
		InputDim:      pool.Dim,
		NumClasses:    pool.Classes,
		Hidden:        hidden,
		SpectralNorm:  cfg.SpectralNorm,
		SpectralCoeff: cfg.SpectralCoeff,
		Seed:          seed,
	})
	rng := rand.New(rand.NewSource(seed))
	oracleModel.Train(pool.Matrix(), pool.Labels(), nil, nn.NewAdam(cfg.LR), nn.TrainOpts{
		Epochs:    cfg.OracleEpochs,
		BatchSize: cfg.BatchSize,
	}, rng)
	loss, _ := nn.CrossEntropy(oracleModel.Logits(pool.Matrix()), pool.Labels())
	return loss
}
