package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"time"

	"faction/internal/data"
	"faction/internal/gda"
	"faction/internal/nn"
	"faction/internal/obs"
	"faction/internal/rngutil"
	"faction/internal/wal"
)

// OnlineConfig enables serving-time adaptation: labeled feedback accumulates
// in a buffer and /refit continues training the live model on it (with the
// fairness-regularized loss) and refits the density estimator — the
// deployment analog of Algorithm 1's train-then-acquire loop, with the
// /score endpoint supplying the acquire half.
//
// A refit never endangers the serving path: training runs on a clone of the
// live model with the read lock released, the candidate must pass validation
// (finite loss, non-degenerate density fit), and only then is it swapped in
// under the write lock. A rejected candidate leaves the previous model
// serving and surfaces the failure on /info.
type OnlineConfig struct {
	// Enabled turns on POST /feedback and POST /refit.
	Enabled bool
	// Fair is the training-time fairness regularization (Eq. 9).
	Fair nn.FairConfig
	// Epochs per refit (default 10).
	Epochs int
	// BatchSize for refit minibatches (default 32).
	BatchSize int
	// LR is the refit learning rate (default 0.01).
	LR float64
	// Optimizer selects the refit optimizer (nn.NewOptimizer): "adam"
	// (default) or "sgd" (with momentum 0.9).
	Optimizer string
	// MaxBuffer caps the feedback buffer; oldest samples are dropped beyond
	// it (0 = unbounded).
	MaxBuffer int
	// Seed derives the refit shuffling stream.
	Seed int64
	// SensValues for refitting the density estimator (default {-1, +1}).
	SensValues []int
	// AsyncRefit decouples training from the request path: POST /refit
	// answers 202 immediately and a dedicated consumer goroutine runs the
	// refit off the feedback log, so training never holds an HTTP worker
	// and the zero-alloc read path is never stalled behind a fit. Results
	// surface on /info and the logs instead of the /refit response.
	AsyncRefit bool
}

func (c *OnlineConfig) setDefaults() {
	if c.Epochs <= 0 {
		c.Epochs = 10
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.LR <= 0 {
		c.LR = 0.01
	}
	if len(c.SensValues) == 0 {
		c.SensValues = []int{-1, 1}
	}
}

// feedbackRequest is the body of POST /feedback.
type feedbackRequest struct {
	Instances [][]float64 `json:"instances"`
	Labels    []int       `json:"labels"`
	Sensitive []int       `json:"sensitive"`
}

type feedbackResponse struct {
	Buffered int `json:"buffered"`
	// LSN is the write-ahead-log sequence number of this batch, present when
	// the server runs with a WAL: by the time the client reads it, the batch
	// is durable under the configured fsync mode.
	LSN uint64 `json:"lsn,omitempty"`
}

func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	var req feedbackRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		badBody(w, r, err)
		return
	}
	n := len(req.Instances)
	if n == 0 {
		httpError(w, r, http.StatusBadRequest, "no instances")
		return
	}
	if len(req.Labels) != n || len(req.Sensitive) != n {
		httpError(w, r, http.StatusBadRequest, "%d instances but %d labels / %d sensitive values",
			n, len(req.Labels), len(req.Sensitive))
		return
	}
	dim := s.inputDim
	classes := s.numClasses
	samples := make([]data.Sample, n)
	for i, inst := range req.Instances {
		if len(inst) != dim {
			httpError(w, r, http.StatusBadRequest, "instance %d has %d features, model expects %d", i, len(inst), dim)
			return
		}
		for _, v := range inst {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				httpError(w, r, http.StatusBadRequest, "instance %d has a non-finite feature", i)
				return
			}
		}
		if req.Labels[i] < 0 || req.Labels[i] >= classes {
			httpError(w, r, http.StatusBadRequest, "label %d out of range %d", req.Labels[i], classes)
			return
		}
		x := make([]float64, dim)
		copy(x, inst)
		samples[i] = data.Sample{X: x, Y: req.Labels[i], S: req.Sensitive[i]}
	}

	// Durability before acknowledgement: the batch goes to the write-ahead
	// log first, and a log failure refuses the feedback outright — the
	// client must never hold a 200 for a record a crash could lose.
	var lsn uint64
	if wlog := s.cfg.WAL; wlog != nil {
		payload, err := wal.AppendFeedback(nil, wal.Feedback{X: req.Instances, Y: req.Labels, S: req.Sensitive})
		if err != nil {
			httpError(w, r, http.StatusBadRequest, "encoding feedback: %v", err)
			return
		}
		lsn, err = wlog.Append(payload)
		if err != nil {
			httpError(w, r, http.StatusServiceUnavailable, "feedback not durable, rejected: %v", err)
			return
		}
	}

	s.mu.Lock()
	s.buffer.Append(samples...)
	s.trimBufferLocked()
	if lsn > s.bufferLSN {
		// Advance-only: WAL appends happen outside s.mu, so two concurrent
		// requests can reach this point out of LSN order. Regressing the
		// watermark would understate coverage and replay covered records.
		s.bufferLSN = lsn
	}
	buffered := s.buffer.Len()
	s.mu.Unlock()
	s.metrics.feedback.Set(float64(buffered))
	s.updateWALLagMetrics()
	writeJSON(w, r, feedbackResponse{Buffered: buffered, LSN: lsn})
}

// trimBufferLocked enforces MaxBuffer by dropping the oldest samples (the
// buffer is append-ordered). The caller holds mu.
func (s *Server) trimBufferLocked() {
	if max := s.cfg.Online.MaxBuffer; max > 0 && s.buffer.Len() > max {
		excess := s.buffer.Len() - max
		s.buffer.Samples = append([]data.Sample(nil), s.buffer.Samples[excess:]...)
	}
}

type refitResponse struct {
	Samples       int     `json:"samples"`
	TrainLoss     float64 `json:"trainLoss"`
	TrainAccuracy float64 `json:"trainAccuracy"`
	DensityRefit  bool    `json:"densityRefit"`
	Refits        int     `json:"refits"`
	Generation    uint64  `json:"generation"`
}

// errNoFeedback marks a refit attempt with an empty buffer: a no-op for the
// async consumer, a 409 for the synchronous endpoint.
var errNoFeedback = errors.New("no feedback buffered")

// handleRefit triggers a refit. Synchronously (the default) it runs the fit
// on the request and answers with the result; in AsyncRefit mode it kicks
// the consumer goroutine and answers 202 immediately, so training never
// occupies an HTTP worker. Overlapping kicks coalesce — the pending run
// consumes the latest buffer anyway.
func (s *Server) handleRefit(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Online.AsyncRefit {
		select {
		case s.refitKick <- struct{}{}:
		default: // a kick is already pending
		}
		writeJSONStatus(w, r, http.StatusAccepted, map[string]string{
			"status": "scheduled",
			"detail": "refit runs asynchronously; progress on /info",
		})
		return
	}
	if !s.refitMu.TryLock() {
		httpError(w, r, http.StatusConflict, "refit already in progress")
		return
	}
	defer s.refitMu.Unlock()
	resp, err := s.runRefit(r.Context())
	switch {
	case errors.Is(err, errNoFeedback):
		httpError(w, r, http.StatusConflict, "no feedback buffered")
	case err != nil:
		s.recordRefitFailure(r.Context(), err)
		httpError(w, r, http.StatusUnprocessableEntity, "refit failed, previous model still serving: %v", err)
	default:
		writeJSON(w, r, resp)
	}
}

// runRefit trains a candidate model on the feedback buffer and swaps it in
// only if it validates. The expensive training happens with no server lock
// held, so /predict and /score keep answering (from the previous model) for
// the whole refit. The caller holds refitMu; both the synchronous endpoint
// and the async consumer funnel through here, so the two paths cannot
// drift. On success the consumed-LSN watermark advances to the buffer LSN
// captured with the training copy, releasing covered WAL segments to the
// checkpointer's pruning.
func (s *Server) runRefit(ctx context.Context) (refitResponse, error) {
	refitStart := time.Now()
	defer func() { s.metrics.refitSeconds.Observe(time.Since(refitStart).Seconds()) }()
	ctx, span := obs.StartSpan(ctx, "server.refit")
	defer span.End()

	// Snapshot the inputs under the read lock: a clone of the live model and
	// the buffered feedback (feedback arriving mid-refit joins the next one).
	s.mu.RLock()
	if s.buffer.Len() == 0 {
		s.mu.RUnlock()
		return refitResponse{}, errNoFeedback
	}
	cand := s.cfg.Model.Clone()
	buf := data.NewDataset(s.buffer.Name, s.inputDim, s.numClasses)
	buf.Samples = append([]data.Sample(nil), s.buffer.Samples...)
	lsnAtCopy := s.bufferLSN
	oc := s.cfg.Online
	attempt := s.refits + s.failedRefits + 1
	hadDensity := s.cfg.Density != nil
	s.mu.RUnlock()

	s.refitStart.Store(time.Now().UnixNano())
	defer s.refitStart.Store(0)

	rng := rngutil.Derive(oc.Seed, "server-refit", fmt.Sprint(attempt))
	opt, _ := nn.NewOptimizer(oc.Optimizer, oc.LR, 0) // the name was checked by New
	// Training, the density refit and the accuracy all read the one copy.
	x, y, sens := buf.Matrix(), buf.Labels(), buf.Sensitive()
	_, trainSpan := obs.StartSpan(ctx, "server.refit.train")
	trainSpan.SetAttr("samples", buf.Len())
	stats := cand.Train(x, y, sens,
		opt, nn.TrainOpts{Epochs: oc.Epochs, BatchSize: oc.BatchSize, Fair: oc.Fair}, rng)
	trainSpan.End()

	// If the request died during training — the timeout middleware already
	// answered 503, or the client hung up — the caller was told the refit
	// failed, so swapping the candidate in later would contradict that
	// answer. Abandon it (recorded on /info like any other failed refit).
	// The async consumer runs on a background context and never trips this.
	if err := ctx.Err(); err != nil {
		return refitResponse{}, fmt.Errorf("request cancelled during training, candidate abandoned: %w", err)
	}

	if err := s.validateCandidate(cand, stats); err != nil {
		return refitResponse{}, fmt.Errorf("candidate rejected: %w", err)
	}

	// Refit the density estimator on the candidate's representation; a
	// degenerate fit rejects the whole refit so /score never runs against a
	// density the paper's Eq. 3–5 machinery cannot trust.
	var est *gda.Estimator
	if hadDensity {
		_, densitySpan := obs.StartSpan(ctx, "server.refit.density")
		var err error
		est, err = gda.Fit(cand.Features(x), y, sens,
			cand.Config().NumClasses, oc.SensValues, gda.Config{})
		densitySpan.End()
		if err != nil {
			return refitResponse{}, fmt.Errorf("density refit failed: %w", err)
		}
		if est.NumComponents() > 0 && est.DegenerateComponents() == est.NumComponents() {
			return refitResponse{}, fmt.Errorf(
				"density refit degenerate: all %d components fell back to pooled statistics", est.NumComponents())
		}
	}

	trainAcc := nn.Accuracy(cand.Logits(x), y)

	// Last cancellation check before the point of no return: the density
	// refit above can outlive the deadline too.
	if err := ctx.Err(); err != nil {
		return refitResponse{}, fmt.Errorf("request cancelled before swap, candidate abandoned: %w", err)
	}

	// Candidate validated: swap under the write lock (cheap pointer swaps).
	s.mu.Lock()
	s.cfg.Model = cand
	if est != nil {
		s.adoptDensityLocked(est, est.TrainLogDensities)
	}
	s.refits++
	s.lastRefitErr = ""
	resp := refitResponse{
		Samples:       buf.Len(),
		TrainLoss:     stats.Loss,
		TrainAccuracy: trainAcc,
		DensityRefit:  est != nil,
		Refits:        s.refits,
		Generation:    s.generation.Add(1),
	}
	s.mu.Unlock()
	s.consumedLSN.Store(lsnAtCopy)
	s.updateWALLagMetrics()
	s.metrics.refits.Inc()
	s.metrics.generation.Set(float64(resp.Generation))
	reqLogger(s.cfg.Logger, ctx).Info("refit accepted",
		slog.Uint64("generation", resp.Generation),
		slog.Int("samples", resp.Samples),
		slog.Float64("trainLoss", resp.TrainLoss),
		slog.Float64("trainAccuracy", resp.TrainAccuracy),
		slog.Bool("densityRefit", resp.DensityRefit))
	return resp, nil
}

// recordRefitFailure records a refit failure on /info and the metrics. The
// live model and density are untouched — the server keeps serving the
// last-good generation.
func (s *Server) recordRefitFailure(ctx context.Context, err error) {
	s.mu.Lock()
	s.failedRefits++
	s.lastRefitErr = err.Error()
	s.mu.Unlock()
	s.metrics.failedRefits.Inc()
	reqLogger(s.cfg.Logger, ctx).Warn("refit rejected",
		slog.Uint64("keptGeneration", s.generation.Load()),
		slog.String("error", err.Error()))
}

// defaultValidateCandidate is the acceptance gate for refit candidates: the
// final training loss must be finite — a diverged or overflowed fit produces
// NaN/Inf, and swapping such a model in would poison every /predict.
func (s *Server) defaultValidateCandidate(_ *nn.Classifier, stats nn.TrainStats) error {
	if math.IsNaN(stats.Loss) || math.IsInf(stats.Loss, 0) {
		return fmt.Errorf("non-finite training loss %v", stats.Loss)
	}
	return nil
}
