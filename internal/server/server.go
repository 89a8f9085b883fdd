// Package server exposes a trained FACTION deployment over HTTP: prediction
// with fairness-aware diagnostics, epistemic-uncertainty scoring (the u(x)
// signal of Eq. 6 as a service, so an external annotation pipeline can decide
// what to label), and drift monitoring. Handlers are stdlib net/http and are
// constructed from in-memory models, so the same code serves tests
// (httptest), the faction-serve binary, and embedding into other processes.
//
// The server degrades gracefully instead of failing hard: panics become 500s,
// overload sheds with 429, slow requests are cut at a deadline, a failed
// /refit rolls back to the last-good model, and /readyz reports when the
// process should be taken out of rotation (see middleware.go and online.go).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"faction/internal/data"
	"faction/internal/drift"
	"faction/internal/gda"
	"faction/internal/mat"
	"faction/internal/nn"
	"faction/internal/obs"
	"faction/internal/obs/history"
	"faction/internal/obs/slo"
	"faction/internal/wal"
)

// Config assembles a server from its fitted components.
type Config struct {
	Model *nn.Classifier
	// Density is optional; without it /score and /drift are disabled (404).
	Density *gda.Estimator
	// Lambda is the fairness trade-off λ of Eq. 6 used by /score.
	Lambda float64
	// OODQuantile marks an instance OOD when its log-density falls below the
	// (empirical) training log-density quantile. Default 0.05.
	OODQuantile float64
	// TrainLogDensities are the training-set log-densities used to calibrate
	// the OOD threshold. Optional; without them the ood flags are omitted.
	TrainLogDensities []float64
	// Drift, when non-nil, receives the mean log-density of every /predict
	// and /score batch and reports shifts on /drift.
	Drift *drift.Detector
	// Online enables the serving-time adaptation endpoints /feedback and
	// /refit (see OnlineConfig).
	Online OnlineConfig

	// WAL, when non-nil, makes /feedback durable: every accepted batch is
	// appended to the write-ahead log *before* it is buffered or
	// acknowledged, so a crash loses nothing the client was told succeeded.
	// The server appends and drain-flushes; opening, boot replay
	// (ReplayFeedback) and closing belong to the owner (cmd/faction-serve).
	WAL *wal.WAL

	// SnapshotToken, when non-empty, enables the fleet snapshot-distribution
	// endpoints: GET /snapshot exports the live model (and density) in a
	// checksummed envelope, and POST /snapshot/install hot-swaps a peer's
	// newer-generation snapshot in through the refit validation gate. Both
	// require this bearer token; empty (the default) leaves the endpoints
	// unregistered.
	SnapshotToken string

	// BatchRows is ignored: every /predict and /score runs its pass inline
	// over its own rows (DESIGN.md §9).
	//
	// Deprecated: it sized the request coalescer, which has been removed.
	BatchRows int

	// MaxInflight bounds concurrent requests; excess load is shed with
	// 429 + Retry-After instead of queuing. Default 64; negative disables.
	MaxInflight int
	// RequestTimeout cuts a request off with 503 when it exceeds the
	// deadline. Default 30s; negative disables.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies. Default 8 MiB; negative disables.
	MaxBodyBytes int64
	// RefitUnreadyAfter flips /readyz unready while a refit has been running
	// longer than this, signalling rotation out under a heavy model swap.
	// Default 2s.
	RefitUnreadyAfter time.Duration
	// Logger receives structured records (panic stacks, refit rejections,
	// shed events), each scoped with the request ID. Default slog.Default().
	Logger *slog.Logger
	// Metrics is the registry backing GET /metrics. Default obs.Default(),
	// the process-wide registry that nn/gda/online instrumentation also
	// records into; tests pass their own for isolation.
	Metrics *obs.Registry

	// FairObs, when non-nil, attributes every /predict and /score decision
	// to its sensitive group (read from a feature column of the request),
	// maintaining per-group decision counters, windowed positive rates, the
	// live faction_fairness_gap gauge, and the /debug/decisions audit ring
	// (see fairobs.go and DESIGN.md §13). nil disables attribution; the
	// fairness families still register (zero-valued) so the metric surface
	// is stable.
	FairObs *FairObsConfig
	// HistoryInterval enables the in-process metric-history sampler: every
	// interval, selected series (fairness gap, drift stats, p99 latency,
	// replay lag, generation) are sampled into fixed rings served on
	// GET /metrics/history. 0 — the default — disables it.
	HistoryInterval time.Duration
	// HistoryPoints is the per-series history ring capacity. Default 512.
	HistoryPoints int
	// SLO, when non-nil, runs the multi-window burn-rate engine over the
	// spec's objectives, exposing faction_slo_* series and GET /slo.
	// slo.DefaultSpec() covers fairness gap, p99 latency, error rate and
	// WAL replay lag.
	SLO *slo.Spec
}

func (c *Config) setResilienceDefaults() {
	if c.MaxInflight == 0 {
		c.MaxInflight = 64
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.RefitUnreadyAfter == 0 {
		c.RefitUnreadyAfter = 2 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.Metrics == nil {
		c.Metrics = obs.Default()
	}
}

// Server is the HTTP facade. It is safe for concurrent use: model and
// density reads take a read lock; /refit trains on a clone off-lock and
// takes the write lock only for the swap, so prediction keeps serving the
// previous model throughout a refit.
type Server struct {
	mu           sync.RWMutex // guards cfg.Model, cfg.Density, thresholds, buffer, refit stats
	cfg          Config
	inputDim     int // immutable across refits (candidates are clones); safe to read lock-free
	numClasses   int
	oodThreshold float64
	hasOOD       bool
	buffer       *data.Dataset
	refits       int
	failedRefits int
	lastRefitErr string

	refitMu    sync.Mutex   // serializes refits (TryLock → 409 on overlap)
	refitStart atomic.Int64 // unix nanos of the running refit; 0 when idle
	generation atomic.Uint64
	ready      atomic.Bool
	replaying  atomic.Bool // true while boot replay rebuilds the buffer

	// bufferLSN (mu) is the WAL LSN of the newest record reflected in the
	// feedback buffer; consumedLSN is the buffer LSN covered by the last
	// successful refit — the watermark checkpoints record, making older WAL
	// segments prunable. The gap AckedLSN−consumedLSN is the replay lag.
	bufferLSN   uint64
	consumedLSN atomic.Uint64

	// refitKick wakes the async refit consumer (AsyncRefit mode); stopRefit
	// ends it, consumerDone confirms it exited.
	refitKick    chan struct{}
	stopRefit    chan struct{}
	consumerDone chan struct{}

	driftMu sync.Mutex // guards the drift detector independently
	// driftShiftsNow mirrors the detector's shift count for lock-free reads
	// on the decision-audit path (updated in updateDriftMetricsLocked).
	driftShiftsNow atomic.Int64

	// metrics is the serving-layer instrumentation (see metrics.go); routes
	// is the known-route set bounding the route label's cardinality.
	metrics *serverMetrics
	routes  map[string]bool

	// Fairness observability (fairobs.go): per-group attribution and the
	// decision audit ring, nil unless Config.FairObs is set.
	fairobs *groupTracker
	audit   *auditRing

	// history and sloEngine are the self-scraper and burn-rate engine
	// (slohistory.go), nil unless configured.
	history   *history.Sampler
	sloEngine *slo.Engine

	// validateCandidate is the refit acceptance gate; tests override it to
	// inject validation failures.
	validateCandidate func(cand *nn.Classifier, stats nn.TrainStats) error
}

// New validates the configuration and builds a Server.
func New(cfg Config) (*Server, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("server: nil model")
	}
	if cfg.Lambda == 0 {
		cfg.Lambda = 1
	}
	if cfg.OODQuantile <= 0 || cfg.OODQuantile >= 1 {
		cfg.OODQuantile = 0.05
	}
	cfg.Online.setDefaults()
	if err := cfg.Online.validate(); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	cfg.setResilienceDefaults()
	if cfg.FairObs != nil {
		fo := *cfg.FairObs // normalize a copy; the caller's config is theirs
		fo.setDefaults()
		dim := cfg.Model.Config().InputDim
		if fo.SensitiveCol < 0 || fo.SensitiveCol >= dim {
			return nil, fmt.Errorf("server: FairObs.SensitiveCol %d outside model input dim %d", fo.SensitiveCol, dim)
		}
		if k := cfg.Model.Config().NumClasses; fo.PositiveClass < 0 || fo.PositiveClass >= k {
			return nil, fmt.Errorf("server: FairObs.PositiveClass %d outside %d classes", fo.PositiveClass, k)
		}
		cfg.FairObs = &fo
	}
	if err := checkDensityFits(cfg.Model, cfg.Density); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &Server{cfg: cfg, inputDim: cfg.Model.Config().InputDim, numClasses: cfg.Model.Config().NumClasses}
	s.metrics = newServerMetrics(cfg.Metrics)
	s.validateCandidate = s.defaultValidateCandidate
	if cfg.FairObs != nil {
		s.fairobs = newGroupTracker(*cfg.FairObs, s.numClasses, s.metrics)
		s.audit = newAuditRing(cfg.FairObs.AuditSize)
	}
	if cfg.HistoryInterval > 0 {
		points := cfg.HistoryPoints
		if points <= 0 {
			points = 512
		}
		s.history = history.New(cfg.HistoryInterval, points)
		s.trackDefaultSeries()
		s.history.Start()
	}
	if cfg.SLO != nil {
		eng, err := slo.NewEngine(cfg.Metrics, *cfg.SLO, s.sloTargets(), cfg.Logger)
		if err != nil {
			if s.history != nil {
				s.history.Stop()
			}
			return nil, fmt.Errorf("server: %w", err)
		}
		s.sloEngine = eng
		s.sloEngine.Start()
	}
	s.mu.Lock()
	s.adoptDensityLocked(cfg.Density, cfg.TrainLogDensities)
	s.mu.Unlock()
	s.buffer = data.NewDataset("feedback", cfg.Model.Config().InputDim, cfg.Model.Config().NumClasses)
	if cfg.Online.Enabled && cfg.Online.AsyncRefit {
		s.refitKick = make(chan struct{}, 1)
		s.stopRefit = make(chan struct{})
		s.consumerDone = make(chan struct{})
		go s.refitConsumer()
	}
	s.ready.Store(true)
	return s, nil
}

// refitConsumer drains refit requests off the serving path: each /refit in
// AsyncRefit mode answers 202 immediately and the training work runs here,
// so a slow fit never holds an HTTP worker or the request deadline. Kicks
// arriving while a refit runs coalesce into one follow-up run (the channel
// holds one pending kick), which consumes the latest buffer anyway.
func (s *Server) refitConsumer() {
	defer close(s.consumerDone)
	for {
		select {
		case <-s.stopRefit:
			return
		case <-s.refitKick:
		}
		s.refitMu.Lock()
		resp, err := s.runRefit(context.Background())
		s.refitMu.Unlock()
		switch {
		case err == nil:
			s.cfg.Logger.Info("async refit accepted",
				slog.Uint64("generation", resp.Generation),
				slog.Int("samples", resp.Samples))
		case errors.Is(err, errNoFeedback):
			// Nothing buffered: a no-op, not a failure.
		default:
			s.recordRefitFailure(context.Background(), err)
		}
	}
}

// Close releases the server's background resources: the async refit
// consumer (waiting out any refit in flight), the metric-history sampler and
// SLO engine, and a drain-flush of the write-ahead log so every acknowledged
// feedback record is on disk before the process exits.
// Safe to call multiple times; call it after HTTP traffic has drained.
func (s *Server) Close() {
	if s.stopRefit != nil {
		select {
		case <-s.stopRefit: // already closed by an earlier Close
		default:
			close(s.stopRefit)
		}
		<-s.consumerDone
	}
	if s.history != nil {
		s.history.Stop()
	}
	if s.sloEngine != nil {
		s.sloEngine.Stop()
	}
	if s.cfg.WAL != nil {
		if err := s.cfg.WAL.Sync(); err != nil {
			s.cfg.Logger.Error("WAL drain flush failed", slog.String("error", err.Error()))
		}
	}
}

// SetReplaying flips the boot-replay readiness state: while true, /readyz
// answers 503 "replaying" so load balancers keep traffic away until the
// feedback buffer is rebuilt from the log.
func (s *Server) SetReplaying(replaying bool) { s.replaying.Store(replaying) }

// ConsumedLSN returns the WAL watermark the live model covers: every
// feedback record at or below it was consumed by a successful refit (or by
// the snapshot the process booted from). Checkpoints persist it via
// resilience.SaveSnapshotLSN, and WAL segments at or below it are prunable.
func (s *Server) ConsumedLSN() uint64 { return s.consumedLSN.Load() }

// ReplayFeedback rebuilds the feedback buffer from the write-ahead log,
// applying every feedback record with LSN strictly above fromLSN (the LSN
// the booted snapshot covers). Acquisition records are skipped — they are
// audit history, not training data. It returns the number of batches
// applied; a record whose shape no longer matches the model is an error,
// not a silent skip, since it means the WAL belongs to a different model.
func (s *Server) ReplayFeedback(fromLSN uint64) (int, error) {
	wlog := s.cfg.WAL
	if wlog == nil {
		return 0, nil
	}
	s.consumedLSN.Store(fromLSN)
	s.mu.Lock()
	s.bufferLSN = fromLSN
	s.mu.Unlock()
	applied := 0
	err := wlog.Replay(fromLSN, func(lsn uint64, payload []byte) error {
		kind, err := wal.RecordKind(payload)
		if err != nil {
			return fmt.Errorf("wal record %d: %w", lsn, err)
		}
		if kind != wal.KindFeedback {
			return nil
		}
		fb, err := wal.DecodeFeedback(payload)
		if err != nil {
			return fmt.Errorf("wal record %d: %w", lsn, err)
		}
		samples := make([]data.Sample, len(fb.X))
		for i := range fb.X {
			if len(fb.X[i]) != s.inputDim {
				return fmt.Errorf("wal record %d: instance has %d features, model expects %d", lsn, len(fb.X[i]), s.inputDim)
			}
			if fb.Y[i] < 0 || fb.Y[i] >= s.numClasses {
				return fmt.Errorf("wal record %d: label %d out of range %d", lsn, fb.Y[i], s.numClasses)
			}
			samples[i] = data.Sample{X: fb.X[i], Y: fb.Y[i], S: fb.S[i]}
		}
		s.mu.Lock()
		s.buffer.Append(samples...)
		s.trimBufferLocked()
		s.bufferLSN = lsn
		buffered := s.buffer.Len()
		s.mu.Unlock()
		s.metrics.feedback.Set(float64(buffered))
		applied++
		return nil
	})
	s.updateWALLagMetrics()
	return applied, err
}

// SetReady flips the /readyz readiness gate. The shutdown path calls
// SetReady(false) before draining so load balancers stop routing new work.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Generation returns the model generation: 0 at startup, +1 per successful
// refit. Checkpointing loops use it to snapshot only when the model changed.
func (s *Server) Generation() uint64 { return s.generation.Load() }

// SaveModel snapshots the live classifier to w under the read lock.
func (s *Server) SaveModel(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cfg.Model.Save(w)
}

// SaveDensity snapshots the live density estimator to w under the read
// lock; it fails when the server has no density.
func (s *Server) SaveDensity(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.cfg.Density == nil {
		return fmt.Errorf("server: no density estimator to save")
	}
	return s.cfg.Density.Save(w)
}

// HasDensity reports whether the server carries a density estimator.
func (s *Server) HasDensity() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cfg.Density != nil
}

// Handler returns the HTTP mux wrapped in the resilience middleware stack.
// The admin surface — liveness/readiness probes, GET /metrics and the pprof
// pages — bypasses the concurrency limiter and timeout so probes, scrapes and
// profiles keep answering while the service sheds or drains. Every request
// (admin included) flows through the instrument middleware, so per-route
// counts and latency histograms cover the whole surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /info", s.handleInfo)
	mux.HandleFunc("POST /predict", s.handlePredict)
	s.routes = map[string]bool{"/info": true, "/predict": true, "/healthz": true, "/readyz": true, "/metrics": true}
	if s.cfg.Density != nil {
		mux.HandleFunc("POST /score", s.handleScore)
		mux.HandleFunc("GET /drift", s.handleDrift)
		s.routes["/score"], s.routes["/drift"] = true, true
	}
	if s.cfg.Online.Enabled {
		mux.HandleFunc("POST /feedback", s.handleFeedback)
		mux.HandleFunc("POST /refit", s.handleRefit)
		s.routes["/feedback"], s.routes["/refit"] = true, true
	}
	if s.cfg.SnapshotToken != "" {
		mux.HandleFunc("GET /snapshot", s.handleSnapshot)
		mux.HandleFunc("POST /snapshot/install", s.handleSnapshotInstall)
		s.routes["/snapshot"], s.routes["/snapshot/install"] = true, true
	}

	var inner []middleware
	if n := s.cfg.MaxInflight; n > 0 {
		inner = append(inner, limitConcurrency(n, s.metrics.shed))
	}
	if d := s.cfg.RequestTimeout; d > 0 {
		inner = append(inner, timeout(d, s.cfg.Logger, s.metrics.timeouts, s.metrics.cancels, s.metrics.panics))
	}
	if n := s.cfg.MaxBodyBytes; n > 0 {
		inner = append(inner, maxBytes(n))
	}
	wrapped := chain(mux, inner...)

	outer := http.NewServeMux()
	outer.HandleFunc("GET /healthz", s.handleHealth)
	outer.HandleFunc("GET /readyz", s.handleReady)
	outer.Handle("GET /metrics", s.cfg.Metrics.Handler())
	// Observability surfaces live on the admin mux — like /metrics, they
	// must keep answering while the service sheds or drains.
	if s.history != nil {
		outer.Handle("GET /metrics/history", s.history.Handler())
		s.routes["/metrics/history"] = true
	}
	if s.sloEngine != nil {
		outer.Handle("GET /slo", s.sloEngine.Handler())
		s.routes["/slo"] = true
	}
	if s.audit != nil {
		outer.HandleFunc("GET /debug/decisions", s.handleDecisions)
		s.routes["/debug/decisions"] = true
	}
	outer.HandleFunc("GET /debug/pprof/", pprof.Index)
	outer.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	outer.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	outer.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	outer.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	outer.Handle("/", wrapped)
	return chain(outer, requestID, s.instrument, recoverer(s.cfg.Logger, s.metrics.panics))
}

// instancesRequest is the shared request body of /predict and /score. The
// read path decodes it with the hand parser in decode.go (alloc-free); the
// type itself remains the request schema for feedback decoding and tests.
type instancesRequest struct {
	Instances [][]float64 `json:"instances"`
}

// decodeInstances reads and parses the request body into sc.x without
// allocating at steady state: the body lands in sc's pooled buffer, the hand
// parser appends values into sc.flat, and — once validation proves every row
// has exactly inputDim values — the flat slice IS the row-major matrix, so
// the decoded values are never copied.
func (s *Server) decodeInstances(w http.ResponseWriter, r *http.Request, sc *reqScratch) bool {
	sc.body.Reset()
	if _, err := sc.body.ReadFrom(r.Body); err != nil {
		badBody(w, r, err)
		return false
	}
	if err := parseInstances(sc); err != nil {
		badBody(w, r, err)
		return false
	}
	n := len(sc.rowEnds)
	if n == 0 {
		httpError(w, r, http.StatusBadRequest, "no instances")
		return false
	}
	dim := s.inputDim
	prev := 0
	for i, end := range sc.rowEnds {
		if end-prev != dim {
			httpError(w, r, http.StatusBadRequest, "instance %d has %d features, model expects %d", i, end-prev, dim)
			return false
		}
		prev = end
	}
	// Defense in depth: the parser cannot produce NaN/Inf from valid JSON
	// (the grammar has no such literals and overflow is rejected), but the
	// serving contract is "no non-finite features reach the model".
	for i, v := range sc.flat {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			httpError(w, r, http.StatusBadRequest, "instance %d has a non-finite feature", i/dim)
			return false
		}
	}
	sc.x = mat.Dense{Rows: n, Cols: dim, Data: sc.flat[:n*dim]}
	return true
}

type predictResponse struct {
	Classes      []int       `json:"classes"`
	Probs        [][]float64 `json:"probs"`
	LogDensities []float64   `json:"logDensities,omitempty"`
	OOD          []bool      `json:"ood,omitempty"`
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	s.serveInstances(w, r, reqPredict)
}

// buildPredictInto assembles the /predict response for the logits rows into
// sc.predict, reusing sc's storage. logG, when non-nil, holds the rows' log
// densities.
func buildPredictInto(sc *reqScratch, logits *mat.Dense, logG []float64, hasOOD bool, oodThreshold float64) {
	n := logits.Rows
	sc.classes = growInts(sc.classes, n)
	sc.margins = growFloats(sc.margins, n)
	sc.probsFlat = growFloats(sc.probsFlat, n*logits.Cols)
	if cap(sc.probsRows) < n {
		sc.probsRows = make([][]float64, n)
	}
	sc.probsRows = sc.probsRows[:n]
	for i := 0; i < n; i++ {
		probs := sc.probsFlat[i*logits.Cols : (i+1)*logits.Cols]
		mat.Softmax(probs, logits.Row(i))
		sc.probsRows[i] = probs
		sc.classes[i] = mat.ArgMax(probs)
		sc.margins[i] = topMargin(probs, sc.classes[i])
	}
	sc.predict = predictResponse{Classes: sc.classes, Probs: sc.probsRows}
	if logG != nil {
		sc.predict.LogDensities = logG
		if hasOOD {
			sc.ood = growBools(sc.ood, n)
			for i, ld := range logG {
				sc.ood[i] = ld < oodThreshold
			}
			sc.predict.OOD = sc.ood
		}
	}
}

type scoreResponse struct {
	// U holds the raw u(x) scores of Eq. 6 (lower = more worth labeling).
	U []float64 `json:"u"`
	// QueryProb holds ω(x) = 1 − Normalize(u) (Eq. 7).
	QueryProb []float64 `json:"queryProb"`
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	s.serveInstances(w, r, reqScore)
}

// buildScoreInto assembles the /score response (Eqs. 6–7) for the logits
// rows and their BatchScores into sc.score, reusing sc's storage.
func buildScoreInto(sc *reqScratch, logits *mat.Dense, batch *gda.BatchScores, lambda float64) {
	sc.u = growFloats(sc.u, len(batch.G))
	sc.probs = growFloats(sc.probs, logits.Cols)
	// /score responses carry no classes, but the decision audit trail and the
	// per-group attribution need the argmax and its margin; the softmax is
	// already computed per row, so the extra scan is a few comparisons.
	sc.classes = growInts(sc.classes, len(batch.G))
	sc.margins = growFloats(sc.margins, len(batch.G))
	u, probs := sc.u, sc.probs
	for i := range u {
		mat.Softmax(probs, logits.Row(i))
		top := mat.ArgMax(probs)
		sc.classes[i] = top
		sc.margins[i] = topMargin(probs, top)
		u[i] = batch.G[i]
		for c := 0; c < logits.Cols && c < len(batch.Delta[i]); c++ {
			u[i] -= lambda * probs[c] * batch.Delta[i][c]
		}
	}
	sc.omega = growFloats(sc.omega, len(u))
	normalizeFlipInto(sc.omega, u)
	sc.score = scoreResponse{U: u, QueryProb: sc.omega}
}

type driftResponse struct {
	Observations int     `json:"observations"`
	Shifts       int     `json:"shifts"`
	BaselineMean float64 `json:"baselineMean"`
	BaselineStd  float64 `json:"baselineStd"`
}

func (s *Server) handleDrift(w http.ResponseWriter, r *http.Request) {
	s.driftMu.Lock()
	defer s.driftMu.Unlock()
	var resp driftResponse
	if s.cfg.Drift != nil {
		resp.Observations = len(s.cfg.Drift.History())
		resp.BaselineMean, resp.BaselineStd = s.cfg.Drift.Baseline()
		resp.Shifts = s.cfg.Drift.Shifts()
		s.updateDriftMetricsLocked()
	}
	writeJSON(w, r, resp)
}

// handleHealth is the liveness probe: 200 whenever the process can answer.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, r, map[string]string{"status": "ok"})
}

// handleReady is the readiness probe: 503 while draining, and 503 while a
// refit has been running longer than RefitUnreadyAfter (the model swap is
// imminent and latency may spike).
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.replaying.Load() {
		writeJSONStatus(w, r, http.StatusServiceUnavailable, map[string]string{
			"status": "replaying",
			"reason": "rebuilding feedback buffer from the write-ahead log",
		})
		return
	}
	if !s.ready.Load() {
		writeJSONStatus(w, r, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	if start := s.refitStart.Load(); start != 0 {
		if elapsed := time.Since(time.Unix(0, start)); elapsed > s.cfg.RefitUnreadyAfter {
			writeJSONStatus(w, r, http.StatusServiceUnavailable, map[string]string{
				"status": "refitting",
				"for":    elapsed.Round(time.Millisecond).String(),
			})
			return
		}
	}
	writeJSON(w, r, map[string]string{"status": "ready"})
}

type infoResponse struct {
	InputDim     int   `json:"inputDim"`
	NumClasses   int   `json:"numClasses"`
	Hidden       []int `json:"hidden"`
	SpectralNorm bool  `json:"spectralNorm"`
	NumParams    int   `json:"numParams"`
	HasDensity   bool  `json:"hasDensity"`
	Components   int   `json:"densityComponents,omitempty"`

	// Serving-time adaptation state: how often the model was swapped, how
	// often a candidate was rejected, and why the last rejection happened —
	// the operator-visible trace of refit degradation.
	Generation     uint64 `json:"generation"`
	Refits         int    `json:"refits"`
	FailedRefits   int    `json:"failedRefits"`
	LastRefitError string `json:"lastRefitError,omitempty"`
	Ready          bool   `json:"ready"`
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cfg := s.cfg.Model.Config()
	resp := infoResponse{
		InputDim:       cfg.InputDim,
		NumClasses:     cfg.NumClasses,
		Hidden:         cfg.Hidden,
		SpectralNorm:   cfg.SpectralNorm,
		NumParams:      s.cfg.Model.NumParams(),
		HasDensity:     s.cfg.Density != nil,
		Generation:     s.generation.Load(),
		Refits:         s.refits,
		FailedRefits:   s.failedRefits,
		LastRefitError: s.lastRefitErr,
		Ready:          s.ready.Load(),
	}
	if s.cfg.Density != nil {
		resp.Components = s.cfg.Density.NumComponents()
	}
	writeJSON(w, r, resp)
}

// feedDrift folds a batch's mean log-density into the drift detector. A
// non-finite mean (the detector panics on one) is not an observation and is
// dropped; the unlock is deferred so that nothing the detector does can
// leave every later request waiting on driftMu.
func (s *Server) feedDrift(logDensities []float64) {
	if s.cfg.Drift == nil || len(logDensities) == 0 {
		return
	}
	mean := 0.0
	for _, v := range logDensities {
		mean += v
	}
	mean /= float64(len(logDensities))
	if math.IsNaN(mean) || math.IsInf(mean, 0) {
		return
	}
	s.driftMu.Lock()
	defer s.driftMu.Unlock()
	s.cfg.Drift.Observe(mean)
	s.updateDriftMetricsLocked()
}

// adoptDensityLocked makes est the serving density and recalibrates the OOD
// threshold from trainLogDens. A density without training log-densities
// clears the threshold, so /predict omits the ood flags instead of judging
// the new density against the old one's quantile. Every density swap — New,
// refit, snapshot install — goes through here with s.mu held for writing.
func (s *Server) adoptDensityLocked(est *gda.Estimator, trainLogDens []float64) {
	s.cfg.Density = est
	s.cfg.TrainLogDensities = trainLogDens
	s.hasOOD = est != nil && len(trainLogDens) > 0
	s.oodThreshold = 0
	if s.hasOOD {
		s.oodThreshold = quantile(trainLogDens, s.cfg.OODQuantile)
	}
}

// checkDensityFits rejects a density that cannot score model's features: one
// fitted on another feature width or class count fails every /predict and
// /score, and the score pass sizes its buffers from the class count. A nil
// density fits any model.
func checkDensityFits(model *nn.Classifier, est *gda.Estimator) error {
	if est == nil {
		return nil
	}
	if dim, classes := model.FeatureDim(), model.Config().NumClasses; est.Dim != dim || est.Classes != classes {
		return fmt.Errorf("density is %d-dim over %d classes, model features are %d-dim over %d classes",
			est.Dim, est.Classes, dim, classes)
	}
	return nil
}

// topMargin returns the top-1 minus top-2 probability — the decision margin
// retained by the audit trail. One pass over the (few) classes.
func topMargin(probs []float64, top int) float64 {
	second := math.Inf(-1)
	for i, p := range probs {
		if i != top && p > second {
			second = p
		}
	}
	if math.IsInf(second, -1) {
		return probs[top] // single-class model: no runner-up
	}
	return probs[top] - second
}

// normalizeFlipInto maps scores to ω = 1 − minmax(u), written into out (which
// must have length len(u)); constant batches get 0.5 (no preference).
func normalizeFlipInto(out, u []float64) {
	if len(u) == 0 {
		return
	}
	lo, hi := mat.MinMax(u)
	if hi == lo {
		for i := range out {
			out[i] = 0.5
		}
		return
	}
	span := hi - lo
	for i, v := range u {
		out[i] = 1 - (v-lo)/span
	}
}

// quantile returns the q-quantile of xs with linear interpolation between
// adjacent order statistics (type-7 estimator, the numpy/R default). The
// former rank truncation biased small-sample thresholds low — q=0.05 over 10
// calibration points selected the minimum, flagging almost nothing as OOD.
// NaNs are dropped first so the stdlib sort's NaN ordering pitfalls never
// apply.
func quantile(xs []float64, q float64) float64 {
	sorted := make([]float64, 0, len(xs))
	for _, v := range xs {
		if !math.IsNaN(v) {
			sorted = append(sorted, v)
		}
	}
	if len(sorted) == 0 {
		return math.Inf(-1)
	}
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if frac == 0 || lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// contentTypeJSON is the shared Content-Type header value. Assigning the map
// entry directly instead of Header().Set avoids the per-request []string
// allocation (net/http only reads the slice, so sharing it is safe).
var contentTypeJSON = []string{"application/json"}

// writeJSON encodes v to w. A failure here means the headers (and possibly a
// partial body) are already on the wire, so the response cannot be repaired;
// the error is logged at debug with the request ID instead of being dropped.
func writeJSON(w http.ResponseWriter, r *http.Request, v any) {
	w.Header()["Content-Type"] = contentTypeJSON
	if err := json.NewEncoder(w).Encode(v); err != nil {
		logEncodeError(r, err)
	}
}

func writeJSONStatus(w http.ResponseWriter, r *http.Request, code int, v any) {
	w.Header()["Content-Type"] = contentTypeJSON
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		logEncodeError(r, err)
	}
}

// logEncodeError records a response-encode failure — typically the client
// hanging up mid-write — at debug level, scoped with the request ID.
func logEncodeError(r *http.Request, err error) {
	if r == nil {
		return
	}
	ctx := r.Context()
	reqLogger(ctxLogger(ctx), ctx).Debug("response body encode failed",
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Any("error", err))
}

// badBody answers a request-body decode failure: 413 when the MaxBytesReader
// cap was hit (the decoder surfaces it as a wrapped *http.MaxBytesError),
// 400 for everything else.
func badBody(w http.ResponseWriter, r *http.Request, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		httpError(w, r, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", mbe.Limit)
		return
	}
	httpError(w, r, http.StatusBadRequest, "invalid JSON: %v", err)
}

// httpError writes a JSON error body carrying the request ID, so clients can
// quote an ID the server log can be grepped for.
func httpError(w http.ResponseWriter, r *http.Request, code int, format string, args ...any) {
	w.Header()["Content-Type"] = contentTypeJSON
	w.WriteHeader(code)
	body := map[string]string{"error": fmt.Sprintf(format, args...)}
	if r != nil {
		if id := requestIDFrom(r.Context()); id != "" {
			body["requestId"] = id
		}
	}
	if err := json.NewEncoder(w).Encode(body); err != nil {
		logEncodeError(r, err)
	}
}
