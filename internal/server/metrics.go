package server

import (
	"context"
	"net/http"
	"strconv"
	"time"

	"faction/internal/obs"
)

// serverMetrics is the serving layer's instrumentation set, registered into
// the server's obs.Registry (the process-wide obs.Default() unless the
// Config supplies its own). Registration is idempotent, so several Server
// instances sharing one registry share these families.
type serverMetrics struct {
	// Per-route traffic: request counts by terminal status code and latency
	// histograms, recorded by the instrument middleware around the whole
	// stack so shed (429), timed-out (503) and panicking (500) requests are
	// counted where they terminated.
	requests *obs.CounterVec   // faction_http_requests_total{route,code}
	latency  *obs.HistogramVec // faction_http_request_seconds{route}

	// Whole-surface accounting backing the SLO engine: an unlabeled latency
	// histogram (merging the labeled children for a p99 would allocate per
	// evaluation) and total/5xx response counters for the windowed error
	// rate.
	latencyAll   *obs.Histogram // faction_http_request_seconds_all
	responsesAll *obs.Counter   // faction_http_responses_total
	responses5xx *obs.Counter   // faction_http_responses_5xx_total

	// Fairness serving metrics (fairobs.go). Registered unconditionally so
	// the family set is stable; the gap gauge stays 0 and the labeled
	// families stay empty until FairObs attribution is enabled.
	fairnessGap  *obs.Gauge      // faction_fairness_gap
	decisions    *obs.CounterVec // faction_decisions_total{group,class}
	groupPosRate *obs.GaugeVec   // faction_group_positive_rate{group}
	groupWindow  *obs.GaugeVec   // faction_group_window_decisions{group}

	// Resilience-state instruments, updated by the middleware.
	inflight *obs.Gauge   // faction_http_inflight_requests
	shed     *obs.Counter // faction_http_shed_total
	timeouts *obs.Counter // faction_http_timeouts_total
	cancels  *obs.Counter // faction_http_client_cancels_total
	panics   *obs.Counter // faction_http_panics_total

	// Serving-time adaptation: the /metrics view of what /info reports.
	refits       *obs.Counter // faction_refits_total
	failedRefits *obs.Counter // faction_refits_failed_total
	installs     *obs.Counter // faction_snapshot_installs_total
	generation   *obs.Gauge   // faction_model_generation
	feedback     *obs.Gauge   // faction_feedback_buffered
	refitSeconds *obs.Histogram

	// Durability watermarks (zero-valued without a WAL): how far refit
	// consumption trails the acknowledged log.
	walConsumedLSN *obs.Gauge // faction_wal_consumed_lsn
	walReplayLag   *obs.Gauge // faction_wal_replay_lag_records

	// Drift-detector state, refreshed on every observed batch and /drift read.
	driftShifts   *obs.Gauge // faction_drift_shifts
	driftObserved *obs.Gauge // faction_drift_observations
	driftMean     *obs.Gauge // faction_drift_baseline_mean
	driftStd      *obs.Gauge // faction_drift_baseline_std
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	return &serverMetrics{
		requests: reg.CounterVec("faction_http_requests_total",
			"HTTP requests by route and terminal status code.", "route", "code"),
		latency: reg.HistogramVec("faction_http_request_seconds",
			"End-to-end request latency by route.", obs.DefBuckets, "route"),
		latencyAll: reg.Histogram("faction_http_request_seconds_all",
			"End-to-end request latency across every route (backs the in-process p99).", nil),
		responsesAll: reg.Counter("faction_http_responses_total",
			"Responses sent, any route and status."),
		responses5xx: reg.Counter("faction_http_responses_5xx_total",
			"Responses sent with a 5xx status."),
		fairnessGap: reg.Gauge("faction_fairness_gap",
			"Max pairwise demographic-parity gap across sensitive groups over the serving window."),
		decisions: reg.CounterVec("faction_decisions_total",
			"Served decisions by sensitive group and predicted class.", "group", "class"),
		groupPosRate: reg.GaugeVec("faction_group_positive_rate",
			"Windowed positive-decision rate per sensitive group.", "group"),
		groupWindow: reg.GaugeVec("faction_group_window_decisions",
			"Decisions currently inside each group's sliding window.", "group"),
		inflight: reg.Gauge("faction_http_inflight_requests",
			"Requests currently being served."),
		shed: reg.Counter("faction_http_shed_total",
			"Requests shed with 429 by the concurrency limiter."),
		timeouts: reg.Counter("faction_http_timeouts_total",
			"Requests cut off with 503 by the per-request deadline."),
		cancels: reg.Counter("faction_http_client_cancels_total",
			"Requests whose client disconnected before the handler finished (not deadline expiries; excluded from the error-rate SLO's 5xx count)."),
		panics: reg.Counter("faction_http_panics_total",
			"Handler panics converted to 500s (including late panics after a timeout)."),
		refits: reg.Counter("faction_refits_total",
			"Successful model refits (generation swaps)."),
		failedRefits: reg.Counter("faction_refits_failed_total",
			"Refit candidates rejected by validation, cancellation or density failure."),
		installs: reg.Counter("faction_snapshot_installs_total",
			"Fleet snapshots accepted through POST /snapshot/install."),
		generation: reg.Gauge("faction_model_generation",
			"Current model generation: 0 at startup, +1 per successful refit."),
		feedback: reg.Gauge("faction_feedback_buffered",
			"Labeled feedback samples buffered for the next refit."),
		refitSeconds: reg.Histogram("faction_refit_seconds",
			"Wall-clock duration of refit attempts (accepted and rejected).", nil),
		walConsumedLSN: reg.Gauge("faction_wal_consumed_lsn",
			"Highest WAL LSN consumed by a successful refit (or the booted snapshot)."),
		walReplayLag: reg.Gauge("faction_wal_replay_lag_records",
			"Acknowledged WAL records not yet consumed by a refit (acked LSN - consumed LSN)."),
		driftShifts: reg.Gauge("faction_drift_shifts",
			"Distribution shifts flagged by the log-density drift detector."),
		driftObserved: reg.Gauge("faction_drift_observations",
			"Batches folded into the drift detector."),
		driftMean: reg.Gauge("faction_drift_baseline_mean",
			"Drift-detector baseline mean log-density."),
		driftStd: reg.Gauge("faction_drift_baseline_std",
			"Drift-detector baseline log-density standard deviation."),
	}
}

// updateWALLagMetrics refreshes the durability watermarks: the consumed-LSN
// gauge and the replay lag (acknowledged records not yet trained on). A
// no-op without a WAL.
func (s *Server) updateWALLagMetrics() {
	if s.cfg.WAL == nil {
		return
	}
	acked := s.cfg.WAL.AckedLSN()
	consumed := s.consumedLSN.Load()
	s.metrics.walConsumedLSN.Set(float64(consumed))
	lag := 0.0
	if acked > consumed {
		lag = float64(acked - consumed)
	}
	s.metrics.walReplayLag.Set(lag)
}

// updateDriftMetricsLocked refreshes the drift gauges; the caller holds
// driftMu.
func (s *Server) updateDriftMetricsLocked() {
	if s.cfg.Drift == nil {
		return
	}
	mean, std := s.cfg.Drift.Baseline()
	shifts := s.cfg.Drift.Shifts()
	s.driftShiftsNow.Store(int64(shifts))
	s.metrics.driftShifts.Set(float64(shifts))
	s.metrics.driftObserved.Set(float64(len(s.cfg.Drift.History())))
	s.metrics.driftMean.Set(mean)
	s.metrics.driftStd.Set(std)
}

// routeLabel bounds the cardinality of the route label: known mux routes keep
// their path, pprof pages collapse to one label, everything else is "other"
// (an unauthenticated client must not be able to mint unbounded label sets).
func (s *Server) routeLabel(path string) string {
	if s.routes[path] {
		return path
	}
	if len(path) >= len(pprofPrefix) && path[:len(pprofPrefix)] == pprofPrefix {
		return pprofPrefix
	}
	return "other"
}

const pprofPrefix = "/debug/pprof/"

// statusRecorder captures the terminal status code for the instrument
// middleware without disturbing the response.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (s *statusRecorder) WriteHeader(code int) {
	if s.code == 0 {
		s.code = code
	}
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusRecorder) Write(p []byte) (int, error) {
	if s.code == 0 {
		s.code = http.StatusOK
	}
	return s.ResponseWriter.Write(p)
}

// instrument records per-route request counts, latency and the in-flight
// gauge. It sits directly under requestID — outside the recoverer and the
// shedding/timeout middlewares — so every request is measured with the status
// code the client actually received.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.metrics.inflight.Inc()
		// Stash the server logger so response writers deep in the stack can
		// log encode failures with the request ID (see ctxLogger).
		r = r.WithContext(context.WithValue(r.Context(), loggerKey, s.cfg.Logger))
		sw := &statusRecorder{ResponseWriter: w}
		defer func() {
			s.metrics.inflight.Dec()
			code := sw.code
			if code == 0 {
				code = http.StatusOK
			}
			route := s.routeLabel(r.URL.Path)
			elapsed := time.Since(start).Seconds()
			s.metrics.requests.With(route, strconv.Itoa(code)).Inc()
			s.metrics.latency.With(route).Observe(elapsed)
			s.metrics.latencyAll.Observe(elapsed)
			s.metrics.responsesAll.Inc()
			if code >= 500 {
				s.metrics.responses5xx.Inc()
			}
		}()
		next.ServeHTTP(sw, r)
	})
}
