// Command faction-serve deploys a trained FACTION model as an HTTP service:
// fairness-regularized predictions, epistemic-uncertainty query scoring
// (Eq. 6 as a service for external annotation pipelines), OOD flags and
// drift monitoring.
//
// Two modes:
//
//	# train on a benchmark stream, save the artifacts, and serve
//	faction-serve -train nysf -model model.gob -density density.gob -addr :8080
//
//	# serve previously saved artifacts
//	faction-serve -model model.gob -density density.gob -addr :8080
//
// Endpoints: GET /healthz (liveness), GET /readyz (readiness: 503 while
// draining or mid-refit), GET /metrics (Prometheus text format),
// GET /metrics/history (in-process metric timeline, with -history-interval),
// GET /slo (burn-rate objective status, unless -slo-config off),
// GET /debug/decisions (recent-decision audit trail, with -sensitive-col),
// GET /debug/pprof/* (live profiling), GET /info, POST /predict,
// POST /score, GET /drift, and with -online also POST /feedback and
// POST /refit.
//
// The process runs production-shaped: SIGINT/SIGTERM drain in-flight
// requests (bounded by -shutdown-timeout) and exit 0; each /predict and
// /score request runs its own model and density pass on its handler
// goroutine; panics, oversized bodies and overload are absorbed by the
// server's middleware stack; with
// -checkpoint the live model is periodically snapshotted crash-safely
// (temp file + rename, checksummed, rotated) after refits change it; and
// every log line is a structured log/slog record (-log-format json for
// machine ingestion), scoped with the request ID where one exists.
//
// With -wal-dir, /feedback becomes durable: every accepted batch is
// appended to a segmented, checksummed write-ahead log before the client is
// acknowledged (-wal-fsync picks the durability/throughput trade-off), boot
// replays uncovered records into the feedback buffer (/readyz answers 503
// "replaying" until done), checkpoints record the covered LSN so replay is
// incremental, and WAL segments a checkpoint covers are pruned. With
// -async-refit, POST /refit answers 202 and training runs on a background
// consumer, so a slow fit never occupies an HTTP worker.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"faction/internal/data"
	"faction/internal/drift"
	"faction/internal/gda"
	"faction/internal/nn"
	"faction/internal/obs"
	"faction/internal/obs/slo"
	"faction/internal/online"
	"faction/internal/resilience"
	"faction/internal/rngutil"
	"faction/internal/server"
	"faction/internal/wal"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		modelPath  = flag.String("model", "model.gob", "classifier snapshot path")
		densPath   = flag.String("density", "", "density-estimator snapshot path (optional)")
		train      = flag.String("train", "", "train on this benchmark stream first and save the artifacts")
		seed       = flag.Int64("seed", 1, "training seed")
		samples    = flag.Int("samples", 800, "training samples when -train is set")
		lambda     = flag.Float64("lambda", 1, "fairness trade-off λ for /score")
		mu         = flag.Float64("mu", 0.7, "fairness regularization μ when training")
		onlineFlag = flag.Bool("online", false, "enable POST /feedback and POST /refit (serving-time adaptation)")
		snapToken  = flag.String("snapshot-token", "", "bearer token enabling GET /snapshot and POST /snapshot/install for fleet model distribution (empty disables)")

		shutdownTimeout = flag.Duration("shutdown-timeout", 10*time.Second, "max wait for in-flight requests on SIGINT/SIGTERM")
		requestTimeout  = flag.Duration("request-timeout", 30*time.Second, "per-request deadline (503 beyond it)")
		maxInflight     = flag.Int("max-inflight", 64, "concurrent requests before shedding with 429")
		maxBody         = flag.Int64("max-body", 8<<20, "request body cap in bytes")
		checkpoint      = flag.Duration("checkpoint", 0, "snapshot the live model at this interval when refits changed it (0 disables)")
		checkpointKeep  = flag.Int("checkpoint-keep", 2, "rotated checkpoint generations to keep alongside each snapshot")

		walDir     = flag.String("wal-dir", "", "write-ahead-log directory: /feedback appends here before acknowledging, and boot replays it into the buffer (empty disables)")
		walFsync   = flag.String("wal-fsync", "group", "WAL durability mode: group (ack after an fsync that concurrent appends share, the default) or never (ack after the write syscall)")
		asyncRefit = flag.Bool("async-refit", false, "answer POST /refit with 202 and run training on a background consumer instead of the request")

		sensitiveCol  = flag.Int("sensitive-col", -1, "feature column carrying the sensitive attribute: enables per-group decision metrics, the fairness-gap gauge and the /debug/decisions audit trail (-1 disables)")
		groupValues   = flag.String("group-values", "-1,1", "comma-separated sensitive values expected in -sensitive-col; unmatched values count as group \"other\"")
		positiveClass = flag.Int("positive-class", 1, "predicted class counted as the positive outcome for the demographic-parity rates (0 is valid; -1 means the default, 1)")
		fairWindow    = flag.Int("fairness-window", 1024, "per-group sliding-window length behind the positive rates and the fairness gap")
		auditSize     = flag.Int("audit-decisions", 256, "decision audit-ring capacity served on GET /debug/decisions")

		historyInterval = flag.Duration("history-interval", 10*time.Second, "sampling interval of the in-process metric history on GET /metrics/history (0 disables)")
		historyPoints   = flag.Int("history-points", 512, "points retained per metric-history series")
		sloConfig       = flag.String("slo-config", "", "SLO spec JSON file for the burn-rate engine; empty uses built-in defaults, \"off\" disables GET /slo")

		logFormat = flag.String("log-format", "text", "log output format: text or json")
		logLevel  = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fatal(err)
	}
	slog.SetDefault(logger)

	// Register the online protocol's metric families up front so /metrics
	// exposes them (zero-valued) from the first scrape, not only after the
	// first refit exercises the training path.
	onlineMetrics := online.RegisterMetrics(obs.Default())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *train != "" {
		if err := trainAndSave(logger, *train, *modelPath, *densPath, *seed, *samples, *mu, *checkpointKeep); err != nil {
			fatal(err)
		}
	}

	model, err := nn.LoadClassifierFile(*modelPath)
	if err != nil {
		fatal(fmt.Errorf("loading model: %w", err))
	}

	// Open the write-ahead log before the server exists: recovery (torn-tail
	// truncation, corruption quarantine) runs inside Open, and its verdict
	// must be on the record before any new appends land.
	var wlog *wal.WAL
	if *walDir != "" {
		mode, err := wal.ParseFsyncMode(*walFsync)
		if err != nil {
			fatal(err)
		}
		wlog, err = wal.Open(*walDir, wal.Options{
			Fsync:   mode,
			Metrics: wal.NewMetrics(obs.Default()),
		})
		if err != nil {
			fatal(fmt.Errorf("opening WAL: %w", err))
		}
		defer wlog.Close()
		rec := wlog.Recovery()
		if rec.Err != nil {
			// Quarantined corruption is survivable — the prefix before it was
			// recovered and the damaged bytes are preserved for forensics —
			// but it must be impossible to miss in the logs.
			logger.Error("WAL recovery found corruption; records after the damage were quarantined, not replayed",
				slog.String("error", rec.Err.Error()),
				slog.Any("quarantined", rec.Quarantined))
		}
		logger.Info("WAL opened",
			slog.String("dir", *walDir),
			slog.String("fsync", mode.String()),
			slog.Int("records", rec.Records),
			slog.Uint64("lastLSN", rec.LastLSN),
			slog.Int64("tornBytes", rec.TornBytes))
	}

	cfg := server.Config{
		Model:  model,
		Lambda: *lambda,
		Drift:  drift.New(drift.Config{}),
		WAL:    wlog,
		Online: server.OnlineConfig{
			Enabled:    *onlineFlag,
			Fair:       nn.FairConfig{Mu: *mu, Eps: 0.01},
			Seed:       *seed,
			AsyncRefit: *asyncRefit,
		},
		MaxInflight:    *maxInflight,
		RequestTimeout: *requestTimeout,
		MaxBodyBytes:   *maxBody,
		SnapshotToken:  *snapToken,
		Logger:         logger,
	}
	if *densPath != "" {
		est, err := gda.LoadFile(*densPath)
		if err != nil {
			fatal(fmt.Errorf("loading density: %w", err))
		}
		cfg.Density = est
		cfg.TrainLogDensities = est.TrainLogDensities
	}
	if *sensitiveCol >= 0 {
		groups, err := parseGroupValues(*groupValues)
		if err != nil {
			fatal(err)
		}
		cfg.FairObs = &server.FairObsConfig{
			SensitiveCol:  *sensitiveCol,
			GroupValues:   groups,
			PositiveClass: *positiveClass,
			Window:        *fairWindow,
			AuditSize:     *auditSize,
		}
	}
	cfg.HistoryInterval = *historyInterval
	cfg.HistoryPoints = *historyPoints
	switch *sloConfig {
	case "off":
	case "":
		spec := slo.DefaultSpec()
		cfg.SLO = &spec
	default:
		raw, err := os.ReadFile(*sloConfig)
		if err != nil {
			fatal(fmt.Errorf("reading SLO config: %w", err))
		}
		spec, err := slo.ParseSpec(raw)
		if err != nil {
			fatal(err)
		}
		cfg.SLO = &spec
	}
	s, err := server.New(cfg)
	if err != nil {
		fatal(err)
	}
	// Join the online protocol's regret/violation curves to the metric
	// history, so /metrics/history carries the paper's trajectories too.
	if h := s.History(); h != nil {
		onlineMetrics.TrackHistory(h)
	}

	// Boot replay: rebuild the feedback buffer from every WAL record the
	// booted snapshot doesn't cover. /readyz answers 503 "replaying" until
	// this finishes, so a load balancer won't route to a server whose buffer
	// is still partial.
	if wlog != nil {
		s.SetReplaying(true)
		snapLSN, err := resilience.SnapshotLSN(*modelPath)
		if err != nil {
			fatal(fmt.Errorf("reading snapshot LSN: %w", err))
		}
		start := time.Now()
		applied, err := s.ReplayFeedback(snapLSN)
		if err != nil {
			fatal(fmt.Errorf("replaying WAL into feedback buffer: %w", err))
		}
		s.SetReplaying(false)
		logger.Info("WAL replayed into feedback buffer",
			slog.Uint64("fromLSN", snapLSN),
			slog.Int("batches", applied),
			slog.Duration("took", time.Since(start).Round(time.Millisecond)))
	}

	if *checkpoint > 0 {
		go checkpointLoop(ctx, logger, s, wlog, *modelPath, *densPath, *checkpoint, *checkpointKeep)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	logger.Info("faction-serve listening",
		slog.String("addr", ln.Addr().String()),
		slog.String("model", *modelPath),
		slog.String("density", *densPath))
	err = resilience.Serve(ctx, srv, ln, *shutdownTimeout, func() {
		s.SetReady(false)
		logger.Info("faction-serve draining", slog.Duration("timeout", *shutdownTimeout))
	})
	// HTTP traffic has drained (or the deadline passed); stop the background
	// work and flush the write-ahead log.
	s.Close()
	if err != nil {
		fatal(err)
	}
	logger.Info("faction-serve drained cleanly")
}

// checkpointLoop snapshots the live model (and density) whenever a refit has
// advanced the generation since the last checkpoint. Writes are crash-safe
// and retried with backoff; a persistently failing disk is logged, never
// fatal — serving always outranks checkpointing.
//
// With a WAL, each snapshot records the consumed LSN — captured *before*
// SaveModel, so a refit racing the save can only make the recorded LSN
// understate what the model covers (replaying a covered record again merely
// re-buffers it; overstating would lose records). Once the snapshot is
// durable, WAL segments at or below that LSN are pruned, and the rotated
// snapshot chain is trimmed to the configured depth.
func checkpointLoop(ctx context.Context, logger *slog.Logger, s *server.Server, wlog *wal.WAL, modelPath, densPath string, every time.Duration, keep int) {
	var lastSaved uint64
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		gen := s.Generation()
		if gen == lastSaved {
			continue
		}
		coveredLSN := s.ConsumedLSN()
		err := resilience.Retry(ctx, resilience.RetryPolicy{}, func() error {
			return resilience.SaveSnapshotLSN(modelPath, keep, coveredLSN, s.SaveModel)
		})
		if err == nil && densPath != "" && s.HasDensity() {
			err = resilience.Retry(ctx, resilience.RetryPolicy{}, func() error {
				return resilience.SaveSnapshotLSN(densPath, keep, coveredLSN, s.SaveDensity)
			})
		}
		if err != nil {
			logger.Error("checkpoint failed",
				slog.Uint64("generation", gen), slog.String("error", err.Error()))
			continue
		}
		lastSaved = gen
		logger.Info("checkpointed model",
			slog.Uint64("generation", gen),
			slog.Uint64("coveredLSN", coveredLSN),
			slog.String("path", modelPath))
		if wlog != nil {
			if pruned, err := wlog.Prune(coveredLSN); err != nil {
				logger.Warn("WAL prune failed", slog.String("error", err.Error()))
			} else if pruned > 0 {
				logger.Info("pruned WAL segments covered by checkpoint",
					slog.Int("segments", pruned), slog.Uint64("coveredLSN", coveredLSN))
			}
		}
		for _, p := range []string{modelPath, densPath} {
			if p == "" {
				continue
			}
			if _, err := resilience.PruneSnapshotChain(p, keep); err != nil {
				logger.Warn("snapshot chain prune failed",
					slog.String("path", p), slog.String("error", err.Error()))
			}
		}
	}
}

// trainAndSave fits a fairness-regularized model + density estimator on the
// named benchmark stream's first tasks and writes the snapshots.
func trainAndSave(logger *slog.Logger, streamName, modelPath, densPath string, seed int64, samples int, mu float64, keep int) error {
	stream, err := data.ByName(streamName, data.StreamConfig{Seed: seed, SamplesPerTask: samples})
	if err != nil {
		return err
	}
	pool := data.NewDataset("train", stream.Dim, stream.Classes)
	for _, task := range stream.Tasks[:min(3, len(stream.Tasks))] {
		pool.Samples = append(pool.Samples, task.Pool.Samples...)
	}
	model := nn.NewClassifier(nn.Config{
		InputDim: stream.Dim, NumClasses: stream.Classes, Hidden: []int{64},
		SpectralNorm: true, SpectralCoeff: 3, Seed: seed,
	})
	rng := rngutil.New(seed)
	stats := model.Train(pool.Matrix(), pool.Labels(), pool.Sensitive(), nn.NewAdam(0.01),
		nn.TrainOpts{Epochs: 20, BatchSize: 32, Fair: nn.FairConfig{Mu: mu, Eps: 0.01}}, rng)
	logger.Info("trained serving model",
		slog.Int("samples", pool.Len()),
		slog.String("stream", streamName),
		slog.Float64("accuracy", stats.Accuracy),
		slog.Float64("loss", stats.Loss))

	if err := nn.SaveClassifierFile(modelPath, model, keep); err != nil {
		return fmt.Errorf("saving model: %w", err)
	}
	if densPath != "" {
		feats := model.Features(pool.Matrix())
		est, err := gda.Fit(feats, pool.Labels(), pool.Sensitive(), stream.Classes, []int{-1, 1}, gda.Config{})
		if err != nil {
			return fmt.Errorf("fitting density: %w", err)
		}
		if err := est.SaveFile(densPath, keep); err != nil {
			return fmt.Errorf("saving density: %w", err)
		}
	}
	return nil
}

// parseGroupValues parses the -group-values flag ("-1,1") into the expected
// sensitive values.
func parseGroupValues(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad -group-values %q: %w", s, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-group-values %q names no groups", s)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "faction-serve:", err)
	os.Exit(1)
}
