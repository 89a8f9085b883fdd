package server

import (
	"bytes"
	"crypto/subtle"
	"encoding/gob"
	"fmt"
	"log/slog"
	"net/http"

	"faction/internal/gda"
	"faction/internal/nn"
	"faction/internal/resilience"
)

// Fleet snapshot distribution (DESIGN.md §14): a replica whose refit advanced
// the model generation exports its full serving state over GET /snapshot, and
// lagging replicas accept it over POST /snapshot/install, so a fleet behind
// faction-router converges to one generation without shared storage.
//
// The wire format reuses the resilience v2 snapshot envelope — the same
// checksummed framing checkpoints put on disk — wrapped around a gob payload
// carrying the generation, the classifier bytes and (optionally) the density
// bytes. The envelope's LSN slot records the exporter's consumed-LSN
// watermark for observability only: WAL sequence numbers are per-replica
// namespaces, so the installer never adopts it.
//
// Both endpoints require the shared bearer token (Config.SnapshotToken) and
// are not registered at all without one: model parameters never leave the
// process, and no peer can swap a model in, unless the operator opted in.

// fleetSnapshot is the gob payload inside the snapshot envelope.
type fleetSnapshot struct {
	Version    int
	Generation uint64
	Model      []byte // nn.Classifier.Save bytes
	Density    []byte // gda.Estimator.Save bytes; empty when the exporter has no density
	// DensityPrecision is the exporter's density scoring precision ("f64" or
	// "f32"); empty — including on pre-precision envelopes, which gob decodes
	// with the field unset — means f64. Installs require it to match the
	// replica's configured precision: a cross-precision snapshot is rejected
	// with 422, never silently reinterpreted (the f32 payload carries
	// different component fields, and the fleet must stay bit-deterministic
	// per precision).
	DensityPrecision string
}

const fleetSnapshotVersion = 1

// SnapshotContentType is the media type of the /snapshot body.
const SnapshotContentType = "application/x-faction-snapshot"

// SnapshotGenerationHeader carries the exported generation so the router can
// sanity-check a fetch without decoding the envelope.
const SnapshotGenerationHeader = "X-Faction-Generation"

// authorizeSnapshot admits a request carrying the configured bearer token.
// Constant-time comparison; the 401 body never says whether the token was
// absent or wrong.
func (s *Server) authorizeSnapshot(w http.ResponseWriter, r *http.Request) bool {
	want := "Bearer " + s.cfg.SnapshotToken
	got := r.Header.Get("Authorization")
	if len(got) == len(want) && subtle.ConstantTimeCompare([]byte(got), []byte(want)) == 1 {
		return true
	}
	w.Header().Set("WWW-Authenticate", `Bearer realm="faction-snapshot"`)
	httpError(w, r, http.StatusUnauthorized, "snapshot endpoints require the fleet bearer token")
	return false
}

// handleSnapshot exports the live model (and density) as one enveloped
// snapshot. The capture runs under the read lock, so the exported generation,
// model and density are a consistent cut even while refits race.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if !s.authorizeSnapshot(w, r) {
		return
	}
	var (
		snap fleetSnapshot
		lsn  uint64
		err  error
	)
	s.mu.RLock()
	snap.Version = fleetSnapshotVersion
	snap.Generation = s.generation.Load()
	lsn = s.consumedLSN.Load()
	var model bytes.Buffer
	err = s.cfg.Model.Save(&model)
	snap.Model = model.Bytes()
	if err == nil && s.cfg.Density != nil {
		var density bytes.Buffer
		err = s.cfg.Density.Save(&density)
		snap.Density = density.Bytes()
		snap.DensityPrecision = s.cfg.ScorePrecision.String()
	}
	s.mu.RUnlock()
	if err != nil {
		httpError(w, r, http.StatusInternalServerError, "serializing snapshot: %v", err)
		return
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(snap); err != nil {
		httpError(w, r, http.StatusInternalServerError, "encoding snapshot: %v", err)
		return
	}
	w.Header().Set("Content-Type", SnapshotContentType)
	w.Header().Set(SnapshotGenerationHeader, fmt.Sprint(snap.Generation))
	if err := resilience.EncodeEnvelope(w, lsn, payload.Bytes()); err != nil {
		logEncodeError(r, err)
	}
}

// installResponse is the POST /snapshot/install answer.
type installResponse struct {
	Generation uint64 `json:"generation"`
	HasDensity bool   `json:"hasDensity"`
}

// handleSnapshotInstall validates a peer's enveloped snapshot and hot-swaps
// it in through the same gate refit candidates pass: the envelope checksum
// must verify, the decoded classifier must match the serving shape, the
// candidate must clear validateCandidate, and only then does the write lock
// swap model, density and generation together. A snapshot that is not
// strictly newer than the local generation is refused with 409, so a stale
// push (or a router race) can never roll a replica backwards.
func (s *Server) handleSnapshotInstall(w http.ResponseWriter, r *http.Request) {
	if !s.authorizeSnapshot(w, r) {
		return
	}
	// An install is a model swap; it must not interleave with a running
	// refit, whose candidate would otherwise overwrite the installed model
	// with a stale-generation fit moments later.
	if !s.refitMu.TryLock() {
		httpError(w, r, http.StatusConflict, "refit in progress")
		return
	}
	defer s.refitMu.Unlock()

	_, payload, err := resilience.DecodeEnvelope(r.Body, s.cfg.MaxBodyBytes)
	if err != nil {
		httpError(w, r, http.StatusBadRequest, "invalid snapshot envelope: %v", err)
		return
	}
	var snap fleetSnapshot
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&snap); err != nil {
		httpError(w, r, http.StatusBadRequest, "decoding snapshot payload: %v", err)
		return
	}
	if snap.Version != fleetSnapshotVersion {
		httpError(w, r, http.StatusBadRequest, "unsupported snapshot version %d", snap.Version)
		return
	}
	if gen := s.generation.Load(); snap.Generation <= gen {
		httpError(w, r, http.StatusConflict, "snapshot generation %d is not newer than local generation %d", snap.Generation, gen)
		return
	}
	cand, err := nn.LoadClassifier(bytes.NewReader(snap.Model))
	if err != nil {
		httpError(w, r, http.StatusUnprocessableEntity, "snapshot model rejected: %v", err)
		return
	}
	if cfg := cand.Config(); cfg.InputDim != s.inputDim || cfg.NumClasses != s.numClasses {
		httpError(w, r, http.StatusUnprocessableEntity,
			"snapshot model is %dx%d, replica serves %dx%d", cfg.InputDim, cfg.NumClasses, s.inputDim, s.numClasses)
		return
	}
	// The refit acceptance gate guards installs too (tests inject failures
	// through it); an install carries no training stats, so the default gate
	// reduces to its structural checks.
	if err := s.validateCandidate(cand, nn.TrainStats{}); err != nil {
		httpError(w, r, http.StatusUnprocessableEntity, "snapshot candidate rejected: %v", err)
		return
	}
	var est *gda.Estimator
	if len(snap.Density) > 0 && s.cfg.Density != nil {
		// Precision is part of the serving contract: an f32 payload on an
		// f64-configured replica (or vice versa) is refused before decoding,
		// never silently reinterpreted.
		snapPrec, err := gda.ParsePrecision(snap.DensityPrecision)
		if err != nil {
			httpError(w, r, http.StatusUnprocessableEntity, "snapshot density rejected: %v", err)
			return
		}
		if snapPrec != s.cfg.ScorePrecision {
			httpError(w, r, http.StatusUnprocessableEntity,
				"snapshot density precision %s, replica configured for %s; refusing cross-precision install",
				snapPrec, s.cfg.ScorePrecision)
			return
		}
	}
	if len(snap.Density) > 0 {
		est, err = gda.Load(bytes.NewReader(snap.Density))
		if err != nil {
			httpError(w, r, http.StatusUnprocessableEntity, "snapshot density rejected: %v", err)
			return
		}
		if s.cfg.Density != nil && est.Precision() != s.cfg.ScorePrecision {
			// Defense in depth against a mislabeled envelope: the payload's
			// own precision must agree with what the envelope declared.
			httpError(w, r, http.StatusUnprocessableEntity,
				"snapshot density payload is %s, envelope declared %s", est.Precision(), snap.DensityPrecision)
			return
		}
	}

	s.mu.Lock()
	// Re-check under the lock: another install may have won the race between
	// the generation read above and here.
	if gen := s.generation.Load(); snap.Generation <= gen {
		s.mu.Unlock()
		httpError(w, r, http.StatusConflict, "snapshot generation %d is not newer than local generation %d", snap.Generation, gen)
		return
	}
	s.cfg.Model = cand
	if est != nil && s.cfg.Density != nil {
		// Density installs only onto replicas serving a density: a replica
		// deployed without /score must not suddenly grow it mid-flight (its
		// routes were fixed at Handler time).
		s.adoptDensityLocked(est, est.TrainLogDensities)
	}
	s.generation.Store(snap.Generation)
	s.mu.Unlock()
	s.metrics.generation.Set(float64(snap.Generation))
	s.metrics.installs.Inc()
	reqLogger(s.cfg.Logger, r.Context()).Info("fleet snapshot installed",
		slog.Uint64("generation", snap.Generation),
		slog.Bool("density", est != nil))
	writeJSON(w, r, installResponse{Generation: snap.Generation, HasDensity: est != nil})
}
