package server

import (
	"math"
	"net/http"
)

// The read path (DESIGN.md §9): /predict and /score share one handler body —
// decode, pass, respond — and one pass, which runs inline on the handler's
// goroutine over that request's own rows.
//
// Memory discipline (DESIGN.md §10): the request's buffers live in a pooled
// reqScratch, and the pass takes its intermediates (every forward
// activation) from the scratch's arena and runs the density pass into the
// scratch's gda.BatchScores, building the response straight into the
// scratch — so a steady-state request performs no heap allocation.

// reqKind discriminates which endpoint a request belongs to.
type reqKind uint8

const (
	reqPredict reqKind = iota
	reqScore
)

// serveInstances is the one body of /predict and /score: decode, pass,
// respond. An answer that would carry a NaN or ±Inf (finite features so
// large the network or the density overflows) is refused with a 422 naming
// the instance: JSON cannot encode the value, and the status line would
// already be on the wire when the encoder found out.
func (s *Server) serveInstances(w http.ResponseWriter, r *http.Request, kind reqKind) {
	sc := getReqScratch()
	defer putReqScratch(sc)
	if !s.decodeInstances(w, r, sc) {
		return
	}
	s.pass(sc, kind)
	if i, what := nonFiniteInstance(sc, kind); i >= 0 {
		httpError(w, r, http.StatusUnprocessableEntity, "instance %d: %s is not finite", i, what)
		return
	}
	if kind == reqScore {
		s.feedDrift(sc.batch.LogG)
	} else {
		s.feedDrift(sc.predict.LogDensities)
	}
	s.observeDecisions(r, sc, kind)
	if kind == reqScore {
		writeJSON(w, r, &sc.score)
	} else {
		writeJSON(w, r, &sc.predict)
	}
}

// pass runs one forward pass and one density pass (gda ScoreRows) over the
// request's rows and builds the response into sc. Only /score scales the
// pass into the densities and gaps of Eqs. 3–5, which counts it as a score
// pass; /predict reads the pass's log-densities (Eq. 3) as they are.
//
// The pass holds one read lock throughout, so a /refit swap never lands
// mid-pass and every response comes from one (model, density, threshold)
// generation. The unlock is deferred: a pass that panics reaches the
// recoverer middleware (a counted, logged 500) with the lock released,
// instead of leaving the next writer — /feedback, a refit swap, a snapshot
// install — and every reader queued behind it blocked forever.
func (s *Server) pass(sc *reqScratch, kind reqKind) {
	sc.arena.Reset()
	s.mu.RLock()
	defer s.mu.RUnlock()
	logits, feats := s.cfg.Model.LogitsAndFeatures(&sc.x, &sc.arena)
	d := s.cfg.Density
	switch {
	case kind == reqScore:
		d.ScoreRows(&sc.batch, 0, feats)
		sc.batch.Scale()
		buildScoreInto(sc, logits, &sc.batch, s.cfg.Lambda)
	case d != nil:
		d.ScoreRows(&sc.batch, 0, feats)
		buildPredictInto(sc, logits, sc.batch.LogG, s.hasOOD, s.oodThreshold)
	default:
		buildPredictInto(sc, logits, nil, false, 0)
	}
}

// nonFiniteInstance returns the first row whose answer carries a NaN or
// ±Inf, and which value it is; −1 when every value is finite. A /score row
// is checked on its own score first: one non-finite score makes every
// row's query probability NaN through the shared normalisation.
func nonFiniteInstance(sc *reqScratch, kind reqKind) (int, string) {
	if kind == reqScore {
		for i, u := range sc.score.U {
			if math.IsNaN(u) || math.IsInf(u, 0) {
				return i, "score"
			}
		}
		for i, q := range sc.score.QueryProb {
			if math.IsNaN(q) || math.IsInf(q, 0) {
				return i, "query probability"
			}
		}
		return -1, ""
	}
	for i, probs := range sc.predict.Probs {
		for _, p := range probs {
			if math.IsNaN(p) || math.IsInf(p, 0) {
				return i, "class probability"
			}
		}
		if lds := sc.predict.LogDensities; lds != nil && (math.IsNaN(lds[i]) || math.IsInf(lds[i], 0)) {
			return i, "log-density"
		}
	}
	return -1, ""
}
