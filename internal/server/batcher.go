package server

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"

	"faction/internal/batching"
	"faction/internal/gda"
	"faction/internal/mat"
)

// The read path (DESIGN.md §9): /predict and /score share one handler body —
// decode, pass, respond — and one pass. A pass gathers one or more decoded
// requests into a single matrix, runs one forward pass and one density pass
// over it under one read lock, and scatters each request's row range back
// into that request's own scratch.
//
// With Config.BatchDelay 0 the handler runs the pass inline, on its own
// goroutine, over its single request. With BatchDelay > 0 the handler
// enqueues instead, and the request coalescer (internal/batching) runs the
// same pass on its flusher goroutine when BatchRows is reached or BatchDelay
// elapses, fusing every request that queued up meanwhile.
//
// Composition of the coalesced mode with the resilience stack:
//
//   - MaxInflight: a queued handler still holds its concurrency-limiter slot
//     (it blocks inside the handler), so queued work counts against the
//     shedding bound — the queue cannot grow past MaxInflight requests.
//   - Timeouts / cancellation: a handler waiting on its result honours its
//     request context; the flusher drops items whose context ended before
//     the flush, so abandoned requests cost no compute.
//   - /refit: the whole pass runs under one s.mu read lock, so a model swap
//     (write lock) never lands mid-pass — every response in a batch comes
//     from one coherent (model, density, threshold) generation.
//   - Drain: Server.Close flushes the remaining queue (reason "drain") and
//     stops the flusher; handlers drained by http.Server shutdown get real
//     responses, and late submitters are answered 503.
//
// Determinism: the kernels compute every per-row value independently of the
// rest of the batch (row-sharded matmul with fixed accumulation order,
// per-row density sums in sorted component order), and gda's SliceInto
// rescales each request's row range on that range's own maximum. Coalesced
// responses are therefore bit-identical to inline ones — pinned by
// TestBatchingBitIdentical.
//
// Memory discipline (DESIGN.md §10): the pass checks intermediates out of a
// pooled arena (the gathered matrix, every forward activation, the
// log-density buffer), scores through the pooled gda.RawScores, and scatters
// each request's share directly into that request's own reqScratch — so a
// steady-state pass performs no heap allocation.
//
// Scratch ownership handshake: a request's reqScratch travels inside its
// batchItem. Until the pass delivers on the item's channel, the pass owns
// the scratch and writes the response into it; delivery transfers ownership
// back to the handler, which writes the response and repools the scratch. A
// coalesced handler that gives up early (context cancelled while queued or
// mid-flush) must therefore ABANDON its scratch — never repool it — because
// the flusher may still write into it; the scratch is reclaimed by the GC
// instead. That is the one leak on the read path, and it only happens for
// requests that already paid a timeout.

// reqKind discriminates which endpoint a request belongs to.
type reqKind uint8

const (
	reqPredict reqKind = iota
	reqScore
)

// batchItem is one request handed to a pass: its scratch (carrying the
// decoded instances in sc.x and, after the pass, the response) plus the
// channel its handler waits on. It is embedded in the reqScratch so
// submitting allocates nothing.
type batchItem struct {
	kind reqKind
	sc   *reqScratch
	ctx  context.Context
	res  chan flushResult // buffered(1); the pass delivers at most once
}

func (it *batchItem) Rows() int       { return it.sc.x.Rows }
func (it *batchItem) Cancelled() bool { return it.ctx.Err() != nil }

// deliver hands the item its result without ever blocking the pass (the
// channel is buffered and only the pass sends). After a successful deliver
// the pass must not touch it.sc again — ownership has passed back to the
// handler.
func (it *batchItem) deliver(res flushResult) {
	select {
	case it.res <- res:
	default:
	}
}

// flushResult signals one request's completion: a nil err means the response
// has been built into the item's scratch (sc.predict / sc.score); a non-nil
// err means the pass failed and the handler should answer 500.
type flushResult struct {
	err error
}

// newCoalescer starts the request coalescer whose flusher runs pass.
func (s *Server) newCoalescer() *batching.Coalescer {
	m := s.metrics
	return batching.New(batching.Config{
		MaxRows:  s.cfg.BatchRows,
		MaxDelay: s.cfg.BatchDelay,
		Flush:    func(items []batching.Item, _ batching.Reason) { s.pass(items) },
		Metrics: batching.Metrics{
			FlushRows:  func(rows int) { m.batchRows.Observe(float64(rows)) },
			Flushes:    func(r batching.Reason) { m.batchFlushes.With(string(r)).Inc() },
			QueueDelay: m.batchQueueSeconds.Observe,
			QueueDepth: func(rows int) { m.batchDepth.Set(float64(rows)) },
		},
	})
}

// serveInstances is the one body of /predict and /score: decode, pass,
// respond. It owns sc on every exit path: the scratch is either repooled or,
// when a coalesced pass may still write into it, abandoned to the GC.
func (s *Server) serveInstances(w http.ResponseWriter, r *http.Request, kind reqKind) {
	sc := getReqScratch()
	if !s.decodeInstances(w, r, sc) {
		putReqScratch(sc)
		return
	}
	it := &sc.item
	it.kind, it.ctx = kind, r.Context()
	// Drain any stale result: a previous owner that abandoned this scratch
	// never consumed its delivery. (Abandoned scratches are not repooled, so
	// this is pure insurance, but it keeps the invariant local.)
	select {
	case <-it.res:
	default:
	}
	var res flushResult
	if s.coalescer == nil {
		s.pass([]batching.Item{it})
		res = <-it.res
	} else {
		if err := s.coalescer.Submit(it); err != nil {
			// Rejected before enqueue (drained for shutdown): still sole owner.
			httpError(w, r, http.StatusServiceUnavailable, "request not served: %v", err)
			putReqScratch(sc)
			return
		}
		select {
		case res = <-it.res:
		case <-r.Context().Done():
			// The timeout middleware has already answered the client; the
			// flusher may still be writing into sc, so abandon it (see the
			// ownership handshake above) — repooling here would be a
			// use-after-free.
			httpError(w, r, http.StatusServiceUnavailable, "request not served: %v", r.Context().Err())
			return
		}
	}
	if res.err != nil {
		httpError(w, r, http.StatusInternalServerError, "%v", res.err)
		putReqScratch(sc)
		return
	}
	// Drift feeding and decision attribution run handler-side (not in the
	// pass), so the flush loop stays free of per-request metric work and the
	// audit record carries this request's own ID.
	if kind == reqScore {
		s.feedDrift(sc.batch.LogG)
	} else {
		s.feedDrift(sc.predict.LogDensities)
	}
	s.observeDecisions(r, sc, kind, s.coalescer != nil)
	if kind == reqScore {
		writeJSON(w, r, &sc.score)
	} else {
		writeJSON(w, r, &sc.predict)
	}
	putReqScratch(sc)
}

// pass runs one forward pass and one density pass over every item's rows and
// scatters the results into each item's scratch. The inline path calls it
// with the handler's own request; the coalescer's flusher calls it with a
// drained batch, where a panic would kill the process (no HTTP recoverer
// wraps that goroutine), so recoverPass converts it into per-request 500s.
func (s *Server) pass(items []batching.Item) {
	defer s.recoverPass(items)

	// Gather: concatenate every request's rows into an arena matrix. A
	// single-request pass reuses its decoded matrix as-is.
	arena := mat.GetArena()
	score := false
	total := 0
	for _, qi := range items {
		it := qi.(*batchItem)
		score = score || it.kind == reqScore
		total += it.sc.x.Rows
	}
	x := &items[0].(*batchItem).sc.x
	if len(items) > 1 {
		x = arena.Get(total, s.inputDim)
		off := 0
		for _, qi := range items {
			sc := qi.(*batchItem).sc
			copy(x.Data[off*s.inputDim:], sc.x.Data)
			off += sc.x.Rows
		}
	}

	// Compute under a single read lock so a /refit swap never straddles the
	// pass. The score pass (Eqs. 3–5) runs only when a /score request needs
	// its gaps; a /predict-only pass runs the log-density pass (Eq. 3), which
	// carries the same LogG bits and does not count as a score pass.
	s.mu.RLock()
	logits, feats := s.cfg.Model.LogitsAndFeatures(x, arena)
	var raw *gda.RawScores
	var logG []float64
	if d := s.cfg.Density; d != nil {
		if score {
			raw = d.ScoreBatchRaw(feats)
			logG = raw.LogG
		} else {
			logG = arena.Get(1, total).Data
			d.LogDensityBatchInto(logG, feats)
		}
	}
	hasOOD, thresh := s.hasOOD, s.oodThreshold
	lambda := s.cfg.Lambda
	s.mu.RUnlock()

	// Scatter: each request's row range is built into that request's own
	// scratch, rescaled (for /score) on the range's own maximum so the
	// response is bit-identical to a pass over just its rows. SliceInto and
	// the logG copy own their storage, so the pooled raw pass and the arena
	// can be released after the loop.
	off := 0
	for _, qi := range items {
		it := qi.(*batchItem)
		sc := it.sc
		lo, hi := off, off+sc.x.Rows
		off = hi
		switch it.kind {
		case reqPredict:
			var lg []float64
			if logG != nil {
				sc.logG = growFloats(sc.logG, hi-lo)
				copy(sc.logG, logG[lo:hi])
				lg = sc.logG
			}
			buildPredictInto(sc, logits, lo, hi, lg, hasOOD, thresh)
		case reqScore:
			raw.SliceInto(&sc.batch, lo, hi)
			buildScoreInto(sc, logits, lo, hi, &sc.batch, lambda)
		}
		it.deliver(flushResult{})
	}
	if raw != nil {
		raw.Release()
	}
	arena.Release()
}

// recoverPass converts a pass panic into per-request 500s; items already
// delivered keep their responses.
func (s *Server) recoverPass(items []batching.Item) {
	p := recover()
	if p == nil {
		return
	}
	s.metrics.panics.Inc()
	s.cfg.Logger.Error("panic in read pass",
		slog.Any("panic", p),
		slog.String("stack", string(debug.Stack())))
	err := fmt.Errorf("internal error in read pass")
	for _, qi := range items {
		qi.(*batchItem).deliver(flushResult{err: err})
	}
}
