package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"time"

	"faction/internal/data"
	"faction/internal/fairness"
	"faction/internal/obs"
)

// chunk is one pass of the reader over a slice of its operations.
type chunk struct {
	wall               time.Duration
	predictMs, scoreMs []float64
	attempted, bad     int
	// Traced passes only, per request: the server's own time and the client
	// latency, both in ms.
	serverMs, clientMs []float64
}

// chunks is a sequence of chunks of one kind (baseline or measured).
type chunks []chunk

func (cs chunks) wall() (t time.Duration) {
	for _, c := range cs {
		t += c.wall
	}
	return t
}

// medianWall is the median chunk wall clock in seconds.
func (cs chunks) medianWall() float64 {
	var w []float64
	for _, c := range cs {
		w = append(w, c.wall.Seconds())
	}
	return median(w)
}

// ratio is the median over rounds of cs[i].wall / base[i].wall: each pair ran
// back to back on the same operations, so host drift cancels in it.
func (cs chunks) ratio(base chunks) float64 {
	var r []float64
	for i := range cs {
		r = append(r, cs[i].wall.Seconds()/base[i].wall.Seconds())
	}
	return median(r)
}

func (cs chunks) ops() (n int) {
	for _, c := range cs {
		n += c.attempted
	}
	return n
}

func (cs chunks) bad() (n int) {
	for _, c := range cs {
		n += c.bad
	}
	return n
}

// blockSamples is the least number of /predict latencies in one block: its
// p99 then has at least 50 samples beyond it.
const blockSamples = 5000

// predictQuantile groups consecutive chunks into blocks of at least
// blockSamples /predict latencies (the remainder joins the last block) and
// returns the median over blocks of each block's q-quantile, so a burst of
// host noise that spoils one block cannot move it.
func (cs chunks) predictQuantile(q float64) float64 {
	var blocks [][]float64
	var cur []float64
	for _, c := range cs {
		cur = append(cur, c.predictMs...)
		if len(cur) >= blockSamples {
			blocks, cur = append(blocks, cur), nil
		}
	}
	switch {
	case len(blocks) == 0:
		blocks = [][]float64{cur}
	case len(cur) > 0:
		blocks[len(blocks)-1] = append(blocks[len(blocks)-1], cur...)
	}
	var per []float64
	for _, b := range blocks {
		per = append(per, quantile(b, q))
	}
	return median(per)
}

func (cs chunks) pooled(f func(chunk) []float64) []float64 {
	var all []float64
	for _, c := range cs {
		all = append(all, f(c)...)
	}
	return all
}

// routeTimer reads the server's per-route latency histograms (the ones its
// instrument middleware records), so a traced pass can split each request's
// client latency into server time and the rest.
type routeTimer struct{ predict, score *obs.Histogram }

func newRouteTimer() (rt routeTimer, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("faction_http_request_seconds has a different shape than expected: %v", r)
		}
	}()
	vec := obs.Default().HistogramVec("faction_http_request_seconds", "", obs.DefBuckets, "route")
	return routeTimer{predict: vec.With("/predict"), score: vec.With("/score")}, nil
}

// reader is a closed-loop caller of /predict and /score.
type reader struct {
	c     *client
	in    *serveInputs
	check func(op readOp, body []byte) error
	timer *routeTimer // nil in untraced runs
	rec   *recorder
	errs  []string
}

func (rd *reader) fail(format string, args ...any) {
	if len(rd.errs) < 5 {
		rd.errs = append(rd.errs, fmt.Sprintf(format, args...))
	}
}

func (rd *reader) run(ops []readOp) chunk {
	ch := chunk{predictMs: make([]float64, 0, len(ops)), scoreMs: make([]float64, 0, len(ops)/readCycle+1)}
	start := time.Now()
	for _, op := range ops {
		path, body := "/predict", rd.in.predict[op.body]
		if op.score {
			path, body = "/score", rd.in.score[op.body]
		}
		var h *obs.Histogram
		var sum0 float64
		var n0 uint64
		var sp spanRef
		if rd.timer != nil {
			h = rd.timer.predict
			if op.score {
				h = rd.timer.score
			}
			sum0, n0 = h.Sum(), h.Count()
			sp = rd.rec.begin("http POST "+path, spanRef{})
		}
		t0 := time.Now()
		status, resp, err := rd.c.post(path, body)
		lat := time.Since(t0)
		ch.attempted++
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %.200s", status, resp)
		}
		if err == nil {
			err = rd.check(op, resp)
		}
		if err != nil {
			ch.bad++
			lat = clientTimeout
			rd.fail("%s: %v", path, err)
		}
		ms := float64(lat.Nanoseconds()) / 1e6
		if op.score {
			ch.scoreMs = append(ch.scoreMs, ms)
		} else {
			ch.predictMs = append(ch.predictMs, ms)
		}
		if h != nil {
			rd.rec.end(sp)
			if dn := h.Count() - n0; dn != 1 && err == nil {
				ch.bad++
				rd.fail("%s: server histogram advanced by %d for one request", path, dn)
			}
			ch.serverMs = append(ch.serverMs, (h.Sum()-sum0)*1e3)
			ch.clientMs = append(ch.clientMs, ms)
		}
	}
	ch.wall = time.Since(start)
	return ch
}

// wellFormed checks a response the way a client would: a body that decodes
// into the documented shape, one result per row, probabilities that are
// probabilities.
func wellFormed(op readOp, body []byte) error {
	if op.score {
		var r struct {
			U         []float64 `json:"u"`
			QueryProb []float64 `json:"queryProb"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if len(r.U) != scoreRows || len(r.QueryProb) != scoreRows {
			return fmt.Errorf("/score returned %d scores and %d probabilities for %d rows", len(r.U), len(r.QueryProb), scoreRows)
		}
		for i, q := range r.QueryProb {
			if !(q >= 0 && q <= 1) || math.IsNaN(r.U[i]) || math.IsInf(r.U[i], 0) {
				return fmt.Errorf("/score row %d: u=%v queryProb=%v", i, r.U[i], q)
			}
		}
		return nil
	}
	var r struct {
		Classes      []int       `json:"classes"`
		Probs        [][]float64 `json:"probs"`
		LogDensities []float64   `json:"logDensities"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	if len(r.Classes) != 1 || len(r.Probs) != 1 || len(r.LogDensities) != 1 {
		return fmt.Errorf("/predict returned %d classes, %d prob rows, %d densities for 1 row", len(r.Classes), len(r.Probs), len(r.LogDensities))
	}
	sum, best := 0.0, 0
	for c, p := range r.Probs[0] {
		sum += p
		if p > r.Probs[0][best] {
			best = c
		}
	}
	if math.Abs(sum-1) > 1e-9 || best != r.Classes[0] || math.IsNaN(r.LogDensities[0]) {
		return fmt.Errorf("/predict row: probs %v, class %d, logDensity %v", r.Probs[0], r.Classes[0], r.LogDensities[0])
	}
	return nil
}

// writer is the closed-loop annotation pipeline of serve-mixed: labelled
// feedback batches with a synchronous /refit after every refitEvery of them.
type writer struct {
	c          *client
	in         *serveInputs
	rec        *recorder
	sent       int // feedback batches acknowledged so far
	refits     int
	feedbackMs []float64
	refitS     []float64
	refitRows  []int
	attempted  int
	bad        int
	errs       []string
}

func (w *writer) fail(format string, args ...any) {
	w.bad++
	if len(w.errs) < 10 {
		w.errs = append(w.errs, fmt.Sprintf(format, args...))
	}
}

func (w *writer) round(batches, refitEvery int) {
	for b := 0; b < batches; b++ {
		j := w.sent
		sp := w.rec.begin("http POST /feedback", spanRef{})
		t0 := time.Now()
		status, body, err := w.c.post("/feedback", w.in.feedback[j%len(w.in.feedback)])
		lat := time.Since(t0)
		w.rec.end(sp)
		w.attempted++
		w.sent++
		var fr struct {
			Buffered int    `json:"buffered"`
			LSN      uint64 `json:"lsn"`
		}
		switch {
		case err != nil || status != http.StatusOK:
			w.fail("/feedback %d: status %d, %v: %.200s", j, status, err, body)
			lat = clientTimeout
		case json.Unmarshal(body, &fr) != nil || fr.Buffered != w.sent*feedbackRows || fr.LSN != uint64(w.sent):
			w.fail("/feedback %d: response %.200s, want buffered %d at lsn %d", j, body, w.sent*feedbackRows, w.sent)
		}
		w.feedbackMs = append(w.feedbackMs, float64(lat.Nanoseconds())/1e6)
		if w.sent%refitEvery == 0 {
			w.refit()
		}
	}
}

func (w *writer) refit() {
	sp := w.rec.begin("http POST /refit", spanRef{})
	t0 := time.Now()
	status, body, err := w.c.post("/refit", nil)
	lat := time.Since(t0)
	w.rec.end(sp)
	w.attempted++
	w.refits++
	var rr struct {
		Samples    int    `json:"samples"`
		Generation uint64 `json:"generation"`
	}
	switch {
	case err != nil || status != http.StatusOK:
		w.fail("/refit %d: status %d, %v: %.200s", w.refits, status, err, body)
	case json.Unmarshal(body, &rr) != nil || rr.Generation != uint64(w.refits) || rr.Samples != w.sent*feedbackRows:
		w.fail("/refit %d: response %.200s, want generation %d on %d samples", w.refits, body, w.refits, w.sent*feedbackRows)
	}
	w.refitS = append(w.refitS, lat.Seconds())
	w.refitRows = append(w.refitRows, w.sent*feedbackRows)
}

// evaluate queries the final served model over HTTP on the held-out rows and
// returns its accuracy and demographic-parity gap.
func evaluate(c *client, held *data.Dataset) (acc, ddp float64, err error) {
	var pred []int
	const batch = 200
	for lo := 0; lo < held.Len(); lo += batch {
		hi := min(lo+batch, held.Len())
		rows := make([][]float64, 0, hi-lo)
		for _, s := range held.Samples[lo:hi] {
			rows = append(rows, s.X)
		}
		status, body, err := c.post("/predict", instancesBody(rows))
		if err != nil || status != http.StatusOK {
			return 0, 0, fmt.Errorf("held-out /predict: status %d, %v", status, err)
		}
		var r struct {
			Classes []int `json:"classes"`
		}
		if err := json.Unmarshal(body, &r); err != nil || len(r.Classes) != hi-lo {
			return 0, 0, fmt.Errorf("held-out /predict: %d classes for %d rows (%v)", len(r.Classes), hi-lo, err)
		}
		pred = append(pred, r.Classes...)
	}
	rep := fairness.Evaluate(pred, held.Labels(), held.Sensitive())
	return rep.Accuracy, rep.DDP, nil
}

// serveRun holds what both serving workloads share: inputs, the booted
// stack, and the traced-run plumbing.
type serveRun struct {
	size  serveSize
	out   *outcome
	rec   *recorder
	in    *serveInputs
	st    *stack
	timer *routeTimer
}

func startServe(o opts, routed bool) (*serveRun, error) {
	r := &serveRun{size: serveSizeFor(o, routed), out: newOutcome()}
	if o.trace {
		r.rec = newRecorder()
		t, err := newRouteTimer()
		if err != nil {
			return nil, err
		}
		r.timer = &t
	}
	r.in = makeServeInputs(o, r.size)
	st, err := bootRepeated(o, r.in, r.size, routed, r.rec, r.out)
	if err != nil {
		return nil, err
	}
	r.st = st
	return r, nil
}

func (r *serveRun) newReader(base string, check func(readOp, []byte) error) *reader {
	return &reader{c: newClient(base), in: r.in, check: check, timer: r.timer, rec: r.rec}
}

func (r *serveRun) roundOps(i int) []readOp {
	n := r.size.readsPerRound
	return r.in.ops[i*n : (i+1)*n]
}

// quality queries the final model and fills accuracy.
func (r *serveRun) quality(c *client) {
	acc, ddp, err := evaluate(c, r.in.heldOut)
	if err != nil {
		r.out.fail("%v", err)
	}
	if !(acc > 0 && acc <= 1) {
		r.out.fail("held-out accuracy %v outside (0, 1]", acc)
	}
	r.out.e2e["accuracy"] = acc
	r.out.note("final model: held-out accuracy %.6f, DDP %.6f over %d rows", acc, ddp, r.in.heldOut.Len())
}

func runServeMixed(o opts) (*outcome, error) {
	r, err := startServe(o, false)
	if err != nil {
		return nil, err
	}
	defer r.st.close()
	out := r.out
	rd := r.newReader(r.st.front, wellFormed)
	defer rd.c.close()
	w := &writer{c: newClient(r.st.front), in: r.in, rec: r.rec}
	defer w.c.close()

	rd.run(r.roundOps(0)) // warm-up, unmeasured
	var alone, mixed chunks
	var walls []time.Duration
	before := takeLayerSnapshot()
	for i := 0; i < r.size.rounds; i++ {
		ops := r.roundOps(i)
		runtime.GC()
		alone = append(alone, rd.run(ops))
		runtime.GC()
		var wg sync.WaitGroup
		var ch chunk
		start := time.Now()
		wg.Add(1)
		go func() {
			defer wg.Done()
			ch = rd.run(ops)
		}()
		w.round(r.size.writesPerRound, r.size.refitEvery)
		wg.Wait()
		walls = append(walls, time.Since(start))
		mixed = append(mixed, ch)
	}
	after := takeLayerSnapshot()

	r.quality(rd.c)
	var info struct {
		Generation   uint64 `json:"generation"`
		FailedRefits int    `json:"failedRefits"`
	}
	if status, body, err := rd.c.get("/info"); err != nil || status != http.StatusOK || json.Unmarshal(body, &info) != nil {
		out.fail("/info: status %d, %v", status, err)
	} else if info.Generation != uint64(w.refits) || info.FailedRefits != 0 {
		out.fail("/info reports generation %d and %d failed refits after %d refits", info.Generation, info.FailedRefits, w.refits)
	}
	out.attempted = alone.ops() + mixed.ops() + w.attempted
	out.failed = alone.bad() + mixed.bad() + w.bad
	for _, e := range append(rd.errs, w.errs...) {
		out.fail("%s", e)
	}

	var wall time.Duration
	for _, t := range walls {
		wall += t
	}
	out.e2e["wall_s"] = wall.Seconds()
	out.e2e["over_baseline"] = mixed.ratio(alone)
	out.e2e["throughput"] = float64(mixed.ops()+w.attempted) / wall.Seconds()
	// Read latency is taken on the reader's own chunks: beside a refit the
	// tail is set by how the host time-slices the two vCPUs, and it spread
	// 14-33% between runs of this workload. What the writer costs readers is
	// over_baseline.
	out.e2e["p50_ms"] = alone.predictQuantile(0.5)
	out.e2e["p99_ms"] = alone.predictQuantile(0.99)
	out.e2e["mem_mb"] = peakRSSMB()
	scoreMs := mixed.pooled(func(c chunk) []float64 { return c.scoreMs })
	out.layer["client.score_p50_ms"] = median(scoreMs)
	out.layer["client.feedback_p50_ms"] = median(w.feedbackMs)
	out.layer["client.refit_s"] = median(w.refitS)
	out.note("%d rounds: reader %d ops alone in %.3f s, %d beside the writer in %.3f s; writer %d feedback + %d refits; rounds %.3f s",
		r.size.rounds, alone.ops(), alone.wall().Seconds(), mixed.ops(), mixed.wall().Seconds(), len(w.feedbackMs), w.refits, wall.Seconds())
	out.note("predict p50 %.4f ms p99 %.4f ms beside the writer, %.4f / %.4f alone; score p50 %.4f ms (%d); feedback p50 %.4f ms (%d); refit median %.4f s",
		mixed.predictQuantile(0.5), mixed.predictQuantile(0.99), alone.predictQuantile(0.5), alone.predictQuantile(0.99),
		median(scoreMs), len(scoreMs), median(w.feedbackMs), len(w.feedbackMs), median(w.refitS))

	if o.trace {
		d := after.sub(before)
		serveLayers(out, d, append(alone, mixed...), wall)
		var flops float64
		for _, n := range w.refitRows {
			flops += fitFlops(n, 64, 4)
		}
		out.layer["gda.fit_gflop"] = flops / 1e9
		out.layer["server.feedback_s"] = d.reg.mean("faction_http_request_seconds", `{route="/feedback"}`)
		out.layer["server.refit_s"] = d.reg.mean("faction_refit_seconds", "")
		if n := d.reg["faction_refits_total"] + d.reg["faction_refits_failed_total"]; n > 0 {
			out.layer["server.refit_accept_ratio"] = d.reg["faction_refits_total"] / n
		}
		appends, fsyncs := d.reg["faction_wal_appends_total"], d.reg["faction_wal_fsyncs_total"]
		out.layer["wal.appends"] = appends
		out.layer["wal.fsyncs"] = fsyncs
		if fsyncs > 0 {
			out.layer["wal.records_per_fsync"] = appends / fsyncs
		}
		out.layer["wal.append_s"] = d.reg.mean("faction_wal_append_seconds", "")
		out.layer["wal.fsync_s"] = d.reg.mean("faction_wal_fsync_seconds", "")
		finishTrace(out, r.rec, "serve-mixed")
	}
	return out, nil
}

func runServeRouted(o opts) (*outcome, error) {
	r, err := startServe(o, true)
	if err != nil {
		return nil, err
	}
	defer r.st.close()
	out := r.out

	// References: every distinct request body sent once to each replica.
	// Both must answer identically, and every later response, direct or
	// routed, must equal that answer byte for byte.
	refs := map[readOp][]byte{}
	for i, u := range r.st.urls {
		c := newClient(u)
		for kind, bodies := range [][][]byte{r.in.predict, r.in.score} {
			for b, body := range bodies {
				op := readOp{score: kind == 1, body: b}
				path := map[bool]string{false: "/predict", true: "/score"}[op.score]
				status, resp, err := c.post(path, body)
				if err == nil && status == http.StatusOK {
					err = wellFormed(op, resp)
				}
				switch {
				case err != nil || status != http.StatusOK:
					out.fail("reference %s on replica %d: status %d, %v", path, i, status, err)
				case i == 0:
					refs[op] = append([]byte(nil), resp...)
				case !bytes.Equal(refs[op], resp):
					out.fail("replicas answer %s body %d differently", path, b)
				}
			}
		}
		c.close()
	}
	sameAsRef := func(op readOp, body []byte) error {
		if !bytes.Equal(refs[op], body) {
			return fmt.Errorf("response differs from the replicas' reference answer for the same rows")
		}
		return nil
	}
	direct := r.newReader(r.st.urls[0], sameAsRef)
	defer direct.c.close()
	routed := r.newReader(r.st.front, sameAsRef)
	defer routed.c.close()

	direct.run(r.roundOps(0)) // warm-up, unmeasured
	routed.run(r.roundOps(0))
	var directs, routeds chunks
	routerBefore, err := scrape(r.st.routerRg)
	if err != nil {
		return nil, err
	}
	before := takeLayerSnapshot()
	for i := 0; i < r.size.rounds; i++ {
		ops := r.roundOps(i)
		// Alternate which path goes first, so neither always runs second.
		for k := 0; k < 2; k++ {
			runtime.GC()
			if (i+k)%2 == 0 {
				directs = append(directs, direct.run(ops))
			} else {
				routeds = append(routeds, routed.run(ops))
			}
		}
	}
	after := takeLayerSnapshot()
	routerAfter, err := scrape(r.st.routerRg)
	if err != nil {
		return nil, err
	}

	r.quality(routed.c)
	out.attempted = directs.ops() + routeds.ops()
	out.failed = directs.bad() + routeds.bad()
	for _, e := range append(direct.errs, routed.errs...) {
		out.fail("%s", e)
	}
	// The reader's chunks are alike, so the median chunk stands for all of
	// them: wall_s is the round count times the median routed chunk.
	wall := time.Duration(float64(len(routeds)) * routeds.medianWall() * float64(time.Second))
	out.e2e["wall_s"] = wall.Seconds()
	out.e2e["over_baseline"] = routeds.ratio(directs)
	out.e2e["throughput"] = float64(r.size.readsPerRound) / routeds.medianWall()
	out.e2e["p50_ms"] = routeds.predictQuantile(0.5)
	out.e2e["p99_ms"] = routeds.predictQuantile(0.99)
	out.e2e["mem_mb"] = peakRSSMB()
	scoreMs := routeds.pooled(func(c chunk) []float64 { return c.scoreMs })
	out.layer["client.score_p50_ms"] = median(scoreMs)
	out.note("%d rounds: %d ops direct in %.3f s, routed in %.3f s; %d distinct request bodies checked byte for byte",
		r.size.rounds, routeds.ops(), directs.wall().Seconds(), routeds.wall().Seconds(), len(refs))
	out.note("routed predict p50 %.4f ms p99 %.4f ms (direct %.4f / %.4f); routed score p50 %.4f ms (%d)",
		routeds.predictQuantile(0.5), routeds.predictQuantile(0.99), directs.predictQuantile(0.5), directs.predictQuantile(0.99),
		median(scoreMs), len(scoreMs))

	if o.trace {
		d := after.sub(before)
		serveLayers(out, d, directs, wall)
		rd := routerAfter.sub(routerBefore)
		var proxy []float64
		for _, c := range routeds {
			for i := range c.clientMs {
				proxy = append(proxy, c.clientMs[i]-c.serverMs[i])
			}
		}
		out.layer["fleet.proxy_ms"] = mean(proxy)
		out.layer["fleet.retries"] = rd["faction_router_retries_total"]
		out.layer["fleet.proxy_errors"] = rd["faction_router_proxy_errors_total"]
		total, top := rd.sum("faction_router_requests_total{"), 0.0
		for _, name := range []string{"r0", "r1"} {
			top = math.Max(top, rd.sum(`faction_router_requests_total{replica="`+name+`"`))
		}
		if total > 0 {
			out.layer["fleet.replica_share"] = top / total
		}
		finishTrace(out, r.rec, "serve-routed")
	}
	return out, nil
}

// serveLayers fills the per-layer metrics both serving workloads share.
// Wire time is measured on cs: client latency minus the server's own time.
func serveLayers(out *outcome, d layerDelta, cs chunks, wall time.Duration) {
	d.setCommon(out.layer)
	fitS := d.reg["faction_gda_fit_seconds_sum"]
	out.layer["gda.fit_calls"] = d.reg["faction_gda_fit_seconds_count"]
	out.layer["gda.fit_s"] = fitS
	out.layer["gda.fit_share"] = fitS / wall.Seconds()
	out.layer["gda.score_calls"] = d.reg["faction_gda_score_batch_seconds_count"]
	out.layer["gda.score_s"] = d.reg["faction_gda_score_batch_seconds_sum"]
	out.layer["server.predict_s"] = d.reg.mean("faction_http_request_seconds", `{route="/predict"}`)
	out.layer["server.score_s"] = d.reg.mean("faction_http_request_seconds", `{route="/score"}`)
	out.layer["server.shed"] = d.reg["faction_http_shed_total"]
	out.layer["server.errors_5xx"] = d.reg["faction_http_responses_5xx_total"]
	client, srv := cs.pooled(func(c chunk) []float64 { return c.clientMs }), cs.pooled(func(c chunk) []float64 { return c.serverMs })
	var wire []float64
	for i := range client {
		w := client[i] - srv[i]
		if w < 0 || srv[i] <= 0 {
			out.fail("request %d: server-side %.4f ms does not fit in client latency %.4f ms", i, srv[i], client[i])
			break
		}
		wire = append(wire, w)
	}
	out.layer["server.wire_ms"] = mean(wire)
	out.note("every request: client %.4f ms = server %.4f ms + wire %.4f ms (means over %d)",
		mean(client), mean(srv), mean(wire), len(wire))
}

// finishTrace checks and summarises the recorded spans.
func finishTrace(out *outcome, rec *recorder, workload string) {
	out.spans = rec.snapshot()
	if err := checkNesting(out.spans); err != nil {
		out.fail("span nesting: %v", err)
	}
	for _, st := range selfTimes(out.spans) {
		out.note("span %-24s n=%-6d total %9.3f s  self %9.3f s", st.name, st.count, st.total.Seconds(), st.self.Seconds())
	}
	compareUntraced(out, workload)
}
