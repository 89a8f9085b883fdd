package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"testing"
	"time"

	"faction/internal/data"
	"faction/internal/gda"
	"faction/internal/mat"
	"faction/internal/nn"
	"faction/internal/obs/slo"
	"faction/internal/testutil"
	"faction/internal/wal"
)

// allocFixture builds an in-process Server (density + OOD calibration, no
// drift detector, no batching) and a marshaled n-row request body. The alloc
// pins call the handler methods directly — the contract is "the handler body
// performs zero steady-state allocations", exclusive of net/http's connection
// machinery.
//
// With fair set, the FULL observability layer is enabled: per-group decision
// attribution (the request rows carry ±1 in the sensitive column, so the
// window/gap path runs, not just the "other" counter), the audit ring, the
// metric-history sampler and the SLO engine. The background timers use an
// hour-long interval because testing.AllocsPerRun counts process-wide mallocs
// — a tick firing mid-measurement would be charged to the handler; SampleNow
// and Evaluate carry their own zero-alloc pins in their packages.
func allocFixture(t testing.TB, rows int, fair bool) (*Server, []byte) {
	t.Helper()
	return allocFixtureWith(t, rows, fair, nil)
}

// allocFixtureWith is allocFixture with patch, when non-nil, applied to the
// Config before New.
func allocFixtureWith(t testing.TB, rows int, fair bool, patch func(*Config)) (*Server, []byte) {
	t.Helper()
	stream := data.NYSF(data.StreamConfig{Seed: 7, SamplesPerTask: 200})
	train := stream.Tasks[0].Pool
	model := nn.NewClassifier(nn.Config{
		InputDim: stream.Dim, NumClasses: 2, Hidden: []int{32},
		SpectralNorm: true, SpectralCoeff: 3, Seed: 7,
	})
	rng := rand.New(rand.NewSource(7))
	model.Train(train.Matrix(), train.Labels(), train.Sensitive(), nn.NewAdam(0.01),
		nn.TrainOpts{Epochs: 2, BatchSize: 32}, rng)
	feats := model.Features(train.Matrix())
	est, err := gda.Fit(feats, train.Labels(), train.Sensitive(), 2, []int{-1, 1}, gda.Config{})
	if err != nil {
		t.Fatal(err)
	}
	lds := make([]float64, feats.Rows)
	for i := range lds {
		lds[i] = est.LogDensity(feats.Row(i))
	}
	// The WAL is enabled so the zero-alloc pins prove the read path stays
	// allocation-free with durability wired in: only /feedback touches the
	// log, /predict and /score must not.
	wlog, err := wal.Open(t.TempDir(), wal.Options{Fsync: wal.FsyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wlog.Close() })
	cfg := Config{Model: model, Density: est, TrainLogDensities: lds, Lambda: 0.5, WAL: wlog, Logger: discardLogger()}
	if fair {
		sloSpec := slo.DefaultSpec()
		sloSpec.Interval = slo.Duration(time.Hour)
		cfg.FairObs = &FairObsConfig{SensitiveCol: 0, GroupValues: []int{-1, 1}, PositiveClass: 1}
		cfg.HistoryInterval = time.Hour
		cfg.SLO = &sloSpec
	}
	if patch != nil {
		patch(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	inst := make([][]float64, rows)
	for i := range inst {
		row := append([]float64(nil), train.Samples[i].X...)
		if i%2 == 0 {
			row[0] = -1
		} else {
			row[0] = 1
		}
		inst[i] = row
	}
	body, err := json.Marshal(instancesRequest{Instances: inst})
	if err != nil {
		t.Fatal(err)
	}
	return s, body
}

// measureAllocs returns the best (minimum) AllocsPerRun over a few
// measurement windows. Background runtime activity can charge stray
// allocations to a window — reproduced on a single-CPU host with nothing but
// a goroutine parked on an hour-long ticker, where ~3% of processes see
// exactly one stray allocation per handler call for the first window and
// none afterwards. A handler that really allocates shows up in EVERY window,
// so one clean window proves the body allocation-free while the stray kind
// can only ever add.
func measureAllocs(runs int, f func()) float64 {
	best := math.Inf(1)
	for attempt := 0; attempt < 3; attempt++ {
		if a := testing.AllocsPerRun(runs, f); a < best {
			best = a
		}
		if best == 0 {
			break
		}
	}
	return best
}

// replayBody is a resettable request body, so one http.Request can serve the
// measured loop without per-iteration reader allocations.
type replayBody struct{ r bytes.Reader }

func (b *replayBody) Read(p []byte) (int, error) { return b.r.Read(p) }
func (b *replayBody) Close() error               { return nil }

// scratchResponseWriter is a reusable ResponseWriter writing into a buffer
// that reaches steady capacity after warmup.
type scratchResponseWriter struct {
	h    http.Header
	body []byte
	code int
}

func (w *scratchResponseWriter) Header() http.Header { return w.h }
func (w *scratchResponseWriter) WriteHeader(c int)   { w.code = c }
func (w *scratchResponseWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.body = append(w.body, p...)
	return len(p), nil
}

// warmRequests is how many requests a measurement through the full
// Handler() stack serves first, so the request-scratch and arena pools are
// filled and the timeout middleware's worker is running.
const warmRequests = 16

// replay returns a call that serves one reused request, carrying body,
// through h into w, resetting both first: a measured loop of calls allocates
// nothing of its own.
func replay(h http.Handler, method, target string, body []byte) (call func(), w *scratchResponseWriter) {
	req := httptest.NewRequest(method, target, nil)
	rb := &replayBody{}
	req.Body = rb
	w = &scratchResponseWriter{h: http.Header{}}
	return func() {
		rb.r.Reset(body)
		w.body, w.code = w.body[:0], 0
		h.ServeHTTP(w, req)
	}, w
}

// The tentpole pin: the FULL /predict handler body — body read, hand-parsed
// decode, arena forward pass, batched density pass, response build, JSON
// encode — performs zero heap allocations at steady state for a fixed request
// shape. Kernel parallelism is forced serial like the nn/gda pins (the worker
// handoff is also allocation-free, but worker growth is one-time).
func TestPredictHandlerSteadyStateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-mode sync.Pool drops Puts; alloc counts not representative")
	}
	old := mat.Parallelism()
	mat.SetParallelism(1)
	defer mat.SetParallelism(old)
	// A GC cycle during the measured window empties the scratch pools, and the
	// refilling iteration's allocations would be charged to the handler. The
	// pin asserts the handler allocates nothing, not that the pools are
	// GC-proof, so automatic GC is paused for the measurement.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	const rows = 8
	s, body := allocFixture(t, rows, true)
	loop, w := replay(http.HandlerFunc(s.handlePredict), "POST", "/predict", body)
	for i := 0; i < 10; i++ {
		loop()
	}
	if allocs := measureAllocs(50, loop); allocs != 0 {
		t.Fatalf("steady-state /predict handler body allocates %.1f allocs/op, want 0", allocs)
	}
	if w.code != http.StatusOK {
		t.Fatalf("status %d, want 200", w.code)
	}
	var pr predictResponse
	if err := json.Unmarshal(w.body, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Classes) != rows || len(pr.Probs) != rows || len(pr.LogDensities) != rows || len(pr.OOD) != rows {
		t.Fatalf("response shapes %d/%d/%d/%d, want %d each",
			len(pr.Classes), len(pr.Probs), len(pr.LogDensities), len(pr.OOD), rows)
	}
}

// The same pin for the /score handler body (Eqs. 6–7 via ScoreRows and
// Scale into the request scratch's BatchScores).
func TestScoreHandlerSteadyStateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-mode sync.Pool drops Puts; alloc counts not representative")
	}
	old := mat.Parallelism()
	mat.SetParallelism(1)
	defer mat.SetParallelism(old)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	const rows = 8
	s, body := allocFixture(t, rows, true)
	loop, w := replay(http.HandlerFunc(s.handleScore), "POST", "/score", body)
	for i := 0; i < 10; i++ {
		loop()
	}
	if allocs := measureAllocs(50, loop); allocs != 0 {
		t.Fatalf("steady-state /score handler body allocates %.1f allocs/op, want 0", allocs)
	}
	var sr scoreResponse
	if err := json.Unmarshal(w.body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.U) != rows || len(sr.QueryProb) != rows {
		t.Fatalf("response shapes %d/%d, want %d each", len(sr.U), len(sr.QueryProb), rows)
	}
}

// Responses through the scratch-reusing path must be identical to the
// pre-refactor allocating path. The reference is recomputed here from the
// model directly (LogitsAndFeatures, ScoreRows into a fresh BatchScores and a
// fresh softmax), which is exactly what the old handler did.
func TestScratchHandlerBitIdenticalToDirectCompute(t *testing.T) {
	const rows = 6
	s, body := allocFixture(t, rows, true)

	req := httptest.NewRequest("POST", "/predict", bytes.NewReader(body))
	w := httptest.NewRecorder()
	s.handlePredict(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.Bytes())
	}
	var pr predictResponse
	if err := json.Unmarshal(w.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}

	var reqBody instancesRequest
	if err := json.Unmarshal(body, &reqBody); err != nil {
		t.Fatal(err)
	}
	x := mat.FromRows(reqBody.Instances)
	logits, feats := s.cfg.Model.LogitsAndFeatures(x, nil)
	var batch gda.BatchScores
	s.cfg.Density.ScoreRows(&batch, 0, feats)
	logG := batch.LogG
	for i := 0; i < rows; i++ {
		probs := make([]float64, logits.Cols)
		mat.Softmax(probs, logits.Row(i))
		if pr.Classes[i] != mat.ArgMax(probs) {
			t.Fatalf("class %d differs", i)
		}
		for c, p := range probs {
			if pr.Probs[i][c] != p {
				t.Fatalf("prob %d/%d: %v vs %v", i, c, pr.Probs[i][c], p)
			}
		}
		if pr.LogDensities[i] != logG[i] {
			t.Fatalf("logDensity %d: %v vs %v", i, pr.LogDensities[i], logG[i])
		}
		if pr.OOD[i] != (logG[i] < s.oodThreshold) {
			t.Fatalf("ood flag %d differs", i)
		}
	}
}

// The fairness observability layer (attribution, audit ring, history, SLO)
// adds no allocation to the full /predict stack, middleware included: the
// same request through Handler() allocates no more with the layer on than
// off.
func TestFairObsAddsNoAllocsToPredictStack(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-mode sync.Pool drops Puts; alloc counts not representative")
	}
	old := mat.Parallelism()
	mat.SetParallelism(1)
	defer mat.SetParallelism(old)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	var allocs [2]float64
	for i, fair := range []bool{false, true} {
		s, body := allocFixture(t, 8, fair)
		serve, w := replay(s.Handler(), "POST", "/predict", body)
		for j := 0; j < warmRequests; j++ {
			serve()
		}
		if w.code != http.StatusOK {
			t.Fatalf("fair=%v: status %d: %s", fair, w.code, w.body)
		}
		allocs[i] = measureAllocs(50, serve)
	}
	if allocs[1] > allocs[0] {
		t.Fatalf("fairness layer adds allocations to /predict: %.1f allocs/op with it, %.1f without", allocs[1], allocs[0])
	}
}

// stackAllocs is what one /predict or /score costs through the full
// Handler() stack at steady state, at any row count, with the fairness layer
// on or off; the handler body itself allocates nothing. The allocations are
// per-request middleware state:
//
//   - requestID: the minted ID, its response-header slice, the request
//     context value, its context node and the request copy carrying it (5);
//   - instrument: the status recorder (1);
//   - timeout: the deadline context (its node, timer, timer callback and
//     cancel function, and its done channel) and the request copy carrying
//     it (6);
//   - maxBytes: the capped body reader (1).
const stackAllocs = 13

// The whole stack is pinned, not just the handler body: a request through
// Handler() — request ID, instrument, recoverer, mux, limiter, the timeout
// middleware's pooled worker, body cap, handler — allocates stackAllocs,
// with the fairness observability layer (attribution, audit ring, history,
// SLO) on and off, at 1 and 8 rows. Kernel parallelism is serial and GC
// paused, as in the handler-body pins.
func TestPredictThroughHandlerAllocs(t *testing.T) { testThroughHandlerAllocs(t, "/predict") }

// The /score twin of TestPredictThroughHandlerAllocs.
func TestScoreThroughHandlerAllocs(t *testing.T) { testThroughHandlerAllocs(t, "/score") }

func testThroughHandlerAllocs(t *testing.T, route string) {
	if testutil.RaceEnabled {
		t.Skip("race-mode sync.Pool drops Puts; alloc counts not representative")
	}
	old := mat.Parallelism()
	mat.SetParallelism(1)
	defer mat.SetParallelism(old)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	for _, rows := range []int{1, 8} {
		for _, fair := range []bool{false, true} {
			s, body := allocFixture(t, rows, fair)
			serve, w := replay(s.Handler(), "POST", route, body)
			for i := 0; i < warmRequests; i++ {
				serve()
			}
			if w.code != http.StatusOK {
				t.Fatalf("%s rows=%d fair=%v: status %d: %s", route, rows, fair, w.code, w.body)
			}
			if allocs := measureAllocs(50, serve); allocs != stackAllocs {
				t.Errorf("%s through Handler(), rows=%d fair=%v: %.1f allocs/op, want %d",
					route, rows, fair, allocs, stackAllocs)
			}
		}
	}
}

// BenchmarkPredictHTTP serves /predict through the full Handler() stack,
// middleware included, with the fairness observability layer off (baseline)
// and on (fairobs): the difference is the layer's per-request cost. The
// 1-row rows are the shape of 7 of every 8 serve-workload reads, where the
// middleware is a large share of the request; at 8 rows the pass dominates.
func BenchmarkPredictHTTP(b *testing.B) {
	for _, m := range []struct {
		name string
		rows int
		fair bool
	}{
		{"baseline", 8, false}, {"fairobs", 8, true},
		{"baseline-1row", 1, false}, {"fairobs-1row", 1, true},
	} {
		s, body := allocFixture(b, m.rows, m.fair)
		serve, w := replay(s.Handler(), "POST", "/predict", body)
		for i := 0; i < warmRequests; i++ {
			serve()
		}
		b.Run(m.name, func(b *testing.B) {
			serve() // refill the pools the pre-run GC emptied
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
			}
			if w.code != http.StatusOK {
				b.Fatalf("status %d: %s", w.code, w.body)
			}
		})
	}
}

// BenchmarkAuditSnapshot serves GET /debug/decisions?n=512 over a full audit
// ring: what an operator pays per hit. A debug endpoint, so it may allocate.
func BenchmarkAuditSnapshot(b *testing.B) {
	s, body := allocFixture(b, 8, true)
	h := s.Handler()
	fill, _ := replay(h, "POST", "/predict", body)
	for i := 0; i < 200; i++ { // 1,600 decisions overflow the 256-entry ring
		fill()
	}
	get, w := replay(h, "GET", "/debug/decisions?n=512", nil)
	get()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get()
	}
	if w.code != http.StatusOK {
		b.Fatalf("status %d: %s", w.code, w.body)
	}
}
