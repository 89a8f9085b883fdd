package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"faction/internal/gda"
	"faction/internal/mat"
	"faction/internal/nn"
	"faction/internal/obs"
)

// trainedArtifacts builds one trained classifier and fitted density shared by
// a batched and an unbatched server — inference is read-only, so two servers
// serving the same objects answer from the identical generation.
func trainedArtifacts(t testing.TB) (*nn.Classifier, *gda.Estimator) {
	t.Helper()
	rng := rand.New(rand.NewSource(33))
	n, dim := 160, 4
	x := mat.NewDense(n, dim)
	y := make([]int, n)
	sens := make([]int, n)
	for i := 0; i < n; i++ {
		y[i] = i % 2
		sens[i] = 1 - 2*((i/2)%2)
		for j := 0; j < dim; j++ {
			x.Set(i, j, float64(y[i])+0.4*rng.NormFloat64())
		}
	}
	model := nn.NewClassifier(nn.Config{InputDim: dim, NumClasses: 2, Hidden: []int{12}, Seed: 33})
	model.Train(x, y, sens, nn.NewAdam(0.01), nn.TrainOpts{Epochs: 5, BatchSize: 32}, rng)
	est, err := gda.Fit(model.Features(x), y, sens, 2, []int{-1, 1}, gda.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return model, est
}

// newServerWith builds a server over the shared artifacts with its own
// metrics registry; batchDelay 0 runs each request's pass inline (unbatched).
func newServerWith(t testing.TB, model *nn.Classifier, est *gda.Estimator, batchRows int, batchDelay time.Duration) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{
		Model:             model,
		Density:           est,
		TrainLogDensities: est.TrainLogDensities,
		Lambda:            0.5,
		BatchRows:         batchRows,
		BatchDelay:        batchDelay,
		Logger:            discardLogger(),
		Metrics:           obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close) // runs after ts.Close (LIFO), so handlers drain first
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// rawPost returns status and raw body bytes for an already-marshalled body.
func rawPost(t testing.TB, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// Property (pinned by the tentpole's acceptance criteria): with batching on,
// /predict and /score responses are byte-identical to the unbatched path,
// even when concurrent requests coalesce into shared flushes. The kernels
// compute every per-row value independently of batch composition and the
// scatter rescales each request's range on its own maximum, so not a single
// bit may differ.
func TestBatchingBitIdentical(t *testing.T) {
	model, est := trainedArtifacts(t)
	_, unbatched := newServerWith(t, model, est, 0, 0)
	_, batched := newServerWith(t, model, est, 8, 3*time.Millisecond)

	rng := rand.New(rand.NewSource(7))
	type request struct {
		path string
		body []byte
		want []byte
	}
	var reqs []request
	for i := 0; i < 24; i++ {
		rows := 1 + rng.Intn(3)
		inst := make([][]float64, rows)
		for r := range inst {
			row := make([]float64, 4)
			for j := range row {
				// Mix in-distribution and far-out rows so OOD flags and the
				// density scale path both get exercised.
				row[j] = rng.NormFloat64() * float64(1+3*(i%3))
			}
			inst[r] = row
		}
		body, err := json.Marshal(instancesRequest{Instances: inst})
		if err != nil {
			t.Fatal(err)
		}
		path := "/predict"
		if i%2 == 1 {
			path = "/score"
		}
		code, want := rawPost(t, unbatched.URL+path, body)
		if code != 200 {
			t.Fatalf("unbatched %s: %d %s", path, code, want)
		}
		reqs = append(reqs, request{path: path, body: body, want: want})
	}

	// Fire all requests concurrently at the batched server several times:
	// different runs coalesce into different flush compositions, and every
	// composition must produce the same bytes.
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		errs := make(chan string, len(reqs))
		for _, rq := range reqs {
			wg.Add(1)
			go func(rq request) {
				defer wg.Done()
				code, got := rawPost(t, batched.URL+rq.path, rq.body)
				if code != 200 {
					errs <- fmt.Sprintf("batched %s: %d %s", rq.path, code, got)
					return
				}
				if !bytes.Equal(got, rq.want) {
					errs <- fmt.Sprintf("batched %s diverged:\n got %s\nwant %s", rq.path, got, rq.want)
				}
			}(rq)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
	}
}

// Under concurrent single-instance traffic the batcher must actually
// coalesce: the flushed batch-size histogram has to average more than one
// row per flush.
func TestBatcherCoalescesConcurrentSingletons(t *testing.T) {
	model, est := trainedArtifacts(t)
	s, ts := newServerWith(t, model, est, 64, 25*time.Millisecond)

	const workers = 32
	body, _ := json.Marshal(instancesRequest{Instances: [][]float64{{0.1, 0.2, 0.3, 0.4}}})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if code, out := rawPost(t, ts.URL+"/predict", body); code != 200 {
				t.Errorf("predict: %d %s", code, out)
			}
		}()
	}
	wg.Wait()
	count, sum := s.metrics.batchRows.Count(), s.metrics.batchRows.Sum()
	if count == 0 {
		t.Fatal("no flushes recorded")
	}
	if mean := sum / float64(count); mean <= 1 {
		t.Fatalf("mean flushed batch size %.2f over %d flushes — requests did not coalesce", mean, count)
	}
	if s.metrics.batchQueueSeconds.Count() != workers {
		t.Fatalf("queue-delay histogram saw %d requests, want %d", s.metrics.batchQueueSeconds.Count(), workers)
	}
}

// Satellite pin: /score performs exactly one GDA pass per request (the former
// handler ran ScoreBatch and then a second serial LogDensity loop for drift),
// and /predict performs none of the ScoreBatch kind. Counted through the
// gda score-pass histogram on the process-wide registry.
func TestScoreSingleGDAPassPerRequest(t *testing.T) {
	model, est := trainedArtifacts(t)
	_, ts := newServerWith(t, model, est, 0, 0)
	scorePasses := obs.Default().Histogram("faction_gda_score_batch_seconds",
		"Duration of scoring one feature batch (Eqs. 3-5).", obs.ExpBuckets(1e-5, 4, 8))

	body, _ := json.Marshal(instancesRequest{Instances: [][]float64{
		{0.1, 0.2, 0.3, 0.4}, {1, 1, 1, 1}, {5, 5, 5, 5},
	}})
	before := scorePasses.Count()
	if code, out := rawPost(t, ts.URL+"/score", body); code != 200 {
		t.Fatalf("score: %d %s", code, out)
	}
	if got := scorePasses.Count() - before; got != 1 {
		t.Fatalf("/score ran %d GDA passes, want exactly 1", got)
	}
	before = scorePasses.Count()
	if code, out := rawPost(t, ts.URL+"/predict", body); code != 200 {
		t.Fatalf("predict: %d %s", code, out)
	}
	if got := scorePasses.Count() - before; got != 0 {
		t.Fatalf("/predict ran %d ScoreBatch passes, want 0 (LogDensityBatch only)", got)
	}
}

// A request whose context dies while queued is abandoned: the client's
// timeout is honoured, the flusher skips the dead item (no batch ever
// carries its rows), and the server keeps serving.
func TestBatcherQueuedRequestCancellation(t *testing.T) {
	model, est := trainedArtifacts(t)
	s, ts := newServerWith(t, model, est, 1<<20, 150*time.Millisecond)

	body, _ := json.Marshal(instancesRequest{Instances: [][]float64{{0.1, 0.2, 0.3, 0.4}}})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/predict", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if resp, err := http.DefaultClient.Do(req); err == nil {
		// The timeout middleware may answer before the client gives up; any
		// terminal status is fine as long as it is not a fabricated 200.
		if resp.StatusCode == 200 {
			t.Fatalf("cancelled queued request answered 200")
		}
		resp.Body.Close()
	}

	// Wait out the deadline flush: the only queued item was cancelled, so it
	// must be dropped — no non-empty batch is ever flushed for it.
	deadline := time.Now().Add(2 * time.Second)
	for s.metrics.batchFlushes.With("deadline").Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := s.metrics.batchRows.Count(); n != 0 {
		t.Fatalf("%d batches flushed for a cancelled request, want 0", n)
	}

	// The server is unharmed: a fresh request is served (and coalesced).
	done := make(chan struct{})
	go func() {
		defer close(done)
		if code, out := rawPost(t, ts.URL+"/predict", body); code != 200 {
			t.Errorf("post-cancel predict: %d %s", code, out)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("post-cancel request never completed")
	}
}

// Close with a non-empty queue must flush it (reason "drain") so every
// waiting handler gets a real, still bit-identical response; submissions
// after the drain are answered 503.
func TestBatcherDrainWithNonEmptyQueue(t *testing.T) {
	model, est := trainedArtifacts(t)
	_, unbatched := newServerWith(t, model, est, 0, 0)
	s, ts := newServerWith(t, model, est, 1<<20, time.Hour)

	const inflight = 3
	bodies := make([][]byte, inflight)
	wants := make([][]byte, inflight)
	for i := range bodies {
		bodies[i], _ = json.Marshal(instancesRequest{Instances: [][]float64{{float64(i), 0.2, 0.3, 0.4}}})
		code, want := rawPost(t, unbatched.URL+"/score", bodies[i])
		if code != 200 {
			t.Fatalf("unbatched score: %d %s", code, want)
		}
		wants[i] = want
	}

	var wg sync.WaitGroup
	errs := make(chan string, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, got := rawPost(t, ts.URL+"/score", bodies[i])
			if code != 200 {
				errs <- fmt.Sprintf("drained score %d: %d %s", i, code, got)
				return
			}
			if !bytes.Equal(got, wants[i]) {
				errs <- fmt.Sprintf("drained score %d diverged:\n got %s\nwant %s", i, got, wants[i])
			}
		}(i)
	}

	// Wait until all requests are queued (the deadline is an hour, so only
	// Close can release them), then drain.
	deadline := time.Now().Add(5 * time.Second)
	for s.metrics.batchDepth.Value() < inflight && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := s.metrics.batchDepth.Value(); got < inflight {
		t.Fatalf("queue depth %v after 5s, want %d", got, inflight)
	}
	s.Close()
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if s.metrics.batchFlushes.With("drain").Value() == 0 {
		t.Fatal("drain flush not counted")
	}
	if code, _ := rawPost(t, ts.URL+"/predict", bodies[0]); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request answered %d, want 503", code)
	}
}

// Race hammer: coalesced /predict and /score traffic racing /refit model
// swaps, /feedback buffer writes and client-side cancellations. Run under
// `make race`; correctness here is "no race, no deadlock, no wrong status".
func TestBatcherRefitRaceHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := 120
	x := make([][]float64, n)
	y := make([]int, n)
	sens := make([]int, n)
	fb := feedbackRequest{}
	for i := range x {
		y[i] = i % 2
		sens[i] = 1 - 2*((i/2)%2)
		x[i] = []float64{float64(y[i]) + 0.3*rng.NormFloat64(), rng.NormFloat64(), 0.5 * rng.NormFloat64()}
		fb.Instances, fb.Labels, fb.Sensitive = append(fb.Instances, x[i]), append(fb.Labels, y[i]), append(fb.Sensitive, sens[i])
	}
	model := nn.NewClassifier(nn.Config{InputDim: 3, NumClasses: 2, Hidden: []int{8}, Seed: 21})
	xm := mat.FromRows(x)
	model.Train(xm, y, sens, nn.NewAdam(0.01), nn.TrainOpts{Epochs: 5, BatchSize: 32}, rng)
	est, err := gda.Fit(model.Features(xm), y, sens, 2, []int{-1, 1}, gda.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Model:             model,
		Density:           est,
		TrainLogDensities: est.TrainLogDensities,
		Online:            OnlineConfig{Enabled: true, Epochs: 2},
		BatchRows:         4,
		BatchDelay:        time.Millisecond,
		Logger:            discardLogger(),
		Metrics:           obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if resp, body := postJSON(t, ts.URL+"/feedback", fb); resp.StatusCode != 200 {
		t.Fatalf("feedback: %d %s", resp.StatusCode, body)
	}

	var wg sync.WaitGroup
	errs := make(chan string, 512)
	post := func(path string, payload any) (int, string) {
		raw, err := json.Marshal(payload)
		if err != nil {
			return 0, err.Error()
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			return 0, err.Error()
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				path := "/predict"
				if (w+i)%2 == 0 {
					path = "/score"
				}
				code, body := post(path, instancesRequest{
					Instances: [][]float64{{0.1 * float64(i), 0.2, float64(w)}},
				})
				if code != 200 {
					errs <- fmt.Sprintf("%s: %d %s", path, code, body)
				}
			}
		}(w)
	}
	// Cancellation pressure: requests that usually die while queued.
	wg.Add(1)
	go func() {
		defer wg.Done()
		body, _ := json.Marshal(instancesRequest{Instances: [][]float64{{0.5, 0.5, 0.5}}})
		for i := 0; i < 20; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%3)*200*time.Microsecond)
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/predict", bytes.NewReader(body))
			if err == nil {
				if resp, err := http.DefaultClient.Do(req); err == nil {
					resp.Body.Close()
				}
			}
			cancel()
		}
	}()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				code, body := post("/feedback", feedbackRequest{
					Instances: [][]float64{{0.3, float64(w), 0.1 * float64(i)}},
					Labels:    []int{i % 2},
					Sensitive: []int{1 - 2*(i%2)},
				})
				if code != 200 {
					errs <- fmt.Sprintf("feedback: %d %s", code, body)
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				code, body := post("/refit", map[string]any{})
				if code != 200 && code != http.StatusConflict && code != http.StatusUnprocessableEntity {
					errs <- fmt.Sprintf("refit: %d %s", code, body)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// BenchmarkCoalescedPredict drives parallel single-instance /predict load
// through the micro-batcher and reports the mean rows per flushed batch
// (faction_batch_rows): above 1 means concurrent requests shared passes.
func BenchmarkCoalescedPredict(b *testing.B) {
	model, est := trainedArtifacts(b)
	s, ts := newServerWith(b, model, est, 64, time.Millisecond)
	body, _ := json.Marshal(instancesRequest{Instances: [][]float64{{0.1, 0.2, 0.3, 0.4}}})
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := http.Post(ts.URL+"/predict", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				b.Errorf("predict: %d", resp.StatusCode)
				return
			}
		}
	})
	if rows := s.metrics.batchRows; rows.Count() > 0 {
		b.ReportMetric(rows.Sum()/float64(rows.Count()), "rows/flush")
	}
}
