package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"faction/internal/faction"
	"faction/internal/gda"
	"faction/internal/mat"
	"faction/internal/nn"
	"faction/internal/obs"
)

// trainedArtifacts builds one trained classifier and fitted density.
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

// newServerWith builds a server over the given artifacts with its own
// metrics registry and serves its full Handler() stack.
func newServerWith(t testing.TB, model *nn.Classifier, est *gda.Estimator) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{
		Model:             model,
		Density:           est,
		TrainLogDensities: est.TrainLogDensities,
		Lambda:            0.5,
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

// postBody returns status and raw body bytes for an already-marshalled body.
func postBody(url string, body []byte) (int, []byte, error) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// rawPost is postBody on the test goroutine: a transport error fails the test.
func rawPost(t testing.TB, url string, body []byte) (int, []byte) {
	t.Helper()
	code, out, err := postBody(url, body)
	if err != nil {
		t.Fatal(err)
	}
	return code, out
}

// Concurrent /predict and /score answers are byte-identical to the answers
// the same requests got one at a time from the same server. Each request
// runs its pass on its own pooled scratch and the arena it carries, so this
// pins that no per-request buffer leaks between requests in flight together.
func TestBatchingBitIdentical(t *testing.T) {
	model, est := trainedArtifacts(t)
	_, ts := newServerWith(t, model, est)

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
		code, want := rawPost(t, ts.URL+path, body)
		if code != 200 {
			t.Fatalf("sequential %s: %d %s", path, code, want)
		}
		reqs = append(reqs, request{path: path, body: body, want: want})
	}

	// Fire all requests concurrently several times: each round interleaves
	// the passes differently, and every interleaving must produce the same
	// bytes.
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		errs := make(chan string, len(reqs))
		for _, rq := range reqs {
			wg.Add(1)
			go func(rq request) {
				defer wg.Done()
				code, got, err := postBody(ts.URL+rq.path, rq.body)
				if err != nil {
					errs <- fmt.Sprintf("concurrent %s: %v", rq.path, err)
					return
				}
				if code != 200 {
					errs <- fmt.Sprintf("concurrent %s: %d %s", rq.path, code, got)
					return
				}
				if !bytes.Equal(got, rq.want) {
					errs <- fmt.Sprintf("concurrent %s diverged:\n got %s\nwant %s", rq.path, got, rq.want)
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

// Satellite pin: /score performs exactly one GDA pass per request (a former
// handler scored the batch and then ran a second serial LogDensity loop for
// drift), and /predict, which reads the pass's LogG without Scale, counts
// none. Counted through the gda score-pass histogram on the process-wide
// registry.
func TestScoreSingleGDAPassPerRequest(t *testing.T) {
	model, est := trainedArtifacts(t)
	_, ts := newServerWith(t, model, est)
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
		t.Fatalf("/predict observed %d score passes, want 0 (ScoreRows without Scale)", got)
	}
}

// A pass that panics must not leave the server's read lock held: the
// recoverer answers 500, and the next writer (/feedback, a refit swap, a
// snapshot install) must still get the lock. The density here is fitted at
// another width than the model's features, so its kernel panics mid-pass.
func TestPanickingPassReleasesReadLock(t *testing.T) {
	model, est := trainedArtifacts(t)
	s, ts := newServerWith(t, model, est)

	rng := rand.New(rand.NewSource(5))
	width := model.Config().Hidden[0] + 3
	feats := mat.NewDense(40, width)
	y := make([]int, feats.Rows)
	sens := make([]int, feats.Rows)
	for i := range y {
		y[i], sens[i] = i%2, 1-2*((i/2)%2)
		for j := 0; j < width; j++ {
			feats.Set(i, j, float64(y[i])+rng.NormFloat64())
		}
	}
	wrong, err := gda.Fit(feats, y, sens, 2, []int{-1, 1}, gda.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.cfg.Density = wrong // before any traffic, so no request races the write

	body, _ := json.Marshal(instancesRequest{Instances: [][]float64{{0.1, 0.2, 0.3, 0.4}}})
	if code, out := rawPost(t, ts.URL+"/predict", body); code != http.StatusInternalServerError {
		t.Fatalf("predict with a mismatched density: %d %s, want 500", code, out)
	}
	if !s.mu.TryLock() {
		t.Fatal("read lock still held after a panicking pass: the next writer would block forever")
	}
	s.mu.Unlock()
}

// Race hammer: concurrent /predict and /score traffic racing /refit model
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
	// Cancellation pressure: requests whose client gives up mid-flight.
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

// BenchmarkPredictParallel drives parallel single-instance /predict load
// through Handler() over loopback HTTP: concurrent requests each run their
// own pass.
func BenchmarkPredictParallel(b *testing.B) {
	model, est := trainedArtifacts(b)
	_, ts := newServerWith(b, model, est)
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
}

// /score answers FACTION's own Eqs. 6–7: its u and ω are, bit for bit, what
// faction.QueryScore and faction.QueryProbs give over the same model,
// density and rows, so a pipeline that labels by /score ranks a batch as
// FACTION's select would. A one-row batch is constant, and every row of a
// constant batch answers ω = 1.
func TestScoreIsFACTIONsScore(t *testing.T) {
	model, est := trainedArtifacts(t)
	_, ts := newServerWith(t, model, est)
	const rows, lambda = 64, 0.5 // newServerWith's λ
	rng := rand.New(rand.NewSource(29))
	x := mat.NewDense(rows, 4)
	inst := make([][]float64, rows)
	for i := range inst {
		inst[i] = x.Row(i)
		for j := range inst[i] {
			inst[i][j] = 2 * rng.NormFloat64()
		}
	}
	logits, feats := model.LogitsAndFeatures(x, nil)
	var batch gda.BatchScores
	est.ScoreRows(&batch, 0, feats)
	batch.Scale()
	wantU := make([]float64, rows)
	probs := make([]float64, logits.Cols)
	for i := range wantU {
		mat.Softmax(probs, logits.Row(i))
		wantU[i] = faction.QueryScore(batch.G[i], probs, batch.Delta[i], lambda)
	}
	wantOmega := make([]float64, rows)
	faction.QueryProbs(wantOmega, wantU)

	score := func(inst [][]float64) scoreResponse {
		t.Helper()
		body, err := json.Marshal(instancesRequest{Instances: inst})
		if err != nil {
			t.Fatal(err)
		}
		code, out := rawPost(t, ts.URL+"/score", body)
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, out)
		}
		var sr scoreResponse
		if err := json.Unmarshal(out, &sr); err != nil {
			t.Fatal(err)
		}
		return sr
	}
	sr := score(inst)
	if len(sr.U) != rows || len(sr.QueryProb) != rows {
		t.Fatalf("%d scores and %d query probabilities, want %d each", len(sr.U), len(sr.QueryProb), rows)
	}
	for i := range wantU {
		if math.Float64bits(sr.U[i]) != math.Float64bits(wantU[i]) {
			t.Fatalf("row %d: u = %v, FACTION scores %v", i, sr.U[i], wantU[i])
		}
		if math.Float64bits(sr.QueryProb[i]) != math.Float64bits(wantOmega[i]) {
			t.Fatalf("row %d: ω = %v, FACTION gives %v", i, sr.QueryProb[i], wantOmega[i])
		}
	}
	if one := score(inst[:1]); len(one.QueryProb) != 1 || one.QueryProb[0] != 1 {
		t.Fatalf("one-row /score answered ω = %v, want [1]", one.QueryProb)
	}
}
