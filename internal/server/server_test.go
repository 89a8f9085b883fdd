package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"faction/internal/data"
	"faction/internal/drift"
	"faction/internal/gda"
	"faction/internal/mat"
	"faction/internal/nn"
)

// fixture builds a trained model + density estimator on the NYSF analog and
// returns a test server plus one in-distribution and one OOD instance.
func fixture(t *testing.T, withDensity bool) (*httptest.Server, []float64, []float64) {
	t.Helper()
	_, ts, inDist, ood := fixtureServer(t, withDensity)
	return ts, inDist, ood
}

// fixtureServer is fixture with the *Server behind the test server.
func fixtureServer(t *testing.T, withDensity bool) (*Server, *httptest.Server, []float64, []float64) {
	t.Helper()
	stream := data.NYSF(data.StreamConfig{Seed: 3, SamplesPerTask: 250})
	train := stream.Tasks[0].Pool
	model := nn.NewClassifier(nn.Config{
		InputDim: stream.Dim, NumClasses: 2, Hidden: []int{32},
		SpectralNorm: true, SpectralCoeff: 3, Seed: 3,
	})
	rng := rand.New(rand.NewSource(3))
	model.Train(train.Matrix(), train.Labels(), train.Sensitive(), nn.NewAdam(0.01),
		nn.TrainOpts{Epochs: 10, BatchSize: 32}, rng)

	// λ→0 isolates the epistemic term so the OOD-preference assertion below
	// is unambiguous (with λ≈1 a group-typical in-distribution sample can
	// legitimately outrank an OOD one — that is Eq. 6 working as designed).
	cfg := Config{Model: model, Drift: drift.New(drift.Config{MinBaseline: 2}), Lambda: 1e-9}
	if withDensity {
		feats := model.Features(train.Matrix())
		est, err := gda.Fit(feats, train.Labels(), train.Sensitive(), 2, []int{-1, 1}, gda.Config{})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Density = est
		lds := make([]float64, feats.Rows)
		for i := range lds {
			lds[i] = est.LogDensity(feats.Row(i))
		}
		cfg.TrainLogDensities = lds
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	inDist := train.Samples[0].X
	ood := make([]float64, stream.Dim)
	for i := range ood {
		ood[i] = 50
	}
	return s, ts, inDist, ood
}

// Features of 1e300 are finite, so decoding accepts them, but their
// log-density overflows to −Inf. /predict, whose answer would carry it,
// answers 422 naming the instance, never a 2xx with an empty body (JSON
// cannot carry −Inf); /score scales the row's density to 0 and answers in
// full. Either way the batch's −Inf mean log-density must not reach the
// drift detector, whose panic on it left driftMu held: the lock is free
// afterwards and the next request is served, with or without a detector.
func TestNonFiniteAnswerIsRefusedAndReleasesDriftLock(t *testing.T) {
	s, ts, inDist, _ := fixtureServer(t, true)
	huge := make([]float64, len(inDist))
	for i := range huge {
		huge[i] = 1e300
	}
	for _, detector := range []bool{true, false} {
		if !detector {
			s.cfg.Drift = nil
		}
		for _, route := range []string{"/predict", "/score"} {
			resp, body := postJSON(t, ts.URL+route, map[string]any{"instances": [][]float64{inDist, huge}})
			if resp.StatusCode/100 == 2 && len(body) == 0 {
				t.Fatalf("detector %v %s: status %d with an empty body", detector, route, resp.StatusCode)
			}
			if route == "/predict" && (resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(body), "instance 1")) {
				t.Fatalf("detector %v %s: %d %s, want 422 naming instance 1", detector, route, resp.StatusCode, body)
			}
			var sr scoreResponse
			if route == "/score" && (resp.StatusCode != http.StatusOK || json.Unmarshal(body, &sr) != nil || len(sr.U) != 2) {
				t.Fatalf("detector %v %s: %d %s, want two scores", detector, route, resp.StatusCode, body)
			}
			if !s.driftMu.TryLock() {
				t.Fatalf("detector %v %s: driftMu still held after the request", detector, route)
			}
			s.driftMu.Unlock()
			if resp, body := postJSON(t, ts.URL+route, map[string]any{"instances": [][]float64{inDist}}); resp.StatusCode != http.StatusOK {
				t.Fatalf("detector %v %s: next request %d %s", detector, route, resp.StatusCode, body)
			}
		}
	}
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestHealthAndInfo(t *testing.T) {
	ts, _, _ := fixture(t, true)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/info")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("info: %v %v", resp, err)
	}
	var info infoResponse
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.InputDim != 16 || info.NumClasses != 2 || !info.HasDensity || info.Components == 0 {
		t.Fatalf("info = %+v", info)
	}
}

func TestPredict(t *testing.T) {
	ts, inDist, ood := fixture(t, true)
	resp, body := postJSON(t, ts.URL+"/predict", instancesRequest{Instances: [][]float64{inDist, ood}})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var pr predictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Classes) != 2 || len(pr.Probs) != 2 || len(pr.LogDensities) != 2 || len(pr.OOD) != 2 {
		t.Fatalf("response = %+v", pr)
	}
	sum := pr.Probs[0][0] + pr.Probs[0][1]
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("probs sum %g", sum)
	}
	// The far-away instance must be flagged OOD and carry a lower density.
	if !pr.OOD[1] {
		t.Fatal("OOD instance not flagged")
	}
	if pr.LogDensities[1] >= pr.LogDensities[0] {
		t.Fatal("OOD density not lower")
	}
}

func TestScore(t *testing.T) {
	ts, inDist, ood := fixture(t, true)
	resp, body := postJSON(t, ts.URL+"/score", instancesRequest{Instances: [][]float64{inDist, ood}})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr scoreResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.U) != 2 || len(sr.QueryProb) != 2 {
		t.Fatalf("response = %+v", sr)
	}
	// The OOD instance is the one worth labeling: lower u, higher ω.
	if sr.U[1] >= sr.U[0] || sr.QueryProb[1] <= sr.QueryProb[0] {
		t.Fatalf("OOD should be preferred: %+v", sr)
	}
}

func TestDriftEndpoint(t *testing.T) {
	ts, inDist, ood := fixture(t, true)
	// Establish a baseline with in-distribution batches, then hit it with OOD.
	for i := 0; i < 4; i++ {
		postJSON(t, ts.URL+"/predict", instancesRequest{Instances: [][]float64{inDist}})
	}
	oodBatch := make([][]float64, 8)
	for i := range oodBatch {
		oodBatch[i] = ood
	}
	postJSON(t, ts.URL+"/predict", instancesRequest{Instances: oodBatch})

	resp, err := http.Get(ts.URL + "/drift")
	if err != nil {
		t.Fatal(err)
	}
	var dr driftResponse
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if dr.Observations < 5 {
		t.Fatalf("drift observations = %d", dr.Observations)
	}
	if dr.Shifts == 0 {
		t.Fatal("OOD batch should have triggered a drift shift")
	}
}

func TestBadRequests(t *testing.T) {
	ts, inDist, _ := fixture(t, true)
	cases := []struct {
		name string
		body string
	}{
		{"not json", "{"},
		{"empty", `{"instances": []}`},
		{"wrong dim", `{"instances": [[1, 2]]}`},
		{"nan", `{"instances": [[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,"x"]]}`},
		{"inf overflow", `{"instances": [[1e999,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16]]}`},
		{"unknown field", fmt.Sprintf(`{"instances": [%s], "extra": 1}`, mustJSON(inDist))},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/predict", "application/json", bytes.NewReader([]byte(c.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", c.name, resp.StatusCode)
		}
	}
}

func TestNoDensityDisablesScore(t *testing.T) {
	ts, inDist, _ := fixture(t, false)
	resp, _ := postJSON(t, ts.URL+"/score", instancesRequest{Instances: [][]float64{inDist}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("score without density: status %d, want 404", resp.StatusCode)
	}
	// Predict still works, without density fields.
	resp2, body := postJSON(t, ts.URL+"/predict", instancesRequest{Instances: [][]float64{inDist}})
	if resp2.StatusCode != 200 {
		t.Fatalf("predict: %d", resp2.StatusCode)
	}
	var pr predictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.LogDensities != nil || pr.OOD != nil {
		t.Fatal("density fields should be absent")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil model must be rejected")
	}
}

// A density that does not fit the model's features is refused at boot: one
// fitted on 8-wide features under a Hidden [16] model would fail every
// /predict and /score, and a class count other than the model's would size
// the score pass's buffers from a number the model never produces.
func TestNewRejectsDensityThatDoesNotFitModel(t *testing.T) {
	model := nn.NewClassifier(nn.Config{InputDim: 5, NumClasses: 2, Hidden: []int{16}, Seed: 1})
	fit := func(dim, classes int) *gda.Estimator {
		t.Helper()
		rng := rand.New(rand.NewSource(2))
		feats := mat.NewDense(60, dim)
		for i := range feats.Data {
			feats.Data[i] = rng.NormFloat64()
		}
		y, sens := make([]int, feats.Rows), make([]int, feats.Rows)
		for i := range y {
			y[i], sens[i] = i%classes, 2*(i/classes%2)-1
		}
		est, err := gda.Fit(feats, y, sens, classes, []int{-1, 1}, gda.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	for _, tc := range []struct {
		name         string
		dim, classes int
	}{
		{"feature dim", 8, 2},
		{"classes", 16, 3},
	} {
		est := fit(tc.dim, tc.classes)
		if s, err := New(Config{Model: model, Density: est, TrainLogDensities: est.TrainLogDensities}); err == nil {
			s.Close()
			t.Fatalf("%s: New accepted a %d-dim, %d-class density for a 16-dim, 2-class model", tc.name, tc.dim, tc.classes)
		}
	}
	est := fit(16, 2)
	s, err := New(Config{Model: model, Density: est, TrainLogDensities: est.TrainLogDensities})
	if err != nil {
		t.Fatalf("New rejected a density that fits: %v", err)
	}
	s.Close()
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if q := quantile(xs, 0); q != 1 {
		t.Fatalf("q0 = %g", q)
	}
	if q := quantile(xs, 1); q != 5 {
		t.Fatalf("q1 = %g", q)
	}
	if q := quantile(xs, 0.5); q != 3 {
		t.Fatalf("q.5 = %g", q)
	}
	// Linear interpolation between adjacent order statistics (type-7): the
	// former rank truncation returned sorted[0]=1 here, biasing small-sample
	// OOD thresholds low.
	if q, want := quantile(xs, 0.05), 1.2; math.Abs(q-want) > 1e-12 {
		t.Fatalf("q.05 = %g, want %g (interpolated between ranks 0 and 1)", q, want)
	}
	if q, want := quantile(xs, 0.9), 4.6; math.Abs(q-want) > 1e-12 {
		t.Fatalf("q.9 = %g, want %g", q, want)
	}
	// Ten points at q=0.05: pos = 0.45 → 1 + 0.45·(2−1) = 1.45, not the
	// minimum the truncating version picked.
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q, want := quantile(ten, 0.05), 1.45; math.Abs(q-want) > 1e-12 {
		t.Fatalf("q.05 over 10 points = %g, want %g", q, want)
	}
	// Edges: a single sample answers every quantile; out-of-range q clamps.
	one := []float64{7}
	for _, q := range []float64{0, 0.05, 0.5, 1} {
		if got := quantile(one, q); got != 7 {
			t.Fatalf("quantile([7], %g) = %g", q, got)
		}
	}
	if got := quantile(nil, 0.5); !math.IsInf(got, -1) {
		t.Fatalf("quantile(nil) = %g, want -Inf", got)
	}
	if got := quantile([]float64{math.NaN(), 2}, 1); got != 2 {
		t.Fatalf("NaNs must be dropped, got %g", got)
	}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

func TestOnlineFeedbackAndRefit(t *testing.T) {
	stream := data.NYSF(data.StreamConfig{Seed: 4, SamplesPerTask: 200})
	train := stream.Tasks[0].Pool
	model := nn.NewClassifier(nn.Config{InputDim: stream.Dim, NumClasses: 2, Hidden: []int{16}, Seed: 4})
	rng := rand.New(rand.NewSource(4))
	model.Train(train.Matrix(), train.Labels(), train.Sensitive(), nn.NewAdam(0.01),
		nn.TrainOpts{Epochs: 5, BatchSize: 32}, rng)
	feats := model.Features(train.Matrix())
	est, err := gda.Fit(feats, train.Labels(), train.Sensitive(), 2, []int{-1, 1}, gda.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Model:             model,
		Density:           est,
		TrainLogDensities: est.TrainLogDensities,
		Online: OnlineConfig{
			Enabled: true, Epochs: 3,
			Fair: nn.FairConfig{Mu: 0.7, Eps: 0.01},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Refit before any feedback: 409.
	resp, _ := postJSON(t, ts.URL+"/refit", map[string]any{})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("refit without feedback: %d, want 409", resp.StatusCode)
	}

	// Feed labeled samples from a later task.
	later := stream.Tasks[8].Pool
	fb := feedbackRequest{}
	for _, smp := range later.Samples[:60] {
		fb.Instances = append(fb.Instances, smp.X)
		fb.Labels = append(fb.Labels, smp.Y)
		fb.Sensitive = append(fb.Sensitive, smp.S)
	}
	resp, body := postJSON(t, ts.URL+"/feedback", fb)
	if resp.StatusCode != 200 {
		t.Fatalf("feedback: %d %s", resp.StatusCode, body)
	}
	var fr feedbackResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Buffered != 60 {
		t.Fatalf("buffered = %d", fr.Buffered)
	}

	// Refit: model should adapt and the density refresh.
	resp, body = postJSON(t, ts.URL+"/refit", map[string]any{})
	if resp.StatusCode != 200 {
		t.Fatalf("refit: %d %s", resp.StatusCode, body)
	}
	var rr refitResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Samples != 60 || rr.Refits != 1 || !rr.DensityRefit {
		t.Fatalf("refit response = %+v", rr)
	}
	if rr.TrainAccuracy <= 0.5 {
		t.Fatalf("refit train accuracy %.3f", rr.TrainAccuracy)
	}
	// Predictions still work after refit.
	resp, _ = postJSON(t, ts.URL+"/predict", instancesRequest{Instances: [][]float64{later.Samples[0].X}})
	if resp.StatusCode != 200 {
		t.Fatalf("predict after refit: %d", resp.StatusCode)
	}
}

func TestOnlineFeedbackValidation(t *testing.T) {
	ts, inDist, _ := onlineFixture(t)
	cases := []feedbackRequest{
		{},
		{Instances: [][]float64{inDist}, Labels: []int{0}},                             // missing sensitive
		{Instances: [][]float64{inDist}, Labels: []int{7}, Sensitive: []int{1}},        // bad label
		{Instances: [][]float64{{1}}, Labels: []int{0}, Sensitive: []int{1}},           // bad dim
		{Instances: [][]float64{inDist}, Labels: []int{0, 1}, Sensitive: []int{1, -1}}, // length mismatch
	}
	for i, c := range cases {
		resp, _ := postJSON(t, ts.URL+"/feedback", c)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("case %d: status %d, want 400", i, resp.StatusCode)
		}
	}
}

func TestOnlineBufferCap(t *testing.T) {
	ts, inDist, _ := onlineFixtureWithCap(t, 5)
	fb := feedbackRequest{}
	for i := 0; i < 9; i++ {
		fb.Instances = append(fb.Instances, inDist)
		fb.Labels = append(fb.Labels, 0)
		fb.Sensitive = append(fb.Sensitive, 1)
	}
	resp, body := postJSON(t, ts.URL+"/feedback", fb)
	if resp.StatusCode != 200 {
		t.Fatalf("feedback: %d", resp.StatusCode)
	}
	var fr feedbackResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Buffered != 5 {
		t.Fatalf("buffer should be capped at 5, got %d", fr.Buffered)
	}
}

func TestOnlineDisabledByDefault(t *testing.T) {
	ts, inDist, _ := fixture(t, false)
	resp, _ := postJSON(t, ts.URL+"/feedback", feedbackRequest{
		Instances: [][]float64{inDist}, Labels: []int{0}, Sensitive: []int{1},
	})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("feedback on non-online server: %d, want 404", resp.StatusCode)
	}
}

// onlineFixture builds a minimal online-enabled server (no density).
func onlineFixture(t *testing.T) (*httptest.Server, []float64, []float64) {
	return onlineFixtureWithCap(t, 0)
}

func onlineFixtureWithCap(t *testing.T, maxBuffer int) (*httptest.Server, []float64, []float64) {
	t.Helper()
	model := nn.NewClassifier(nn.Config{InputDim: 3, NumClasses: 2, Hidden: []int{8}, Seed: 5})
	s, err := New(Config{Model: model, Online: OnlineConfig{Enabled: true, MaxBuffer: maxBuffer}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, []float64{0.1, 0.2, 0.3}, nil
}
