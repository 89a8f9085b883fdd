package server

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"faction/internal/data"
	"faction/internal/drift"
	"faction/internal/gda"
	"faction/internal/nn"
	"faction/internal/obs"
)

// obsFixture builds a fully-featured server (density, drift detector, online
// endpoints) on its own metrics registry, so per-route count assertions are
// not polluted by other tests.
func obsFixture(t *testing.T) (*Server, *httptest.Server, *obs.Registry) {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	n := 120
	train := data.NewDataset("train", 3, 2)
	for i := 0; i < n; i++ {
		y := i % 2
		s := 1 - 2*((i/2)%2)
		train.Append(data.Sample{
			X: []float64{float64(y) + 0.3*rng.NormFloat64(), rng.NormFloat64(), 0.5 * rng.NormFloat64()},
			Y: y, S: s,
		})
	}
	model := nn.NewClassifier(nn.Config{InputDim: 3, NumClasses: 2, Hidden: []int{8}, Seed: 41})
	model.Train(train.Matrix(), train.Labels(), train.Sensitive(), nn.NewAdam(0.01),
		nn.TrainOpts{Epochs: 5, BatchSize: 32}, rng)
	feats := model.Features(train.Matrix())
	est, err := gda.Fit(feats, train.Labels(), train.Sensitive(), 2, []int{-1, 1}, gda.Config{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s, err := New(Config{
		Model:             model,
		Density:           est,
		TrainLogDensities: est.TrainLogDensities,
		Drift:             drift.New(drift.Config{MinBaseline: 2}),
		Online:            OnlineConfig{Enabled: true, Epochs: 2},
		Logger:            discardLogger(),
		Metrics:           reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, reg
}

// scrape fetches GET /metrics and returns the exposition body.
func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type %q, want Prometheus text format", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestMetricsEndpointContract(t *testing.T) {
	_, ts, _ := obsFixture(t)

	// Drive known traffic: one prediction, one 404, one drift read.
	resp, body := postJSON(t, ts.URL+"/predict", instancesRequest{Instances: [][]float64{{0.5, 0, 0}}})
	if resp.StatusCode != 200 {
		t.Fatalf("predict: %d %s", resp.StatusCode, body)
	}
	if resp, err := http.Get(ts.URL + "/no-such-route"); err == nil {
		resp.Body.Close()
	}
	if resp, err := http.Get(ts.URL + "/drift"); err == nil {
		resp.Body.Close()
	}

	out := scrape(t, ts)
	for _, want := range []string{
		// Per-route request counters with terminal status codes.
		`faction_http_requests_total{route="/predict",code="200"} 1`,
		`faction_http_requests_total{route="other",code="404"} 1`,
		`faction_http_requests_total{route="/drift",code="200"} 1`,
		// Latency histogram per route, with the +Inf catch-all bucket.
		`faction_http_request_seconds_bucket{route="/predict",le="+Inf"} 1`,
		`faction_http_request_seconds_count{route="/predict"} 1`,
		// Resilience gauges/counters exist from the first scrape.
		"faction_http_inflight_requests 1", // the scrape itself is in flight
		"faction_http_shed_total 0",
		"faction_http_timeouts_total 0",
		"faction_http_panics_total 0",
		// Adaptation + drift state.
		"faction_model_generation 0",
		"faction_feedback_buffered 0",
		"faction_drift_shifts 0",
		"faction_drift_observations 1",
		// HELP/TYPE headers make it valid Prometheus exposition.
		"# TYPE faction_http_requests_total counter",
		"# TYPE faction_http_request_seconds histogram",
		"# TYPE faction_http_inflight_requests gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	// A route's series appear once it has served a request, not before.
	if strings.Contains(out, `route="/info"`) {
		t.Error("metrics exposition lists /info, which served no request")
	}
}

func TestDriftEndpointContract(t *testing.T) {
	_, ts, _ := obsFixture(t)

	// Empty detector: all-zero report.
	resp, err := http.Get(ts.URL + "/drift")
	if err != nil {
		t.Fatal(err)
	}
	var d driftResponse
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || d.Observations != 0 || d.Shifts != 0 {
		t.Fatalf("empty drift: %d %+v", resp.StatusCode, d)
	}

	// Predictions feed the detector; the observation count must follow.
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, ts.URL+"/predict", instancesRequest{Instances: [][]float64{{0.5, 0, 0}}})
		if resp.StatusCode != 200 {
			t.Fatalf("predict %d: %d %s", i, resp.StatusCode, body)
		}
	}
	resp, err = http.Get(ts.URL + "/drift")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if d.Observations != 3 {
		t.Fatalf("drift observations = %d, want 3", d.Observations)
	}
	if d.BaselineStd < 0 {
		t.Fatalf("negative baseline std %v", d.BaselineStd)
	}

	// Method contract: /drift is GET-only.
	resp, _ = postJSON(t, ts.URL+"/drift", struct{}{})
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /drift = %d, want 405", resp.StatusCode)
	}

	// The gauges mirror the JSON report.
	out := scrape(t, ts)
	for _, want := range []string{
		"faction_drift_observations 3",
		"faction_drift_baseline_mean ",
		`faction_http_requests_total{route="/drift",code="200"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

func TestFeedbackEndpointContract(t *testing.T) {
	_, ts, _ := obsFixture(t)

	// Valid feedback buffers and reports the running count.
	resp, body := postJSON(t, ts.URL+"/feedback", feedbackRequest{
		Instances: [][]float64{{0.1, 0.2, 0.3}, {0.9, -0.1, 0}},
		Labels:    []int{0, 1},
		Sensitive: []int{-1, 1},
	})
	if resp.StatusCode != 200 {
		t.Fatalf("feedback: %d %s", resp.StatusCode, body)
	}
	var fb feedbackResponse
	if err := json.Unmarshal(body, &fb); err != nil {
		t.Fatal(err)
	}
	if fb.Buffered != 2 {
		t.Fatalf("buffered = %d, want 2", fb.Buffered)
	}

	// Contract violations answer 400 without touching the buffer.
	for name, req := range map[string]feedbackRequest{
		"length mismatch": {Instances: [][]float64{{0, 0, 0}}, Labels: []int{0, 1}, Sensitive: []int{1}},
		"bad dimension":   {Instances: [][]float64{{0, 0}}, Labels: []int{0}, Sensitive: []int{1}},
		"label range":     {Instances: [][]float64{{0, 0, 0}}, Labels: []int{7}, Sensitive: []int{1}},
		"empty":           {},
	} {
		resp, body := postJSON(t, ts.URL+"/feedback", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", name, resp.StatusCode, body)
		}
	}

	// Method contract: /feedback is POST-only.
	resp, err := http.Get(ts.URL + "/feedback")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /feedback = %d, want 405", resp.StatusCode)
	}

	out := scrape(t, ts)
	for _, want := range []string{
		"faction_feedback_buffered 2",
		`faction_http_requests_total{route="/feedback",code="200"} 1`,
		`faction_http_requests_total{route="/feedback",code="400"} 4`,
		`faction_http_requests_total{route="/feedback",code="405"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

func TestPprofReachable(t *testing.T) {
	_, ts, _ := obsFixture(t)
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/profile?seconds=1"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s = %d, want 200", path, resp.StatusCode)
		}
	}
	// pprof traffic collapses to one route label — no cardinality leak.
	out := scrape(t, ts)
	if !strings.Contains(out, `route="/debug/pprof/"`) {
		t.Error("pprof requests not counted under the collapsed pprof route label")
	}
	if strings.Contains(out, `route="/debug/pprof/cmdline"`) {
		t.Error("pprof sub-pages must not mint their own route labels")
	}
}
