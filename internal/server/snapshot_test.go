package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"

	"faction/internal/data"
	"faction/internal/gda"
	"faction/internal/nn"
)

const testSnapToken = "fleet-secret"

// snapshotFixture builds an online-enabled, density-serving server with the
// snapshot endpoints registered, trained on the NYSF stream so refits have
// somewhere to go.
func snapshotFixture(t *testing.T, token string) (*Server, *httptest.Server, *data.Stream) {
	t.Helper()
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
		SnapshotToken:     token,
		Online:            OnlineConfig{Enabled: true, Epochs: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	return s, ts, stream
}

// refitOnce drives one feedback + refit round so the server's generation
// advances past zero.
func refitOnce(t *testing.T, ts *httptest.Server, stream *data.Stream) {
	t.Helper()
	later := stream.Tasks[8].Pool
	fb := feedbackRequest{}
	for _, smp := range later.Samples[:60] {
		fb.Instances = append(fb.Instances, smp.X)
		fb.Labels = append(fb.Labels, smp.Y)
		fb.Sensitive = append(fb.Sensitive, smp.S)
	}
	if resp, body := postJSON(t, ts.URL+"/feedback", fb); resp.StatusCode != http.StatusOK {
		t.Fatalf("feedback: %d %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts.URL+"/refit", map[string]any{}); resp.StatusCode != http.StatusOK {
		t.Fatalf("refit: %d %s", resp.StatusCode, body)
	}
}

// fetchSnapshot GETs /snapshot with the token and returns the raw envelope
// plus the generation header.
func fetchSnapshot(t *testing.T, url, token string) ([]byte, string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, url+"/snapshot", nil)
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /snapshot: %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != SnapshotContentType {
		t.Fatalf("snapshot content type %q", ct)
	}
	return body, resp.Header.Get(SnapshotGenerationHeader)
}

func installSnapshot(t *testing.T, url, token string, envelope []byte) (*http.Response, []byte) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodPost, url+"/snapshot/install", bytes.NewReader(envelope))
	req.Header.Set("Authorization", "Bearer "+token)
	req.Header.Set("Content-Type", SnapshotContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp, body
}

// The donor/laggard round trip: a refitted server's snapshot installs onto a
// peer at generation 0, the peer's generation jumps to the donor's, and both
// servers answer an identical /predict identically afterwards — the installed
// model is bit-for-bit the donor's.
func TestSnapshotExportInstallRoundTrip(t *testing.T) {
	_, donorTS, stream := snapshotFixture(t, testSnapToken)
	lag, lagTS, _ := snapshotFixture(t, testSnapToken)
	refitOnce(t, donorTS, stream)

	envelope, genHeader := fetchSnapshot(t, donorTS.URL, testSnapToken)
	if genHeader != "1" {
		t.Fatalf("generation header %q, want 1", genHeader)
	}
	resp, body := installSnapshot(t, lagTS.URL, testSnapToken, envelope)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("install: %d %s", resp.StatusCode, body)
	}
	var ir installResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Generation != 1 || !ir.HasDensity {
		t.Fatalf("install response %+v", ir)
	}
	if got := lag.Generation(); got != 1 {
		t.Fatalf("laggard generation %d after install, want 1", got)
	}

	probe := instancesRequest{Instances: [][]float64{stream.Tasks[8].Pool.Samples[0].X}}
	_, donorAns := postJSON(t, donorTS.URL+"/predict", probe)
	_, lagAns := postJSON(t, lagTS.URL+"/predict", probe)
	if !bytes.Equal(donorAns, lagAns) {
		t.Fatalf("post-install predictions diverge:\n donor: %s\n lag:   %s", donorAns, lagAns)
	}

	// Replaying the same snapshot is a stale push now: 409, generation holds.
	resp, body = installSnapshot(t, lagTS.URL, testSnapToken, envelope)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale install: %d %s, want 409", resp.StatusCode, body)
	}
	if got := lag.Generation(); got != 1 {
		t.Fatalf("laggard generation %d after stale install, want 1", got)
	}
}

// An f32 donor's snapshot round-trips to this release: the envelope an
// earlier release's float32 replica exported installs.
// testdata/snapshot_f32.env (generation 1, written after one refit of a
// snapshotFixture donor scoring at float32) carries the density at f32 and a
// DensityPrecision field this release no longer has, which gob skips. The
// density loads widened to float64, the replica serves /score, and its
// /predict answer matches the exporter's recorded one
// (testdata/snapshot_f32_predict.json): classes and probabilities exactly,
// since the classifier is float64 on both sides, and log-densities within
// the f32 path's tolerance.
func TestSnapshotF32RoundTrip(t *testing.T) {
	lag, lagTS, stream := snapshotFixture(t, testSnapToken)
	envelope, err := os.ReadFile("testdata/snapshot_f32.env")
	if err != nil {
		t.Fatal(err)
	}
	resp, body := installSnapshot(t, lagTS.URL, testSnapToken, envelope)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("legacy f32 install: %d %s", resp.StatusCode, body)
	}
	var ir installResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Generation != 1 || !ir.HasDensity || lag.Generation() != 1 {
		t.Fatalf("install response %+v, generation %d", ir, lag.Generation())
	}

	pool := stream.Tasks[8].Pool.Samples
	probe := instancesRequest{Instances: [][]float64{pool[0].X, pool[1].X, pool[2].X}}
	if resp, body := postJSON(t, lagTS.URL+"/score", probe); resp.StatusCode != http.StatusOK {
		t.Fatalf("/score after legacy install: %d %s", resp.StatusCode, body)
	}
	var got, want predictResponse
	if resp, body := postJSON(t, lagTS.URL+"/predict", probe); resp.StatusCode != http.StatusOK {
		t.Fatalf("/predict after legacy install: %d %s", resp.StatusCode, body)
	} else if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	recorded, err := os.ReadFile("testdata/snapshot_f32_predict.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(recorded, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Classes, want.Classes) || !reflect.DeepEqual(got.Probs, want.Probs) {
		t.Fatalf("classes/probs %v %v, exporter answered %v %v", got.Classes, got.Probs, want.Classes, want.Probs)
	}
	if len(got.LogDensities) != len(want.LogDensities) {
		t.Fatalf("%d log-densities, exporter answered %d", len(got.LogDensities), len(want.LogDensities))
	}
	for i, v := range want.LogDensities {
		if rel := math.Abs(got.LogDensities[i]-v) / (1 + math.Abs(v)); rel > 1e-3 {
			t.Fatalf("log-density %d: %v, exporter answered %v (rel %g)", i, got.LogDensities[i], v, rel)
		}
	}
}

// Token gating: without the right bearer token both endpoints answer 401 and
// never leak whether the token was absent or wrong; without any configured
// token the routes do not exist at all.
func TestSnapshotAuth(t *testing.T) {
	_, ts, _ := snapshotFixture(t, testSnapToken)
	for _, auth := range []string{"", "Bearer wrong", "Bearer " + testSnapToken + "x"} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/snapshot", nil)
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("auth %q: %d, want 401", auth, resp.StatusCode)
		}
	}
	resp, _ := installSnapshot(t, ts.URL, "wrong", []byte("x"))
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("install with wrong token: %d, want 401", resp.StatusCode)
	}

	_, bare, _ := snapshotFixture(t, "")
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/snapshot"},
		{http.MethodPost, "/snapshot/install"},
	} {
		req, _ := http.NewRequest(probe.method, bare.URL+probe.path, bytes.NewReader(nil))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s without token: %d, want 404", probe.method, probe.path, resp.StatusCode)
		}
	}
}

// A corrupted envelope (bit flip in the payload) must be refused by the CRC
// check with 400, and the serving model must be untouched.
func TestSnapshotInstallRejectsCorruptEnvelope(t *testing.T) {
	_, donorTS, stream := snapshotFixture(t, testSnapToken)
	lag, lagTS, _ := snapshotFixture(t, testSnapToken)
	refitOnce(t, donorTS, stream)

	envelope, _ := fetchSnapshot(t, donorTS.URL, testSnapToken)
	corrupt := append([]byte(nil), envelope...)
	corrupt[len(corrupt)/2] ^= 0x40
	resp, body := installSnapshot(t, lagTS.URL, testSnapToken, corrupt)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt install: %d %s, want 400", resp.StatusCode, body)
	}
	if got := lag.Generation(); got != 0 {
		t.Fatalf("laggard generation %d after corrupt install, want 0", got)
	}
}

// A snapshot whose model shape does not match the replica is refused with 422
// before any state changes — the router must never be able to swap a
// wrong-dimension model into a serving process.
func TestSnapshotInstallRejectsShapeMismatch(t *testing.T) {
	lag, lagTS, _ := snapshotFixture(t, testSnapToken)

	other := nn.NewClassifier(nn.Config{InputDim: 3, NumClasses: 2, Hidden: []int{4}, Seed: 1})
	donor, err := New(Config{Model: other, SnapshotToken: testSnapToken, Online: OnlineConfig{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(donor.Close)
	donorTS := httptest.NewServer(donor.Handler())
	t.Cleanup(donorTS.Close)
	// Hand-advance the donor's generation so the install clears the
	// strictly-newer gate and fails on shape, not staleness.
	donor.generation.Store(5)

	envelope, _ := fetchSnapshot(t, donorTS.URL, testSnapToken)
	resp, body := installSnapshot(t, lagTS.URL, testSnapToken, envelope)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("shape-mismatch install: %d %s, want 422", resp.StatusCode, body)
	}
	if got := lag.Generation(); got != 0 {
		t.Fatalf("laggard generation %d after rejected install, want 0", got)
	}
}

// A model that does not fit the density the replica keeps serving is refused
// with 422 before any state changes. The donor matches the replica's input
// and class counts but extracts 8-wide features and exports no density, so
// the replica's live density (fitted on 16-wide features) would stay — and
// fail every /predict after the swap.
func TestSnapshotInstallRejectsModelThatDoesNotFitLiveDensity(t *testing.T) {
	lag, lagTS, stream := snapshotFixture(t, testSnapToken)

	other := nn.NewClassifier(nn.Config{InputDim: stream.Dim, NumClasses: 2, Hidden: []int{8}, Seed: 1})
	donor, err := New(Config{Model: other, SnapshotToken: testSnapToken, Online: OnlineConfig{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(donor.Close)
	donorTS := httptest.NewServer(donor.Handler())
	t.Cleanup(donorTS.Close)
	donor.generation.Store(5) // clear the strictly-newer gate

	envelope, _ := fetchSnapshot(t, donorTS.URL, testSnapToken)
	resp, body := installSnapshot(t, lagTS.URL, testSnapToken, envelope)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("install of a model that does not fit the live density: %d %s, want 422", resp.StatusCode, body)
	}
	if got := lag.Generation(); got != 0 {
		t.Fatalf("laggard generation %d after rejected install, want 0", got)
	}
	probe := instancesRequest{Instances: [][]float64{stream.Tasks[0].Pool.Samples[0].X}}
	if resp, body := postJSON(t, lagTS.URL+"/predict", probe); resp.StatusCode != http.StatusOK {
		t.Fatalf("predict after rejected install: %d %s", resp.StatusCode, body)
	}
}

// A density snapshot whose class count does not match the model is refused
// with 422 before any state changes. Installed, a Classes of 1<<40 would let
// /predict keep answering while the first /score sized its conditional
// log-density buffer from it and ran the process out of memory, so this test
// never calls /score.
func TestSnapshotInstallRejectsDensityClassMismatch(t *testing.T) {
	donor, donorTS, stream := snapshotFixture(t, testSnapToken)
	lag, lagTS, _ := snapshotFixture(t, testSnapToken)
	donor.mu.Lock()
	donor.cfg.Density.Classes = 1 << 40 // exported in the density snapshot
	donor.mu.Unlock()
	donor.generation.Store(5) // clear the strictly-newer gate

	envelope, _ := fetchSnapshot(t, donorTS.URL, testSnapToken)
	resp, body := installSnapshot(t, lagTS.URL, testSnapToken, envelope)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("install of a 1<<40-class density: %d %s, want 422", resp.StatusCode, body)
	}
	if got := lag.Generation(); got != 0 {
		t.Fatalf("laggard generation %d after rejected install, want 0", got)
	}
	probe := instancesRequest{Instances: [][]float64{stream.Tasks[0].Pool.Samples[0].X}}
	if resp, body := postJSON(t, lagTS.URL+"/predict", probe); resp.StatusCode != http.StatusOK {
		t.Fatalf("predict after rejected install: %d %s", resp.StatusCode, body)
	}
}

// A density installed without training log-densities carries no OOD
// calibration, so the replica must drop the previous density's threshold and
// omit the ood flags (the Config.TrainLogDensities contract) instead of
// judging the new density against the old one's quantile.
func TestSnapshotInstallWithoutTrainDensitiesDropsOOD(t *testing.T) {
	donor, donorTS, stream := snapshotFixture(t, testSnapToken)
	_, lagTS, _ := snapshotFixture(t, testSnapToken)
	refitOnce(t, donorTS, stream)
	donor.mu.Lock()
	donor.cfg.Density.TrainLogDensities = nil // exported snapshot carries none
	donor.mu.Unlock()

	probe := instancesRequest{Instances: [][]float64{stream.Tasks[0].Pool.Samples[0].X}}
	predictOOD := func() []bool {
		t.Helper()
		resp, body := postJSON(t, lagTS.URL+"/predict", probe)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict: %d %s", resp.StatusCode, body)
		}
		var pr predictResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatal(err)
		}
		if len(pr.LogDensities) != 1 {
			t.Fatalf("%d log densities, want 1", len(pr.LogDensities))
		}
		return pr.OOD
	}
	if got := predictOOD(); len(got) != 1 {
		t.Fatalf("before install: ood flags %v, want one per row", got)
	}
	envelope, _ := fetchSnapshot(t, donorTS.URL, testSnapToken)
	if resp, body := installSnapshot(t, lagTS.URL, testSnapToken, envelope); resp.StatusCode != http.StatusOK {
		t.Fatalf("install: %d %s", resp.StatusCode, body)
	}
	if got := predictOOD(); got != nil {
		t.Fatalf("after installing an uncalibrated density: ood flags %v, want none", got)
	}
}
