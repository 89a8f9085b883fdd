package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"faction/internal/nn"
	"faction/internal/obs"
)

// discardLogger drops all records; the middleware still exercises its
// structured logging path.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// testMetrics builds a serving-metrics set on a fresh registry, so assertions
// never see counts from other tests.
func testMetrics() *serverMetrics {
	return newServerMetrics(obs.NewRegistry())
}

// testPool returns a worker pool for a timeout middleware built outside a
// Server, stopped when the test ends.
func testPool(t *testing.T) *workerPool {
	p := &workerPool{max: 64}
	t.Cleanup(p.stop)
	return p
}

// resilientFixture builds a small online-enabled server (input dim 3, two
// classes) with the given resilience knobs and returns it plus its test
// server.
func resilientFixture(t *testing.T, patch func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	model := nn.NewClassifier(nn.Config{InputDim: 3, NumClasses: 2, Hidden: []int{8}, Seed: 7})
	cfg := Config{
		Model:   model,
		Online:  OnlineConfig{Enabled: true, Epochs: 2},
		Logger:  discardLogger(),
		Metrics: obs.NewRegistry(),
	}
	if patch != nil {
		patch(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// feedSamples posts n labeled dim-3 samples to /feedback.
func feedSamples(t *testing.T, ts *httptest.Server, n int) {
	t.Helper()
	fb := feedbackRequest{}
	for i := 0; i < n; i++ {
		fb.Instances = append(fb.Instances, []float64{0.1 * float64(i), 0.2, 0.3})
		fb.Labels = append(fb.Labels, i%2)
		fb.Sensitive = append(fb.Sensitive, 1-2*(i%2))
	}
	resp, body := postJSON(t, ts.URL+"/feedback", fb)
	if resp.StatusCode != 200 {
		t.Fatalf("feedback: %d %s", resp.StatusCode, body)
	}
}

// TestPanicRecovery registers a panicking route behind the same middleware
// stack and checks the process answers 500 — and keeps serving afterwards.
func TestPanicRecovery(t *testing.T) {
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	m := testMetrics()
	mux := http.NewServeMux()
	mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) {
		panic("injected handler panic")
	})
	mux.HandleFunc("/ok", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, "still alive")
	})
	h := chain(mux, requestID(logger), recoverer(logger, m.panics), timeout(testPool(t), 5*time.Second, logger, m.timeouts, m.cancels, m.panics))
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, want 500", resp.StatusCode)
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
		t.Fatalf("panic response not a JSON error: %q", body)
	}
	if e["requestId"] == "" {
		t.Fatal("error body missing requestId")
	}
	if !strings.Contains(logBuf.String(), "injected handler panic") {
		t.Fatal("panic not logged with its message")
	}
	if !strings.Contains(logBuf.String(), e["requestId"]) {
		t.Fatal("log line missing the request ID from the error body")
	}
	if m.panics.Value() != 1 {
		t.Fatalf("panics counter = %d, want 1", m.panics.Value())
	}

	// The server survived: the next request succeeds.
	resp2, err := http.Get(ts.URL + "/ok")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Fatalf("server did not survive the panic: %d", resp2.StatusCode)
	}
}

// TestPanicInRealHandler injects a panic into the actual server stack via
// the validation seam and checks /refit returns 500 while /predict survives.
func TestPanicInRealHandler(t *testing.T) {
	s, ts := resilientFixture(t, nil)
	s.validateCandidate = func(*nn.Classifier, nn.TrainStats) error {
		panic("validator exploded")
	}
	feedSamples(t, ts, 4)
	resp, _ := postJSON(t, ts.URL+"/refit", map[string]any{})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking refit: status %d, want 500", resp.StatusCode)
	}
	resp2, _ := postJSON(t, ts.URL+"/predict", instancesRequest{Instances: [][]float64{{0.1, 0.2, 0.3}}})
	if resp2.StatusCode != 200 {
		t.Fatalf("predict after refit panic: %d", resp2.StatusCode)
	}
}

func TestConcurrencyLimiterSheds(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, _ *http.Request) {
		started <- struct{}{}
		<-release
		fmt.Fprint(w, "done")
	})
	m := testMetrics()
	h := chain(mux, requestID(discardLogger()), recoverer(discardLogger(), m.panics), limitConcurrency(1, m.shed))
	ts := httptest.NewServer(h)
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(ts.URL + "/slow")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started // the single slot is now occupied

	resp, err := http.Get(ts.URL + "/slow")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After header")
	}
	if m.shed.Value() != 1 {
		t.Fatalf("shed counter = %d, want 1", m.shed.Value())
	}
	close(release)
	wg.Wait()
}

func TestRequestTimeout(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/hang", func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(10 * time.Second):
		case <-r.Context().Done(): // cooperative handlers stop early
		}
		fmt.Fprint(w, "too late")
	})
	m := testMetrics()
	h := chain(mux, requestID(discardLogger()), recoverer(discardLogger(), m.panics), timeout(testPool(t), 100*time.Millisecond, discardLogger(), m.timeouts, m.cancels, m.panics))
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/hang")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("timed-out request: status %d, want 503", resp.StatusCode)
	}
	if m.timeouts.Value() != 1 {
		t.Fatalf("timeouts counter = %d, want 1", m.timeouts.Value())
	}
}

// A client that disconnects mid-request must not be booked as a server
// timeout: the cancels counter moves, the timeouts counter (which feeds the
// error-rate SLO via 503s) does not, and the recorded status is 499, not 503.
func TestTimeoutDistinguishesClientCancel(t *testing.T) {
	m := testMetrics()
	entered := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/hang", func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-r.Context().Done()
	})
	// An outer status recorder stands in for the instrument layer: it sees
	// the code the timeout middleware books for the (gone) client.
	var wroteCode int
	served := make(chan struct{})
	inner := chain(mux, requestID(discardLogger()), recoverer(discardLogger(), m.panics),
		timeout(testPool(t), 10*time.Second, discardLogger(), m.timeouts, m.cancels, m.panics))
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusRecorder{ResponseWriter: w}
		inner.ServeHTTP(sw, r)
		wroteCode = sw.code
		close(served)
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/hang", nil)
	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errc <- err
	}()
	<-entered
	cancel() // the client walks away long before the 10s deadline
	if err := <-errc; err == nil {
		t.Fatal("cancelled request unexpectedly succeeded")
	}

	<-served // the middleware has booked the request
	if m.cancels.Value() == 0 {
		t.Fatal("cancels counter never moved")
	}
	if m.timeouts.Value() != 0 {
		t.Fatalf("client cancel booked as server timeout: timeouts = %d", m.timeouts.Value())
	}
	if wroteCode != statusClientClosedRequest {
		t.Fatalf("cancelled request booked status %d, want %d (499)", wroteCode, statusClientClosedRequest)
	}
}

// TestTimeoutLogsLatePanic panics a handler after its deadline already
// answered 503 and checks the panic is logged instead of silently dropped
// (it can no longer reach the recoverer on the serving goroutine).
func TestTimeoutLogsLatePanic(t *testing.T) {
	logBuf := newSyncBuffer()
	mux := http.NewServeMux()
	mux.HandleFunc("/late", func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
		panic("late panic after deadline")
	})
	m := testMetrics()
	h := chain(mux, requestID(discardLogger()), recoverer(discardLogger(), m.panics),
		timeout(testPool(t), 50*time.Millisecond, slog.New(slog.NewTextHandler(logBuf, nil)), m.timeouts, m.cancels, m.panics))
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/late")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("timed-out request: status %d, want 503", resp.StatusCode)
	}
	logBuf.waitFor("late panic after deadline")
}

// syncBuffer is a bytes.Buffer safe to read while another goroutine's logger
// writes it; waitFor blocks until a given text has been written.
type syncBuffer struct {
	mu    sync.Mutex
	wrote *sync.Cond // broadcast on every Write
	b     bytes.Buffer
}

func newSyncBuffer() *syncBuffer {
	s := &syncBuffer{}
	s.wrote = sync.NewCond(&s.mu)
	return s
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.wrote.Broadcast()
	return s.b.Write(p)
}

// waitFor blocks until the written text contains substr.
func (s *syncBuffer) waitFor(substr string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !strings.Contains(s.b.String(), substr) {
		s.wrote.Wait()
	}
}

func TestTimeoutPreservesFastResponses(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/fast", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("X-Custom", "kept")
		w.WriteHeader(http.StatusCreated)
		fmt.Fprint(w, "payload")
	})
	m := testMetrics()
	ts := httptest.NewServer(chain(mux, timeout(testPool(t), time.Second, discardLogger(), m.timeouts, m.cancels, m.panics)))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/fast")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || string(body) != "payload" || resp.Header.Get("X-Custom") != "kept" {
		t.Fatalf("buffered response mangled: %d %q %q", resp.StatusCode, body, resp.Header.Get("X-Custom"))
	}
}

func TestRequestIDEchoAndPropagation(t *testing.T) {
	_, ts := resilientFixture(t, nil)
	req, _ := http.NewRequest("GET", ts.URL+"/info", nil)
	req.Header.Set("X-Request-ID", "caller-supplied-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "caller-supplied-7" {
		t.Fatalf("X-Request-ID = %q, want the caller's ID echoed", got)
	}

	resp2, err := http.Get(ts.URL + "/info")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.Header.Get("X-Request-ID") == "" {
		t.Fatal("server did not assign a request ID")
	}
}

func TestBodyCapRejectsOversized(t *testing.T) {
	_, ts := resilientFixture(t, func(c *Config) { c.MaxBodyBytes = 256 })
	huge := instancesRequest{Instances: make([][]float64, 200)}
	for i := range huge.Instances {
		huge.Instances[i] = []float64{0.1, 0.2, 0.3}
	}
	resp, body := postJSON(t, ts.URL+"/predict", huge)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d (%s), want 413", resp.StatusCode, body)
	}
}

// TestProbesBypassLimiter saturates the concurrency limiter and checks the
// health and readiness probes still answer.
func TestProbesBypassLimiter(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s, ts := resilientFixture(t, func(c *Config) { c.MaxInflight = 1 })
	_ = s

	started := make(chan struct{}, 1)
	go func() {
		raw, _ := json.Marshal(instancesRequest{Instances: [][]float64{{0.1, 0.2, 0.3}}})
		req, _ := http.NewRequest("POST", ts.URL+"/predict", slowReader{bytes.NewReader(raw), started, release})
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started // the lone slot is held by the slow client

	for _, probe := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + probe)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s under saturation: status %d, want 200", probe, resp.StatusCode)
		}
	}
}

// slowReader feeds its payload only after release closes, keeping the
// request in-flight — a slow client injection.
type slowReader struct {
	r       io.Reader
	started chan<- struct{}
	release <-chan struct{}
}

func (s slowReader) Read(p []byte) (int, error) {
	select {
	case s.started <- struct{}{}:
	default:
	}
	<-s.release
	return s.r.Read(p)
}

func TestReadinessFlipsOnShutdown(t *testing.T) {
	s, ts := resilientFixture(t, nil)
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("readyz before drain: %d", resp.StatusCode)
	}
	s.SetReady(false)
	resp2, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", resp2.StatusCode)
	}
	if !strings.Contains(string(body), "draining") {
		t.Fatalf("readyz body = %s", body)
	}
	// Liveness is unaffected: the process is healthy, just not routable.
	resp3, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != 200 {
		t.Fatalf("healthz while draining: %d, want 200", resp3.StatusCode)
	}
}

func TestReadinessFlipsDuringLongRefit(t *testing.T) {
	s, ts := resilientFixture(t, func(c *Config) { c.RefitUnreadyAfter = time.Nanosecond })
	s.refitStart.Store(time.Now().Add(-time.Second).UnixNano())
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz mid-refit: %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body), "refitting") {
		t.Fatalf("readyz body = %s", body)
	}
	s.refitStart.Store(0)
}

// A worker whose handler outlived its deadline is never reused: its buffer
// holds the handler's late output. After a request whose handler writes only
// once its client has the 503, 100 requests on the same Server — ten waves of
// ten concurrent ones, so several workers serve them — answer exactly what a
// fresh Server answers, header for header and byte for byte.
func TestTimedOutWorkerIsNotReused(t *testing.T) {
	s, body8 := allocFixture(t, 8, true)
	fresh, _ := allocFixture(t, 8, true)
	_, body1 := allocFixture(t, 1, false)
	h, freshH := s.Handler(), fresh.Handler()

	release, wrote := make(chan struct{}), make(chan struct{})
	late := chain(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		<-release
		w.Header().Set("X-Late", "1")
		w.WriteHeader(http.StatusTeapot)
		io.WriteString(w, "late output")
		close(wrote)
	}), timeout(s.workers, time.Millisecond, discardLogger(), s.metrics.timeouts, s.metrics.cancels, s.metrics.panics))
	rec := httptest.NewRecorder()
	late.ServeHTTP(rec, httptest.NewRequest("GET", "/late", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("handler past its deadline: status %d, want 503", rec.Code)
	}
	close(release)
	<-wrote

	request := func(i int) *http.Request {
		var req *http.Request
		switch i % 5 {
		case 0:
			req = httptest.NewRequest("POST", "/predict", bytes.NewReader(body8))
		case 1:
			req = httptest.NewRequest("POST", "/predict", bytes.NewReader(body1))
		case 2:
			req = httptest.NewRequest("POST", "/score", bytes.NewReader(body8))
		case 3:
			req = httptest.NewRequest("GET", "/info", nil)
		default:
			req = httptest.NewRequest("POST", "/predict", strings.NewReader("{"))
		}
		req.Header.Set("X-Request-ID", fmt.Sprintf("pool-%d", i))
		return req
	}
	got := make([]*httptest.ResponseRecorder, 100)
	for wave := 0; wave < 10; wave++ {
		var wg sync.WaitGroup
		for i := wave * 10; i < wave*10+10; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = httptest.NewRecorder()
				h.ServeHTTP(got[i], request(i))
			}()
		}
		wg.Wait()
	}
	for i, g := range got {
		want := httptest.NewRecorder()
		freshH.ServeHTTP(want, request(i))
		if g.Code != want.Code || !reflect.DeepEqual(g.Header(), want.Header()) || !bytes.Equal(g.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("request %d after a timed-out worker: %d %v %q, a fresh server answers %d %v %q",
				i, g.Code, g.Header(), g.Body.Bytes(), want.Code, want.Header(), want.Body.Bytes())
		}
	}
}

// Server.Close stops every idle worker of the timeout middleware and returns
// once they have exited.
func TestCloseStopsIdleWorkers(t *testing.T) {
	s, _ := allocFixture(t, 1, false)
	const n = 4
	entered, release := make(chan struct{}), make(chan struct{})
	hold := chain(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		entered <- struct{}{}
		<-release
	}), timeout(s.workers, time.Hour, discardLogger(), s.metrics.timeouts, s.metrics.cancels, s.metrics.panics))
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hold.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/hold", nil))
		}()
	}
	for i := 0; i < n; i++ {
		<-entered // n handlers at once: n workers
	}
	close(release)
	wg.Wait()
	if idle, live := s.workers.counts(); idle != n || live != n {
		t.Fatalf("after %d concurrent requests: %d idle of %d live workers, want %d of %d", n, idle, live, n, n)
	}
	s.Close()
	if idle, live := s.workers.counts(); idle != 0 || live != 0 {
		t.Fatalf("after Close: %d idle of %d live workers, want none", idle, live)
	}
}

// A client X-Request-Id is echoed, and kept by the decision audit trail, only
// when it is at most 128 bytes of printable ASCII without spaces. A
// megabyte-long ID would be retained by every audit record of its request;
// it, and an ID carrying a control byte, a space or a non-ASCII byte, is
// replaced by a minted one.
func TestClientRequestIDValidation(t *testing.T) {
	s, body := allocFixture(t, 1, true)
	h := s.Handler()
	for _, tc := range []struct {
		name, id string
		echo     bool
	}{
		{"uuid", "123e4567-e89b-12d3-a456-426614174000", true},
		{"128 bytes", strings.Repeat("a", 128), true},
		{"129 bytes", strings.Repeat("a", 129), false},
		{"1 MiB", strings.Repeat("x", 1<<20), false},
		{"control byte", "abc\x01def", false},
		{"space", "abc def", false},
		{"non-ASCII", "id-\xc3\xa9", false},
	} {
		req := httptest.NewRequest("POST", "/predict", bytes.NewReader(body))
		req.Header.Set("X-Request-ID", tc.id)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.name, w.Code, w.Body.Bytes())
		}
		got := w.Header().Get("X-Request-ID")
		switch {
		case tc.echo && got != tc.id:
			t.Errorf("%s: X-Request-ID %q, want the client's ID echoed", tc.name, got)
		case !tc.echo && (got == tc.id || !strings.HasPrefix(got, reqPrefix+"-")):
			t.Errorf("%s: X-Request-ID of %d bytes, want a minted %s-<n>", tc.name, len(got), reqPrefix)
		}
		var audit struct {
			Decisions []decisionJSON `json:"decisions"`
		}
		getJSON(t, h, "/debug/decisions?n=1", &audit)
		if len(audit.Decisions) != 1 || audit.Decisions[0].RequestID != got {
			t.Errorf("%s: audit trail does not carry the answered ID %q", tc.name, got)
		}
	}
}
