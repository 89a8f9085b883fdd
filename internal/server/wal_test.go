package server

// Integration of the feedback write-ahead log with the serving layer:
// append-before-ack on /feedback, boot replay into the buffer, the
// "replaying" readiness state, refit consumption advancing the durable
// watermark, and the async refit consumer.

import (
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"

	"faction/internal/nn"
	"faction/internal/obs"
	"faction/internal/wal"
)

// walFixture is resilientFixture plus a WAL in a temp dir.
func walFixture(t *testing.T, patch func(*Config)) (*Server, *httptest.Server, *wal.WAL) {
	t.Helper()
	w, err := wal.Open(t.TempDir(), wal.Options{Fsync: wal.FsyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	s, ts := resilientFixture(t, func(cfg *Config) {
		cfg.WAL = w
		if patch != nil {
			patch(cfg)
		}
	})
	return s, ts, w
}

// TestFeedbackAppendsToWALBeforeAck: each accepted /feedback batch is in the
// log, with its LSN in the response, by the time the client sees 200.
func TestFeedbackAppendsToWALBeforeAck(t *testing.T) {
	_, ts, w := walFixture(t, nil)
	for i := 1; i <= 3; i++ {
		fb := feedbackRequest{
			Instances: [][]float64{{0.1 * float64(i), 0.2, 0.3}},
			Labels:    []int{i % 2},
			Sensitive: []int{1 - 2*(i%2)},
		}
		resp, body := postJSON(t, ts.URL+"/feedback", fb)
		if resp.StatusCode != 200 {
			t.Fatalf("feedback %d: %d %s", i, resp.StatusCode, body)
		}
		var fr feedbackResponse
		if err := json.Unmarshal(body, &fr); err != nil {
			t.Fatal(err)
		}
		if fr.LSN != uint64(i) {
			t.Fatalf("feedback %d acknowledged LSN %d", i, fr.LSN)
		}
		if acked := w.AckedLSN(); acked < fr.LSN {
			t.Fatalf("response LSN %d not yet durable (acked %d)", fr.LSN, acked)
		}
	}
	// The log holds decodable feedback records matching what was posted.
	n := 0
	err := w.Replay(0, func(lsn uint64, payload []byte) error {
		fb, err := wal.DecodeFeedback(payload)
		if err != nil {
			return err
		}
		if len(fb.X) != 1 || len(fb.X[0]) != 3 {
			t.Fatalf("record %d shape: %d×%d", lsn, len(fb.X), len(fb.X[0]))
		}
		n++
		return nil
	})
	if err != nil || n != 3 {
		t.Fatalf("replayed %d records, err %v", n, err)
	}
}

// TestFeedbackRejectedWhenWALFails: a dead log means 503 and nothing
// buffered — the client never holds an ack for an undurable record.
func TestFeedbackRejectedWhenWALFails(t *testing.T) {
	s, ts, w := walFixture(t, nil)
	w.Close() // simulate the log dying (disk gone)
	fb := feedbackRequest{
		Instances: [][]float64{{0.1, 0.2, 0.3}},
		Labels:    []int{1},
		Sensitive: []int{1},
	}
	resp, body := postJSON(t, ts.URL+"/feedback", fb)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("feedback with dead WAL: %d %s, want 503", resp.StatusCode, body)
	}
	s.mu.RLock()
	buffered := s.buffer.Len()
	s.mu.RUnlock()
	if buffered != 0 {
		t.Fatalf("%d samples buffered despite WAL failure", buffered)
	}
}

// TestBootReplayRebuildsBuffer: a new server over the same log recovers the
// buffer, honoring the snapshot watermark.
func TestBootReplayRebuildsBuffer(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := resilientFixture(t, func(cfg *Config) { cfg.WAL = w })
	feedSamples(t, ts, 4) // one batch of 4 → LSN 1
	feedSamples(t, ts, 2) // LSN 2
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": fresh WAL handle, fresh server, replay from LSN 0.
	w2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	s2, _ := resilientFixture(t, func(cfg *Config) { cfg.WAL = w2 })
	applied, err := s2.ReplayFeedback(0)
	if err != nil || applied != 2 {
		t.Fatalf("replay applied %d batches, err %v; want 2", applied, err)
	}
	s2.mu.RLock()
	buffered := s2.buffer.Len()
	s2.mu.RUnlock()
	if buffered != 6 {
		t.Fatalf("buffer holds %d samples after replay, want 6", buffered)
	}

	// A snapshot covering LSN 1 replays only the tail.
	s3, _ := resilientFixture(t, func(cfg *Config) { cfg.WAL = w2 })
	applied, err = s3.ReplayFeedback(1)
	if err != nil || applied != 1 {
		t.Fatalf("tail replay applied %d, err %v; want 1", applied, err)
	}
	s3.mu.RLock()
	buffered = s3.buffer.Len()
	s3.mu.RUnlock()
	if buffered != 2 {
		t.Fatalf("buffer holds %d samples after tail replay, want 2", buffered)
	}
	if s3.ConsumedLSN() != 1 {
		t.Fatalf("consumed LSN after boot = %d, want the snapshot's 1", s3.ConsumedLSN())
	}
}

// TestReadyzReplayingState: /readyz answers 503 with a "replaying" body
// while boot replay runs (satellite: the replaying readiness state).
func TestReadyzReplayingState(t *testing.T) {
	s, ts, _ := walFixture(t, nil)
	s.SetReplaying(true)
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while replaying: %d, want 503", resp.StatusCode)
	}
	if body["status"] != "replaying" || body["reason"] == "" {
		t.Fatalf("readyz body = %v, want status=replaying with a reason", body)
	}
	s.SetReplaying(false)
	resp2, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Fatalf("readyz after replay: %d, want 200", resp2.StatusCode)
	}
}

// TestRefitAdvancesConsumedLSN: a successful refit moves the durable
// watermark to the buffer LSN it trained from, and the replay-lag gauge
// drops to zero.
func TestRefitAdvancesConsumedLSN(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts, _ := walFixture(t, func(cfg *Config) { cfg.Metrics = reg })
	feedSamples(t, ts, 8) // LSN 1
	feedSamples(t, ts, 8) // LSN 2
	if got := s.ConsumedLSN(); got != 0 {
		t.Fatalf("consumed LSN before refit = %d", got)
	}
	resp, body := postJSON(t, ts.URL+"/refit", map[string]any{})
	if resp.StatusCode != 200 {
		t.Fatalf("refit: %d %s", resp.StatusCode, body)
	}
	if got := s.ConsumedLSN(); got != 2 {
		t.Fatalf("consumed LSN after refit = %d, want 2", got)
	}
}

// TestAsyncRefit: /refit answers 202 immediately and the consumer goroutine
// performs the generation swap off the request path.
func TestAsyncRefit(t *testing.T) {
	logBuf := newSyncBuffer()
	s, ts, _ := walFixture(t, func(cfg *Config) {
		cfg.Online.AsyncRefit = true
		cfg.Logger = slog.New(slog.NewTextHandler(logBuf, nil))
	})
	feedSamples(t, ts, 8)
	resp, body := postJSON(t, ts.URL+"/refit", map[string]any{})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async refit: %d %s, want 202", resp.StatusCode, body)
	}
	logBuf.waitFor("async refit accepted") // logged after the swap
	if s.Generation() == 0 {
		t.Fatal("async refit never advanced the generation")
	}
	if got := s.ConsumedLSN(); got != 1 {
		t.Fatalf("consumed LSN after async refit = %d, want 1", got)
	}
	// Close stops the consumer cleanly (and is idempotent).
	s.Close()
	s.Close()
}

// TestAsyncRefitValidationFailureSurfaces: a rejected candidate in async
// mode is recorded on /info exactly like the synchronous path.
func TestAsyncRefitValidationFailureSurfaces(t *testing.T) {
	logBuf := newSyncBuffer()
	s, ts, _ := walFixture(t, func(cfg *Config) {
		cfg.Online.AsyncRefit = true
		cfg.Logger = slog.New(slog.NewTextHandler(logBuf, nil))
	})
	s.validateCandidate = func(*nn.Classifier, nn.TrainStats) error {
		return errors.New("injected validation failure")
	}
	feedSamples(t, ts, 8)
	resp, _ := postJSON(t, ts.URL+"/refit", map[string]any{})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async refit: %d, want 202", resp.StatusCode)
	}
	logBuf.waitFor("refit rejected") // logged after the failure is recorded
	if info := getInfo(t, ts); info.FailedRefits < 1 || info.Generation != 0 {
		t.Fatalf("async refit failure not surfaced on /info: %+v", info)
	}
	s.Close()
}
