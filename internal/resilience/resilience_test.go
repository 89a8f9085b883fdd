package resilience

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

func TestRetrySucceedsAfterFailures(t *testing.T) {
	calls := 0
	err := Retry(context.Background(), RetryPolicy{Attempts: 5, BaseDelay: time.Millisecond}, func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

func TestRetryGivesUp(t *testing.T) {
	sentinel := errors.New("permanent")
	calls := 0
	err := Retry(context.Background(), RetryPolicy{Attempts: 3, BaseDelay: time.Millisecond}, func() error {
		calls++
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

func TestRetryHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := Retry(ctx, RetryPolicy{Attempts: 100, BaseDelay: time.Hour}, func() error {
		calls++
		cancel() // cancel while backing off after the first failure
		return errors.New("transient")
	})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (no retry after cancel)", calls)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.gob")
	payload := []byte("the model bytes")
	if err := SaveSnapshot(path, 0, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	var got []byte
	if err := LoadSnapshot(path, func(r io.Reader) error {
		var err error
		got, err = io.ReadAll(r)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload = %q, want %q", got, payload)
	}
}

func TestSnapshotDetectsTruncation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := SaveSnapshot(path, 0, func(w io.Writer) error {
		_, err := w.Write([]byte("a reasonably long payload that will be cut"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{len(raw) - 5, len(snapshotMagic) + 6, len(snapshotMagic)} {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		err := LoadSnapshot(path, func(io.Reader) error {
			t.Fatalf("cut %d: load called on a truncated snapshot", cut)
			return nil
		})
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut %d: err = %v, want ErrCorrupt", cut, err)
		}
	}
}

func TestSnapshotDetectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := SaveSnapshot(path, 0, func(w io.Writer) error {
		_, err := w.Write([]byte("payload payload payload"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF // flip a payload bit
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	err = LoadSnapshot(path, func(io.Reader) error {
		t.Fatal("load called on a corrupt snapshot")
		return nil
	})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestSnapshotLegacyPassThrough(t *testing.T) {
	path := filepath.Join(t.TempDir(), "legacy.gob")
	if err := os.WriteFile(path, []byte("raw gob without envelope"), 0o644); err != nil {
		t.Fatal(err)
	}
	var got []byte
	if err := LoadSnapshot(path, func(r io.Reader) error {
		var err error
		got, err = io.ReadAll(r)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if string(got) != "raw gob without envelope" {
		t.Fatalf("legacy payload = %q", got)
	}
}

func TestSnapshotRotation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.gob")
	write := func(s string) {
		t.Helper()
		if err := SaveSnapshot(path, 2, func(w io.Writer) error {
			_, err := io.WriteString(w, s)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	read := func(p string) string {
		t.Helper()
		var got []byte
		if err := LoadSnapshot(p, func(r io.Reader) error {
			var err error
			got, err = io.ReadAll(r)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return string(got)
	}
	write("gen1")
	write("gen2")
	write("gen3")
	write("gen4")
	if got := read(path); got != "gen4" {
		t.Fatalf("live = %q", got)
	}
	if got := read(path + ".1"); got != "gen3" {
		t.Fatalf(".1 = %q", got)
	}
	if got := read(path + ".2"); got != "gen2" {
		t.Fatalf(".2 = %q", got)
	}
	if _, err := os.Stat(path + ".3"); !os.IsNotExist(err) {
		t.Fatal("keep=2 must not leave a .3 checkpoint")
	}
}

// TestSaveSnapshotFailingWriter injects a serializer failure and checks the
// previous snapshot survives untouched.
func TestSaveSnapshotFailingWriter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := SaveSnapshot(path, 0, func(w io.Writer) error {
		_, err := io.WriteString(w, "good")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk on fire")
	if err := SaveSnapshot(path, 2, func(w io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected failure", err)
	}
	var got []byte
	if err := LoadSnapshot(path, func(r io.Reader) error {
		var err error
		got, err = io.ReadAll(r)
		return err
	}); err != nil || string(got) != "good" {
		t.Fatalf("previous snapshot damaged: %q, %v", got, err)
	}
}

// TestRotateKeepsLiveSnapshot pins the rotation invariant SaveSnapshot's
// crash-safety rests on: rotating must leave the live snapshot in place (it
// is hard-linked into the chain, not renamed away), so a crash or failed
// publish between rotation and rename can never lose it. The pre-fix
// rename-based rotation left path missing here.
func TestRotateKeepsLiveSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := os.WriteFile(path, []byte("live"), 0o644); err != nil {
		t.Fatal(err)
	}
	rotate(path, 2)
	for _, p := range []string{path, path + ".1"} {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("%s gone after rotation: %v", p, err)
		}
		if string(raw) != "live" {
			t.Fatalf("%s = %q, want the live snapshot", p, raw)
		}
	}
}

// TestSaveSnapshotRetryPreservesCheckpoints re-invokes a persistently
// failing SaveSnapshot through Retry — the exact checkpointLoop pattern —
// and checks no attempt disturbs the last good snapshot or its fallback
// chain. (The pre-fix rotate-before-write ordering shifted the good
// snapshot down one slot per attempt until the keep cap deleted it.)
func TestSaveSnapshotRetryPreservesCheckpoints(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.gob")
	for _, gen := range []string{"gen1", "gen2"} {
		gen := gen
		if err := SaveSnapshot(path, 2, func(w io.Writer) error {
			_, err := io.WriteString(w, gen)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("disk full")
	err := Retry(context.Background(), RetryPolicy{Attempts: 3, BaseDelay: time.Millisecond}, func() error {
		return SaveSnapshot(path, 2, func(io.Writer) error { return boom })
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the injected failure after exhausted retries", err)
	}
	read := func(p string) string {
		t.Helper()
		var got []byte
		if err := LoadSnapshot(p, func(r io.Reader) error {
			var err error
			got, err = io.ReadAll(r)
			return err
		}); err != nil {
			t.Fatalf("%s unloadable after failed retries: %v", p, err)
		}
		return string(got)
	}
	if got := read(path); got != "gen2" {
		t.Fatalf("live snapshot = %q, want gen2", got)
	}
	if got := read(path + ".1"); got != "gen1" {
		t.Fatalf(".1 = %q, want gen1", got)
	}
}

// TestWriteFileAtomicNoPartials checks a mid-write failure leaves neither a
// partial target nor temp litter.
func TestWriteFileAtomicNoPartials(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	boom := errors.New("short write")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "partial bytes that must not be published")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("partial write published")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("temp litter left behind: %v", entries)
	}
}

// serveFixture starts Serve on a loopback listener with the given handler
// and returns the base URL, the Serve error channel, and a channel closed
// when the server's Shutdown begins.
func serveFixture(t *testing.T, ctx context.Context, handler http.Handler, drain time.Duration, onDrain func()) (string, chan error, chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 2 * time.Second}
	shutdown := make(chan struct{})
	srv.RegisterOnShutdown(func() { close(shutdown) })
	done := make(chan error, 1)
	go func() { done <- Serve(ctx, srv, ln, drain, onDrain) }()
	return "http://" + ln.Addr().String(), done, shutdown
}

// A request that reached its handler before shutdown began completes
// during the drain.
func TestServeDrainsInFlightRequests(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	entered, release := make(chan struct{}), make(chan struct{})
	var drained bool
	url, done, shutdown := serveFixture(t, ctx, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		fmt.Fprint(w, "slow but done")
	}), 5*time.Second, func() { drained = true })

	respc := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Get(url)
		if err != nil {
			respc <- nil
			return
		}
		respc <- resp
	}()
	<-entered // the request is in flight
	cancel()  // begin shutdown under load
	select {
	case <-shutdown: // the listener is closing and Shutdown waits on the request
	case err := <-done:
		t.Fatalf("Serve returned %v without a graceful shutdown", err)
	}
	close(release) // let the in-flight request finish

	resp := <-respc
	if resp == nil || resp.StatusCode != 200 {
		t.Fatalf("in-flight request dropped during drain: %v", resp)
	}
	resp.Body.Close()
	if err := <-done; err != nil {
		t.Fatalf("Serve = %v, want clean drain", err)
	}
	if !drained {
		t.Fatal("onDrain hook not called")
	}
}

// A handler that never returns cannot hold Serve past its drain timeout:
// Serve force-closes the connection and reports the incomplete drain.
func TestServeForceClosesStuckClients(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	entered, stuck := make(chan struct{}), make(chan struct{})
	url, done, _ := serveFixture(t, ctx, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-stuck // never released: simulates a wedged handler
	}), 150*time.Millisecond, nil)
	defer close(stuck)

	go func() { http.Get(url) }() //nolint:errcheck // the request is meant to die
	<-entered
	cancel()
	if err := <-done; err == nil {
		t.Fatal("expected a drain-incomplete error for the stuck request")
	}
}

// TestServeSIGTERM sends a real SIGTERM to the test process and checks the
// signal-driven lifecycle drains and exits cleanly — the in-process analog
// of `kill <pid>` against faction-serve. The handler answers only once the
// signal has arrived, so the request is in flight when it does.
func TestServeSIGTERM(t *testing.T) {
	ctx, stop := contextWithSigterm(t)
	defer stop()
	entered := make(chan struct{})
	url, done, _ := serveFixture(t, ctx, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-ctx.Done()
		fmt.Fprint(w, "ok")
	}), 5*time.Second, nil)

	respc := make(chan *http.Response, 1)
	go func() {
		resp, _ := http.Get(url)
		respc <- resp
	}()
	<-entered
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	resp := <-respc
	if resp == nil || resp.StatusCode != 200 {
		t.Fatalf("request dropped on SIGTERM: %v", resp)
	}
	resp.Body.Close()
	if err := <-done; err != nil {
		t.Fatalf("Serve after SIGTERM = %v", err)
	}
}
