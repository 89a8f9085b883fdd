package resilience

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestJitterBounds pins the backoff-jitter contract: the slept duration is
// uniform over [delay·(1−J), delay·(1+J)], capped at MaxDelay, with the rnd
// source injected so both extremes are checked exactly.
func TestJitterBounds(t *testing.T) {
	defer func(orig func() float64) { jitterRand = orig }(jitterRand)

	const delay = 100 * time.Millisecond
	const max = 2 * time.Second
	cases := []struct {
		name string
		rnd  float64
		j    float64
		want time.Duration
	}{
		{"lower-bound", 0, 0.2, 80 * time.Millisecond},
		{"upper-bound", 0.999999999, 0.2, 120 * time.Millisecond},
		{"midpoint", 0.5, 0.2, 100 * time.Millisecond},
		{"disabled", 0.999999999, 0, delay},
		{"full-spread-low", 0, 1.0, 1}, // lower edge of [0, 2·delay] clamps to 1ns
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			jitterRand = func() float64 { return tc.rnd }
			got := jittered(delay, max, tc.j)
			// The uniform sample maps rnd=1⁻ to just under the upper edge;
			// allow 1µs of float slack on the pinned extremes.
			if diff := got - tc.want; diff < -time.Microsecond || diff > time.Microsecond {
				t.Fatalf("jittered(%v, j=%v, rnd=%v) = %v, want %v", delay, tc.j, tc.rnd, got, tc.want)
			}
		})
	}

	// The cap applies after jittering: an upper-edge sample never exceeds
	// MaxDelay.
	jitterRand = func() float64 { return 0.999999999 }
	if got := jittered(1900*time.Millisecond, max, 0.2); got != max {
		t.Fatalf("jittered above cap = %v, want %v", got, max)
	}

	// Defaulting: zero Jitter becomes 0.2, negative disables.
	if p := (RetryPolicy{}).withDefaults(); p.Jitter != 0.2 {
		t.Fatalf("default jitter = %v, want 0.2", p.Jitter)
	}
	if p := (RetryPolicy{Jitter: -1}).withDefaults(); p.Jitter != 0 {
		t.Fatalf("negative jitter = %v, want 0 (disabled)", p.Jitter)
	}
}

// TestRetrySleepsWithinJitterBounds observes the backoff a real Retry waits
// for, through the backoffTimer seam, and checks it lands inside the jitter
// window.
func TestRetrySleepsWithinJitterBounds(t *testing.T) {
	defer func(orig func(time.Duration) *time.Timer) { backoffTimer = orig }(backoffTimer)
	var slept []time.Duration
	backoffTimer = func(d time.Duration) *time.Timer {
		slept = append(slept, d)
		return time.NewTimer(0)
	}
	const base = 30 * time.Millisecond
	p := RetryPolicy{Attempts: 2, BaseDelay: base, MaxDelay: time.Second, Jitter: 0.2}
	if err := Retry(t.Context(), p, func() error { return errors.New("nope") }); err == nil {
		t.Fatal("want failure")
	}
	if len(slept) != 1 {
		t.Fatalf("Retry backed off %d times over 2 attempts, want 1", len(slept))
	}
	lo, hi := time.Duration(float64(base)*0.8), time.Duration(float64(base)*1.2)
	if slept[0] < lo || slept[0] > hi {
		t.Fatalf("backoff slept %v, outside the jitter window [%v, %v]", slept[0], lo, hi)
	}
}

func TestSnapshotLSNRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.snap")
	payload := []byte("model bytes")
	if err := SaveSnapshotLSN(path, 0, 12345, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	lsn, err := SnapshotLSN(path)
	if err != nil || lsn != 12345 {
		t.Fatalf("SnapshotLSN = %d, %v; want 12345", lsn, err)
	}
	// LoadSnapshot understands the v2 envelope.
	var got bytes.Buffer
	if err := LoadSnapshot(path, func(r io.Reader) error {
		_, err := io.Copy(&got, r)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatalf("payload %q, want %q", got.Bytes(), payload)
	}
}

func TestSnapshotLSNLegacyAndMissing(t *testing.T) {
	dir := t.TempDir()
	// v1 envelope: covers nothing.
	v1 := filepath.Join(dir, "v1.snap")
	if err := SaveSnapshot(v1, 0, func(w io.Writer) error {
		_, err := w.Write([]byte("old"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if lsn, err := SnapshotLSN(v1); err != nil || lsn != 0 {
		t.Fatalf("v1 SnapshotLSN = %d, %v; want 0, nil", lsn, err)
	}
	// Legacy raw file: covers nothing.
	legacy := filepath.Join(dir, "legacy.gob")
	if err := os.WriteFile(legacy, []byte("raw gob"), 0o644); err != nil {
		t.Fatal(err)
	}
	if lsn, err := SnapshotLSN(legacy); err != nil || lsn != 0 {
		t.Fatalf("legacy SnapshotLSN = %d, %v; want 0, nil", lsn, err)
	}
	// Missing file: first boot, replay everything.
	if lsn, err := SnapshotLSN(filepath.Join(dir, "nope.snap")); err != nil || lsn != 0 {
		t.Fatalf("missing SnapshotLSN = %d, %v; want 0, nil", lsn, err)
	}
}

// TestSnapshotLSNCorruptionDetected checks the v2 envelope still fails
// closed: flipping a payload byte surfaces ErrCorrupt from LoadSnapshot.
func TestSnapshotLSNCorruptionDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.snap")
	if err := SaveSnapshotLSN(path, 0, 7, func(w io.Writer) error {
		_, err := w.Write([]byte("precious model weights"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	err = LoadSnapshot(path, func(io.Reader) error {
		t.Fatal("load called on corrupt snapshot")
		return nil
	})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error = %v, want ErrCorrupt", err)
	}
}

// TestPruneSnapshotChain pins the retention contract: slots beyond keep are
// removed, the live file and the newest keep chain entries are never
// touched.
func TestPruneSnapshotChain(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.snap")
	write := func(p, contents string) {
		t.Helper()
		if err := os.WriteFile(p, []byte(contents), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(path, "live")
	for i := 1; i <= 6; i++ {
		write(fmt.Sprintf("%s.%d", path, i), fmt.Sprintf("gen %d", i))
	}

	removed, err := PruneSnapshotChain(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 3 {
		t.Fatalf("removed %d, want 3", removed)
	}
	// Live file intact, byte for byte.
	if raw, err := os.ReadFile(path); err != nil || string(raw) != "live" {
		t.Fatalf("live snapshot disturbed: %q, %v", raw, err)
	}
	// Newest three generations intact.
	for i := 1; i <= 3; i++ {
		raw, err := os.ReadFile(fmt.Sprintf("%s.%d", path, i))
		if err != nil || string(raw) != fmt.Sprintf("gen %d", i) {
			t.Fatalf("generation %d disturbed: %q, %v", i, raw, err)
		}
	}
	// Older generations gone.
	for i := 4; i <= 6; i++ {
		if _, err := os.Stat(fmt.Sprintf("%s.%d", path, i)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("generation %d not pruned: %v", i, err)
		}
	}

	// Idempotent: a second prune removes nothing.
	if removed, err := PruneSnapshotChain(path, 3); err != nil || removed != 0 {
		t.Fatalf("second prune removed %d, %v; want 0, nil", removed, err)
	}
	// keep ≤ 0 clears the chain but never the live file.
	if removed, err := PruneSnapshotChain(path, 0); err != nil || removed != 3 {
		t.Fatalf("prune keep=0 removed %d, %v; want 3, nil", removed, err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("live snapshot removed by keep=0 prune: %v", err)
	}
}

// TestPruneSnapshotChainStopsAtGap: rotation fills slots contiguously, so a
// gap ends the scan — files far past it (say a user's model.snap.99 backup)
// are not swept up.
func TestPruneSnapshotChainStopsAtGap(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.snap")
	if err := os.WriteFile(path+".1", []byte("gen 1"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".99", []byte("manual backup"), 0o644); err != nil {
		t.Fatal(err)
	}
	removed, err := PruneSnapshotChain(path, 0)
	if err != nil || removed != 1 {
		t.Fatalf("removed %d, %v; want 1, nil", removed, err)
	}
	if _, err := os.Stat(path + ".99"); err != nil {
		t.Fatalf("file beyond the contiguous chain was pruned: %v", err)
	}
}
