package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// appendN appends n deterministic records and returns their payloads by LSN.
func appendN(t *testing.T, w *WAL, start, n int) map[uint64][]byte {
	t.Helper()
	out := make(map[uint64][]byte, n)
	for i := 0; i < n; i++ {
		payload := []byte(fmt.Sprintf("record-%04d-%s", start+i, bytes.Repeat([]byte{'x'}, (start+i)%37)))
		lsn, err := w.Append(payload)
		if err != nil {
			t.Fatalf("append %d: %v", start+i, err)
		}
		out[lsn] = payload
	}
	return out
}

// replayAll collects every record with LSN > from.
func replayAll(t *testing.T, w *WAL, from uint64) map[uint64][]byte {
	t.Helper()
	got := map[uint64][]byte{}
	if err := w.Replay(from, func(lsn uint64, payload []byte) error {
		got[lsn] = append([]byte(nil), payload...)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got
}

func assertRecords(t *testing.T, got, want map[uint64][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for lsn, payload := range want {
		if !bytes.Equal(got[lsn], payload) {
			t.Fatalf("LSN %d: payload %q, want %q", lsn, got[lsn], payload)
		}
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := appendN(t, w, 0, 100)
	if got := w.LastLSN(); got != 100 {
		t.Fatalf("LastLSN = %d, want 100", got)
	}
	if got := w.AckedLSN(); got != 100 {
		t.Fatalf("AckedLSN = %d, want 100 (group mode acks are durable)", got)
	}
	assertRecords(t, replayAll(t, w, 0), want)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything survives, LSNs continue where they left off.
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if rec := w2.Recovery(); rec.Records != 100 || rec.LastLSN != 100 || rec.Err != nil {
		t.Fatalf("recovery = %+v, want 100 clean records", rec)
	}
	assertRecords(t, replayAll(t, w2, 0), want)
	lsn, err := w2.Append([]byte("after reopen"))
	if err != nil || lsn != 101 {
		t.Fatalf("append after reopen: lsn=%d err=%v, want 101", lsn, err)
	}
}

func TestReplayFromLSN(t *testing.T) {
	w, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	want := appendN(t, w, 0, 20)
	got := replayAll(t, w, 15)
	if len(got) != 5 {
		t.Fatalf("replay from 15 returned %d records, want 5", len(got))
	}
	for lsn := uint64(16); lsn <= 20; lsn++ {
		if !bytes.Equal(got[lsn], want[lsn]) {
			t.Fatalf("LSN %d missing or wrong", lsn)
		}
	}
}

func TestRotationAndSegmentChain(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	want := appendN(t, w, 0, 200)
	if n := w.SegmentCount(); n < 3 {
		t.Fatalf("SegmentCount = %d, want several at 1KiB rotation", n)
	}
	assertRecords(t, replayAll(t, w, 0), want)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(dir, Options{SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if rec := w2.Recovery(); rec.Records != 200 || rec.Err != nil {
		t.Fatalf("recovery across segments = %+v", rec)
	}
	assertRecords(t, replayAll(t, w2, 0), want)
}

func TestPruneKeepsUncoveredAndActive(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	want := appendN(t, w, 0, 200)
	before := w.SegmentCount()
	if before < 3 {
		t.Fatalf("need several segments, got %d", before)
	}

	// Nothing covered: nothing prunable.
	if n, err := w.Prune(0); err != nil || n != 0 {
		t.Fatalf("prune(0) = %d, %v", n, err)
	}

	// Cover half the log: only segments fully below the horizon go.
	covered := uint64(100)
	n, err := w.Prune(covered)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("prune(100) removed nothing")
	}
	got := replayAll(t, w, covered)
	for lsn := covered + 1; lsn <= 200; lsn++ {
		if !bytes.Equal(got[lsn], want[lsn]) {
			t.Fatalf("LSN %d lost by prune", lsn)
		}
	}

	// Cover everything: the active segment must survive.
	if _, err := w.Prune(200); err != nil {
		t.Fatal(err)
	}
	if w.SegmentCount() < 1 {
		t.Fatal("prune removed the active segment")
	}
	if lsn, err := w.Append([]byte("still writable")); err != nil || lsn != 201 {
		t.Fatalf("append after full prune: lsn=%d err=%v", lsn, err)
	}
}

// TestPruneThenReopenReplay pins the checkpoint-prune restart path: a chain
// whose oldest segments were pruned must reopen cleanly (a missing prefix is
// a prune footprint, not corruption), keep its LSN sequence, and replay every
// surviving record past the snapshot horizon.
func TestPruneThenReopenReplay(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	want := appendN(t, w, 0, 200)
	covered := uint64(100)
	if n, err := w.Prune(covered); err != nil || n == 0 {
		t.Fatalf("prune(%d) = %d, %v", covered, n, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	rec := w2.Recovery()
	if rec.Err != nil || len(rec.Quarantined) != 0 {
		t.Fatalf("reopen after prune quarantined the survivors: %+v", rec)
	}
	if rec.LastLSN != 200 {
		t.Fatalf("recovered LastLSN = %d, want 200", rec.LastLSN)
	}
	got := replayAll(t, w2, covered)
	for lsn := covered + 1; lsn <= 200; lsn++ {
		if !bytes.Equal(got[lsn], want[lsn]) {
			t.Fatalf("LSN %d lost across prune+reopen", lsn)
		}
	}
	for lsn := range got {
		if lsn <= covered {
			t.Fatalf("replay delivered covered LSN %d", lsn)
		}
	}
	// LSNs continue where they left off — no reset-to-1 collision with the
	// snapshot's covered horizon.
	if lsn, err := w2.Append([]byte("after prune+reopen")); err != nil || lsn != 201 {
		t.Fatalf("append after prune+reopen: lsn=%d err=%v, want 201", lsn, err)
	}
}

// TestReplaySkipsConcurrentlyPrunedSegments pins the replay/prune race: a
// segment unlinked after Replay copied the chain is skipped (its records are
// snapshot-covered by Prune's contract), not surfaced as an I/O error.
func TestReplaySkipsConcurrentlyPrunedSegments(t *testing.T) {
	w, err := Open(t.TempDir(), Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendN(t, w, 0, 100)
	if w.SegmentCount() < 3 {
		t.Fatalf("need several segments, got %d", w.SegmentCount())
	}
	pruned := false
	var seen []uint64
	err = w.Replay(0, func(lsn uint64, _ []byte) error {
		if !pruned {
			pruned = true
			// Unlink everything prunable while the replay is mid-flight.
			if n, err := w.Prune(w.LastLSN()); err != nil || n == 0 {
				return fmt.Errorf("prune during replay: n=%d err=%v", n, err)
			}
		}
		seen = append(seen, lsn)
		return nil
	})
	if err != nil {
		t.Fatalf("replay across concurrent prune: %v", err)
	}
	if len(seen) == 0 || seen[len(seen)-1] != 100 {
		t.Fatalf("replay did not reach the active segment: saw %d records, last %v", len(seen), seen)
	}
}

// TestAppendWriteFailureDoesNotCorrupt pins the failed-append contract: after
// a write error the log either rolls the partial frame back or latches shut —
// it never lets a later append bury garbage mid-segment, and reopening
// recovers exactly the acknowledged prefix with no corruption verdict.
func TestAppendWriteFailureDoesNotCorrupt(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := appendN(t, w, 0, 5)

	// Inject a write failure: close the active file out from under append.
	// Both the write and the rollback truncate fail, so the log must latch.
	w.mu.Lock()
	w.active.Close()
	w.mu.Unlock()
	if _, err := w.Append([]byte("boom")); err == nil {
		t.Fatal("append on a closed file succeeded")
	}
	if _, err := w.Append([]byte("after failure")); !errors.Is(err, ErrFailed) {
		t.Fatalf("append after unrecovered write failure: %v, want ErrFailed", err)
	}

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	rec := w2.Recovery()
	if rec.Err != nil {
		t.Fatalf("write failure left the log corrupt: %v", rec.Err)
	}
	if rec.Records != 5 {
		t.Fatalf("recovered %d records, want the 5 acknowledged", rec.Records)
	}
	assertRecords(t, replayAll(t, w2, 0), want)
}

func TestFsyncModes(t *testing.T) {
	for _, mode := range []FsyncMode{FsyncGroup, FsyncNever} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			w, err := Open(dir, Options{Fsync: mode})
			if err != nil {
				t.Fatal(err)
			}
			want := appendN(t, w, 0, 25)
			if got := w.AckedLSN(); got != 25 {
				t.Fatalf("AckedLSN = %d, want 25", got)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			w2, err := Open(dir, Options{Fsync: mode})
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close()
			assertRecords(t, replayAll(t, w2, 0), want)
		})
	}
}

func TestParseFsyncMode(t *testing.T) {
	for in, want := range map[string]FsyncMode{
		"": FsyncGroup, "group": FsyncGroup, "never": FsyncNever, "off": FsyncNever,
	} {
		got, err := ParseFsyncMode(in)
		if err != nil || got != want {
			t.Fatalf("ParseFsyncMode(%q) = %v, %v", in, got, err)
		}
	}
	for _, in := range []string{"bogus", "always"} {
		if _, err := ParseFsyncMode(in); err == nil {
			t.Fatalf("unknown mode %q accepted", in)
		}
	}
}

func TestClosedLogRejectsOperations(t *testing.T) {
	w, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 3)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := w.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if err := w.Replay(0, func(uint64, []byte) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("replay after close: %v", err)
	}
	if _, err := w.Prune(10); !errors.Is(err, ErrClosed) {
		t.Fatalf("prune after close: %v", err)
	}
}

func TestOversizedRecordRejected(t *testing.T) {
	w, err := Open(t.TempDir(), Options{MaxRecordBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Append(make([]byte, 65)); err == nil {
		t.Fatal("oversized record accepted")
	}
	if lsn, err := w.Append(make([]byte, 64)); err != nil || lsn != 1 {
		t.Fatalf("max-size record rejected: lsn=%d err=%v", lsn, err)
	}
}

func TestReplayCallbackErrorAborts(t *testing.T) {
	w, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendN(t, w, 0, 10)
	boom := errors.New("stop here")
	calls := 0
	err = w.Replay(0, func(uint64, []byte) error {
		calls++
		if calls == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || calls != 3 {
		t.Fatalf("replay abort: calls=%d err=%v", calls, err)
	}
}

func TestFeedbackRecordRoundTrip(t *testing.T) {
	fb := Feedback{
		X: [][]float64{{1.5, -2.25, 0}, {3.75, 4, -0.001}},
		Y: []int{1, 0},
		S: []int{-1, 1},
	}
	payload, err := AppendFeedback(nil, fb)
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := RecordKind(payload); k != KindFeedback {
		t.Fatalf("kind = %v", k)
	}
	got, err := DecodeFeedback(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.X) != 2 || got.Y[0] != 1 || got.Y[1] != 0 || got.S[0] != -1 || got.S[1] != 1 {
		t.Fatalf("decoded %+v", got)
	}
	for i := range fb.X {
		for j := range fb.X[i] {
			if got.X[i][j] != fb.X[i][j] {
				t.Fatalf("X[%d][%d] = %v, want %v", i, j, got.X[i][j], fb.X[i][j])
			}
		}
	}
	// Mismatched lengths are rejected at encode time.
	if _, err := AppendFeedback(nil, Feedback{X: [][]float64{{1}}, Y: []int{1, 2}, S: []int{1}}); err == nil {
		t.Fatal("mismatched feedback encoded")
	}
	// Truncated payloads are rejected at decode time.
	if _, err := DecodeFeedback(payload[:len(payload)-3]); err == nil {
		t.Fatal("truncated feedback decoded")
	}
}

func TestAcquisitionRecordRoundTrip(t *testing.T) {
	acq := Acquisition{Task: 7, Round: 3, Picks: []int64{5, 1, 999}}
	payload := AppendAcquisition(nil, acq)
	if k, _ := RecordKind(payload); k != KindAcquisition {
		t.Fatalf("kind = %v", k)
	}
	got, err := DecodeAcquisition(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Task != 7 || got.Round != 3 || len(got.Picks) != 3 || got.Picks[2] != 999 {
		t.Fatalf("decoded %+v", got)
	}
	if _, err := DecodeAcquisition(payload[:10]); err == nil {
		t.Fatal("truncated acquisition decoded")
	}
}

// TestReopenEmptyDirectories pins the boot cases: a fresh directory creates
// segment 1, and reopening an empty-but-initialized log is a no-op.
func TestReopenEmptyDirectories(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if rec := w2.Recovery(); rec.Records != 0 || rec.Err != nil {
		t.Fatalf("recovery of empty log = %+v", rec)
	}
	if lsn, err := w2.Append([]byte("first")); err != nil || lsn != 1 {
		t.Fatalf("first append: lsn=%d err=%v", lsn, err)
	}
}

// TestSegmentFileNaming pins the on-disk contract other tooling (and prune)
// relies on: wal-<firstLSN hex>.log, sorted lexically == sorted by LSN.
func TestSegmentFileNaming(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 64; i++ {
		buf := make([]byte, 16+rng.Intn(64))
		rng.Read(buf)
		if _, err := w.Append(buf); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	if len(names) < 2 {
		t.Fatalf("expected several segments, got %v", names)
	}
	for _, name := range names {
		if _, err := filepath.Match("wal-????????????????.log", name); err != nil {
			t.Fatal(err)
		}
		var first uint64
		if _, err := fmt.Sscanf(name, "wal-%016x.log", &first); err != nil {
			t.Fatalf("segment name %q does not parse: %v", name, err)
		}
	}
}
