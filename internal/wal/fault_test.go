package wal

// Fault-injection suite: simulated crashes at and inside frame boundaries,
// torn tails, and disk bit-flips. The durability contract under test:
// reopen+replay recovers exactly the acknowledged prefix — no loss, no
// duplicates, no torn records — and interior corruption is quarantined with
// a surfaced error, never silently skipped.

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
)

// lastSegment returns the path of the highest-LSN segment file in dir.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s: %v", dir, err)
	}
	return segs[len(segs)-1].path
}

// TestTornTailTruncated crashes mid-write at every possible byte offset of
// the final frame and checks recovery lands on the exact acknowledged
// prefix each time.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := appendN(t, w, 0, 10)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seg := lastSegment(t, dir)
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	// A torn write of an 11th record: every prefix of its frame, from the
	// first header byte to one byte short of complete.
	frame := buildFrame(11, []byte("the unacknowledged eleventh record"))
	for cut := 1; cut < len(frame); cut += 3 {
		work := t.TempDir()
		dst := filepath.Join(work, filepath.Base(seg))
		if err := os.WriteFile(dst, append(append([]byte(nil), full...), frame[:cut]...), 0o644); err != nil {
			t.Fatal(err)
		}
		w2, err := Open(work, Options{})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		rec := w2.Recovery()
		if rec.Err != nil {
			t.Fatalf("cut %d: torn tail misdiagnosed as corruption: %v", cut, rec.Err)
		}
		if rec.Records != 10 || rec.TornBytes != int64(cut) {
			t.Fatalf("cut %d: recovery = %+v, want 10 records, %d torn bytes", cut, rec, cut)
		}
		assertRecords(t, replayAll(t, w2, 0), want)
		// The log stays appendable and reuses the torn record's LSN.
		if lsn, err := w2.Append([]byte("recovered")); err != nil || lsn != 11 {
			t.Fatalf("cut %d: append after recovery: lsn=%d err=%v", cut, lsn, err)
		}
		w2.Close()
	}
}

// buildFrame assembles a raw frame the way the writer does, for injecting
// partial writes.
func buildFrame(lsn uint64, payload []byte) []byte {
	frame := make([]byte, frameHeader+len(payload))
	putFrame(frame, lsn, payload)
	return frame
}

func putFrame(frame []byte, lsn uint64, payload []byte) {
	copy(frame[frameHeader:], payload)
	frame[0] = byte(len(payload) >> 24)
	frame[1] = byte(len(payload) >> 16)
	frame[2] = byte(len(payload) >> 8)
	frame[3] = byte(len(payload))
	frame[8] = byte(lsn >> 56)
	frame[9] = byte(lsn >> 48)
	frame[10] = byte(lsn >> 40)
	frame[11] = byte(lsn >> 32)
	frame[12] = byte(lsn >> 24)
	frame[13] = byte(lsn >> 16)
	frame[14] = byte(lsn >> 8)
	frame[15] = byte(lsn)
	crc := crc32.Checksum(frame[8:], crcTable)
	frame[4] = byte(crc >> 24)
	frame[5] = byte(crc >> 16)
	frame[6] = byte(crc >> 8)
	frame[7] = byte(crc)
}

// TestBitFlipQuarantined flips one byte inside an interior frame and checks
// the damage is quarantined with a surfaced error: the prefix before the
// flip survives, nothing after it is replayed, and the damaged bytes are
// preserved under quarantine/.
func TestBitFlipQuarantined(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := appendN(t, w, 0, 20)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seg := lastSegment(t, dir)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	// Find the 10th frame's payload region and flip a byte in it.
	off := int64(segHeaderSize)
	for i := 0; i < 9; i++ {
		plen := int64(raw[off])<<24 | int64(raw[off+1])<<16 | int64(raw[off+2])<<8 | int64(raw[off+3])
		off += frameHeader + plen
	}
	raw[off+frameHeader+2] ^= 0x40
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open after bit flip: %v", err)
	}
	defer w2.Close()
	rec := w2.Recovery()
	if rec.Err == nil {
		t.Fatal("interior corruption silently skipped: Recovery().Err is nil")
	}
	if !errors.Is(rec.Err, ErrCorrupt) {
		t.Fatalf("recovery error %v does not wrap ErrCorrupt", rec.Err)
	}
	if len(rec.Quarantined) == 0 {
		t.Fatal("no quarantined file recorded")
	}
	for _, q := range rec.Quarantined {
		if _, err := os.Stat(q); err != nil {
			t.Fatalf("quarantined file %s missing: %v", q, err)
		}
	}
	// Exactly the 9 frames before the flip survive; the corrupt record and
	// everything after it are neither replayed nor half-applied.
	got := replayAll(t, w2, 0)
	if len(got) != 9 {
		t.Fatalf("replay after quarantine returned %d records, want 9", len(got))
	}
	for lsn := uint64(1); lsn <= 9; lsn++ {
		if !bytes.Equal(got[lsn], want[lsn]) {
			t.Fatalf("LSN %d corrupted by recovery", lsn)
		}
	}
}

// TestBitFlipInEarlierSegmentQuarantinesRest corrupts a sealed (non-final)
// segment and checks every later segment is quarantined too: replaying past
// a hole would apply records out of order.
func TestBitFlipInEarlierSegmentQuarantinesRest(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 200)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("need ≥3 segments, got %d (%v)", len(segs), err)
	}
	mid := segs[1]
	raw, err := os.ReadFile(mid.path)
	if err != nil {
		t.Fatal(err)
	}
	raw[segHeaderSize+frameHeader+1] ^= 0x01 // first frame's payload
	if err := os.WriteFile(mid.path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	rec := w2.Recovery()
	if !errors.Is(rec.Err, ErrCorrupt) {
		t.Fatalf("recovery error = %v", rec.Err)
	}
	// Quarantine holds the damaged segment plus all later ones.
	if len(rec.Quarantined) != len(segs)-1 {
		t.Fatalf("quarantined %d files, want %d", len(rec.Quarantined), len(segs)-1)
	}
	// The surviving prefix is exactly segment 1's records.
	got := replayAll(t, w2, 0)
	var lsns []uint64
	for lsn := range got {
		lsns = append(lsns, lsn)
	}
	sort.Slice(lsns, func(i, j int) bool { return lsns[i] < lsns[j] })
	for i, lsn := range lsns {
		if lsn != uint64(i+1) {
			t.Fatalf("recovered LSNs have a gap at %d: %v", i, lsns[:i+1])
		}
	}
	if uint64(len(lsns)) >= mid.firstLSN {
		t.Fatalf("records at/after the corrupt segment leaked into replay: recovered through %d, corruption starts at %d",
			len(lsns), mid.firstLSN)
	}
}

// TestGarbageLengthQuarantined corrupts a frame's length field into an
// implausible value mid-log and checks it is treated as corruption (a torn
// sequential write can shorten a file, never scramble a header).
func TestGarbageLengthQuarantined(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 5)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seg := lastSegment(t, dir)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Frame 2's length becomes ~4 GiB while frames 3..5 still follow.
	off := segHeaderSize
	plen := int(raw[off])<<24 | int(raw[off+1])<<16 | int(raw[off+2])<<8 | int(raw[off+3])
	off += frameHeader + plen
	raw[off] = 0xFF
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if rec := w2.Recovery(); !errors.Is(rec.Err, ErrCorrupt) || rec.Records != 1 {
		t.Fatalf("recovery = %+v, want 1 record and ErrCorrupt", rec)
	}
}

// TestCrashTortureRandomOffsets is the satellite torture test: writer
// goroutines are killed at a random record, a torn partial frame is left at
// a random offset, the log is reopened, and every acknowledged record must
// be recovered with no torn record half-applied — across many seeded
// iterations with random payload sizes and rotation thresholds.
func TestCrashTortureRandomOffsets(t *testing.T) {
	iterations := 40
	if testing.Short() {
		iterations = 8
	}
	for iter := 0; iter < iterations; iter++ {
		iter := iter
		t.Run(fmt.Sprintf("iter%02d", iter), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(1000 + iter)))
			dir := t.TempDir()
			opts := Options{
				SegmentBytes: int64(512 + rng.Intn(4096)),
				Fsync:        FsyncGroup,
			}
			w, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}

			// Several writer goroutines race appends; each is "killed" (stops
			// abruptly, no Close, no drain) after a random record count.
			type acked struct {
				lsn     uint64
				payload []byte
			}
			var mu sync.Mutex
			var ackedRecords []acked
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					grng := rand.New(rand.NewSource(int64(iter*10 + g)))
					n := 5 + grng.Intn(60)
					for i := 0; i < n; i++ {
						payload := make([]byte, 1+grng.Intn(200))
						grng.Read(payload)
						lsn, err := w.Append(payload)
						if err != nil {
							return // the log died under us; nothing acked
						}
						mu.Lock()
						ackedRecords = append(ackedRecords, acked{lsn, payload})
						mu.Unlock()
					}
				}(g)
			}
			wg.Wait()

			// The crash: no Close, no final sync. A partial frame of random
			// length lands at the tail, as a writer dying mid-write leaves it.
			seg := lastSegment(t, dir)
			torn := buildFrame(w.LastLSN()+1, make([]byte, 1+rng.Intn(300)))
			cut := 1 + rng.Intn(len(torn)-1)
			f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(torn[:cut]); err != nil {
				t.Fatal(err)
			}
			f.Close()

			// Reopen and check the recovered set is exactly the acked set.
			w2, err := Open(dir, opts)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer w2.Close()
			if rec := w2.Recovery(); rec.Err != nil {
				t.Fatalf("crash recovery surfaced corruption: %v", rec)
			}
			got := replayAll(t, w2, 0)
			mu.Lock()
			defer mu.Unlock()
			if len(got) != len(ackedRecords) {
				t.Fatalf("recovered %d records, acked %d", len(got), len(ackedRecords))
			}
			seen := map[uint64]bool{}
			for _, a := range ackedRecords {
				if seen[a.lsn] {
					t.Fatalf("LSN %d acknowledged twice", a.lsn)
				}
				seen[a.lsn] = true
				if !bytes.Equal(got[a.lsn], a.payload) {
					t.Fatalf("LSN %d: recovered %d bytes, acked %d bytes", a.lsn, len(got[a.lsn]), len(a.payload))
				}
			}
			// LSNs are gapless 1..n: no half-applied or duplicated record.
			for lsn := uint64(1); lsn <= uint64(len(got)); lsn++ {
				if _, ok := got[lsn]; !ok {
					t.Fatalf("gap at LSN %d", lsn)
				}
			}
		})
	}
}

// TestRecoveryAfterHeaderTornSegment crashes during segment creation (the
// 16-byte header itself is torn) and checks the dead file is dropped and
// the log keeps working.
func TestRecoveryAfterHeaderTornSegment(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := appendN(t, w, 0, 6)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// A segment whose header write was torn after 7 bytes.
	if err := os.WriteFile(segmentPath(dir, 7), []byte(segMagic[:7]), 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if rec := w2.Recovery(); rec.Err != nil || rec.Records != 6 {
		t.Fatalf("recovery = %+v", rec)
	}
	assertRecords(t, replayAll(t, w2, 0), want)
	if lsn, err := w2.Append([]byte("continues")); err != nil || lsn != 7 {
		t.Fatalf("append: lsn=%d err=%v", lsn, err)
	}
}

// FuzzWALOpen: recovery survives any bytes as a log's first segment. The
// fuzzed bytes become wal-0000000000000001.log in an empty directory. Open
// must not panic; the records Replay then yields must carry the LSNs 1, 2,
// 3, ... without a gap, as many as Recovery().Records counts; and the
// recovered log must take its next append at the following LSN.
func FuzzWALOpen(f *testing.F) {
	seg := func(frames ...[]byte) []byte {
		b := append([]byte(segMagic), 0, 0, 0, 0, 0, 0, 0, 1)
		for _, fr := range frames {
			b = append(b, fr...)
		}
		return b
	}
	two := seg(buildFrame(1, []byte("a")), buildFrame(2, []byte("bc")))
	flipped := bytes.Clone(two)
	flipped[segHeaderSize+frameHeader] ^= 1 // first payload: corruption with a frame after it
	for _, raw := range [][]byte{
		nil,
		[]byte(segMagic),
		seg(),
		two,
		two[:len(two)-1], // torn tail
		flipped,
		seg(buildFrame(1, []byte("a")), buildFrame(3, []byte("gap"))),
		seg(buildFrame(2, []byte("late start"))),
		append(seg(), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1), // 4 GiB frame
	} {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(segmentPath(dir, 1), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := Open(dir, Options{Fsync: FsyncNever, MaxRecordBytes: 1 << 16})
		if err != nil {
			return
		}
		defer w.Close()
		next := uint64(1)
		if err := w.Replay(0, func(lsn uint64, _ []byte) error {
			if lsn != next {
				return fmt.Errorf("replayed LSN %d, want %d", lsn, next)
			}
			next++
			return nil
		}); err != nil {
			t.Fatalf("replay: %v", err)
		}
		if rec := w.Recovery().Records; next-1 != uint64(rec) {
			t.Fatalf("replayed %d records, recovery counted %d", next-1, rec)
		}
		if lsn, err := w.Append([]byte("after")); err != nil || lsn != next {
			t.Fatalf("append after recovery: LSN %d (%v), want %d", lsn, err, next)
		}
	})
}
