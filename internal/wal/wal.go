// Package wal implements the durable feedback write-ahead log: a segmented,
// CRC-framed, append-only record log that /feedback and acquisition events
// are written to *before* they are acknowledged, so a crash can never lose an
// acknowledged label (see DESIGN.md §11).
//
// Layout. The log is a directory of segment files named wal-<firstLSN>.log.
// Each segment starts with a 16-byte header (8-byte magic "FACWAL01" plus the
// big-endian LSN of its first record — the same envelope framing style as the
// resilience snapshot files) followed by length-prefixed frames:
//
//	uint32 payload length | uint32 CRC-32C of (lsn ‖ payload) | uint64 LSN | payload
//
// LSNs are assigned contiguously from 1; the LSN inside every frame lets
// recovery detect reordering and lets snapshots record exactly which prefix
// of the log they cover.
//
// Durability. Append acknowledges according to the configured fsync mode:
// FsyncGroup acknowledges a record once an fsync covers it, batching
// concurrent appenders behind one fsync (group commit: while the leader
// syncs, followers queue on the sync mutex and usually find their LSN
// already covered when they get it), and FsyncNever acknowledges after the
// write syscall (process-crash safe, OS-crash lossy). Sealed segments are
// always fsynced at rotation, so the group-commit fast path only ever needs
// to sync the active file.
//
// Recovery. Open scans every segment, verifying frame CRCs and LSN
// continuity. A torn tail — an incomplete final frame, the footprint of a
// crash mid-write — is truncated silently (those bytes were never
// acknowledged). A corrupt *interior* frame (bad CRC or implausible header
// with valid data after it: a disk bit-flip, not a crash) is quarantined:
// the damaged segment is copied to quarantine/ for forensics, the log is
// truncated to the last good frame, later segments are moved aside, and the
// error is surfaced on Recovery().Err — never silently skipped, because
// records past the corruption were acknowledged and are now lost.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	segMagic      = "FACWAL01"
	segHeaderSize = 16 // magic (8) + first LSN (8)
	frameHeader   = 16 // payload len (4) + CRC (4) + LSN (8)

	segPrefix = "wal-"
	segSuffix = ".log"
	// quarantineDir collects segments damaged by interior corruption.
	quarantineDir = "quarantine"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt marks interior log corruption detected at Open: an acknowledged
// record that cannot be recovered. errors.Is(Recovery().Err, ErrCorrupt)
// distinguishes it from I/O failures.
var ErrCorrupt = errors.New("wal corrupt")

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal closed")

// ErrFailed latches the log after a failed append whose partial frame could
// not be rolled back: a further successful append would land valid data after
// the garbage, which recovery would have to classify as interior corruption
// and quarantine — turning a transient write error into permanent loss of
// records acknowledged afterwards. Appends are refused instead.
var ErrFailed = errors.New("wal failed: partial frame could not be rolled back")

// FsyncMode selects when Append acknowledges durability.
type FsyncMode int

const (
	// FsyncGroup (the default) acknowledges a record once an fsync covers
	// it, batching concurrent appenders behind a single fsync — the
	// group-commit fast path.
	FsyncGroup FsyncMode = iota
	// FsyncNever acknowledges after the write syscall: the record survives a
	// process crash (it is in the page cache) but not an OS crash.
	FsyncNever
)

// ParseFsyncMode maps the -wal-fsync flag values to a mode.
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch s {
	case "", "group":
		return FsyncGroup, nil
	case "never", "off":
		return FsyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync mode %q (want group or never)", s)
	}
}

func (m FsyncMode) String() string {
	if m == FsyncNever {
		return "never"
	}
	return "group"
}

// Options configures a log. Zero values take the documented defaults.
type Options struct {
	// SegmentBytes is the rotation threshold for the active segment
	// (default 8 MiB). Small values are useful in tests.
	SegmentBytes int64
	// Fsync selects the acknowledgement durability mode (default FsyncGroup).
	Fsync FsyncMode
	// MaxRecordBytes bounds a single record (default 16 MiB); recovery also
	// uses it to reject implausible frame headers.
	MaxRecordBytes int
	// Metrics, when non-nil, receives append/fsync latency and segment-count
	// instrumentation.
	Metrics *Metrics
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.MaxRecordBytes <= 0 {
		o.MaxRecordBytes = 16 << 20
	}
	return o
}

// RecoveryInfo reports what Open found and repaired.
type RecoveryInfo struct {
	// Records is the number of valid frames recovered across all segments.
	Records int
	// LastLSN is the highest recovered LSN (0 on an empty log).
	LastLSN uint64
	// TornBytes is the size of the truncated torn tail, if any — the normal
	// footprint of a crash mid-append, not an error.
	TornBytes int64
	// Quarantined lists segment files moved (or copied) to quarantine/
	// because of interior corruption.
	Quarantined []string
	// Err is non-nil when interior corruption was detected: acknowledged
	// records past the corruption point could not be recovered. The log is
	// still usable (truncated to the last good frame), but the loss is
	// surfaced, never silent.
	Err error
}

// segment is one on-disk file of the log.
type segment struct {
	path     string
	firstLSN uint64
	lastLSN  uint64 // 0 while empty
	sealed   bool
}

// WAL is a segmented append-only log. It is safe for concurrent use:
// appends serialize on an internal mutex, group commit batches fsyncs, and
// Replay reads the on-disk segments without blocking appenders.
type WAL struct {
	dir string
	opt Options

	mu       sync.Mutex // guards file writes, rotation, segments, scratch
	active   *os.File
	activeSz int64
	segments []segment // sorted by firstLSN; last entry is the active one
	scratch  []byte
	closed   bool
	failed   bool // a partial frame is stuck in the active file; see ErrFailed

	nextLSN uint64        // next LSN to assign (mu)
	written atomic.Uint64 // last LSN fully written to the active file
	synced  atomic.Uint64 // last LSN covered by fsync (== written in FsyncNever mode acks)

	syncMu     sync.Mutex    // group-commit: one fsync in flight at a time
	fsyncCount atomic.Uint64 // fsync syscalls issued over the log's lifetime

	recovery RecoveryInfo
}

// Open opens (or creates) the log in dir, running recovery: torn tails are
// truncated, interior corruption is quarantined and surfaced on
// Recovery().Err. The returned log is always usable for appends.
func Open(dir string, opt Options) (*WAL, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	w := &WAL{dir: dir, opt: opt, nextLSN: 1}
	if err := w.recover(); err != nil {
		return nil, err
	}
	if err := w.openActive(); err != nil {
		return nil, err
	}
	w.written.Store(w.nextLSN - 1)
	w.synced.Store(w.nextLSN - 1) // everything recovered from disk is durable
	if m := opt.Metrics; m != nil {
		m.segments.Set(float64(len(w.segments)))
		m.ackedLSN.Set(float64(w.AckedLSN()))
		if n := len(w.recovery.Quarantined); n > 0 {
			m.quarantined.Add(uint64(n))
		}
	}
	return w, nil
}

// Recovery reports what Open found: recovered record count, truncated torn
// bytes, and any quarantined corruption (whose Err the caller must surface).
func (w *WAL) Recovery() RecoveryInfo { return w.recovery }

// listSegments returns the segment files in dir sorted by first LSN.
func listSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		hex := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
		first, err := strconv.ParseUint(hex, 16, 64)
		if err != nil {
			continue // not a segment file
		}
		segs = append(segs, segment{path: filepath.Join(dir, name), firstLSN: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstLSN < segs[j].firstLSN })
	return segs, nil
}

func segmentPath(dir string, firstLSN uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", segPrefix, firstLSN, segSuffix))
}

// recover scans every segment in LSN order, truncating a torn tail and
// quarantining interior corruption. On return w.segments holds the surviving
// sealed segments and w.nextLSN the next LSN to assign.
func (w *WAL) recover() error {
	segs, err := listSegments(w.dir)
	if err != nil {
		return fmt.Errorf("wal: listing %s: %w", w.dir, err)
	}
	expect := uint64(1)
	if len(segs) > 0 {
		// A chain starting past LSN 1 is the footprint of checkpoint
		// pruning (Prune removes snapshot-covered segments from the front),
		// not corruption. Only gaps *between* surviving segments are
		// treated as corruption below.
		expect = segs[0].firstLSN
		w.nextLSN = expect
	}
	for i, seg := range segs {
		last := i == len(segs)-1
		if seg.firstLSN != expect {
			// A gap in the chain (e.g. manual deletion): everything from here
			// on cannot be ordered against the prefix. Quarantine it.
			if err := w.quarantineFrom(segs[i:], fmt.Errorf(
				"wal: %s starts at LSN %d, want %d: %w", seg.path, seg.firstLSN, expect, ErrCorrupt)); err != nil {
				return err
			}
			if i > 0 {
				w.finishRecover(segs[:i], segs[i-1])
			}
			return nil
		}
		res, err := scanSegment(seg.path, seg.firstLSN, w.opt.MaxRecordBytes)
		if err != nil {
			return err
		}
		w.recovery.Records += res.records
		if res.records > 0 {
			seg.lastLSN = seg.firstLSN + uint64(res.records) - 1
			w.recovery.LastLSN = seg.lastLSN
			expect = seg.lastLSN + 1
		}
		segs[i] = seg

		// A short frame mid-chain means the bytes after it live in later
		// segments: not a crash footprint (rotation only follows complete
		// frames), so escalate it to corruption.
		if res.corrupt == nil && res.tornBytes > 0 && !last {
			res.corrupt = fmt.Errorf("torn frame with later segments present: %w", ErrCorrupt)
		}

		if res.corrupt != nil {
			// Interior corruption: keep the good prefix, quarantine the
			// damaged bytes plus every later segment, and surface the loss —
			// records past this point were acknowledged and are gone.
			salvageable := res.goodEnd > 0
			if salvageable {
				// Copy the full damaged file for forensics, then truncate the
				// live one back to its last good frame.
				if err := w.quarantineCopy(seg.path); err != nil {
					return err
				}
				if err := os.Truncate(seg.path, res.goodEnd); err != nil {
					return fmt.Errorf("wal: truncating %s after corruption: %w", seg.path, err)
				}
			} else if err := w.quarantineMove(seg.path); err != nil {
				return err
			}
			qerr := fmt.Errorf("wal: %s: %w", seg.path, res.corrupt)
			if i+1 < len(segs) {
				if err := w.quarantineFrom(segs[i+1:], qerr); err != nil {
					return err
				}
			}
			w.recovery.Err = qerr
			if salvageable {
				w.finishRecover(segs[:i+1], seg)
			} else if i > 0 {
				w.finishRecover(segs[:i], segs[i-1])
			}
			return nil
		}

		if res.tornBytes > 0 {
			// Torn tail of the final segment: the crash footprint. Truncate
			// (or, when even the header is incomplete, drop the file).
			w.recovery.TornBytes = res.tornBytes
			if res.goodEnd == 0 {
				if err := os.Remove(seg.path); err != nil {
					return fmt.Errorf("wal: removing headerless segment %s: %w", seg.path, err)
				}
				if i > 0 {
					w.finishRecover(segs[:i], segs[i-1])
				}
				return nil
			}
			if err := os.Truncate(seg.path, res.goodEnd); err != nil {
				return fmt.Errorf("wal: truncating torn tail of %s: %w", seg.path, err)
			}
		}
	}
	if len(segs) > 0 {
		w.finishRecover(segs, segs[len(segs)-1])
	}
	return nil
}

// finishRecover installs the surviving segments and the next LSN. The last
// segment becomes the active one (reopened for append by openActive).
func (w *WAL) finishRecover(segs []segment, lastSeg segment) {
	for i := range segs {
		segs[i].sealed = true
	}
	w.segments = segs
	if lastSeg.lastLSN > 0 {
		w.nextLSN = lastSeg.lastLSN + 1
	} else if lastSeg.firstLSN > 0 {
		w.nextLSN = lastSeg.firstLSN
	}
}

// quarantineFrom moves whole segments into quarantine/ and records err as
// the surfaced recovery error. Recovery continues with the prefix.
func (w *WAL) quarantineFrom(segs []segment, err error) error {
	for _, s := range segs {
		if qerr := w.quarantineMove(s.path); qerr != nil {
			return qerr
		}
	}
	w.recovery.Err = err
	return nil
}

func (w *WAL) quarantinePath(src string) (string, error) {
	qdir := filepath.Join(w.dir, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return "", fmt.Errorf("wal: creating quarantine dir: %w", err)
	}
	return filepath.Join(qdir, filepath.Base(src)), nil
}

func (w *WAL) quarantineMove(src string) error {
	dst, err := w.quarantinePath(src)
	if err != nil {
		return err
	}
	if err := os.Rename(src, dst); err != nil {
		return fmt.Errorf("wal: quarantining %s: %w", src, err)
	}
	w.recovery.Quarantined = append(w.recovery.Quarantined, dst)
	return nil
}

// quarantineCopy preserves the full damaged file for forensics while the
// live copy is truncated to its good prefix.
func (w *WAL) quarantineCopy(src string) error {
	dst, err := w.quarantinePath(src)
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(src)
	if err != nil {
		return fmt.Errorf("wal: reading %s for quarantine: %w", src, err)
	}
	if err := os.WriteFile(dst, raw, 0o644); err != nil {
		return fmt.Errorf("wal: writing quarantine copy %s: %w", dst, err)
	}
	w.recovery.Quarantined = append(w.recovery.Quarantined, dst)
	return nil
}

// scanResult is one segment's validation outcome.
type scanResult struct {
	records   int
	goodEnd   int64 // file offset just past the last valid frame
	tornBytes int64 // trailing bytes of an incomplete final frame
	corrupt   error // non-nil: interior corruption at goodEnd
}

// scanSegment validates header, frame CRCs and LSN continuity. It
// distinguishes a torn tail (incomplete final frame — a crash footprint)
// from interior corruption (a damaged frame with more data after it).
func scanSegment(path string, firstLSN uint64, maxRecord int) (scanResult, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return scanResult{}, fmt.Errorf("wal: reading %s: %w", path, err)
	}
	res := scanResult{goodEnd: segHeaderSize}
	if len(raw) < segHeaderSize {
		// Torn during segment creation: header never landed.
		res.goodEnd = 0
		res.tornBytes = int64(len(raw))
		return res, nil
	}
	if string(raw[:8]) != segMagic {
		res.goodEnd = 0
		res.corrupt = fmt.Errorf("bad segment magic: %w", ErrCorrupt)
		return res, nil
	}
	if got := binary.BigEndian.Uint64(raw[8:16]); got != firstLSN {
		res.goodEnd = 0
		res.corrupt = fmt.Errorf("header LSN %d does not match filename %d: %w", got, firstLSN, ErrCorrupt)
		return res, nil
	}
	expect := firstLSN
	off := int64(segHeaderSize)
	size := int64(len(raw))
	for off < size {
		remaining := size - off
		if remaining < frameHeader {
			res.tornBytes = remaining
			return res, nil
		}
		payloadLen := int64(binary.BigEndian.Uint32(raw[off:]))
		wantCRC := binary.BigEndian.Uint32(raw[off+4:])
		lsn := binary.BigEndian.Uint64(raw[off+8:])
		frameEnd := off + frameHeader + payloadLen
		if payloadLen > int64(maxRecord) {
			// A full header with an implausible length cannot come from a
			// torn sequential write (torn writes shorten, they don't
			// scramble): corruption.
			res.corrupt = fmt.Errorf("frame at offset %d declares %d-byte payload (max %d): %w",
				off, payloadLen, maxRecord, ErrCorrupt)
			return res, nil
		}
		if frameEnd > size {
			// The frame extends past EOF: torn tail.
			res.tornBytes = remaining
			return res, nil
		}
		crcInput := raw[off+8 : frameEnd]
		if got := crc32.Checksum(crcInput, crcTable); got != wantCRC {
			if frameEnd == size {
				// Final frame, nothing after it: indistinguishable from a
				// sector-level torn write. Truncate like a torn tail.
				res.tornBytes = remaining
				return res, nil
			}
			res.corrupt = fmt.Errorf("frame at offset %d (LSN %d): checksum mismatch %08x != %08x: %w",
				off, lsn, got, wantCRC, ErrCorrupt)
			return res, nil
		}
		if lsn != expect {
			res.corrupt = fmt.Errorf("frame at offset %d: LSN %d, want %d: %w", off, lsn, expect, ErrCorrupt)
			return res, nil
		}
		expect++
		res.records++
		off = frameEnd
		res.goodEnd = off
	}
	return res, nil
}

// openActive opens the log's tail for appending: the last recovered segment
// if it has room, otherwise a fresh one.
func (w *WAL) openActive() error {
	if n := len(w.segments); n > 0 {
		seg := &w.segments[n-1]
		info, err := os.Stat(seg.path)
		if err != nil {
			return fmt.Errorf("wal: stat %s: %w", seg.path, err)
		}
		if info.Size() < w.opt.SegmentBytes {
			f, err := os.OpenFile(seg.path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("wal: reopening %s: %w", seg.path, err)
			}
			w.active = f
			w.activeSz = info.Size()
			seg.sealed = false
			return nil
		}
	}
	return w.newSegmentLocked()
}

// newSegmentLocked creates and fsyncs a fresh active segment starting at
// nextLSN, then fsyncs the directory so the file itself survives a crash.
func (w *WAL) newSegmentLocked() error {
	path := segmentPath(w.dir, w.nextLSN)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment %s: %w", path, err)
	}
	var header [segHeaderSize]byte
	copy(header[:], segMagic)
	binary.BigEndian.PutUint64(header[8:], w.nextLSN)
	if _, err := f.Write(header[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: writing segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: syncing segment header: %w", err)
	}
	if err := syncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.active = f
	w.activeSz = segHeaderSize
	w.segments = append(w.segments, segment{path: path, firstLSN: w.nextLSN})
	if m := w.opt.Metrics; m != nil {
		m.segments.Set(float64(len(w.segments)))
	}
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: opening dir for sync: %w", err)
	}
	err = d.Sync()
	d.Close()
	if err != nil {
		return fmt.Errorf("wal: syncing dir: %w", err)
	}
	return nil
}

// Append writes one record and acknowledges it according to the fsync mode:
// when Append returns nil, the record is durable to that mode's contract.
// The returned LSN is the record's position in the log.
func (w *WAL) Append(payload []byte) (uint64, error) {
	start := time.Now()
	lsn, err := w.append(payload)
	if m := w.opt.Metrics; m != nil {
		m.appendSeconds.Observe(time.Since(start).Seconds())
		if err != nil {
			m.appendErrors.Inc()
		} else {
			m.appends.Inc()
			m.ackedLSN.Set(float64(w.AckedLSN()))
		}
	}
	return lsn, err
}

func (w *WAL) append(payload []byte) (uint64, error) {
	if len(payload) > w.opt.MaxRecordBytes {
		return 0, fmt.Errorf("wal: %d-byte record exceeds MaxRecordBytes %d", len(payload), w.opt.MaxRecordBytes)
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return 0, ErrClosed
	}
	if w.failed {
		w.mu.Unlock()
		return 0, ErrFailed
	}
	lsn := w.nextLSN
	frameLen := frameHeader + len(payload)
	if cap(w.scratch) < frameLen {
		w.scratch = make([]byte, 0, frameLen+frameLen/2)
	}
	frame := w.scratch[:frameLen]
	binary.BigEndian.PutUint32(frame, uint32(len(payload)))
	binary.BigEndian.PutUint64(frame[8:], lsn)
	copy(frame[frameHeader:], payload)
	binary.BigEndian.PutUint32(frame[4:], crc32.Checksum(frame[8:], crcTable))
	if _, err := w.active.Write(frame); err != nil {
		// The file may now hold a partial frame. Roll it back so a later
		// successful append cannot bury it mid-segment — recovery would read
		// that as interior corruption and quarantine the acknowledged records
		// after it. If the rollback itself fails, latch the log instead.
		if terr := w.active.Truncate(w.activeSz); terr != nil {
			w.failed = true
		}
		w.mu.Unlock()
		return 0, fmt.Errorf("wal: appending record %d: %w", lsn, err)
	}
	w.nextLSN++
	w.activeSz += int64(frameLen)
	w.segments[len(w.segments)-1].lastLSN = lsn
	w.written.Store(lsn)
	var rotateErr error
	if w.activeSz >= w.opt.SegmentBytes {
		rotateErr = w.rotateLocked()
	}
	w.mu.Unlock()
	if rotateErr != nil {
		return 0, rotateErr
	}
	if w.opt.Fsync == FsyncNever {
		return lsn, nil
	}
	if err := w.syncTo(lsn); err != nil {
		return 0, err
	}
	return lsn, nil
}

// rotateLocked seals the active segment — fsyncing it so the group-commit
// path never has to revisit sealed files — and opens a fresh one.
func (w *WAL) rotateLocked() error {
	sealedLast := w.written.Load()
	err := w.active.Sync()
	w.fsyncCount.Add(1)
	if err != nil {
		return fmt.Errorf("wal: syncing sealed segment: %w", err)
	}
	if err := w.active.Close(); err != nil {
		return fmt.Errorf("wal: closing sealed segment: %w", err)
	}
	w.segments[len(w.segments)-1].sealed = true
	storeMax(&w.synced, sealedLast)
	return w.newSegmentLocked()
}

// syncTo ensures everything up to lsn is fsynced, batching concurrent
// callers behind one fsync (group commit): a follower blocked on syncMu
// usually finds its LSN already covered when the leader releases it.
func (w *WAL) syncTo(lsn uint64) error {
	if w.synced.Load() >= lsn {
		return nil
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.synced.Load() >= lsn {
		return nil
	}
	w.mu.Lock()
	f, cover := w.active, w.written.Load()
	w.mu.Unlock()
	start := time.Now()
	err := f.Sync()
	w.fsyncCount.Add(1)
	if m := w.opt.Metrics; m != nil {
		m.fsyncSeconds.Observe(time.Since(start).Seconds())
		m.fsyncs.Inc()
	}
	if err != nil {
		// A rotation may have sealed (and fsynced) the file under us, closing
		// it; if that covered our LSN the record is durable regardless.
		if w.synced.Load() >= lsn {
			return nil
		}
		return fmt.Errorf("wal: fsync: %w", err)
	}
	storeMax(&w.synced, cover)
	return nil
}

func storeMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if cur >= v || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Sync forces everything appended so far to disk regardless of fsync mode —
// the drain-flush used by Close and by graceful shutdown.
func (w *WAL) Sync() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	lsn := w.written.Load()
	w.mu.Unlock()
	if lsn == 0 {
		return nil
	}
	return w.syncTo(lsn)
}

// LastLSN returns the highest LSN written (not necessarily fsynced).
func (w *WAL) LastLSN() uint64 { return w.written.Load() }

// AckedLSN returns the highest LSN whose Append has been acknowledged
// durable under the configured mode: the fsync horizon for FsyncGroup, the
// write horizon for FsyncNever.
func (w *WAL) AckedLSN() uint64 {
	if w.opt.Fsync == FsyncNever {
		return w.written.Load()
	}
	return w.synced.Load()
}

// SegmentCount returns the number of live (non-quarantined) segment files.
func (w *WAL) SegmentCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.segments)
}

// FsyncCount returns the number of fsync syscalls issued since Open — the
// group-commit amortisation evidence (appends ≫ fsyncs under load).
func (w *WAL) FsyncCount() uint64 { return w.fsyncCount.Load() }

// Replay streams every record with LSN in (fromLSN, LastLSN-at-call] to fn
// in order. It reads the on-disk segments without blocking appenders; a
// record appended after Replay starts may or may not be delivered. fn
// returning an error aborts the replay with that error.
func (w *WAL) Replay(fromLSN uint64, fn func(lsn uint64, payload []byte) error) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	bound := w.written.Load()
	segs := append([]segment(nil), w.segments...)
	w.mu.Unlock()

	for _, seg := range segs {
		if seg.lastLSN != 0 && seg.lastLSN <= fromLSN {
			continue // fully covered by the caller's snapshot
		}
		if seg.firstLSN > bound {
			break
		}
		done, err := replaySegment(seg.path, fromLSN, bound, fn)
		if err != nil {
			// A concurrent Prune may have unlinked this segment after we
			// copied the list; its records are snapshot-covered (Prune's
			// precondition), so skip it rather than failing the replay.
			if errors.Is(err, os.ErrNotExist) && !w.segmentLive(seg.firstLSN) {
				continue
			}
			return err
		}
		if done {
			break
		}
	}
	return nil
}

// segmentLive reports whether a segment with the given first LSN is still in
// the live chain (i.e. has not been pruned since the caller observed it).
func (w *WAL) segmentLive(firstLSN uint64) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, s := range w.segments {
		if s.firstLSN == firstLSN {
			return true
		}
	}
	return false
}

// replaySegment delivers the segment's records in (fromLSN, bound] to fn.
// An invalid tail frame stops the scan silently: with a concurrent appender
// it is an in-flight write, necessarily past bound.
func replaySegment(path string, fromLSN, bound uint64, fn func(uint64, []byte) error) (done bool, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return false, fmt.Errorf("wal: replay reading %s: %w", path, err)
	}
	if len(raw) < segHeaderSize || string(raw[:8]) != segMagic {
		return false, fmt.Errorf("wal: replay: %s has no valid header", path)
	}
	off := int64(segHeaderSize)
	size := int64(len(raw))
	for off+frameHeader <= size {
		payloadLen := int64(binary.BigEndian.Uint32(raw[off:]))
		wantCRC := binary.BigEndian.Uint32(raw[off+4:])
		lsn := binary.BigEndian.Uint64(raw[off+8:])
		frameEnd := off + frameHeader + payloadLen
		if frameEnd > size {
			return true, nil // in-flight tail write
		}
		if crc32.Checksum(raw[off+8:frameEnd], crcTable) != wantCRC {
			return true, nil
		}
		if lsn > bound {
			return true, nil
		}
		if lsn > fromLSN {
			if err := fn(lsn, raw[frameHeader+off:frameEnd]); err != nil {
				return true, err
			}
		}
		off = frameEnd
	}
	return false, nil
}

// Prune removes sealed segments whose every record is ≤ coveredLSN — the LSN
// recorded by the newest durable snapshot, which makes those records
// redundant. The active segment is never pruned. Returns the number of
// segment files removed.
func (w *WAL) Prune(coveredLSN uint64) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	removed := 0
	for len(w.segments) > 1 { // never the active (last) segment
		seg := w.segments[0]
		if !seg.sealed || seg.lastLSN == 0 || seg.lastLSN > coveredLSN {
			break
		}
		if err := os.Remove(seg.path); err != nil {
			return removed, fmt.Errorf("wal: pruning %s: %w", seg.path, err)
		}
		w.segments = w.segments[1:]
		removed++
	}
	if removed > 0 {
		if err := syncDir(w.dir); err != nil {
			return removed, err
		}
		if m := w.opt.Metrics; m != nil {
			m.segments.Set(float64(len(w.segments)))
			m.pruned.Add(uint64(removed))
		}
	}
	return removed, nil
}

// Close drain-flushes (final fsync regardless of mode) and closes the log.
// Safe to call more than once.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.mu.Unlock()
	syncErr := w.Sync()

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return syncErr
	}
	w.closed = true
	if err := w.active.Close(); err != nil && syncErr == nil {
		syncErr = fmt.Errorf("wal: closing active segment: %w", err)
	}
	return syncErr
}
