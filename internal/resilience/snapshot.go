package resilience

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
)

// Snapshot files are wrapped in a checksummed envelope so a crash mid-write
// or a corrupted disk block is detected at load time instead of producing a
// half-decoded model:
//
//	magic (8 bytes) | payload length (uint64 BE) | CRC-32C of payload | payload
//
// Files without the magic header are treated as legacy raw payloads (the
// pre-envelope .gob format) and passed through unchanged, so old artifacts
// keep loading.
//
// The v2 envelope adds a WAL sequence number between magic and length:
//
//	"FACSNAP2" | covered LSN (uint64 BE) | payload length | CRC-32C | payload
//
// The LSN records how much of the feedback write-ahead log the snapshot
// already incorporates, so boot replay can start exactly one record after
// it. LoadSnapshot accepts both versions; SnapshotLSN reads the LSN without
// decoding the payload.
const (
	snapshotMagic   = "FACSNAP1"
	snapshotMagicV2 = "FACSNAP2"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt marks a snapshot that failed envelope validation (truncated or
// checksum mismatch). errors.Is(err, ErrCorrupt) distinguishes it from I/O
// failures.
var ErrCorrupt = errors.New("snapshot corrupt")

// WriteFileAtomic writes the output of write to path atomically: the bytes
// land in a temp file in the same directory, are fsynced, and the temp file
// is renamed over path, so readers never observe a partial file and a crash
// leaves the previous version intact.
func WriteFileAtomic(path string, write func(w io.Writer) error) error {
	tmp, err := stageFile(path, write)
	if err != nil {
		return err
	}
	return publish(tmp, path)
}

// stageFile writes the output of write to a fsynced temp file in path's
// directory and returns its name for the caller to publish; on error the
// temp file is removed. Nothing at path (or its rotation chain) is touched.
func stageFile(path string, write func(w io.Writer) error) (string, error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return "", fmt.Errorf("resilience: creating temp file: %w", err)
	}
	tmp := f.Name()
	fail := func(err error) (string, error) {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if err := write(f); err != nil {
		return fail(fmt.Errorf("resilience: writing %s: %w", path, err))
	}
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("resilience: syncing %s: %w", path, err))
	}
	if err := f.Close(); err != nil {
		return fail(fmt.Errorf("resilience: closing %s: %w", path, err))
	}
	return tmp, nil
}

// publish renames a staged temp file over path (atomic on POSIX, replacing
// any existing file), removing the temp file on failure.
func publish(tmp, path string) error {
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("resilience: publishing %s: %w", path, err)
	}
	return nil
}

// SaveSnapshot atomically writes a checksummed snapshot to path. When keep >
// 0 the previous snapshot is propagated to path.1 (and path.1 to path.2, up
// to path.<keep>), so a bad deploy can always fall back to an earlier
// checkpoint.
//
// The ordering is crash- and retry-safe: the new snapshot is fully written
// and fsynced to a temp file before anything existing is touched, rotation
// hard-links the live snapshot into the chain instead of renaming it away,
// and the temp file is renamed over path last. A write that fails or
// crashes at any step — including one re-invoked by a Retry loop, as the
// checkpointing path does — therefore never disturbs the current snapshot
// or its fallback generations, and path itself is never missing.
func SaveSnapshot(path string, keep int, save func(w io.Writer) error) error {
	return saveSnapshot(path, keep, save, func(payload []byte) []byte {
		header := make([]byte, len(snapshotMagic)+12)
		copy(header, snapshotMagic)
		binary.BigEndian.PutUint64(header[8:], uint64(len(payload)))
		binary.BigEndian.PutUint32(header[16:], crc32.Checksum(payload, crcTable))
		return header
	})
}

// SaveSnapshotLSN is SaveSnapshot with a v2 envelope carrying the WAL LSN
// the snapshot covers: every feedback record with a sequence number at or
// below lsn is already baked into the payload, so recovery replays the log
// strictly after it and covered segments become prunable.
func SaveSnapshotLSN(path string, keep int, lsn uint64, save func(w io.Writer) error) error {
	return saveSnapshot(path, keep, save, func(payload []byte) []byte {
		header := make([]byte, len(snapshotMagicV2)+20)
		copy(header, snapshotMagicV2)
		binary.BigEndian.PutUint64(header[8:], lsn)
		binary.BigEndian.PutUint64(header[16:], uint64(len(payload)))
		binary.BigEndian.PutUint32(header[24:], crc32.Checksum(payload, crcTable))
		return header
	})
}

func saveSnapshot(path string, keep int, save func(w io.Writer) error, envelope func(payload []byte) []byte) error {
	var payload bytes.Buffer
	if err := save(&payload); err != nil {
		return fmt.Errorf("resilience: serializing snapshot: %w", err)
	}
	tmp, err := stageFile(path, func(w io.Writer) error {
		if _, err := w.Write(envelope(payload.Bytes())); err != nil {
			return err
		}
		_, err := w.Write(payload.Bytes())
		return err
	})
	if err != nil {
		return err
	}
	if keep > 0 {
		rotate(path, keep)
	}
	return publish(tmp, path)
}

// EncodeEnvelope writes payload to w wrapped in the v2 snapshot envelope
// ("FACSNAP2" | LSN | length | CRC-32C | payload) — the same checksummed
// framing SaveSnapshotLSN puts on disk, usable over a byte stream. The fleet
// tier ships model snapshots between replicas with it: the receiver's
// DecodeEnvelope rejects truncated or bit-flipped transfers before a single
// payload byte is decoded.
func EncodeEnvelope(w io.Writer, lsn uint64, payload []byte) error {
	header := make([]byte, len(snapshotMagicV2)+20)
	copy(header, snapshotMagicV2)
	binary.BigEndian.PutUint64(header[8:], lsn)
	binary.BigEndian.PutUint64(header[16:], uint64(len(payload)))
	binary.BigEndian.PutUint32(header[24:], crc32.Checksum(payload, crcTable))
	if _, err := w.Write(header); err != nil {
		return fmt.Errorf("resilience: writing envelope header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("resilience: writing envelope payload: %w", err)
	}
	return nil
}

// DecodeEnvelope reads one v2 envelope from r and returns the covered LSN and
// the validated payload. maxBytes, when positive, bounds the declared payload
// length before anything is read. The payload buffer grows with the bytes
// actually received, never with the declared length, so a hostile length
// field cannot balloon memory even without a cap. Truncation, a bad magic, a
// declared length above the cap or above math.MaxInt64, or a checksum
// mismatch return an error wrapping ErrCorrupt.
func DecodeEnvelope(r io.Reader, maxBytes int64) (lsn uint64, payload []byte, err error) {
	header := make([]byte, len(snapshotMagicV2)+20)
	if _, err := io.ReadFull(r, header); err != nil {
		return 0, nil, fmt.Errorf("resilience: reading envelope header: %w: %v", ErrCorrupt, err)
	}
	if string(header[:len(snapshotMagicV2)]) != snapshotMagicV2 {
		return 0, nil, fmt.Errorf("resilience: bad envelope magic %q: %w", header[:len(snapshotMagicV2)], ErrCorrupt)
	}
	lsn = binary.BigEndian.Uint64(header[8:])
	length := binary.BigEndian.Uint64(header[16:])
	wantCRC := binary.BigEndian.Uint32(header[24:])
	if length > math.MaxInt64 {
		return 0, nil, fmt.Errorf("resilience: envelope declares %d payload bytes: %w", length, ErrCorrupt)
	}
	if maxBytes > 0 && length > uint64(maxBytes) {
		return 0, nil, fmt.Errorf("resilience: envelope declares %d payload bytes, cap %d: %w", length, maxBytes, ErrCorrupt)
	}
	payload, err = io.ReadAll(io.LimitReader(r, int64(length)))
	if err == nil && uint64(len(payload)) < length {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return 0, nil, fmt.Errorf("resilience: envelope payload truncated: %w: %v", ErrCorrupt, err)
	}
	if got := crc32.Checksum(payload, crcTable); got != wantCRC {
		return 0, nil, fmt.Errorf("resilience: envelope checksum mismatch (%08x != %08x): %w", got, wantCRC, ErrCorrupt)
	}
	return lsn, payload, nil
}

// SnapshotLSN reads the WAL LSN a snapshot covers without decoding its
// payload. Snapshots in the v1 envelope or the legacy raw format predate
// the WAL and cover nothing: they return 0 with no error, so callers replay
// the whole log. A missing file is likewise LSN 0: first boot replays
// everything.
func SnapshotLSN(path string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil
		}
		return 0, err
	}
	defer f.Close()
	header := make([]byte, len(snapshotMagicV2)+8)
	if _, err := io.ReadFull(f, header); err != nil {
		return 0, nil // shorter than any v2 header: legacy or v1
	}
	if string(header[:len(snapshotMagicV2)]) != snapshotMagicV2 {
		return 0, nil
	}
	return binary.BigEndian.Uint64(header[8:]), nil
}

// rotate shifts existing checkpoints one slot back: path.<keep-1> → .<keep>,
// …, path.1 → path.2, and finally the live snapshot into path.1 — via hard
// link (with a copy fallback for filesystems without links) rather than
// rename, so path keeps existing until the new snapshot is renamed over it.
// Rotation is best-effort — a missing slot is skipped and errors are
// ignored, since the fallback chain is an optimization, not a correctness
// requirement.
func rotate(path string, keep int) {
	os.Remove(path + "." + strconv.Itoa(keep))
	for i := keep - 1; i >= 1; i-- {
		_ = os.Rename(path+"."+strconv.Itoa(i), path+"."+strconv.Itoa(i+1))
	}
	if err := os.Link(path, path+".1"); err != nil && !errors.Is(err, os.ErrNotExist) {
		if raw, rerr := os.ReadFile(path); rerr == nil {
			_ = os.WriteFile(path+".1", raw, 0o644)
		}
	}
}

// LoadSnapshot opens path, validates the envelope, and hands the payload to
// load. Truncated or checksum-mismatched files return an error wrapping
// ErrCorrupt and load is never called on them, so a partial model can never
// be half-loaded. Legacy files without the envelope are passed to load
// whole.
func LoadSnapshot(path string, load func(r io.Reader) error) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var wantLen uint64
	var wantCRC uint32
	var payload []byte
	switch {
	case len(raw) >= len(snapshotMagicV2) && string(raw[:len(snapshotMagicV2)]) == snapshotMagicV2:
		if len(raw) < len(snapshotMagicV2)+20 {
			return fmt.Errorf("resilience: %s: truncated header (%d bytes): %w", path, len(raw), ErrCorrupt)
		}
		wantLen = binary.BigEndian.Uint64(raw[16:])
		wantCRC = binary.BigEndian.Uint32(raw[24:])
		payload = raw[len(snapshotMagicV2)+20:]
	case len(raw) >= len(snapshotMagic) && string(raw[:len(snapshotMagic)]) == snapshotMagic:
		if len(raw) < len(snapshotMagic)+12 {
			return fmt.Errorf("resilience: %s: truncated header (%d bytes): %w", path, len(raw), ErrCorrupt)
		}
		wantLen = binary.BigEndian.Uint64(raw[8:])
		wantCRC = binary.BigEndian.Uint32(raw[16:])
		payload = raw[len(snapshotMagic)+12:]
	default:
		// Legacy raw payload (pre-envelope format).
		return load(bytes.NewReader(raw))
	}
	if uint64(len(payload)) != wantLen {
		return fmt.Errorf("resilience: %s: truncated payload (%d of %d bytes): %w", path, len(payload), wantLen, ErrCorrupt)
	}
	if got := crc32.Checksum(payload, crcTable); got != wantCRC {
		return fmt.Errorf("resilience: %s: checksum mismatch (%08x != %08x): %w", path, got, wantCRC, ErrCorrupt)
	}
	return load(bytes.NewReader(payload))
}

// PruneSnapshotChain removes rotated checkpoints beyond the newest keep
// generations: path.<keep+1> and deeper are deleted, path itself and
// path.1 … path.<keep> are never touched. keep ≤ 0 removes the whole
// rotation chain but still never the live file. It returns the number of
// files removed; missing slots are not an error, and the scan stops at the
// first gap (rotation fills slots contiguously from 1).
func PruneSnapshotChain(path string, keep int) (int, error) {
	if keep < 0 {
		keep = 0
	}
	removed := 0
	for i := keep + 1; ; i++ {
		slot := path + "." + strconv.Itoa(i)
		if _, err := os.Lstat(slot); err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return removed, nil
			}
			return removed, fmt.Errorf("resilience: pruning %s: %w", slot, err)
		}
		if err := os.Remove(slot); err != nil {
			return removed, fmt.Errorf("resilience: pruning %s: %w", slot, err)
		}
		removed++
	}
}
