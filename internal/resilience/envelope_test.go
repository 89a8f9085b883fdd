package resilience

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// EncodeEnvelope/DecodeEnvelope are the stream-framing twins of the on-disk
// snapshot envelope: the fleet snapshot endpoints move the same FACSNAP2
// framing over HTTP. Round trip, checksum refusal, truncation refusal and the
// declared-length bound are the whole contract.
func TestEnvelopeRoundTrip(t *testing.T) {
	payload := []byte("fleet snapshot payload bytes")
	var buf bytes.Buffer
	if err := EncodeEnvelope(&buf, 42, payload); err != nil {
		t.Fatal(err)
	}
	lsn, got, err := DecodeEnvelope(bytes.NewReader(buf.Bytes()), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 42 || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: lsn=%d payload=%q", lsn, got)
	}
}

func TestEnvelopeEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeEnvelope(&buf, 0, nil); err != nil {
		t.Fatal(err)
	}
	lsn, got, err := DecodeEnvelope(bytes.NewReader(buf.Bytes()), 16)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 0 || len(got) != 0 {
		t.Fatalf("empty round trip: lsn=%d len=%d", lsn, len(got))
	}
}

func TestEnvelopeDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeEnvelope(&buf, 7, []byte("payload under checksum")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, flip := range []int{0, len(raw) - 1} { // magic byte; payload byte
		bad := append([]byte(nil), raw...)
		bad[flip] ^= 0x01
		if _, _, err := DecodeEnvelope(bytes.NewReader(bad), 1<<20); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: err = %v, want ErrCorrupt", flip, err)
		}
	}
	// Truncated payload: the declared length outruns the stream.
	if _, _, err := DecodeEnvelope(bytes.NewReader(raw[:len(raw)-3]), 1<<20); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncation: err = %v, want ErrCorrupt", err)
	}
}

// hostileHeader is a v2 envelope header declaring length payload bytes and
// carrying none of them.
func hostileHeader(length uint64) []byte {
	h := make([]byte, len(snapshotMagicV2)+20)
	copy(h, snapshotMagicV2)
	binary.BigEndian.PutUint64(h[16:], length)
	return h
}

// The maxBytes bound refuses a declared length beyond the cap before
// allocating or reading it — the installer's defense against a malicious or
// broken donor declaring a huge payload. Without a cap (maxBytes ≤ 0, as a
// negative -max-body configures), a huge declared length must still fail as
// corruption, not panic in makeslice or exhaust memory.
func TestEnvelopeBoundsDeclaredLength(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeEnvelope(&buf, 1, make([]byte, 128)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		in       []byte
		maxBytes int64
		ok       bool
	}{
		{"over the cap", buf.Bytes(), 64, false},
		{"exactly the cap", buf.Bytes(), 128, true},
		{"2^62 declared, no cap", hostileHeader(1 << 62), 0, false},
		{"2^62 declared, negative cap", hostileHeader(1 << 62), -1, false},
		{"2^64-1 declared, no cap", hostileHeader(math.MaxUint64), 0, false},
	} {
		_, _, err := DecodeEnvelope(bytes.NewReader(tc.in), tc.maxBytes)
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case !tc.ok && !errors.Is(err, ErrCorrupt):
			t.Errorf("%s: err = %v, want ErrCorrupt", tc.name, err)
		}
	}
}

// FuzzDecodeEnvelope feeds arbitrary bytes and caps to the envelope decoder,
// which reads untrusted bytes from POST /snapshot/install. It must never
// panic; every failure must wrap ErrCorrupt (a bytes.Reader has no I/O
// errors); a decoded envelope must re-encode to exactly the bytes the
// decoder consumed; and a positive cap must bound the payload.
func FuzzDecodeEnvelope(f *testing.F) {
	var buf bytes.Buffer
	if err := EncodeEnvelope(&buf, 42, []byte("fleet snapshot payload bytes")); err != nil {
		f.Fatal(err)
	}
	for _, in := range [][]byte{buf.Bytes(), hostileHeader(1 << 62), hostileHeader(1 << 44)} {
		for _, maxBytes := range []int64{1 << 20, 16, 0, -1} {
			f.Add(in, maxBytes)
		}
	}
	f.Fuzz(func(t *testing.T, in []byte, maxBytes int64) {
		r := bytes.NewReader(in)
		lsn, payload, err := DecodeEnvelope(r, maxBytes)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		if maxBytes > 0 && int64(len(payload)) > maxBytes {
			t.Fatalf("payload of %d bytes passed cap %d", len(payload), maxBytes)
		}
		var re bytes.Buffer
		if err := EncodeEnvelope(&re, lsn, payload); err != nil {
			t.Fatal(err)
		}
		if consumed := in[:len(in)-r.Len()]; !bytes.Equal(re.Bytes(), consumed) {
			t.Fatalf("re-encoding gives %x, decoder consumed %x", re.Bytes(), consumed)
		}
	})
}
