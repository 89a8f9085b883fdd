package wal

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// feedbackHeader is a KindFeedback record header declaring n rows of dim
// features, followed by body.
func feedbackHeader(n, dim uint32, body ...byte) []byte {
	b := []byte{byte(KindFeedback)}
	b = binary.BigEndian.AppendUint32(b, n)
	b = binary.BigEndian.AppendUint32(b, dim)
	return append(b, body...)
}

// malformedRecords are payloads both decoders must refuse. The first is 9
// bytes whose counts, n = 2^31 and dim = 2^30 − 1, multiply to a record
// length that wraps to 9 in 64-bit arithmetic: a decoder that checks the
// product alone accepts it and asks for a 48 GiB row table.
func malformedRecords() map[string][]byte {
	acq := AppendAcquisition(nil, Acquisition{Task: 1, Round: 2, Picks: []int64{3}})
	huge := append([]byte{byte(KindAcquisition)}, make([]byte, 16)...)
	return map[string][]byte{
		"wrapping counts":      feedbackHeader(1<<31, 1<<30-1),
		"empty":                nil,
		"short header":         feedbackHeader(1, 1)[:8],
		"truncated row":        feedbackHeader(1, 1, make([]byte, 15)...),
		"trailing byte":        feedbackHeader(1, 1, make([]byte, 17)...),
		"no rows but a dim":    feedbackHeader(0, 3),
		"huge row count":       feedbackHeader(1<<32-1, 0, make([]byte, 8)...),
		"acquisition short":    acq[:20],
		"acquisition k wraps":  binary.BigEndian.AppendUint32(huge, 1<<32-1),
		"acquisition trailing": append(acq, 0),
	}
}

func TestDecodeRejectsMalformedRecords(t *testing.T) {
	for name, payload := range malformedRecords() {
		if _, err := DecodeFeedback(payload); err == nil {
			t.Errorf("%s: DecodeFeedback accepted %d bytes", name, len(payload))
		}
		if _, err := DecodeAcquisition(payload); err == nil {
			t.Errorf("%s: DecodeAcquisition accepted %d bytes", name, len(payload))
		}
	}
}

// FuzzWALRecord: both record decoders refuse bytes they cannot parse
// without panicking, and a record either decodes re-encodes to exactly its
// own bytes. faction-serve decodes every feedback record of its log at
// boot, and the frame checksum catches torn writes, not crafted ones.
func FuzzWALRecord(f *testing.F) {
	fb, err := AppendFeedback(nil, Feedback{X: [][]float64{{1.5, -2}, {0, 3}}, Y: []int{1, 0}, S: []int{-1, 1}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fb)
	f.Add(AppendAcquisition(nil, Acquisition{Task: 7, Round: 3, Picks: []int64{5, 1, 999}}))
	for _, payload := range malformedRecords() {
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		if fb, err := DecodeFeedback(payload); err == nil {
			again, err := AppendFeedback(nil, fb)
			if err != nil || !bytes.Equal(again, payload) {
				t.Fatalf("feedback record %x re-encodes to %x (%v)", payload, again, err)
			}
		}
		if acq, err := DecodeAcquisition(payload); err == nil {
			if again := AppendAcquisition(nil, acq); !bytes.Equal(again, payload) {
				t.Fatalf("acquisition record %x re-encodes to %x", payload, again)
			}
		}
	})
}
