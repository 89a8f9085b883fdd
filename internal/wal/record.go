package wal

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Record kinds. The first payload byte of every record identifies its codec,
// so one log carries the full label-stream history: the feedback labels the
// learner trains on and the acquisition decisions that bought them.
type Kind uint8

const (
	// KindFeedback is a batch of labeled feedback samples (POST /feedback).
	KindFeedback Kind = 1
	// KindAcquisition is one acquisition decision of the online protocol:
	// which pool indices a query strategy spent label budget on.
	KindAcquisition Kind = 2
)

// RecordKind returns the kind byte of an encoded record.
func RecordKind(payload []byte) (Kind, error) {
	if len(payload) == 0 {
		return 0, fmt.Errorf("wal: empty record")
	}
	return Kind(payload[0]), nil
}

// Feedback is the decoded form of a KindFeedback record: n labeled samples
// with their sensitive-attribute values, exactly the body of one
// acknowledged POST /feedback.
type Feedback struct {
	X [][]float64
	Y []int
	S []int
}

// AppendFeedback encodes fb onto buf (append-style, so callers can reuse a
// scratch buffer) and returns the extended slice. Layout, all big-endian:
//
//	kind (1) | n (uint32) | dim (uint32) | n× { dim× float64 bits | y int32 | s int32 }
func AppendFeedback(buf []byte, fb Feedback) ([]byte, error) {
	n := len(fb.X)
	if len(fb.Y) != n || len(fb.S) != n {
		return buf, fmt.Errorf("wal: feedback has %d instances but %d labels / %d sensitive", n, len(fb.Y), len(fb.S))
	}
	dim := 0
	if n > 0 {
		dim = len(fb.X[0])
	}
	buf = append(buf, byte(KindFeedback))
	buf = binary.BigEndian.AppendUint32(buf, uint32(n))
	buf = binary.BigEndian.AppendUint32(buf, uint32(dim))
	for i, row := range fb.X {
		if len(row) != dim {
			return buf, fmt.Errorf("wal: feedback row %d has %d features, want %d", i, len(row), dim)
		}
		for _, v := range row {
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(int32(fb.Y[i])))
		buf = binary.BigEndian.AppendUint32(buf, uint32(int32(fb.S[i])))
	}
	return buf, nil
}

// DecodeFeedback parses a KindFeedback record. It accepts exactly the
// records AppendFeedback writes, so a decoded record re-encodes to its own
// bytes.
func DecodeFeedback(payload []byte) (Feedback, error) {
	var fb Feedback
	if len(payload) < 9 || Kind(payload[0]) != KindFeedback {
		return fb, fmt.Errorf("wal: not a feedback record")
	}
	n := uint64(binary.BigEndian.Uint32(payload[1:]))
	dim := uint64(binary.BigEndian.Uint32(payload[5:]))
	// Bound the row count by the payload before multiplying: counts whose
	// product wraps would pass the length check and size the allocations
	// below.
	body, rowBytes := uint64(len(payload)-9), dim*8+8
	if n > body/rowBytes || n*rowBytes != body {
		return fb, fmt.Errorf("wal: feedback record is %d bytes, wrong length for n=%d dim=%d", len(payload), n, dim)
	}
	if n == 0 && dim != 0 {
		return fb, fmt.Errorf("wal: empty feedback record with dim %d", dim)
	}
	fb.X = make([][]float64, n)
	fb.Y = make([]int, n)
	fb.S = make([]int, n)
	off := 9
	for i := range fb.X {
		row := make([]float64, dim)
		for j := range row {
			row[j] = math.Float64frombits(binary.BigEndian.Uint64(payload[off:]))
			off += 8
		}
		fb.X[i] = row
		fb.Y[i] = int(int32(binary.BigEndian.Uint32(payload[off:])))
		fb.S[i] = int(int32(binary.BigEndian.Uint32(payload[off+4:])))
		off += 8
	}
	return fb, nil
}

// Acquisition is the decoded form of a KindAcquisition record: one query
// round of the online protocol — task, round and the pool indices the
// strategy chose to label.
type Acquisition struct {
	Task  int64
	Round int64
	Picks []int64
}

// AppendAcquisition encodes acq onto buf. Layout, all big-endian:
//
//	kind (1) | task (int64) | round (int64) | k (uint32) | k× int64
func AppendAcquisition(buf []byte, acq Acquisition) []byte {
	buf = append(buf, byte(KindAcquisition))
	buf = binary.BigEndian.AppendUint64(buf, uint64(acq.Task))
	buf = binary.BigEndian.AppendUint64(buf, uint64(acq.Round))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(acq.Picks)))
	for _, p := range acq.Picks {
		buf = binary.BigEndian.AppendUint64(buf, uint64(p))
	}
	return buf
}

// DecodeAcquisition parses a KindAcquisition record.
func DecodeAcquisition(payload []byte) (Acquisition, error) {
	var acq Acquisition
	if len(payload) < 21 || Kind(payload[0]) != KindAcquisition {
		return acq, fmt.Errorf("wal: not an acquisition record")
	}
	acq.Task = int64(binary.BigEndian.Uint64(payload[1:]))
	acq.Round = int64(binary.BigEndian.Uint64(payload[9:]))
	k := uint64(binary.BigEndian.Uint32(payload[17:]))
	if k*8 != uint64(len(payload)-21) { // k < 2^32: no wrap
		return acq, fmt.Errorf("wal: acquisition record is %d bytes, wrong length for k=%d", len(payload), k)
	}
	acq.Picks = make([]int64, k)
	for i := range acq.Picks {
		acq.Picks[i] = int64(binary.BigEndian.Uint64(payload[21+i*8:]))
	}
	return acq, nil
}
