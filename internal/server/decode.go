package server

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"sync"
	"unicode/utf8"

	"faction/internal/gda"
	"faction/internal/mat"
)

// The read path (/predict, /score) is allocation-free at steady state: every
// per-request buffer — the body bytes, the decoded instance matrix, the
// density and response storage — lives in a pooled reqScratch that a
// handler checks out on entry and returns on exit.
// Request decoding uses a hand-rolled parser for the one body shape the API
// accepts ({"instances": [[...], ...]}) because json.Unmarshal allocates per
// call; the parser enforces the same strictness as the json.Decoder +
// DisallowUnknownFields it replaced (see parseInstances), and strconv's
// ParseFloat guarantees the decoded values are bit-identical.

// reqScratch carries every buffer one /predict or /score request needs. All
// slices grow to a high-water mark and are reused; at a fixed request shape a
// steady-state handler performs no heap allocation (pinned by
// TestPredictHandlerSteadyStateAllocs).
type reqScratch struct {
	body bytes.Buffer // raw request body

	// Decoded instances: flat holds the row-major values, rowEnds[i] is the
	// end offset of row i in flat (so ragged rows are detectable), and x views
	// flat as a matrix once validation has proven the rows rectangular.
	flat    []float64
	rowEnds []int
	x       mat.Dense

	// Compute + response storage, reused by buildPredictInto/buildScoreInto.
	batch     gda.BatchScores
	classes   []int
	margins   []float64 // top-1 minus top-2 probability per row (audit trail)
	probsFlat []float64
	probsRows [][]float64
	ood       []bool
	u, omega  []float64
	probs     []float64
	predict   predictResponse
	score     scoreResponse
}

var reqScratchPool = sync.Pool{New: func() any { return new(reqScratch) }}

func getReqScratch() *reqScratch { return reqScratchPool.Get().(*reqScratch) }

func putReqScratch(sc *reqScratch) {
	sc.body.Reset()
	reqScratchPool.Put(sc)
}

// growFloats reslices buf to length n, reallocating only when the capacity is
// insufficient — the steady-state reuse primitive of the scratch fields.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

func growBools(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	return buf[:n]
}

var instancesKey = []byte("instances")

// parseInstances parses the JSON body in sc.body into sc.flat/sc.rowEnds
// without allocating on the happy path. It accepts exactly what the previous
// json.Decoder + DisallowUnknownFields accepted:
//
//   - the body must be one JSON object, or null (no instances); bytes after
//     it are ignored (Decode reads a single value and leaves the rest of the
//     stream untouched)
//   - "instances" is the only legal key, matched case-insensitively with
//     Unicode folding (bytes.EqualFold, which is how encoding/json matches
//     field names, so "INSTANCES" and "inſtances" count); any other key is
//     an error, duplicate keys last-win (see keepStale for the one wrinkle),
//     and a null value (or an absent key) decodes as nil
//   - rows are arrays of JSON numbers; a null row decodes as an empty row and
//     a null element leaves its float64 untouched, matching json.Unmarshal's
//     treatment of null (so it is 0 unless a repeated key left a value there)
//   - number tokens are validated against the JSON grammar before strconv
//     sees them (so "NaN", hex floats and leading '+' are rejected), and any
//     ParseFloat failure — i.e. overflow like 1e999 — is an error, exactly as
//     encoding/json rejects numbers float64 cannot represent
func parseInstances(sc *reqScratch) error {
	p := instParser{buf: sc.body.Bytes()}
	sc.flat, sc.rowEnds = sc.flat[:0], sc.rowEnds[:0]
	p.skipWS()
	if p.pos >= len(p.buf) {
		return io.EOF // what Decode returns on an empty body
	}
	if p.consumeWord("null") {
		return nil // null into a struct is a no-op → "no instances" downstream
	}
	if !p.consume('{') {
		return p.errf("request body must be a JSON object")
	}
	p.skipWS()
	if p.consume('}') {
		return nil
	}
	seen := false
	for {
		key, err := p.parseKey()
		if err != nil {
			return err
		}
		if !bytes.EqualFold(key, instancesKey) {
			return p.errf("unknown field %q", key)
		}
		p.skipWS()
		if !p.consume(':') {
			return p.errf("expected ':' after object key")
		}
		// Duplicate "instances" keys: last one wins, like encoding/json.
		if seen {
			p.keepStale(sc)
		}
		seen = true
		sc.flat, sc.rowEnds = sc.flat[:0], sc.rowEnds[:0]
		if err := p.parseRows(sc); err != nil {
			return err
		}
		p.skipWS()
		if p.consume(',') {
			p.skipWS()
			continue
		}
		if p.consume('}') {
			return nil
		}
		return p.errf("expected ',' or '}' in object")
	}
}

// instParser is the cursor of parseInstances. Errors allocate (fmt.Errorf);
// they terminate the request, so only the accepting path must be alloc-free.
// A repeated "instances" key allocates stale too; no real client sends one.
type instParser struct {
	buf []byte
	pos int
	// stale[i] holds the values earlier "instances" keys left in row i.
	stale [][]float64
}

// keepStale records the rows just decoded before a repeated "instances" key
// overwrites them. encoding/json decodes the repeat into the same slices,
// and a null element leaves a float64 untouched, so it reads back the last
// number any earlier key put at that position (0 if none did). A null or
// empty array is a fresh slice, so it forgets what was there: the whole
// table for the instances value, one row's values for a row.
func (p *instParser) keepStale(sc *reqScratch) {
	if len(sc.rowEnds) == 0 {
		p.stale = p.stale[:0]
		return
	}
	prev := 0
	for i, end := range sc.rowEnds {
		row := sc.flat[prev:end]
		prev = end
		if i == len(p.stale) {
			p.stale = append(p.stale, nil)
		}
		if len(row) == 0 {
			p.stale[i] = nil
			continue
		}
		if n := len(row) - len(p.stale[i]); n > 0 {
			p.stale[i] = append(p.stale[i], make([]float64, n)...)
		}
		copy(p.stale[i], row)
	}
}

func (p *instParser) skipWS() {
	for p.pos < len(p.buf) {
		switch p.buf[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// consume advances past c when it is the next byte.
func (p *instParser) consume(c byte) bool {
	if p.pos < len(p.buf) && p.buf[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

// consumeWord advances past the literal w when it is next.
func (p *instParser) consumeWord(w string) bool {
	if len(p.buf)-p.pos >= len(w) && string(p.buf[p.pos:p.pos+len(w)]) == w {
		p.pos += len(w)
		return true
	}
	return false
}

func (p *instParser) errf(format string, args ...any) error {
	return fmt.Errorf(format+" (offset %d)", append(args, p.pos)...)
}

// parseKey parses a JSON string and returns its content. Keys containing
// escapes are unescaped (allocating — a legitimate client never escapes
// "instances", and unknown keys terminate the request anyway).
func (p *instParser) parseKey() ([]byte, error) {
	p.skipWS()
	if !p.consume('"') {
		return nil, p.errf("expected object key")
	}
	start := p.pos
	escaped := false
	for p.pos < len(p.buf) {
		switch c := p.buf[p.pos]; {
		case c == '"':
			raw := p.buf[start:p.pos]
			p.pos++
			if escaped {
				return unescapeString(raw)
			}
			return raw, nil
		case c == '\\':
			escaped = true
			p.pos += 2
		case c < 0x20:
			return nil, p.errf("invalid control character in string")
		default:
			p.pos++
		}
	}
	return nil, p.errf("unterminated string")
}

// unescapeString resolves JSON string escapes. Surrogate pairs outside the
// BMP are decoded individually to the replacement rune — adequate here, since
// the only accepted key is plain ASCII and everything else is an error whose
// message merely quotes the key.
func unescapeString(raw []byte) ([]byte, error) {
	out := make([]byte, 0, len(raw))
	for i := 0; i < len(raw); {
		c := raw[i]
		if c != '\\' {
			out = append(out, c)
			i++
			continue
		}
		if i+1 >= len(raw) {
			return nil, fmt.Errorf("truncated escape in string")
		}
		switch e := raw[i+1]; e {
		case '"', '\\', '/':
			out = append(out, e)
			i += 2
		case 'b':
			out = append(out, '\b')
			i += 2
		case 'f':
			out = append(out, '\f')
			i += 2
		case 'n':
			out = append(out, '\n')
			i += 2
		case 'r':
			out = append(out, '\r')
			i += 2
		case 't':
			out = append(out, '\t')
			i += 2
		case 'u':
			if i+6 > len(raw) {
				return nil, fmt.Errorf("truncated \\u escape in string")
			}
			v, err := strconv.ParseUint(string(raw[i+2:i+6]), 16, 32)
			if err != nil {
				return nil, fmt.Errorf("invalid \\u escape in string")
			}
			out = utf8.AppendRune(out, rune(v))
			i += 6
		default:
			return nil, fmt.Errorf("invalid escape \\%c in string", e)
		}
	}
	return out, nil
}

// parseRows parses the value of "instances": an array of rows, or null.
func (p *instParser) parseRows(sc *reqScratch) error {
	p.skipWS()
	if p.consumeWord("null") {
		return nil // null decodes as a nil slice → "no instances" downstream
	}
	if !p.consume('[') {
		return p.errf("instances must be an array")
	}
	p.skipWS()
	if p.consume(']') {
		return nil
	}
	for {
		if err := p.parseRow(sc); err != nil {
			return err
		}
		p.skipWS()
		if p.consume(',') {
			p.skipWS()
			continue
		}
		if p.consume(']') {
			return nil
		}
		return p.errf("expected ',' or ']' in instances")
	}
}

// parseRow parses one instance: an array of numbers, or null (an empty row,
// as json.Unmarshal would produce — the dimension check rejects it later with
// the same message as before).
func (p *instParser) parseRow(sc *reqScratch) error {
	p.skipWS()
	if p.consumeWord("null") {
		sc.rowEnds = append(sc.rowEnds, len(sc.flat))
		return nil
	}
	if !p.consume('[') {
		return p.errf("each instance must be an array of numbers")
	}
	p.skipWS()
	if p.consume(']') {
		sc.rowEnds = append(sc.rowEnds, len(sc.flat))
		return nil
	}
	row, start := len(sc.rowEnds), len(sc.flat)
	for {
		p.skipWS()
		var v float64
		if p.consumeWord("null") {
			// json.Unmarshal leaves a float64 untouched on null.
			if col := len(sc.flat) - start; row < len(p.stale) && col < len(p.stale[row]) {
				v = p.stale[row][col]
			}
		} else {
			var err error
			if v, err = p.parseNumber(); err != nil {
				return err
			}
		}
		sc.flat = append(sc.flat, v)
		p.skipWS()
		if p.consume(',') {
			p.skipWS()
			continue
		}
		if p.consume(']') {
			sc.rowEnds = append(sc.rowEnds, len(sc.flat))
			return nil
		}
		return p.errf("expected ',' or ']' in instance")
	}
}

// parseNumber scans one JSON number token and converts it with ParseFloat —
// the converter encoding/json uses, so the decoded value is bit-identical.
func (p *instParser) parseNumber() (float64, error) {
	start := p.pos
	p.consume('-')
	switch {
	case p.consume('0'):
	case p.pos < len(p.buf) && p.buf[p.pos] >= '1' && p.buf[p.pos] <= '9':
		for p.pos < len(p.buf) && isDigit(p.buf[p.pos]) {
			p.pos++
		}
	default:
		return 0, p.errf("expected a number")
	}
	if p.consume('.') {
		if !p.digits() {
			return 0, p.errf("expected digits after decimal point")
		}
	}
	if p.consume('e') || p.consume('E') {
		if !p.consume('+') {
			p.consume('-')
		}
		if !p.digits() {
			return 0, p.errf("expected digits in exponent")
		}
	}
	seg := p.buf[start:p.pos]
	v, err := strconv.ParseFloat(string(seg), 64)
	if err != nil {
		// Grammar is already validated, so this is ErrRange: the number does
		// not fit a float64. encoding/json rejects it too.
		return 0, p.errf("number %s out of range for float64", seg)
	}
	return v, nil
}

// digits consumes a non-empty digit run, reporting whether one was present.
func (p *instParser) digits() bool {
	if p.pos >= len(p.buf) || !isDigit(p.buf[p.pos]) {
		return false
	}
	for p.pos < len(p.buf) && isDigit(p.buf[p.pos]) {
		p.pos++
	}
	return true
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
