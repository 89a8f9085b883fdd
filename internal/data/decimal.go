package data

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"strconv"
	"sync"
)

// The CSV reader's number kernels. parseFloatField gives exactly what
// strconv.ParseFloat gives, value bits and error alike: it converts the
// plain decimals it can round alone (up to 19 significant digits, through
// Eisel–Lemire) and hands every other field to strconv whole. Lemire,
// "Number Parsing at a Gigabyte per Second" (arXiv:2101.11408), is the
// method; strconv's eiselLemire64 is the same algorithm over the same table.

// parseFloatField parses the field at the start of b, which ends at the
// first comma or at the end of b, as strconv.ParseFloat(field, 64) does. It
// returns the value, the field's length and strconv's error, if any.
func parseFloatField(b []byte) (float64, int, error) {
	if f, n, ok := parseFloatPrefix(b); ok && (n == len(b) || b[n] == ',') {
		return f, n, nil
	}
	n := bytes.IndexByte(b, ',')
	if n < 0 {
		n = len(b)
	}
	f, err := strconv.ParseFloat(string(b[:n]), 64)
	return f, n, err
}

// parseFloatPrefix converts the decimal number at the start of b,
// [+-]digits[.digits][(e|E)[+-]digits] with at least one mantissa digit, and
// returns its value and length. ok is false when b does not start with such a
// number, when it has more than 19 significant digits, or when Eisel–Lemire
// cannot round it alone: a halfway ambiguity, a subnormal or infinite result,
// or a power of ten outside the table. The caller then asks strconv.
func parseFloatPrefix(b []byte) (f float64, n int, ok bool) {
	i := 0
	neg := false
	if i < len(b) && (b[i] == '+' || b[i] == '-') {
		neg = b[i] == '-'
		i++
	}
	start := i
	var man uint64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		man = man*10 + uint64(b[i]-'0')
	}
	nd := i - start
	exp10 := 0
	if i < len(b) && b[i] == '.' {
		// A fraction is where the long digit runs are: eight per step
		// while eight bytes remain.
		i++
		frac := i
		for ; len(b)-i >= 8; i += 8 {
			v := binary.LittleEndian.Uint64(b[i:])
			if !eightDigits(v) {
				break
			}
			man = man*1e8 + eightDigitsValue(v)
		}
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			man = man*10 + uint64(b[i]-'0')
		}
		nd += i - frac
		exp10 = frac - i
	}
	if nd == 0 {
		return 0, i, false
	}
	// man wrapped only if more than 19 digits follow the leading zeros.
	if nd > 19 && significantDigits(b[start:i]) > 19 {
		return 0, i, false
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		if i == len(b) || b[i]-'0' > 9 {
			return 0, i, false
		}
		e := 0
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if e < 10000 { // strconv's cap: far past the table either way
				e = e*10 + int(b[i]-'0')
			}
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}
	f, ok = eiselLemire64(man, exp10, neg)
	return f, i, ok
}

// eightDigits reports whether all eight bytes of v are ASCII digits: a byte
// is one exactly when neither b+0x46 nor b−0x30 sets its top bit, and the
// lowest byte that is not a digit sets one before any carry or borrow it
// causes can reach a higher byte.
func eightDigits(v uint64) bool {
	return ((v+0x4646464646464646)|(v-0x3030303030303030))&0x8080808080808080 == 0
}

// eightDigitsValue returns the value of the eight ASCII digits in v, the
// first digit in the lowest byte (a little-endian load): adjacent digits are
// paired into bytes, then the four pairs are weighted by 10⁶, 10⁴, 10² and 1
// in two multiplications whose products meet in the upper 32 bits.
func eightDigitsValue(v uint64) uint64 {
	const (
		pairs   = 0x000000FF000000FF
		mul0145 = 100 + 1000000<<32
		mul2367 = 1 + 10000<<32
	)
	v -= 0x3030303030303030
	v = v*10 + v>>8
	return ((v&pairs)*mul0145 + (v>>16&pairs)*mul2367) >> 32
}

// significantDigits counts the digits of a mantissa from its first non-zero
// digit on.
func significantDigits(mantissa []byte) int {
	n := 0
	for _, c := range mantissa {
		if c != '.' && (n > 0 || c != '0') {
			n++
		}
	}
	return n
}

// eiselLemire64 returns man × 10^exp10 rounded to the nearest float64, ties
// to even, and true; or false when the 128-bit product cannot decide the
// rounding or the result is subnormal, infinite or out of the table's range.
// It is strconv's eiselLemire64 step for step
// (https://nigeltao.github.io/blog/2020/eisel-lemire.html).
func eiselLemire64(man uint64, exp10 int, neg bool) (float64, bool) {
	if man == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	if exp10 < minPow10 || exp10 > maxPow10 {
		return 0, false
	}
	pow := &pow10Table()[exp10-minPow10]

	// Normalise the mantissa and estimate the binary exponent.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const bias = 1023
	retExp2 := uint64(217706*exp10>>16+64+bias) - uint64(clz)

	// The high 64 bits of the product, widened to 128 when the low bits
	// could carry into them.
	xHi, xLo := bits.Mul64(man, pow[1])
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shift to 54 bits; a product exactly halfway is ambiguous.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// Round to 53 bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2++
	}
	if retExp2-1 >= 0x7FF-1 { // subnormal, zero, infinite or NaN space
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&(1<<52-1)
	if neg {
		retBits |= 1 << 63
	}
	return math.Float64frombits(retBits), true
}

// The power-of-ten table covers 10^minPow10 … 10^maxPow10, every power a
// float64 with a 19-digit mantissa can need.
const (
	minPow10 = -348
	maxPow10 = 347
)

// pow10Table returns the 128-bit mantissas of the powers of ten, {low, high}
// words, each scaled into [2¹²⁷, 2¹²⁸) and rounded down: entry for entry
// strconv's detailedPowersOfTen. It is built from math/big on first use
// (about a millisecond), so a program that never reads a CSV never pays.
func pow10Table() *[maxPow10 - minPow10 + 1][2]uint64 {
	pow10Once.Do(buildPow10)
	return &pow10
}

var (
	pow10Once sync.Once
	pow10     [maxPow10 - minPow10 + 1][2]uint64
)

func buildPow10() {
	ten := big.NewInt(10)
	mask := new(big.Int).SetUint64(math.MaxUint64)
	var p, m, w big.Int
	for e := minPow10; e <= maxPow10; e++ {
		p.Exp(ten, big.NewInt(int64(max(e, -e))), nil)
		if e >= 0 {
			if b := p.BitLen(); b > 128 {
				m.Rsh(&p, uint(b-128))
			} else {
				m.Lsh(&p, uint(128-b))
			}
		} else {
			// ⌊2^(127+b) / 10^−e⌋ with 2^(b−1) < 10^−e < 2^b lies in
			// [2¹²⁷, 2¹²⁸).
			m.Lsh(big.NewInt(1), uint(127+p.BitLen()))
			m.Quo(&m, &p)
		}
		pow10[e-minPow10] = [2]uint64{w.And(&m, mask).Uint64(), w.Rsh(&m, 64).Uint64()}
	}
}

// parseIntPrefix converts the integer at the start of b, an optional sign
// and one to 18 digits, as strconv.Atoi would. ok is false when b does not
// start with one; a longer run of digits is left to strconv too.
func parseIntPrefix(b []byte) (v, n int, ok bool) {
	i := 0
	if i < len(b) && (b[i] == '+' || b[i] == '-') {
		i++
	}
	start := i
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		v = v*10 + int(b[i]-'0')
	}
	if i == start || i-start > 18 {
		return 0, i, false
	}
	if b[0] == '-' {
		v = -v
	}
	return v, i, true
}
