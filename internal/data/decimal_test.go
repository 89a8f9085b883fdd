package data

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// mismatch describes how parseFloatField's reading of the field at the start
// of b (up to its first comma) differs from strconv.ParseFloat's, or returns
// "": the value bits, whether it errs and the field's length must agree.
// Where the kernel takes a prefix itself, strconv must read that prefix alone
// to the same bits, since the reader keeps it when a comma follows.
func mismatch(b []byte) string {
	field := b
	if i := bytes.IndexByte(b, ','); i >= 0 {
		field = b[:i]
	}
	want, wantErr := strconv.ParseFloat(string(field), 64)
	got, n, err := parseFloatField(b)
	if math.Float64bits(got) != math.Float64bits(want) || (err == nil) != (wantErr == nil) || n != len(field) {
		return fmt.Sprintf("%q: parseFloatField = %v (%#x), %d, %v; strconv = %v (%#x), %d, %v",
			b, got, math.Float64bits(got), n, err, want, math.Float64bits(want), len(field), wantErr)
	}
	if f, n, ok := parseFloatPrefix(b); ok {
		want, err := strconv.ParseFloat(string(b[:n]), 64)
		if err != nil || math.Float64bits(f) != math.Float64bits(want) {
			return fmt.Sprintf("%q: kernel read prefix %q as %v (%#x); strconv %v (%#x), %v",
				b, b[:n], f, math.Float64bits(f), want, math.Float64bits(want), err)
		}
	}
	return ""
}

// TestParseFloatFieldMatchesStrconv holds the kernel to strconv over
// 1,048,576 formatted float64s in 'g', 'e' and 'f' at shortest and fixed
// precisions: normal values across 40 decades, random bit patterns (NaNs and
// infinities among them), values within 1e-10 of ±MaxFloat64, ±0 and
// subnormals. Precision 25 gives mantissas longer than 19 digits. strconv
// reads a subnormal, an overflow and most values with more than 19 digits by
// multi-precision arithmetic, at up to 50 µs each, so subnormals are one case
// in 256 and values near ±MaxFloat64 four, and outside the normal values and
// ±0, 'f' (hundreds of digits) and precision 25 are one draw in 16. The last
// cases put
// every power of ten of the table, and a few beyond it, behind mantissas of
// 1 to 19 digits.
func TestParseFloatFieldMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	precs := []int{-1, 3, 6, 17, 25}
	var buf []byte
	kernel := 0
	const n = 1 << 20
	for i := 0; i < n; i++ {
		var v float64
		normal := false
		switch c := i % 256; {
		case c < 128:
			v = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(41)-20))
			normal = true
		case c < 228:
			v = math.Float64frombits(rng.Uint64())
		case c < 232:
			v = math.Copysign(math.MaxFloat64*(1-rng.Float64()*1e-10), float64(rng.Intn(2)*2-1))
		case c < 255:
			v = math.Copysign(0, float64(rng.Intn(2)*2-1))
			normal = true
		default:
			v = math.Float64frombits(rng.Uint64() & (1<<52 - 1))
		}
		format, prec := []byte{'g', 'e', 'f'}[rng.Intn(3)], precs[rng.Intn(len(precs))]
		if !normal && (format == 'f' || prec > 19) && rng.Intn(16) != 0 {
			format, prec = 'e', 17
		}
		buf = strconv.AppendFloat(buf[:0], v, format, prec, 64)
		if rng.Intn(2) == 0 {
			buf = append(buf, ',', '1') // a field the reader would step past
		}
		if msg := mismatch(buf); msg != "" {
			t.Fatal(msg)
		}
		if _, _, ok := parseFloatPrefix(buf); ok {
			kernel++
		}
	}
	for e := minPow10 - 19; e <= maxPow10+1; e++ {
		for _, digits := range []int{1, 7, 17, 19} {
			m := rng.Uint64()%uint64(math.Pow10(digits-1)*9) + uint64(math.Pow10(digits-1))
			buf = strconv.AppendUint(buf[:0], m, 10)
			buf = append(buf, 'e')
			buf = strconv.AppendInt(buf, int64(e), 10)
			if msg := mismatch(buf); msg != "" {
				t.Fatal(msg)
			}
		}
	}
	if kernel < n/2 {
		t.Fatalf("the kernel converted only %d of %d values itself", kernel, n)
	}
}

func TestParseIntPrefix(t *testing.T) {
	for _, s := range []string{"0", "+1", "-1", "-0", "007", "123456789012345678", "-123456789012345678"} {
		v, n, ok := parseIntPrefix([]byte(s))
		want, err := strconv.Atoi(s)
		if !ok || err != nil || v != want || n != len(s) {
			t.Fatalf("%q: %d %d %v, want %d", s, v, n, ok, want)
		}
	}
	// Left to strconv: no digit, or more than 18.
	for _, s := range []string{"", "+", "-", "x1", "1234567890123456789", "+-1"} {
		if _, _, ok := parseIntPrefix([]byte(s)); ok {
			t.Fatalf("%q: taken", s)
		}
	}
}

// FuzzParseDecimal holds parseFloatField to strconv.ParseFloat on any bytes:
// value bits, error or none, and the field's extent.
func FuzzParseDecimal(f *testing.F) {
	for _, s := range []string{
		"0.5", "+1", "-0", "1e400", "4.9e-324", "0x1p-2", "NaN", "inf",
		"1234567890123456789012345", "0.12345678901234568,7", "-1.2e-05",
		"", ".", ".5", "5.", "1e", "1e+", "1_0", "00000000000000000000001.5",
		"9007199254740993", "2.2250738585072011e-308", "1.7976931348623157e308",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if msg := mismatch(b); msg != "" {
			t.Fatal(msg)
		}
	})
}
