package obs

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestExpositionLabelEscaping(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("faction_esc_total", "escaping", "k")
	cv.With("line1\nline2").Add(1)
	cv.With(`quote"inside`).Add(2)
	cv.With(`back\slash`).Add(3)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`faction_esc_total{k="line1\nline2"} 1`,
		`faction_esc_total{k="quote\"inside"} 2`,
		`faction_esc_total{k="back\\slash"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// A raw (unescaped) newline inside a label value would split the sample
	// line and corrupt the scrape.
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasPrefix(line, "faction_esc_total{") {
			t.Errorf("sample line corrupted by unescaped newline: %q", line)
		}
	}
}

func TestExpositionNonFiniteGauges(t *testing.T) {
	r := NewRegistry()
	r.Gauge("faction_nan", "").Set(math.NaN())
	r.Gauge("faction_pinf", "").Set(math.Inf(1))
	r.Gauge("faction_ninf", "").Set(math.Inf(-1))

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"faction_nan NaN\n",
		"faction_pinf +Inf\n",
		"faction_ninf -Inf\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestExpositionDeterministicWithGaugeFunc(t *testing.T) {
	r := NewRegistry()
	// Families registered out of name order, including a GaugeFunc (evaluated
	// at scrape time) and a labeled histogram — two scrapes of identical
	// state must be byte-identical.
	r.GaugeFunc("faction_zfn", "func gauge", func() float64 { return 42.5 })
	hv := r.HistogramVec("faction_lat", "latency", []float64{0.1, 1}, "route")
	hv.With("/predict").Observe(0.05)
	hv.With("/score").Observe(2)
	r.Counter("faction_reqs", "requests").Add(9)
	r.Gauge("faction_mid", "gauge").Set(-1)

	var a, b bytes.Buffer
	if err := r.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("consecutive scrapes differ:\n--- first\n%s\n--- second\n%s", a.String(), b.String())
	}
	// Families must appear sorted by name.
	var order []int
	for _, name := range []string{"faction_lat", "faction_mid", "faction_reqs", "faction_zfn"} {
		idx := strings.Index(a.String(), "# TYPE "+name+" ")
		if idx < 0 {
			t.Fatalf("family %s missing from exposition", name)
		}
		order = append(order, idx)
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("families not sorted by name: offsets %v", order)
		}
	}
	if !strings.Contains(a.String(), "faction_zfn 42.5\n") {
		t.Errorf("GaugeFunc value missing:\n%s", a.String())
	}
}

func TestExpositionHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("faction_help_total", "first\nsecond with \\ backslash")
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP faction_help_total first\nsecond with \\ backslash`
	if !strings.Contains(buf.String(), want+"\n") {
		t.Errorf("help line not escaped, want %q in:\n%s", want, buf.String())
	}
}

// FuzzExposition writes a HELP text and a label value through the
// exposition and reads them back with parseExposition: the HELP line returns
// its text exactly, and every sample carries the label value — invalid UTF-8
// bytes each read back as U+FFFD, so the exposition stays UTF-8 as the text
// format requires.
func FuzzExposition(f *testing.F) {
	f.Add("Requests served.", "/predict")
	f.Add("line one\nline two with \\ and \\n", "quote\" back\\slash\nnewline")
	f.Add("", "")
	f.Add("\xff\xfe help", "\xffinvalid\xc3 \xef\xbf\xbd")
	f.Add(`trailing \`, `{a="b",c="d"} 1`)
	f.Fuzz(func(t *testing.T, help, value string) {
		r := NewRegistry()
		r.CounterVec("fuzz_total", help, "k").With(value).Inc()
		r.HistogramVec("fuzz_seconds", help, []float64{1}, "k", "j").With(value, "x").Observe(0.5)
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		helps, samples, err := parseExposition(buf.String())
		if err != nil {
			t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
		}
		for _, name := range []string{"fuzz_total", "fuzz_seconds"} {
			got, ok := helps[name]
			if help == "" && ok || help != "" && got != help {
				t.Fatalf("HELP of %s reads back %q (present %v), want %q", name, got, ok, help)
			}
		}
		want := string([]rune(value))
		if len(samples) != 5 {
			t.Fatalf("%d samples, want 5:\n%s", len(samples), buf.String())
		}
		for _, s := range samples {
			if s.labels["k"] != want {
				t.Fatalf("%s label k reads back %q, want %q", s.name, s.labels["k"], want)
			}
			if s.name != "fuzz_total" && s.labels["j"] != "x" {
				t.Fatalf("%s label j reads back %q, want \"x\"", s.name, s.labels["j"])
			}
		}
	})
}

// expoSample is one sample line of an exposition.
type expoSample struct {
	name   string
	labels map[string]string
	value  string
}

// parseExposition reads the text format WritePrometheus writes: HELP and
// TYPE comments, and samples with quoted label values, unescaping both.
func parseExposition(text string) (helps map[string]string, samples []expoSample, err error) {
	helps = map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name, h, ok := strings.Cut(strings.TrimPrefix(line, "# HELP "), " ")
			if !ok {
				return nil, nil, fmt.Errorf("HELP line without text: %q", line)
			}
			if helps[name], _, err = unescape(h, false); err != nil {
				return nil, nil, err
			}
		case strings.HasPrefix(line, "# TYPE "):
		default:
			s, err := parseSample(line)
			if err != nil {
				return nil, nil, err
			}
			samples = append(samples, s)
		}
	}
	return helps, samples, nil
}

// parseSample reads `name{k="v",...} value`.
func parseSample(line string) (expoSample, error) {
	s := expoSample{labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return s, fmt.Errorf("sample without a value: %q", line)
	}
	s.name, line = line[:i], line[i:]
	if line[0] == '{' {
		line = line[1:]
		for !strings.HasPrefix(line, "}") {
			key, rest, ok := strings.Cut(line, `="`)
			if !ok {
				return s, fmt.Errorf("label without a quoted value: %q", line)
			}
			v, n, err := unescape(rest, true)
			if err != nil {
				return s, err
			}
			s.labels[key] = v
			line = strings.TrimPrefix(rest[n:], ",")
		}
		line = line[1:]
	}
	if !strings.HasPrefix(line, " ") {
		return s, fmt.Errorf("no space before the value: %q", line)
	}
	s.value = line[1:]
	return s, nil
}

// unescape decodes the format's escapes (\\, \n, and \" inside a label
// value). A label value ends at its closing quote, a HELP text at the end of
// text. It returns the value and the bytes consumed.
func unescape(text string, label bool) (string, int, error) {
	var b strings.Builder
	for i := 0; i < len(text); i++ {
		c := text[i]
		if label && c == '"' {
			return b.String(), i + 1, nil
		}
		if c == '\\' && i+1 < len(text) {
			switch next := text[i+1]; {
			case next == '\\':
				c = '\\'
			case next == 'n':
				c = '\n'
			case label && next == '"':
				c = '"'
			default:
				return "", 0, fmt.Errorf("bad escape in %q", text)
			}
			i++
		} else if c == '\\' || c == '\n' {
			return "", 0, fmt.Errorf("bad escape in %q", text)
		}
		b.WriteByte(c)
	}
	if label {
		return "", 0, fmt.Errorf("unterminated label value %q", text)
	}
	return b.String(), len(text), nil
}
