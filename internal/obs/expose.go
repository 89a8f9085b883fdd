package obs

import (
	"bufio"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered family in the Prometheus text
// exposition format (version 0.0.4), families sorted by name and samples in a
// deterministic order, so two scrapes of identical state are byte-identical.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if f.help != "" {
			bw.WriteString("# HELP ")
			bw.WriteString(f.name)
			bw.WriteByte(' ')
			bw.WriteString(escapeHelp(f.help))
			bw.WriteByte('\n')
		}
		bw.WriteString("# TYPE ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(f.col.typ())
		bw.WriteByte('\n')
		f.col.emit(func(suffix, labelPairs string, value float64) {
			bw.WriteString(f.name)
			bw.WriteString(suffix)
			if labelPairs != "" {
				bw.WriteByte('{')
				bw.WriteString(labelPairs)
				bw.WriteByte('}')
			}
			bw.WriteByte(' ')
			bw.WriteString(formatFloat(value))
			bw.WriteByte('\n')
		})
	}
	return bw.Flush()
}

// Handler returns an http.Handler serving the exposition — the GET /metrics
// endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// formatFloat renders a sample value the way Prometheus expects: shortest
// round-trip representation, `+Inf`/`-Inf`/`NaN` spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// quoteLabelValue escapes a label value per the exposition format:
// backslash, double-quote and newline. It ranges over runes, so each byte of
// invalid UTF-8 is written as U+FFFD and the exposition stays UTF-8, as the
// format requires (pinned by FuzzExposition).
func quoteLabelValue(v string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// escapeHelp escapes a HELP line: backslash and newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
