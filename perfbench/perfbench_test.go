package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// wantSpans are the span names each workload's traced run must record.
var wantSpans = map[string][]string{
	"protocol-paper": {
		"setup", "data.ReadStreamCSV", "online.Run FACTION", "online.Run Random", "online.task",
		"online.warmstart", "online.eval", "online.train", "online.select", "online.acquire",
		"online.fairness", "faction.SelectBatch",
	},
	"serve-mixed": {
		"setup", "nn.Train", "nn.SaveClassifierFile", "gda.Fit", "gda.SaveFile", "server.boot",
		"snapshot.Load", "wal.Open", "server.New", "http POST /predict", "http POST /score",
		"http POST /feedback", "http POST /refit",
	},
	"serve-routed": {
		"setup", "nn.Train", "nn.SaveClassifierFile", "gda.Fit", "gda.SaveFile", "server.boot",
		"snapshot.Load", "server.New", "fleet.New", "http POST /predict", "http POST /score",
	},
}

// TestWorkloadsSmoke runs every workload at smoke size, untraced and traced,
// and checks outputs, metric coverage, span names and span nesting. It never
// looks at a wall-clock value.
func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				out, err := workloads[name](opts{seed: 3, seconds: 1, trace: trace, dir: t.TempDir(), smoke: true})
				if err != nil {
					t.Fatal(err)
				}
				if len(out.problems) > 0 {
					t.Fatalf("trace=%v: checks failed: %v", trace, out.problems)
				}
				if out.attempted < 1 || out.failed != 0 {
					t.Fatalf("trace=%v: attempted %d, failed %d", trace, out.attempted, out.failed)
				}
				for _, d := range append(append([]metricDef(nil), endToEnd...), reportedOnly...) {
					if v, ok := out.e2e[d.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
						t.Errorf("trace=%v: end-to-end %s = %v (present %v), want a positive number", trace, d.name, v, ok)
					}
				}
				if !trace {
					continue
				}
				known := map[string]bool{}
				for _, d := range perLayer {
					known[d.name] = true
				}
				for k := range out.layer {
					if !known[k] {
						t.Errorf("per-layer metric %s is not declared", k)
					}
				}
				checkSpans(t, name, out.spans)
			}
		})
	}
}

func checkSpans(t *testing.T, workload string, spans []span) {
	t.Helper()
	if err := checkNesting(spans); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	byID := map[uint64]span{}
	for _, s := range spans {
		names[s.Name] = true
		byID[s.ID] = s
	}
	for _, want := range wantSpans[workload] {
		if !names[want] {
			t.Errorf("no %q span; recorded %v", want, sortedKeys(names))
		}
	}
	for _, s := range spans {
		parent := byID[s.Parent].Name
		switch {
		case s.Name == "faction.SelectBatch" && parent != "online.select":
			t.Errorf("faction.SelectBatch under %q, want online.select", parent)
		case strings.HasPrefix(s.Name, "online.") && s.Name != "online.task" && !strings.HasPrefix(s.Name, "online.Run") && parent != "online.task":
			t.Errorf("%s under %q, want online.task", s.Name, parent)
		case s.Name == "online.task" && !strings.HasPrefix(parent, "online.Run"):
			t.Errorf("online.task under %q, want an online.Run span", parent)
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists and the
// metrics the program reports identical, name for name and unit for unit.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		declared []struct{ Name, Unit string }
		defs     []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.declared) != len(c.defs) {
			t.Fatalf("BENCHMARK.json declares %d metrics, the program reports %d", len(c.declared), len(c.defs))
		}
		for i, d := range c.defs {
			if c.declared[i].Name != d.name || c.declared[i].Unit != d.unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, c.declared[i].Name, c.declared[i].Unit, d.name, d.unit)
			}
		}
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames())
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "root", ID: 1, Trace: 1, Start: 0, End: 100 * ms},
		{Name: "a", ID: 2, Parent: 1, Trace: 1, Start: 10 * ms, End: 40 * ms},
		{Name: "b", ID: 3, Parent: 1, Trace: 1, Start: 30 * ms, End: 50 * ms}, // overlaps a
		{Name: "c", ID: 4, Parent: 1, Trace: 1, Start: 80 * ms, End: 90 * ms},
	}
	if err := checkNesting(spans); err != nil {
		t.Fatal(err)
	}
	for _, st := range selfTimes(spans) {
		if st.name == "root" && st.self != 50*ms {
			t.Fatalf("root self %v, want 50ms (100 minus the union 10-50 and 80-90)", st.self)
		}
	}
	escaped := append(spans, span{Name: "late", ID: 5, Parent: 1, Trace: 1, Start: 95 * ms, End: 120 * ms})
	if checkNesting(escaped) == nil {
		t.Fatal("a child outliving its parent passed the nesting check")
	}
}

func TestParseExposition(t *testing.T) {
	text := `# HELP x_seconds demo
# TYPE x_seconds histogram
x_seconds_bucket{route="/a",le="+Inf"} 3
x_seconds_sum{route="/a"} 1.5
x_seconds_count{route="/a"} 3
y_total 7
`
	s, err := parseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.mean("x_seconds", `{route="/a"}`); got != 0.5 {
		t.Fatalf("mean %v, want 0.5", got)
	}
	if s["y_total"] != 7 || s.sum("x_seconds_count{") != 3 {
		t.Fatalf("parsed %v", s)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if q := quantile(xs, 0.5); q != 2.5 {
		t.Fatalf("median %v, want 2.5", q)
	}
	if q := quantile(xs, 1); q != 4 {
		t.Fatalf("max %v, want 4", q)
	}
	if xs[0] != 4 {
		t.Fatal("quantile reordered its input")
	}
}
