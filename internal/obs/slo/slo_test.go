package slo

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"faction/internal/obs"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func TestParseSpecDefaults(t *testing.T) {
	s, err := ParseSpec([]byte(`{"objectives":[{"name":"fairness_gap","max":0.2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if time.Duration(s.Interval) != 10*time.Second {
		t.Fatalf("interval default: %v", time.Duration(s.Interval))
	}
	o := s.Objectives[0]
	if o.Target != "fairness_gap" {
		t.Fatalf("target should default to name, got %q", o.Target)
	}
	if o.Budget != 0.05 || time.Duration(o.Window) != time.Hour ||
		time.Duration(o.FastWindow) != 5*time.Minute || o.BurnFactor != 2 {
		t.Fatalf("defaults not applied: %+v", o)
	}
}

func TestParseSpecDurationsAndErrors(t *testing.T) {
	s, err := ParseSpec([]byte(`{"interval":"1s","objectives":[
		{"name":"a","max":1,"window":"2m","fastWindow":"30s","budget":0.1,"burnFactor":3}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if time.Duration(s.Objectives[0].Window) != 2*time.Minute ||
		time.Duration(s.Objectives[0].FastWindow) != 30*time.Second {
		t.Fatalf("durations: %+v", s.Objectives[0])
	}

	for _, bad := range []string{
		`{"objectives":[]}`,
		`{"objectives":[{"max":1}]}`,
		`{"objectives":[{"name":"a","max":1},{"name":"a","max":2}]}`,
		`{"objectives":[{"name":"a","max":1,"budget":1.5}]}`,
		`{"objectives":[{"name":"a","max":1,"window":"1m","fastWindow":"2m"}]}`,
		`{"objectives":[{"name":"a","max":1,"burnFactor":0.5}]}`,
		`{"objectives":[{"name":"a","max":1,"window":5}]}`,
		`not json`,
		// A window of 2^63 − 1 ns at a 1 ns interval: NewEngine once panicked
		// allocating its ring.
		`{"interval":"1ns","objectives":[{"name":"a","max":1,"window":"2562047h"}]}`,
		`{"interval":"1ms","objectives":[{"name":"a","max":1,"window":"1h"}]}`,
	} {
		if _, err := ParseSpec([]byte(bad)); err == nil {
			t.Errorf("ParseSpec(%s) should fail", bad)
		}
	}
}

// The window cap admits exactly maxWindowTicks intervals.
func TestParseSpecWindowCap(t *testing.T) {
	ok := `{"interval":"1s","objectives":[{"name":"a","max":1,"window":"18h12m16s"}]}` // 65,536 s
	if _, err := ParseSpec([]byte(ok)); err != nil {
		t.Fatalf("window of %d ticks rejected: %v", maxWindowTicks, err)
	}
	over := `{"interval":"1s","objectives":[{"name":"a","max":1,"window":"18h12m17s"}]}`
	if _, err := ParseSpec([]byte(over)); err == nil {
		t.Fatalf("window of %d ticks accepted", maxWindowTicks+1)
	}
}

// FuzzSLOSpec: ParseSpec never panics, and a spec it accepts always builds
// an engine on a fresh registry that evaluates once without panicking.
// Seeds: the ParseSpec table above and the default spec. Run it with
// `make fuzz-smoke`.
func FuzzSLOSpec(f *testing.F) {
	def, err := json.Marshal(DefaultSpec())
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(def),
		`{"objectives":[{"name":"fairness_gap","max":0.2}]}`,
		`{"interval":"1s","objectives":[{"name":"a","max":1,"window":"2m","fastWindow":"30s","budget":0.1,"burnFactor":3}]}`,
		`{"interval":"1ns","objectives":[{"name":"a","max":1,"window":"2562047h"}]}`,
		`{"objectives":[{"name":"a","max":1,"window":"1m","fastWindow":"2m"}]}`,
		`{"objectives":[{"name":"a","target":"b","max":-1e308,"budget":1e-300}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		spec, err := ParseSpec(b)
		if err != nil {
			return
		}
		e, err := NewEngine(obs.NewRegistry(), spec, nil, quietLogger())
		if err != nil {
			t.Fatalf("ParseSpec accepted %q, NewEngine rejected it: %v", b, err)
		}
		e.Evaluate(time.Now())
	})
}

func TestDefaultSpecValid(t *testing.T) {
	s := DefaultSpec()
	if err := s.normalize(); err != nil {
		t.Fatal(err)
	}
	if len(s.Objectives) != 4 {
		t.Fatalf("default spec has %d objectives", len(s.Objectives))
	}
}

// tickSpec is a tiny spec where each evaluation is one window tick.
func tickSpec(budget, factor float64, slowTicks, fastTicks int) Spec {
	iv := time.Second
	return Spec{
		Interval: Duration(iv),
		Objectives: []ObjectiveSpec{{
			Name: "obj", Target: "obj", Max: 1,
			Budget:     budget,
			Window:     Duration(time.Duration(slowTicks) * iv),
			FastWindow: Duration(time.Duration(fastTicks) * iv),
			BurnFactor: factor,
		}},
	}
}

func TestBurnRateTransitions(t *testing.T) {
	reg := obs.NewRegistry()
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	v := 0.0
	e, err := NewEngine(reg, tickSpec(0.5, 2, 10, 2),
		map[string]TargetFunc{"obj": func() float64 { return v }}, logger)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, 0)

	// Healthy ticks: no burn.
	for i := 0; i < 4; i++ {
		e.Evaluate(now)
	}
	st := e.Status().Objectives[0]
	if st.Burning || st.Violating || float64(st.BurnRateSlow) != 0 {
		t.Fatalf("healthy state: %+v", st)
	}
	if float64(st.BudgetRemaining) != 1 {
		t.Fatalf("budget remaining %v, want 1", st.BudgetRemaining)
	}

	// Violate: value 5 > max 1. With budget 0.5 and factor 2, burning
	// requires a fully violating fast window (rate 1/0.5 = 2) and slow rate
	// >= 2, i.e. all observed ticks violating once enough accumulate.
	v = 5
	e.Evaluate(now) // slow: 1/5 bad → rate 0.4; fast: 1/2 → 1.0
	if e.Status().Objectives[0].Burning {
		t.Fatal("one bad tick should not burn yet")
	}
	for i := 0; i < 20; i++ {
		e.Evaluate(now)
	}
	st = e.Status().Objectives[0]
	if !st.Burning || !st.Violating {
		t.Fatalf("sustained violation should burn: %+v", st)
	}
	if !strings.Contains(logBuf.String(), "slo burning") {
		t.Fatalf("missing transition log: %s", logBuf.String())
	}
	if g, ok := readGauge(reg, "faction_slo_burning", `slo="obj",window="fast"`); !ok || g != 1 {
		t.Fatalf("faction_slo_burning fast = %g, %v", g, ok)
	}
	if br := float64(st.BudgetRemaining); br >= 0 {
		t.Fatalf("fully violating window should overspend the budget, remaining %g", br)
	}

	// Recover: healthy ticks push the fast window clean first.
	v = 0
	logBuf.Reset()
	for i := 0; i < 20; i++ {
		e.Evaluate(now)
	}
	st = e.Status().Objectives[0]
	if st.Burning || st.Violating {
		t.Fatalf("recovered state: %+v", st)
	}
	if !strings.Contains(logBuf.String(), "slo recovered") {
		t.Fatalf("missing recovery log: %s", logBuf.String())
	}
	if c, ok := readCounter(reg, "faction_slo_transitions_total", `slo="obj",to="burning"`); !ok || c != 1 {
		t.Fatalf("transitions to=burning = %g", c)
	}
	if c, ok := readCounter(reg, "faction_slo_transitions_total", `slo="obj",to="ok"`); !ok || c != 1 {
		t.Fatalf("transitions to=ok = %g", c)
	}
}

func TestUnresolvableTargetViolates(t *testing.T) {
	reg := obs.NewRegistry()
	e, err := NewEngine(reg, tickSpec(0.1, 1, 4, 1), nil, quietLogger())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		e.Evaluate(time.Unix(0, 0))
	}
	st := e.Status().Objectives[0]
	if !st.Violating || !st.Burning {
		t.Fatalf("missing target must violate and burn: %+v", st)
	}
	// The unmeasurable value renders as null, keeping /slo JSON-valid.
	b, err := json.Marshal(e.Status())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"value":null`) {
		t.Fatalf("NaN value should render null: %s", b)
	}
}

func TestRegistryFallbackTarget(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Gauge("faction_lag", "").Set(3)
	spec := tickSpec(0.5, 1, 4, 1)
	spec.Objectives[0].Target = "faction_lag"
	spec.Objectives[0].Max = 10
	e, err := NewEngine(reg, spec, nil, quietLogger())
	if err != nil {
		t.Fatal(err)
	}
	e.Evaluate(time.Unix(0, 0))
	st := e.Status().Objectives[0]
	if st.Violating || float64(st.Value) != 3 {
		t.Fatalf("registry fallback: %+v", st)
	}
}

func TestNaNSampleViolates(t *testing.T) {
	reg := obs.NewRegistry()
	e, err := NewEngine(reg, tickSpec(0.5, 1, 4, 1),
		map[string]TargetFunc{"obj": func() float64 { return math.NaN() }}, quietLogger())
	if err != nil {
		t.Fatal(err)
	}
	e.Evaluate(time.Unix(0, 0))
	if !e.Status().Objectives[0].Violating {
		t.Fatal("NaN sample must count as violating")
	}
}

func TestHandler(t *testing.T) {
	reg := obs.NewRegistry()
	e, err := NewEngine(reg, DefaultSpec(), map[string]TargetFunc{
		"fairness_gap":   func() float64 { return 0.1 },
		"p99_latency":    func() float64 { return 0.02 },
		"error_rate":     func() float64 { return 0 },
		"wal_replay_lag": func() float64 { return 0 },
	}, quietLogger())
	if err != nil {
		t.Fatal(err)
	}
	e.Evaluate(time.Unix(0, 0))

	rec := httptest.NewRecorder()
	e.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/slo", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var st Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Objectives) != 4 || st.IntervalSeconds != 10 {
		t.Fatalf("status: %+v", st)
	}
	for _, o := range st.Objectives {
		if o.Violating || o.Burning {
			t.Fatalf("healthy objective reported bad: %+v", o)
		}
	}

	rec = httptest.NewRecorder()
	e.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/slo", nil))
	if rec.Code != 405 {
		t.Fatalf("POST status %d, want 405", rec.Code)
	}
}

func TestStartStop(t *testing.T) {
	reg := obs.NewRegistry()
	spec := tickSpec(0.5, 2, 10, 2)
	spec.Interval = Duration(time.Millisecond)
	e, err := NewEngine(reg, spec,
		map[string]TargetFunc{"obj": func() float64 { return 0 }}, quietLogger())
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	deadline := time.After(2 * time.Second)
	for e.Status().Objectives[0].Ticks == 0 {
		select {
		case <-deadline:
			t.Fatal("background loop never evaluated")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	e.Stop()
	e.Stop()

	var e2 *Engine
	e2, err = NewEngine(obs.NewRegistry(), tickSpec(0.5, 2, 4, 1),
		map[string]TargetFunc{"obj": func() float64 { return 0 }}, quietLogger())
	if err != nil {
		t.Fatal(err)
	}
	e2.Stop() // never started: must not hang
}

func TestEvaluateZeroAllocs(t *testing.T) {
	reg := obs.NewRegistry()
	e, err := NewEngine(reg, DefaultSpec(), map[string]TargetFunc{
		"fairness_gap":   func() float64 { return 0.1 },
		"p99_latency":    func() float64 { return 0.02 },
		"error_rate":     func() float64 { return 0 },
		"wal_replay_lag": func() float64 { return 0 },
	}, quietLogger())
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, 0)
	e.Evaluate(now) // settle state so no transitions fire during measurement
	if allocs := testing.AllocsPerRun(200, func() { e.Evaluate(now) }); allocs != 0 {
		t.Fatalf("Evaluate allocates %.1f allocs/op, want 0", allocs)
	}
}

func BenchmarkEvaluate(b *testing.B) {
	reg := obs.NewRegistry()
	e, err := NewEngine(reg, DefaultSpec(), map[string]TargetFunc{
		"fairness_gap":   func() float64 { return 0.1 },
		"p99_latency":    func() float64 { return 0.02 },
		"error_rate":     func() float64 { return 0 },
		"wal_replay_lag": func() float64 { return 0 },
	}, quietLogger())
	if err != nil {
		b.Fatal(err)
	}
	now := time.Unix(0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Evaluate(now)
	}
}

// readGauge/readCounter scrape the registry text exposition for one sample.
func readGauge(reg *obs.Registry, name, labels string) (float64, bool) {
	return readSample(reg, name+"{"+labels+"} ")
}

func readCounter(reg *obs.Registry, name, labels string) (float64, bool) {
	return readSample(reg, name+"{"+labels+"} ")
}

func readSample(reg *obs.Registry, prefix string) (float64, bool) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return 0, false
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, prefix) {
			v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, prefix)), 64)
			if err == nil {
				return v, true
			}
		}
	}
	return 0, false
}
