package experiments

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"faction/internal/active"
	"faction/internal/data"
	"faction/internal/fairness"
	"faction/internal/obs"
	"faction/internal/online"
)

func ciOpts(datasets, methods []string) Options {
	return Options{
		Seed:     42,
		Runs:     1,
		Scale:    ScaleCI,
		Datasets: datasets,
		Methods:  methods,
	}
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func TestParseScale(t *testing.T) {
	for _, s := range []string{"ci", "small", "paper"} {
		if _, err := ParseScale(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Fatal("expected error")
	}
}

func TestScaleConfigs(t *testing.T) {
	for _, s := range []Scale{ScaleCI, ScaleSmall, ScalePaper} {
		sc := s.StreamConfig(1)
		rc := s.RunConfig(1)
		if sc.SamplesPerTask <= 0 || rc.Budget <= 0 || rc.AcqSize <= 0 {
			t.Fatalf("scale %s has invalid config", s)
		}
		if len(s.WideHidden()) != 3 {
			t.Fatalf("scale %s wide hidden = %v", s, s.WideHidden())
		}
		if s.DefaultRuns() <= 0 {
			t.Fatal("runs")
		}
	}
	// Paper scale matches Section V constants.
	rc := ScalePaper.RunConfig(1)
	if rc.Budget != 200 || rc.AcqSize != 50 || rc.WarmStart != 100 || rc.Hidden[0] != 512 {
		t.Fatalf("paper config = %+v", rc)
	}
}

func TestRunFig2Structure(t *testing.T) {
	opt := ciOpts([]string{"rcmnist"}, []string{"FACTION", "Random"})
	res := RunFig2(opt)
	if len(res.Rows) != 1 || len(res.Methods) != 2 {
		t.Fatalf("rows=%d methods=%v", len(res.Rows), res.Methods)
	}
	row := res.Rows[0]
	for _, metric := range Metrics() {
		series := row.Panels[metric]
		if len(series) != 2 {
			t.Fatalf("%s: %d series", metric, len(series))
		}
		for _, s := range series {
			if len(s.Mean) != 12 { // rcmnist has 12 tasks
				t.Fatalf("%s/%s: %d tasks, want 12", metric, s.Name, len(s.Mean))
			}
			for _, v := range s.Mean {
				if !finite(v) || v < 0 {
					t.Fatalf("%s/%s: bad value %g", metric, s.Name, v)
				}
			}
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "FACTION") || !strings.Contains(buf.String(), "[rcmnist] DDP per task") {
		t.Fatal("render missing content")
	}
	sum := res.SummaryTable()
	if len(sum.Rows) != 2 {
		t.Fatalf("summary rows = %d", len(sum.Rows))
	}
	wins := res.FairnessWinRate("FACTION", MetricDDP)
	if w, ok := wins["rcmnist"]; !ok || w < 0 || w > 1 {
		t.Fatalf("win rate = %v", wins)
	}
}

func TestRunFig3Structure(t *testing.T) {
	opt := ciOpts([]string{"rcmnist"}, []string{"FACTION"})
	res := RunFig3(opt)
	pts := res.Points["rcmnist"]
	if len(pts) != 5 { // five μ values
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.Method != "FACTION" || p.Param != "mu" {
			t.Fatalf("point = %+v", p)
		}
		if p.Acc < 0 || p.Acc > 1 || !finite(p.EOD) {
			t.Fatalf("bad point %+v", p)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "mu") {
		t.Fatal("render missing sweep")
	}
}

func TestRunFig4StructureAndShape(t *testing.T) {
	opt := ciOpts([]string{"nysf"}, nil)
	res := RunFig4(opt)
	if len(res.Variants) != 4 {
		t.Fatalf("variants = %v", res.Variants)
	}
	mf := res.MeanFairness(MetricDDP)
	full := mf["nysf"]["FACTION"]
	bare := mf["nysf"]["FACTION w/o fair select & fair reg"]
	if !finite(full) || !finite(bare) {
		t.Fatal("non-finite ablation fairness")
	}
	// Shape check: the full system should not be less fair than the variant
	// with everything removed (allowing noise slack at CI scale).
	if full > bare+0.05 {
		t.Fatalf("full FACTION DDP %.3f should not exceed bare variant %.3f (+slack)", full, bare)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "w/o fair reg") {
		t.Fatal("render missing variants")
	}
}

func TestRunFig5RuntimeShape(t *testing.T) {
	opt := ciOpts([]string{"rcmnist"}, nil)
	res := RunFig5(opt)
	fa := res.FairAware["rcmnist"]
	if len(fa) != 4 {
		t.Fatalf("fairness-aware methods = %d", len(fa))
	}
	for m, v := range fa {
		if v[0] <= 0 {
			t.Fatalf("%s runtime %g", m, v[0])
		}
	}
	vr := res.Variants["rcmnist"]
	if len(vr) != 5 {
		t.Fatalf("variants = %d", len(vr))
	}
	// The full system does strictly more work than Random selection: every
	// FACTION task fits the GDA mixture, a Random task never does. Counted, not
	// timed, over one CI-scale task per method run serially, so the assertion
	// holds on any machine under any load.
	stream, err := data.ByName("rcmnist", ScaleCI.StreamConfig(opt.Seed))
	if err != nil {
		t.Fatal(err)
	}
	stream.Tasks = stream.Tasks[:1]
	for _, spec := range []online.MethodSpec{mustMethod("FACTION", opt.Seed), {Name: "Random", Strategy: active.Random{}}} {
		before := gdaFits(t)
		if _, err := online.Run(stream, spec, ScaleCI.RunConfig(opt.Seed)); err != nil {
			t.Fatal(err)
		}
		fits := gdaFits(t) - before
		if spec.Name == "FACTION" && fits < 1 {
			t.Fatalf("FACTION task ran %d GDA fits, want at least 1", fits)
		}
		if spec.Name == "Random" && fits != 0 {
			t.Fatalf("Random task ran %d GDA fits, want 0", fits)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Figure 5a") || !strings.Contains(buf.String(), "Figure 5b") {
		t.Fatal("render incomplete")
	}
}

// gdaFits reads faction_gda_fit_seconds_count — one observation per GDA fit
// in this process — from the default registry's exposition.
func gdaFits(t *testing.T) int {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.Default().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "faction_gda_fit_seconds_count "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("fit count %q: %v", v, err)
			}
			return n
		}
	}
	t.Fatal("faction_gda_fit_seconds_count not exported")
	return 0
}

func TestRunTable1Structure(t *testing.T) {
	opt := ciOpts(nil, nil)
	res := RunTable1(opt)
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0].Model != "Random" || res.Rows[4].Model != "FACTION" {
		t.Fatalf("row order: %v, %v", res.Rows[0].Model, res.Rows[4].Model)
	}
	for _, row := range res.Rows {
		if row.RuntimeSec <= 0 || !finite(row.Acc) || !finite(row.DDP) {
			t.Fatalf("bad row %+v", row)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Table I") {
		t.Fatal("render missing title")
	}
}

func TestRunFig6Structure(t *testing.T) {
	opt := ciOpts(nil, []string{"FACTION", "Random"})
	res := RunFig6(opt)
	if len(res.Methods) != 2 {
		t.Fatalf("methods = %v", res.Methods)
	}
	if len(res.Hidden) != 3 {
		t.Fatalf("hidden = %v (want the wide 3-layer analog)", res.Hidden)
	}
	for _, metric := range Metrics() {
		for _, s := range res.Panels[metric] {
			if len(s.Mean) != 12 { // celeba has 12 tasks
				t.Fatalf("%s/%s has %d tasks", metric, s.Name, len(s.Mean))
			}
		}
	}
	mo := res.MeanOverTasks(MetricAccuracy)
	if len(mo) != 2 {
		t.Fatal("mean-over-tasks incomplete")
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "wide backbone") {
		t.Fatal("render missing title")
	}
}

func TestRunTheory(t *testing.T) {
	opt := ciOpts(nil, nil)
	res := RunTheory(opt)
	if len(res.Ts) != len(res.Regret) || len(res.Ts) != len(res.Violation) {
		t.Fatal("length mismatch")
	}
	for i := range res.Ts {
		if res.Regret[i] < 0 || res.Violation[i] < 0 {
			t.Fatalf("negative cumulative at T=%d", res.Ts[i])
		}
	}
	if len(res.Trials) != len(res.Alphas) {
		t.Fatal("alpha sweep incomplete")
	}
	// Query complexity decreases as α grows (more trials needed for tiny α).
	if res.Trials[0] < res.Trials[len(res.Trials)-1] {
		t.Fatalf("trials should decrease with α: %v", res.Trials)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Theorem 1") {
		t.Fatal("render missing title")
	}
}

func TestFitExponent(t *testing.T) {
	ts := []int{2, 4, 8, 16}
	quad := make([]float64, len(ts))
	for i, T := range ts {
		quad[i] = float64(T * T)
	}
	if got := fitExponent(ts, quad); math.Abs(got-2) > 1e-9 {
		t.Fatalf("exponent = %g, want 2", got)
	}
	sqrt := make([]float64, len(ts))
	for i, T := range ts {
		sqrt[i] = math.Sqrt(float64(T))
	}
	if got := fitExponent(ts, sqrt); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("exponent = %g, want 0.5", got)
	}
	if !math.IsNaN(fitExponent([]int{1, 2}, []float64{0, 0})) {
		t.Fatal("all-zero values should give NaN")
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	o.setDefaults()
	if o.Scale != ScaleCI || o.Runs != 1 || len(o.Datasets) != 5 || o.Workers <= 0 {
		t.Fatalf("defaults = %+v", o)
	}
	o.Methods = []string{"FACTION"}
	if !o.wantMethod("FACTION") || o.wantMethod("Random") {
		t.Fatal("method filter broken")
	}
}

func TestRunDesignStructure(t *testing.T) {
	opt := ciOpts([]string{"nysf"}, nil)
	res := RunDesign(opt)
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 configurations", len(res.Rows))
	}
	for _, row := range res.Rows {
		if !finite(row.Acc) || !finite(row.DDP) || row.RuntimeSec <= 0 {
			t.Fatalf("bad row %+v", row)
		}
		if row.FlipRate < 0 || row.FlipRate > 1 {
			t.Fatalf("flip rate %g out of range", row.FlipRate)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "one-sided hinge") {
		t.Fatal("render missing configurations")
	}
}

func TestCSVTablesAllResults(t *testing.T) {
	opt := ciOpts([]string{"rcmnist"}, []string{"FACTION", "Random"})
	var tablers []Tabler
	tablers = append(tablers, RunFig2(opt))
	tablers = append(tablers, RunFig3(ciOpts([]string{"rcmnist"}, []string{"FACTION"})))
	tablers = append(tablers, RunTheory(ciOpts(nil, nil)))
	for _, tb := range tablers {
		tables := tb.CSVTables()
		if len(tables) == 0 {
			t.Fatalf("%T: no CSV tables", tb)
		}
		for name, table := range tables {
			if len(table.Columns) == 0 || len(table.Rows) == 0 {
				t.Fatalf("%T/%s: empty table", tb, name)
			}
			var buf bytes.Buffer
			if err := table.CSV(&buf); err != nil {
				t.Fatalf("%T/%s: %v", tb, name, err)
			}
			lines := strings.Count(buf.String(), "\n")
			if lines != len(table.Rows)+1 {
				t.Fatalf("%T/%s: %d csv lines for %d rows", tb, name, lines, len(table.Rows))
			}
		}
	}
}

func TestMetricOfPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	metricOf(online.TaskRecord{}, Metric("nope"))
}

func TestTaskSeriesEmptyRuns(t *testing.T) {
	s := taskSeries("x", nil, MetricAccuracy)
	if s.Name != "x" || len(s.Mean) != 0 {
		t.Fatalf("series = %+v", s)
	}
}

func TestTaskSeriesAggregation(t *testing.T) {
	mk := func(accs ...float64) online.RunResult {
		var r online.RunResult
		for _, a := range accs {
			r.Records = append(r.Records, online.TaskRecord{Report: fairness.Report{Accuracy: a}})
		}
		return r
	}
	s := taskSeries("m", []online.RunResult{mk(0.5, 0.7), mk(0.7, 0.9)}, MetricAccuracy)
	if len(s.Mean) != 2 {
		t.Fatalf("tasks = %d", len(s.Mean))
	}
	if math.Abs(s.Mean[0]-0.6) > 1e-12 || math.Abs(s.Mean[1]-0.8) > 1e-12 {
		t.Fatalf("means = %v", s.Mean)
	}
	if s.Std[0] == 0 {
		t.Fatal("std should be nonzero across differing runs")
	}
}

func TestRunGridDeterministic(t *testing.T) {
	opt := ciOpts([]string{"rcmnist"}, []string{"Random"})
	a := RunFig2(opt)
	b := RunFig2(opt)
	for mi := range a.Rows[0].Panels[MetricAccuracy] {
		sa := a.Rows[0].Panels[MetricAccuracy][mi]
		sb := b.Rows[0].Panels[MetricAccuracy][mi]
		for i := range sa.Mean {
			if sa.Mean[i] != sb.Mean[i] {
				t.Fatal("grid runs must be deterministic given the seed")
			}
		}
	}
}

func TestRunTuneSelectsConstrainedBest(t *testing.T) {
	opt := ciOpts([]string{"nysf"}, nil)
	res := RunTune(opt)
	if len(res.Points) != 9 {
		t.Fatalf("grid points = %d", len(res.Points))
	}
	selected := 0
	var chosen TunePoint
	for _, p := range res.Points {
		if p.Selected {
			selected++
			chosen = p
		}
		if !finite(p.Acc) || !finite(p.DDP) {
			t.Fatalf("bad point %+v", p)
		}
	}
	if selected != 1 {
		t.Fatalf("selected = %d, want exactly 1", selected)
	}
	if chosen.Mu != res.BestMu {
		t.Fatal("BestMu disagrees with the selected point")
	}
	// The selection rule: among points meeting the accuracy floor, no point
	// has strictly lower DDP than the chosen one.
	for _, p := range res.Points {
		if p.Acc >= res.AccFloor && p.DDP < chosen.DDP {
			t.Fatalf("point %+v beats the selection", p)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "selected mu") {
		t.Fatal("render missing selection")
	}
	if len(res.CSVTables()) != 1 {
		t.Fatal("csv tables")
	}
}
