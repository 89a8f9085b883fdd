package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"faction"
	"faction/internal/active"
	"faction/internal/data"
	"faction/internal/experiments"
	core "faction/internal/faction"
	"faction/internal/mat"
	"faction/internal/obs"
	"faction/internal/online"
	"faction/internal/rngutil"
)

// protocolStages are the stage spans online.Run records under each task span.
// Together they must cover the run's wall clock (see coverageTolerance).
var protocolStages = []string{
	"online.warmstart", "online.eval", "online.train", "online.select", "online.acquire", "online.fairness",
}

// The stage spans may leave coverageTolerance of FACTION's wall clock, or
// coverageFloor if that is more, uncovered: model construction, pool cloning
// and per-task metric updates run outside every stage.
const (
	coverageTolerance = 0.02
	coverageFloor     = 5 * time.Millisecond
)

type protocolSize struct {
	scale     experiments.Scale
	tasks     int // leading tasks of the stream each run covers
	reps      int // FACTION-then-Random pairs in an untraced run
	setupReps int // timed CSV loads behind setup_s
}

func protocolSizeFor(o opts) protocolSize {
	if o.smoke {
		return protocolSize{scale: experiments.ScaleCI, tasks: 1, reps: 1, setupReps: 2}
	}
	// One pair takes ~8.5 s on a 2-vCPU host; --seconds sizes the pair count
	// (three at 20), so the median pair shrugs off one slow one.
	return protocolSize{scale: experiments.ScalePaper, tasks: 2, reps: max(1, o.seconds/6), setupReps: 7}
}

// protocolRun is one online.Run and its wall clock.
type protocolRun struct {
	res  online.RunResult
	wall time.Duration
}

func runProtocol(o opts) (*outcome, error) {
	size := protocolSizeFor(o)
	out := newOutcome()
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}

	// Inputs: the seeded paper-scale NYSF stream, written as the task CSV the
	// real-data entry point reads.
	streamSeed := rngutil.DeriveSeed(o.seed, "perfbench", "nysf")
	runSeed := rngutil.DeriveSeed(o.seed, "perfbench", "run")
	generated := data.NYSF(size.scale.StreamConfig(streamSeed))
	csvPath := filepath.Join(o.dir, "nysf.csv")
	if err := writeStreamCSV(csvPath, generated); err != nil {
		return nil, err
	}

	// Set-up: read the whole stream back, several times; setup_s is the median.
	runtime.GC()
	setupRoot := rec.begin("setup", spanRef{})
	var stream *data.Stream
	loads := make([]float64, size.setupReps)
	for i := range loads {
		runtime.GC()
		sp := rec.begin("data.ReadStreamCSV", setupRoot)
		start := time.Now()
		s, err := readStreamCSV(csvPath)
		loads[i] = time.Since(start).Seconds()
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		stream = s
	}
	rec.end(setupRoot)
	out.e2e["setup_s"] = median(loads)
	out.layer["data.csv_load_s"] = median(loads)
	if err := sameStream(generated, stream); err != nil {
		out.fail("CSV round trip: %v", err)
	}
	stream.Tasks = stream.Tasks[:size.tasks]

	cfg := size.scale.RunConfig(runSeed)
	wantLabels := cfg.WarmStart + size.tasks*cfg.Budget
	out.note("stream nysf: %d tasks x %d samples, d_in=%d; runs cover %d task(s); hidden %v, B=%d, A=%d, warm %d, %d epochs",
		len(generated.Tasks), generated.Tasks[0].Pool.Len(), generated.Dim, size.tasks, cfg.Hidden, cfg.Budget, cfg.AcqSize, cfg.WarmStart, cfg.Epochs)

	if o.trace {
		traceProtocol(o, rec, stream, cfg, runSeed, wantLabels, out)
		return out, nil
	}

	var factions, randoms []protocolRun
	for r := 0; r < size.reps; r++ {
		f, err := timedRun(stream, online.FactionSpec(core.Defaults()), cfg)
		if err != nil {
			return nil, err
		}
		rs, err := randomSpec(runSeed)
		if err != nil {
			return nil, err
		}
		rnd, err := timedRun(stream, rs, cfg)
		if err != nil {
			return nil, err
		}
		factions, randoms = append(factions, f), append(randoms, rnd)
	}
	checkProtocolRuns(out, factions, randoms, wantLabels)
	protocolE2E(out, factions, randoms)
	return out, nil
}

// traceProtocol is the traced pass: one FACTION run through the span-taking
// strategy wrapper, one Random run, then an unwrapped FACTION run whose
// records the traced one must equal.
func traceProtocol(o opts, rec *recorder, stream *data.Stream, cfg online.Config, runSeed int64, wantLabels int, out *outcome) {
	before := takeLayerSnapshot()

	inner := online.FactionSpec(core.Defaults())
	wrapped := &tracedSelect{inner: inner.Strategy, rec: rec, dim: cfg.Hidden[len(cfg.Hidden)-1]}
	fSpec := online.MethodSpec{Name: inner.Name, Strategy: wrapped, Fair: inner.Fair}
	fRun, fTracer, fHist, err := tracedRun(rec, stream, fSpec, cfg, &wrapped.run)
	if err != nil {
		out.fail("traced FACTION run: %v", err)
		return
	}
	rs, err := randomSpec(runSeed)
	if err != nil {
		out.fail("%v", err)
		return
	}
	rRun, _, _, err := tracedRun(rec, stream, rs, cfg, nil)
	if err != nil {
		out.fail("traced Random run: %v", err)
		return
	}
	after := takeLayerSnapshot()
	rec.reparent("faction.SelectBatch", "online.select")

	plain, err := timedRun(stream, online.FactionSpec(core.Defaults()), cfg)
	if err != nil {
		out.fail("unwrapped FACTION run: %v", err)
		return
	}
	out.attempted++
	if err := sameRecords(fRun.res, plain.res); err != nil {
		out.failed++
		out.fail("traced FACTION run differs from an unwrapped online.Run: %v", err)
	}
	checkProtocolRuns(out, []protocolRun{fRun}, []protocolRun{rRun}, wantLabels)
	protocolE2E(out, []protocolRun{fRun}, []protocolRun{rRun})
	out.e2e["setup_s"] = out.layer["data.csv_load_s"]

	// Stage spans of the FACTION run, from the program's own tracer.
	stageTotal := time.Duration(0)
	stages := map[string]time.Duration{}
	for _, s := range fTracer.Spans() {
		stages[s.Name] += s.Duration
	}
	for _, name := range protocolStages {
		stageTotal += stages[name]
		out.layer[name+"_s"] = stages[name].Seconds()
		// The stage histograms time the same stages with their own clock
		// reads (warm start has none); they must agree with the spans.
		if name == "online.warmstart" {
			continue
		}
		h := fHist[`faction_online_stage_seconds_sum{stage="`+strings.TrimPrefix(name, "online.")+`"}`]
		if diff := math.Abs(h - stages[name].Seconds()); diff > 0.01*h+1e-3 {
			out.fail("stage %s: spans sum to %.4f s, the stage histogram to %.4f s", name, stages[name].Seconds(), h)
		}
	}
	coverage := stageTotal.Seconds() / fRun.wall.Seconds()
	out.layer["online.stage_coverage"] = coverage
	out.layer["online.labels"] = float64(fRun.res.TotalQueries)
	uncovered := fRun.wall - stageTotal
	if allowed := max(time.Duration(coverageTolerance*float64(fRun.wall)), coverageFloor); uncovered < 0 || uncovered > allowed {
		out.fail("stage spans leave %v of FACTION's %v uncovered, want at most %v", uncovered, fRun.wall, allowed)
	}
	out.note("stage spans cover %.2f%% of the FACTION run's %.3f s (tolerance %.0f%% or %v)",
		100*coverage, fRun.wall.Seconds(), 100*coverageTolerance, coverageFloor)

	d := after.sub(before)
	selectS := wrapped.total.Seconds()
	fitS, scoreS := d.reg["faction_gda_fit_seconds_sum"], d.reg["faction_gda_score_batch_seconds_sum"]
	out.layer["faction.select_s"] = selectS
	out.layer["faction.self_s"] = selectS - fitS - scoreS
	if wrapped.picked > 0 {
		out.layer["faction.trials_per_label"] = float64(wrapped.trials()) / float64(wrapped.picked)
	}
	out.layer["gda.fit_calls"] = d.reg["faction_gda_fit_seconds_count"]
	out.layer["gda.fit_s"] = fitS
	out.layer["gda.fit_share"] = fitS / fRun.wall.Seconds()
	out.layer["gda.fit_gflop"] = wrapped.flops / 1e9
	out.layer["gda.score_calls"] = d.reg["faction_gda_score_batch_seconds_count"]
	out.layer["gda.score_s"] = scoreS
	if calls := int(d.reg["faction_gda_fit_seconds_count"]); calls != wrapped.calls {
		out.fail("gda.Fit ran %d times for %d SelectBatch calls", calls, wrapped.calls)
	}
	d.setCommon(out.layer)
	out.note("gda.Fit: %.3f s of the FACTION run's %.3f s (%.1f%%), %d fits, %.2f GFLOP by the n*d^2 and d^3 count",
		fitS, fRun.wall.Seconds(), 100*fitS/fRun.wall.Seconds(), wrapped.calls, wrapped.flops/1e9)
	out.note("Random run: %.3f s; FACTION over Random %.3f", rRun.wall.Seconds(), fRun.wall.Seconds()/rRun.wall.Seconds())
	out.spans = rec.snapshot()
	if err := checkNesting(out.spans); err != nil {
		out.fail("span nesting: %v", err)
	}
	for _, st := range selfTimes(out.spans) {
		out.note("span %-22s n=%-4d total %9.3f s  self %9.3f s", st.name, st.count, st.total.Seconds(), st.self.Seconds())
	}
	compareUntraced(out, "protocol-paper")
}

// tracedRun runs one method under a benchmark span with the program's own
// tracer and a fresh metrics registry attached, and returns the spans and
// the registry's stage histograms it recorded.
func tracedRun(rec *recorder, stream *data.Stream, spec online.MethodSpec, cfg online.Config, runRef *spanRef) (protocolRun, *obs.Tracer, series, error) {
	tracer := obs.NewTracer(1 << 14)
	cfg.Tracer = tracer
	cfg.Metrics = obs.NewRegistry()
	runtime.GC()
	sp := rec.begin("online.Run "+spec.Name, spanRef{})
	if runRef != nil {
		*runRef = sp
	}
	start := time.Now()
	res, err := online.Run(stream, spec, cfg)
	wall := time.Since(start)
	rec.end(sp)
	if err == nil && tracer.Dropped() > 0 {
		err = fmt.Errorf("program tracer dropped %d spans", tracer.Dropped())
	}
	var hist series
	if err == nil {
		hist, err = scrape(cfg.Metrics)
	}
	if err != nil {
		return protocolRun{}, nil, nil, err
	}
	rec.adopt(tracer.Spans(), sp)
	return protocolRun{res: res, wall: wall}, tracer, hist, nil
}

func timedRun(stream *data.Stream, spec online.MethodSpec, cfg online.Config) (protocolRun, error) {
	runtime.GC()
	start := time.Now()
	res, err := online.Run(stream, spec, cfg)
	return protocolRun{res: res, wall: time.Since(start)}, err
}

func randomSpec(seed int64) (online.MethodSpec, error) { return online.MethodByName("Random", seed) }

// protocolE2E fills the end-to-end metrics from FACTION and Random runs.
func protocolE2E(out *outcome, factions, randoms []protocolRun) {
	var walls, rwalls, ratios, tasksMs, p50s, p99s []float64
	for i := range factions {
		walls = append(walls, factions[i].wall.Seconds())
		rwalls = append(rwalls, randoms[i].wall.Seconds())
		ratios = append(ratios, factions[i].wall.Seconds()/randoms[i].wall.Seconds())
		var perTask []float64
		for _, r := range factions[i].res.Records {
			perTask = append(perTask, float64(r.Elapsed.Microseconds())/1000)
		}
		// Per run, the quantiles of its task adaptation times; the metric is
		// their median over runs, as the serving workloads take the median
		// over chunks.
		p50s, p99s = append(p50s, quantile(perTask, 0.5)), append(p99s, quantile(perTask, 0.99))
		tasksMs = append(tasksMs, perTask...)
	}
	wall := median(walls)
	out.e2e["wall_s"] = wall
	out.e2e["over_baseline"] = median(ratios)
	out.e2e["throughput"] = float64(factions[0].res.TotalQueries) / wall
	out.e2e["p50_ms"] = median(p50s)
	out.e2e["p99_ms"] = median(p99s)
	rep := factions[0].res.MeanReport()
	out.e2e["accuracy"] = rep.Accuracy
	out.e2e["mem_mb"] = peakRSSMB()
	out.attempted += 2 * len(factions)
	out.note("FACTION mean accuracy %.6f, DDP %.6f, labels %d", rep.Accuracy, rep.DDP, factions[0].res.TotalQueries)
	out.note("FACTION walls %.3f s; Random walls %.3f s; ratios %.3f; task ms %.1f", walls, rwalls, ratios, tasksMs)
}

// checkProtocolRuns verifies label spend and that repeated runs of a method
// on the same inputs produce identical records.
func checkProtocolRuns(out *outcome, factions, randoms []protocolRun, wantLabels int) {
	for _, group := range [][]protocolRun{factions, randoms} {
		for i, r := range group {
			ok := true
			if r.res.TotalQueries != wantLabels {
				out.fail("%s bought %d labels, want %d", r.res.Method, r.res.TotalQueries, wantLabels)
				ok = false
			}
			if acc := r.res.MeanReport().Accuracy; !(acc > 0 && acc <= 1) {
				out.fail("%s mean accuracy %v outside (0, 1]", r.res.Method, acc)
				ok = false
			}
			if i > 0 {
				if err := sameRecords(group[0].res, r.res); err != nil {
					out.fail("%s repeat %d differs from the first run: %v", r.res.Method, i, err)
					ok = false
				}
			}
			if !ok {
				out.failed++
			}
		}
	}
}

// sameRecords compares the per-task outputs of two runs bit for bit.
func sameRecords(a, b online.RunResult) error {
	if a.TotalQueries != b.TotalQueries {
		return fmt.Errorf("labels %d vs %d", a.TotalQueries, b.TotalQueries)
	}
	if len(a.Records) != len(b.Records) {
		return fmt.Errorf("%d vs %d task records", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		ra, rb := a.Records[i], b.Records[i]
		if ra.Report != rb.Report || ra.Queries != rb.Queries || ra.TrainLoss != rb.TrainLoss {
			return fmt.Errorf("task %d: %+v/%d vs %+v/%d", i, ra.Report, ra.Queries, rb.Report, rb.Queries)
		}
	}
	return nil
}

func sameStream(a, b *data.Stream) error {
	if len(a.Tasks) != len(b.Tasks) || a.Dim != b.Dim {
		return fmt.Errorf("%d tasks of dim %d read back as %d of dim %d", len(a.Tasks), a.Dim, len(b.Tasks), b.Dim)
	}
	for t := range a.Tasks {
		pa, pb := a.Tasks[t].Pool.Samples, b.Tasks[t].Pool.Samples
		if len(pa) != len(pb) {
			return fmt.Errorf("task %d: %d samples read back as %d", t, len(pa), len(pb))
		}
		for i := range pa {
			if pa[i].Y != pb[i].Y || pa[i].S != pb[i].S {
				return fmt.Errorf("task %d sample %d: label or group changed", t, i)
			}
			for j := range pa[i].X {
				if pa[i].X[j] != pb[i].X[j] {
					return fmt.Errorf("task %d sample %d feature %d changed", t, i, j)
				}
			}
		}
	}
	return nil
}

func writeStreamCSV(path string, s *data.Stream) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := faction.WriteStreamCSV(w, s); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readStreamCSV(path string) (*data.Stream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return faction.ReadStreamCSV(bufio.NewReader(f), "nysf")
}

// tracedSelect wraps FACTION's strategy to time each SelectBatch call. It
// keeps the strategy's name, which seeds the run's RNG, so the run's records
// stay identical to an unwrapped run.
type tracedSelect struct {
	inner  active.Strategy
	rec    *recorder
	run    spanRef // the enclosing online.Run span
	dim    int     // feature dimension the density is fitted in
	calls  int
	picked int
	flops  float64
	total  time.Duration
}

func (t *tracedSelect) Name() string { return t.inner.Name() }

func (t *tracedSelect) SelectBatch(ctx *active.Context, a int) []int {
	n := ctx.Labeled.Len()
	comps := map[[2]int]bool{}
	for _, s := range ctx.Labeled.Samples {
		comps[[2]int{s.Y, s.S}] = true
	}
	sp := t.rec.begin("faction.SelectBatch", t.run)
	picks := t.inner.SelectBatch(ctx, a)
	t.total += t.rec.end(sp)
	t.calls++
	t.picked += len(picks)
	t.flops += fitFlops(n, t.dim, len(comps))
	return picks
}

func (t *tracedSelect) trials() int {
	if s, ok := t.inner.(*core.Strategy); ok {
		return s.Trials()
	}
	return 0
}

// fitFlops counts the floating-point operations of one gda.Fit on n rows of
// dimension d with k components: the pooled and the per-component lower-
// triangle covariance accumulations (n*d^2 each), a Cholesky factor and a
// triangular inverse per component (d^3/3 each), and the training-set
// log-densities through every component's whitened triangular matvec
// (n*k*d^2).
func fitFlops(n, d, k int) float64 {
	nf, df, kf := float64(n), float64(d), float64(k)
	return 2*nf*df*df + kf*2*df*df*df/3 + nf*kf*df*df
}

// layerSnapshot holds what the program exports, read before and after a
// measured phase.
type layerSnapshot struct {
	reg  series
	mem  runtime.MemStats
	pool uint64
}

func takeLayerSnapshot() layerSnapshot {
	var s layerSnapshot
	reg, err := scrape(obs.Default())
	if err != nil {
		panic(err) // the registry renders to memory; an error is a bug
	}
	s.reg = reg
	runtime.ReadMemStats(&s.mem)
	s.pool = mat.PoolDispatches()
	return s
}

type layerDelta struct {
	reg                 series
	allocMB, gcPauseMs  float64
	gcCycles, poolDisps float64
}

func (after layerSnapshot) sub(before layerSnapshot) layerDelta {
	return layerDelta{
		reg:       after.reg.sub(before.reg),
		allocMB:   float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / (1 << 20),
		gcPauseMs: float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6,
		gcCycles:  float64(after.mem.NumGC - before.mem.NumGC),
		poolDisps: float64(after.pool - before.pool),
	}
}

// setCommon fills the nn, mat and Go runtime metrics every workload reports.
func (d layerDelta) setCommon(layer map[string]float64) {
	layer["nn.train_steps"] = d.reg["faction_nn_train_step_seconds_count"]
	layer["nn.train_step_s"] = d.reg["faction_nn_train_step_seconds_sum"]
	layer["mat.pool_dispatches"] = d.poolDisps
	layer["go.alloc_mb"] = d.allocMB
	layer["go.gc_cycles"] = d.gcCycles
	layer["go.gc_pause_ms"] = d.gcPauseMs
}
