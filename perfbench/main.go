// Command perfbench is the repository's end-to-end and per-layer benchmark.
// One process runs one workload:
//
//	bash perfbench/run.sh --workload serve-mixed --seed 7 --seconds 20 --trace 0
//
// Workloads (see README.md for why each was chosen):
//
//   - protocol-paper: Algorithm 1 through online.Run at the paper's scale,
//     FACTION then Random over the same leading NYSF tasks.
//   - serve-mixed: one in-process server with online adaptation and a WAL; a
//     closed-loop reader (/predict and /score) and a closed-loop writer
//     (/feedback, synchronous /refit) on one connection each.
//   - serve-routed: the same trained model on two replicas behind the fleet
//     router; one closed-loop reader, no writes.
//
// With --trace 0 the last line of standard output is a JSON object carrying
// every end-to-end metric; with --trace 1 it carries every per-layer metric,
// measured from spans the benchmark records around its calls into each layer
// and from the counters and histograms the program already exports. Earlier
// lines are a human-readable report and the environment stamp.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricDef names one metric: its unit, and for per-layer metrics the
// end-to-end metric and workload it should move. BENCHMARK.json declares the
// same names and units.
type metricDef struct {
	name, unit string
	moves, on  string
}

// endToEnd lists the metrics every untraced run reports in its result line.
// Each is defined for every workload (README.md has the per-workload
// definitions).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "over_baseline", unit: "ratio"},
	{name: "p50_ms", unit: "ms"},
	{name: "accuracy", unit: "ratio"},
	{name: "mem_mb", unit: "MB"},
}

// reportedOnly are end-to-end values every untraced run prints but leaves out
// of its result line: in slow periods of a shared 2-vCPU host the serving
// workloads' wall clock and tail latency spread past any allowed bound.
var reportedOnly = []metricDef{
	{name: "wall_s", unit: "s"},
	{name: "throughput", unit: "ops/s"},
	{name: "p99_ms", unit: "ms"},
}

// perLayer lists the metrics every traced run reports. A layer the workload
// does not run reads 0.
var perLayer = []metricDef{
	{"data.csv_load_s", "s", "setup_s", "protocol-paper"},
	{"online.warmstart_s", "s", "wall_s", "protocol-paper"},
	{"online.eval_s", "s", "wall_s", "protocol-paper"},
	{"online.train_s", "s", "wall_s", "protocol-paper"},
	{"online.select_s", "s", "wall_s, over_baseline", "protocol-paper"},
	{"online.acquire_s", "s", "wall_s", "protocol-paper"},
	{"online.fairness_s", "s", "wall_s", "protocol-paper"},
	{"online.labels", "count", "throughput", "protocol-paper"},
	{"online.stage_coverage", "ratio", "wall_s", "protocol-paper"},
	{"faction.select_s", "s", "wall_s, over_baseline", "protocol-paper"},
	{"faction.self_s", "s", "wall_s, over_baseline", "protocol-paper"},
	{"faction.trials_per_label", "ratio", "wall_s", "protocol-paper"},
	{"gda.fit_calls", "count", "wall_s, over_baseline", "protocol-paper, serve-mixed"},
	{"gda.fit_s", "s", "wall_s, over_baseline", "protocol-paper (d=512), serve-mixed (d=64)"},
	{"gda.fit_share", "ratio", "wall_s, over_baseline", "protocol-paper, serve-mixed"},
	{"gda.fit_gflop", "count", "wall_s, over_baseline", "protocol-paper, serve-mixed"},
	{"gda.score_calls", "count", "wall_s, throughput", "all"},
	{"gda.score_s", "s", "wall_s, over_baseline (d=512); throughput (d=64)", "all"},
	{"nn.train_steps", "count", "wall_s, setup_s", "protocol-paper, serve-mixed"},
	{"nn.train_step_s", "s", "wall_s (both methods); setup_s", "protocol-paper, serve-mixed"},
	{"mat.pool_dispatches", "count", "wall_s, p50_ms", "all"},
	{"server.boot_s", "s", "setup_s", "serve-mixed, serve-routed"},
	{"server.predict_s", "s", "p50_ms, p99_ms, throughput", "serve-mixed, serve-routed"},
	{"server.score_s", "s", "wall_s, throughput", "serve-mixed, serve-routed"},
	{"server.feedback_s", "s", "wall_s, over_baseline", "serve-mixed"},
	{"server.wire_ms", "ms", "p50_ms", "serve-mixed, serve-routed"},
	{"server.refit_s", "s", "wall_s, over_baseline", "serve-mixed"},
	{"server.refit_accept_ratio", "ratio", "accuracy", "serve-mixed"},
	{"server.shed", "count", "p99_ms", "serve-mixed, serve-routed"},
	{"server.errors_5xx", "count", "p99_ms", "serve-mixed, serve-routed"},
	{"client.score_p50_ms", "ms", "wall_s, throughput", "serve-mixed, serve-routed"},
	{"client.feedback_p50_ms", "ms", "wall_s, over_baseline", "serve-mixed"},
	{"client.refit_s", "s", "wall_s, over_baseline", "serve-mixed"},
	{"wal.appends", "count", "wall_s, throughput", "serve-mixed"},
	{"wal.fsyncs", "count", "wall_s, throughput", "serve-mixed"},
	{"wal.records_per_fsync", "ratio", "wall_s, throughput", "serve-mixed"},
	{"wal.append_s", "s", "wall_s, over_baseline", "serve-mixed"},
	{"wal.fsync_s", "s", "wall_s, over_baseline", "serve-mixed"},
	{"fleet.proxy_ms", "ms", "p50_ms, over_baseline", "serve-routed"},
	{"fleet.retries", "count", "p99_ms", "serve-routed"},
	{"fleet.proxy_errors", "count", "p99_ms", "serve-routed"},
	{"fleet.replica_share", "ratio", "throughput", "serve-routed"},
	{"go.alloc_mb", "MB", "wall_s, mem_mb", "all"},
	{"go.gc_cycles", "count", "wall_s, mem_mb", "all"},
	{"go.gc_pause_ms", "ms", "p99_ms", "all"},
}

// opts is one run's configuration.
type opts struct {
	seed    int64
	seconds int
	trace   bool
	dir     string // per-run working directory, removed when the run ends
	smoke   bool   // tiny sizes, for the package tests
}

// outcome is what a workload run hands back for reporting.
type outcome struct {
	attempted, failed int
	problems          []string
	e2e, layer        map[string]float64
	spans             []span
	report            []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail records a failed output check.
func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(opts) (*outcome, error){
	"protocol-paper": runProtocol,
	"serve-mixed":    runServeMixed,
	"serve-routed":   runServeRouted,
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload to run: protocol-paper, serve-mixed or serve-routed")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 20, "nominal run length; it sizes the fixed operation set, it is never a timer")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for the run's files (WAL, snapshots, CSV, traces)")
	flag.Parse()

	runFn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	env := environment(dir)
	o := opts{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: dir}
	out, err := runFn(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if o.trace {
		path := filepath.Join(*workdir, fmt.Sprintf("trace-%s-seed%d.jsonl", *workload, *seed))
		if err := writeSpans(path, out.spans); err != nil {
			out.fail("writing spans: %v", err)
		} else {
			out.note("spans: %d written to %s", len(out.spans), path)
		}
	}
	return emit(*workload, o, env, out)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// emit prints the report, the environment stamp and, last, the result line.
// It returns the exit code: 1 when an output check failed.
func emit(workload string, o opts, env stamp, out *outcome) int {
	defs, values := endToEnd, out.e2e
	if o.trace {
		defs, values = perLayer, out.layer
	}
	res := result{
		Correct:   len(out.problems) == 0,
		Attempted: max(out.attempted, 1),
		Failed:    out.failed,
		Metrics:   map[string]resultMetric{},
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%v\n", workload, o.seed, o.seconds, o.trace)
	for _, line := range out.report {
		fmt.Println("  " + line)
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && o.trace {
			v, ok = 0, true // a layer this workload does not run
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.Correct = false
			out.problems = append(out.problems, fmt.Sprintf("metric %s not measured", d.name))
			v = 0
		}
		res.Metrics[d.name] = resultMetric{Value: v, Unit: d.unit}
		if o.trace {
			fmt.Printf("  %-26s %14.6g %-6s moves %-44s on %s\n", d.name, v, d.unit, d.moves, d.on)
		} else {
			fmt.Printf("  %-26s %14.6g %s\n", d.name, v, d.unit)
		}
	}
	if !o.trace {
		for _, d := range reportedOnly {
			fmt.Printf("  %-26s %14.6g %s (reported, not in the result line)\n", d.name, out.e2e[d.name], d.unit)
		}
	}
	for _, p := range out.problems {
		fmt.Println("  CHECK FAILED: " + p)
	}
	for _, v := range []any{map[string]stamp{"env": env}, res} {
		line, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Println(string(line))
	}
	if !res.Correct {
		return 1
	}
	return 0
}
