// Command faction-bench regenerates the paper's tables and figures: each
// -exp value corresponds to one evaluation artifact of Section V, executed
// at a chosen scale and rendered as text tables (optionally CSV).
//
// Usage:
//
//	faction-bench -exp fig2 -scale small -runs 3
//	faction-bench -exp table1 -scale paper
//	faction-bench -exp all -scale ci -out results/
//
// With -kernel, the command instead runs the compute-kernel micro-benchmark
// suite (sharded matmul, allocation-free train step, GDA batch scoring) plus
// a CI-scale Fig. 2 wall-clock, and writes the headline numbers to a
// machine-readable JSON file — the repo's benchmark trajectory:
//
//	faction-bench -kernel results/BENCH_kernel.json
//
// With -serve, it instead runs the serving-layer coalesced-load benchmark
// (N concurrent single-instance /predict clients against the HTTP server,
// batching off then on) and writes the comparison to a JSON file:
//
//	faction-bench -serve results/BENCH_serve.json -clients 64
//
// With -alloc, it runs the read-path allocation suite (allocating entry
// points next to their pooled replacements, plus the full /predict HTTP
// stack) and writes the allocation trajectory:
//
//	faction-bench -alloc results/BENCH_alloc.json
//
// With -wal, it runs the write-ahead-log durability benchmark (append
// throughput with fsync off, group commit at several appender counts, and
// per-record fsync) and writes the cost comparison:
//
//	faction-bench -wal results/BENCH_wal.json
//
// With -obs, it runs the fairness-observability benchmark (metric-history
// sampling tick, SLO evaluation tick, histogram quantile read, the /predict
// stack with the fairness layer off vs on, and an audit-trail snapshot) and
// writes the overhead trajectory:
//
//	faction-bench -obs results/BENCH_obs.json
//
// With -gate, it re-runs the kernel, allocation and observability suites and
// compares them against the committed baselines in the given directory,
// exiting non-zero on regression (>2x ns/op, or any allocation on a
// pinned-zero path):
//
//	faction-bench -gate results
//
// -cpuprofile and -memprofile write pprof profiles of whichever path ran.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"faction/internal/bench"
	"faction/internal/experiments"
	"faction/internal/mat"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: fig2, fig3, fig4, fig5, fig6, table1, theory, design, tune or all")
		scale    = flag.String("scale", "ci", "protocol scale: ci, small or paper")
		runs     = flag.Int("runs", 0, "repetitions per configuration (0 = scale default; paper uses 5)")
		seed     = flag.Int64("seed", 42, "base random seed")
		datasets = flag.String("datasets", "", "comma-separated dataset subset (default all five)")
		methods  = flag.String("methods", "", "comma-separated method subset where applicable")
		workers  = flag.Int("workers", 0, "parallel protocol runs (0 = GOMAXPROCS, the shared kernel default)")
		outDir   = flag.String("out", "", "also write rendered outputs into this directory")
		kernel   = flag.String("kernel", "", "run the kernel micro-benchmarks and write the JSON report to this path instead of running experiments")
		par      = flag.Int("parallelism", 0, "force the mat worker-pool width for -kernel (0 = GOMAXPROCS default); the report records the width used")
		serve    = flag.String("serve", "", "run the serving-layer coalesced-load benchmark and write the JSON report to this path instead of running experiments")
		alloc    = flag.String("alloc", "", "run the read-path allocation suite and write the JSON report to this path instead of running experiments")
		walPath  = flag.String("wal", "", "run the WAL durability benchmark and write the JSON report to this path instead of running experiments")
		obsPath  = flag.String("obs", "", "run the fairness-observability overhead benchmark and write the JSON report to this path instead of running experiments")
		walRecs  = flag.Int("wal-records", 20000, "records per -wal run at the widest appender count")
		gate     = flag.String("gate", "", "re-run the kernel, allocation and observability suites and compare against the committed baselines in this directory, exiting non-zero on regression")
		clients  = flag.Int("clients", 64, "concurrent load-generator clients for -serve")
		requests = flag.Int("requests", 40, "requests each -serve client issues")
		replicas = flag.Int("replicas", 1, "with -serve, also measure this many in-process replicas behind a fleet router (1 disables)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile at exit to this file")
		verbose  = flag.Bool("v", false, "log per-run progress to stderr")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	sc, err := experiments.ParseScale(*scale)
	if err != nil {
		fatal(err)
	}
	opt := experiments.Options{
		Seed:    *seed,
		Runs:    *runs,
		Scale:   sc,
		Workers: *workers,
	}
	if *datasets != "" {
		opt.Datasets = splitCSV(*datasets)
	}
	if *methods != "" {
		opt.Methods = splitCSV(*methods)
	}
	if *verbose {
		opt.Progress = os.Stderr
	}

	if *kernel != "" {
		datasets := opt.Datasets
		if len(datasets) == 0 {
			datasets = []string{"nysf"}
		}
		if *par > 0 {
			// Force the worker-pool width for the whole suite. Suite entries
			// that pin their own width (the .../serial variants) still do;
			// the .../parallel variants and the Fig. 2 wall-clock inherit it.
			mat.SetParallelism(*par)
		}
		if err := runKernelBench(*kernel, datasets, *workers); err != nil {
			fatal(err)
		}
		return
	}
	if *serve != "" {
		if err := runServeBench(*serve, *clients, *requests, *replicas); err != nil {
			fatal(err)
		}
		return
	}
	if *alloc != "" {
		if err := runAllocBench(*alloc); err != nil {
			fatal(err)
		}
		return
	}
	if *walPath != "" {
		if err := runWALBench(*walPath, *walRecs); err != nil {
			fatal(err)
		}
		return
	}
	if *obsPath != "" {
		if err := runObsBench(*obsPath); err != nil {
			fatal(err)
		}
		return
	}
	if *gate != "" {
		if err := runGate(*gate); err != nil {
			fatal(err)
		}
		return
	}

	runners := map[string]func(experiments.Options) renderer{
		"fig2":   func(o experiments.Options) renderer { return experiments.RunFig2(o) },
		"fig3":   func(o experiments.Options) renderer { return experiments.RunFig3(o) },
		"fig4":   func(o experiments.Options) renderer { return experiments.RunFig4(o) },
		"fig5":   func(o experiments.Options) renderer { return experiments.RunFig5(o) },
		"fig6":   func(o experiments.Options) renderer { return experiments.RunFig6(o) },
		"table1": func(o experiments.Options) renderer { return experiments.RunTable1(o) },
		"theory": func(o experiments.Options) renderer { return experiments.RunTheory(o) },
		"design": func(o experiments.Options) renderer { return experiments.RunDesign(o) },
		"tune":   func(o experiments.Options) renderer { return experiments.RunTune(o) },
	}
	order := []string{"fig2", "fig3", "fig4", "fig5", "table1", "fig6", "theory", "design", "tune"}

	var selected []string
	if *exp == "all" {
		selected = order
	} else {
		for _, name := range splitCSV(*exp) {
			if _, ok := runners[name]; !ok {
				fatal(fmt.Errorf("unknown experiment %q (want %s or all)", name, strings.Join(order, ", ")))
			}
			selected = append(selected, name)
		}
	}

	for _, name := range selected {
		start := time.Now()
		fmt.Printf("=== %s (scale %s) ===\n", name, sc)
		res := runners[name](opt)
		res.Render(os.Stdout)
		fmt.Printf("\n[%s finished in %.1fs]\n\n", name, time.Since(start).Seconds())
		if *outDir != "" {
			if err := writeOut(*outDir, name, res); err != nil {
				fatal(err)
			}
		}
	}
}

// runKernelBench runs the compute-kernel micro-benchmark suite plus the
// CI-scale Fig. 2 wall-clock for each dataset, prints the headline numbers,
// and writes the machine-readable report to path.
func runKernelBench(path string, datasets []string, workers int) error {
	fmt.Printf("=== kernel micro-benchmarks (GOMAXPROCS %d) ===\n", runtime.GOMAXPROCS(0))
	rep := bench.RunKernels()
	printKernels(rep.Kernels)
	rep.Fig2CISeconds = make(map[string]float64, len(datasets))
	for _, ds := range datasets {
		sec, err := bench.Fig2CIWallClock(ds, workers)
		if err != nil {
			return err
		}
		rep.Fig2CISeconds[ds] = sec
		fmt.Printf("%-36s %14.2f s (CI-scale Fig. 2 row)\n", "Fig2/"+ds, sec)
	}
	return writeReport(path, rep)
}

// runServeBench runs the serving-layer coalesced-load benchmark (N concurrent
// single-instance /predict clients, batching off then on), prints the headline
// comparison, and writes the machine-readable report to path.
func runServeBench(path string, clients, requests, replicas int) error {
	fmt.Printf("=== serving-layer coalesced load (%d clients × %d requests) ===\n", clients, requests)
	rep, err := bench.RunServe(clients, requests, replicas)
	if err != nil {
		return err
	}
	for _, r := range rep.Results {
		fmt.Printf("%-12s %9.0f req/s   mean %7.3f ms   p99 %7.3f ms", r.Name, r.RequestsPerSec, r.MeanLatencyMs, r.P99LatencyMs)
		if r.MeanBatchRows > 0 {
			fmt.Printf("   mean batch %.2f rows (≤%g), flushes %v", r.MeanBatchRows, r.MaxBatchRows, r.Flushes)
		}
		fmt.Println()
	}
	return writeReport(path, rep)
}

// runAllocBench runs the read-path allocation suite, prints the headline
// numbers, and writes the machine-readable report to path.
func runAllocBench(path string) error {
	fmt.Printf("=== read-path allocation suite (GOMAXPROCS %d) ===\n", runtime.GOMAXPROCS(0))
	rep, err := bench.RunAlloc()
	if err != nil {
		return err
	}
	printKernels(rep.Kernels)
	return writeReport(path, rep)
}

// runWALBench runs the WAL durability benchmark, prints the append-cost
// comparison across fsync modes, and writes the machine-readable report.
func runWALBench(path string, records int) error {
	fmt.Printf("=== WAL durability benchmark (GOMAXPROCS %d) ===\n", runtime.GOMAXPROCS(0))
	rep, err := bench.RunWAL(records)
	if err != nil {
		return err
	}
	for _, r := range rep.Results {
		fmt.Printf("%-36s %12.0f appends/s   mean %8.1f µs   %8d records %8d fsyncs\n",
			r.Name, r.AppendsPerSec, r.MeanLatencyUs, r.Records, r.Fsyncs)
	}
	return writeReport(path, rep)
}

// runObsBench runs the fairness-observability overhead benchmark, prints the
// per-surface costs, and writes the machine-readable report to path.
func runObsBench(path string) error {
	fmt.Printf("=== fairness observability overhead (GOMAXPROCS %d) ===\n", runtime.GOMAXPROCS(0))
	rep, err := bench.RunObs()
	if err != nil {
		return err
	}
	printKernels(rep.Kernels)
	return writeReport(path, rep)
}

// runGate re-runs the kernel, allocation and observability suites and
// compares them against
// the committed baselines in dir, failing on regression (see bench.Gate).
func runGate(dir string) error {
	fmt.Printf("=== benchmark regression gate vs %s ===\n", dir)
	violations, err := bench.Gate(dir)
	if err != nil {
		return err
	}
	if len(violations) == 0 {
		fmt.Println("gate passed: no regressions against committed baselines")
		return nil
	}
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "regression:", v)
	}
	return fmt.Errorf("benchmark gate failed: %d regression(s)", len(violations))
}

// printKernels prints one ns/op, B/op, allocs/op line per benchmark row.
func printKernels(rows []bench.KernelResult) {
	for _, k := range rows {
		fmt.Printf("%-36s %14.0f ns/op %10d B/op %6d allocs/op\n",
			k.Name, k.NsPerOp, k.BytesPerOp, k.AllocsPerOp)
	}
}

// writeReport writes rep as indented JSON with a trailing newline to path,
// creating the parent directory, and prints where it went.
func writeReport(path string, rep any) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", path)
	return nil
}

// renderer is the common surface of all experiment results.
type renderer interface{ Render(w io.Writer) }

func writeOut(dir, name string, res renderer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".txt"))
	if err != nil {
		return err
	}
	res.Render(f)
	if err := f.Close(); err != nil {
		return err
	}
	// Every result also exports CSV tables for external plotting.
	if tb, ok := res.(experiments.Tabler); ok {
		for tname, table := range tb.CSVTables() {
			cf, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-%s.csv", name, tname)))
			if err != nil {
				return err
			}
			if err := table.CSV(cf); err != nil {
				cf.Close()
				return err
			}
			if err := cf.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}

func splitCSV(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "faction-bench:", err)
	os.Exit(1)
}
