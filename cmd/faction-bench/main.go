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
// With -gate, it instead runs the benchmark regression gate: the gated
// micro-benchmarks of the given commit and of the working tree, built on
// this host and run alternately, compared row by row. It exits non-zero on
// a regression (a median ns/op ratio above 2x, or any allocation on a path
// the base holds at zero allocs/op):
//
//	faction-bench -gate origin/main
//
// -cpuprofile and -memprofile write pprof profiles of whichever path ran.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"faction/internal/experiments"
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
		gate     = flag.String("gate", "", "compare the gated benchmarks of the working tree against this commit, run alternately on this host, exiting non-zero on regression")
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
