package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// The benchmark regression gate runs the gated benchmarks of a base commit
// and of the working tree on the same host, alternating the two sides, and
// compares them row by row. Absolute numbers never cross hosts, so a slow or
// busy machine slows both sides alike. A row fails when
//
//   - the median over rounds of change ÷ base ns/op exceeds
//     NsRegressionFactor, or
//   - the base's minimum allocs/op over rounds is 0 and the change's minimum
//     is above 0: a pinned zero-allocation path now allocates on every call.
//     A background malloc landing in one round cannot fail this rule.
//
// Rows found on one side only (renamed, added or removed benchmarks) are
// reported without failing.

// NsRegressionFactor is the ns/op slack the gate allows before failing a row.
// Both sides run interleaved on one host, but a kernel's speed still moves by
// tens of percent with code placement and other load on the host, so only a
// >2× slowdown counts as a regression.
const NsRegressionFactor = 2.0

// gateRounds is the number of base/change pairs the gate runs; gateBenchtime
// is each benchmark's -test.benchtime. Five 100 ms rounds keep the whole gate
// to a few minutes on a 2-vCPU box while giving each row a median of five
// ratios and five chances at an allocation-free reading.
const (
	gateRounds    = 5
	gateBenchtime = "100ms"
)

// gated lists every benchmark the gate runs, by package directory. Each
// pattern matches top-level benchmark names; their sub-benchmarks run with
// them.
var gated = []struct{ pkg, bench string }{
	{"internal/mat", "^Benchmark(MulInto|WhitenMahalanobis|WhitenMahalanobis32)$"},
	{"internal/nn", "^Benchmark(LinearTrainStep|LogitsAndFeatures)$"},
	{"internal/gda", "^Benchmark(GDAScoreBatch|GDAScoreBatchRaw|LogDensityBatch)$"},
	{"internal/obs", "^Benchmark(CounterInc|HistogramObserve|HistogramQuantile)$"},
	{"internal/obs/history", "^BenchmarkSampleNow$"},
	{"internal/obs/slo", "^BenchmarkEvaluate$"},
	{"internal/server", "^Benchmark(PredictHTTP|AuditSnapshot)$"},
}

// benchRow is one result line of `go test -bench -benchmem` output.
type benchRow struct {
	name       string // package.Name/sub, without the GOMAXPROCS suffix
	ns, allocs float64
}

// parseBench reads the benchmark output of package pkg, run at GOMAXPROCS
// procs, and returns its result rows. A row's name is the package's base name
// and the benchmark name without its "Benchmark" prefix, e.g.
// "mat.MulInto/64/serial"; the "-<procs>" suffix testing appends above
// GOMAXPROCS 1 is removed so rows match across hosts.
func parseBench(r io.Reader, pkg string, procs int) ([]benchRow, error) {
	suffix := ""
	if procs > 1 {
		suffix = "-" + strconv.Itoa(procs)
	}
	var rows []benchRow
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue // a benchmark's log line, not a result
		}
		name := strings.TrimSuffix(strings.TrimPrefix(f[0], "Benchmark"), suffix)
		row := benchRow{name: path.Base(pkg) + "." + name, ns: -1, allocs: -1}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad value %q in %q", pkg, f[i], sc.Text())
			}
			switch f[i+1] {
			case "ns/op":
				row.ns = v
			case "allocs/op":
				row.allocs = v
			}
		}
		if row.ns < 0 || row.allocs < 0 {
			return nil, fmt.Errorf("%s: no ns/op or allocs/op in %q", pkg, sc.Text())
		}
		rows = append(rows, row)
	}
	return rows, sc.Err()
}

// verdict is one row of the gate's table.
type verdict struct {
	name string
	// baseNs and changeNs are medians over rounds; ratio is the median over
	// rounds of change ÷ base ns/op.
	baseNs, changeNs, ratio float64
	// baseAllocs and changeAllocs are minimums over rounds.
	baseAllocs, changeAllocs float64
	oneSided                 string   // "base only" or "change only"
	failed                   []string // the rules the row breaks
}

// compare applies the gate's rules to the rows of every round of both sides.
// The k-th row of a name on one side pairs with the k-th on the other: the
// same round. Verdicts follow the base's row order, then change-only rows.
func compare(base, change []benchRow) []verdict {
	b, names := byName(base, nil)
	c, names := byName(change, names)
	out := make([]verdict, 0, len(names))
	for _, name := range names {
		bs, cs := b[name], c[name]
		v := verdict{name: name}
		switch {
		case len(cs) == 0:
			v.oneSided = "base only"
			v.baseNs, v.baseAllocs = medianNs(bs), minAllocs(bs)
		case len(bs) == 0:
			v.oneSided = "change only"
			v.changeNs, v.changeAllocs = medianNs(cs), minAllocs(cs)
		default:
			var ratios []float64
			for i := 0; i < min(len(bs), len(cs)); i++ {
				if bs[i].ns > 0 {
					ratios = append(ratios, cs[i].ns/bs[i].ns)
				}
			}
			v.baseNs, v.changeNs, v.ratio = medianNs(bs), medianNs(cs), median(ratios)
			v.baseAllocs, v.changeAllocs = minAllocs(bs), minAllocs(cs)
			if v.ratio > NsRegressionFactor {
				v.failed = append(v.failed, "ns/op")
			}
			if v.baseAllocs == 0 && v.changeAllocs > 0 {
				v.failed = append(v.failed, "allocs/op")
			}
		}
		out = append(out, v)
	}
	return out
}

// byName groups rows by name in round order, appending names not yet seen to
// names.
func byName(rows []benchRow, names []string) (map[string][]benchRow, []string) {
	m := map[string][]benchRow{}
	for _, r := range rows {
		if _, ok := m[r.name]; !ok && !slices.Contains(names, r.name) {
			names = append(names, r.name)
		}
		m[r.name] = append(m[r.name], r)
	}
	return m, names
}

func medianNs(rows []benchRow) float64 {
	ns := make([]float64, len(rows))
	for i, r := range rows {
		ns[i] = r.ns
	}
	return median(ns)
}

func minAllocs(rows []benchRow) float64 {
	m := rows[0].allocs
	for _, r := range rows[1:] {
		m = min(m, r.allocs)
	}
	return m
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// gateSide is one of the two trees the gate measures.
type gateSide struct {
	tree string // module root the test binaries are built from and run in
	bins string // directory holding one test binary per gated package
}

// runGate builds the gated packages' test binaries at base (in a temporary
// git worktree) and in the working tree, runs the two sides alternately for
// gateRounds rounds, prints the comparison and fails on any regression.
func runGate(base string) error {
	start := time.Now()
	root, err := git("", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	baseHash, err := git(root, "rev-parse", "--verify", base+"^{commit}")
	if err != nil {
		return err
	}
	head, err := git(root, "rev-parse", "HEAD")
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "bench-gate-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	baseTree := filepath.Join(tmp, "base")
	if _, err := git(root, "worktree", "add", "--detach", baseTree, baseHash); err != nil {
		return err
	}
	defer git(root, "worktree", "remove", "--force", baseTree)

	sides := [2]gateSide{
		{tree: baseTree, bins: filepath.Join(tmp, "bin-base")},
		{tree: root, bins: filepath.Join(tmp, "bin-change")},
	}
	for _, s := range sides {
		if err := buildGated(s); err != nil {
			return err
		}
	}
	procs := runtime.GOMAXPROCS(0)
	var rows [2][]benchRow
	for round := 1; round <= gateRounds; round++ {
		order := []int{0, 1}
		if round%2 == 0 {
			order = []int{1, 0}
		}
		for _, i := range order {
			r, err := runGated(sides[i], procs)
			if err != nil {
				return err
			}
			rows[i] = append(rows[i], r...)
		}
	}
	verdicts := compare(rows[0], rows[1])

	fmt.Printf("=== benchmark gate: GOMAXPROCS %d, NumCPU %d, %d rounds at -benchtime %s ===\n",
		procs, runtime.NumCPU(), gateRounds, gateBenchtime)
	fmt.Printf("base   %s (%s)\nchange %s + working tree\n\n", baseHash, base, head)
	failures := printVerdicts(os.Stdout, verdicts)
	fmt.Printf("\ngate took %.0f s\n", time.Since(start).Seconds())
	if failures > 0 {
		return fmt.Errorf("benchmark gate failed: %d row(s) regressed", failures)
	}
	fmt.Println("gate passed")
	return nil
}

// printVerdicts writes the gate's table and returns the number of failed rows.
func printVerdicts(w io.Writer, verdicts []verdict) int {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "row\tbase ns/op\tchange ns/op\tratio\tbase allocs\tchange allocs\tverdict")
	failures := 0
	for _, v := range verdicts {
		cells := []string{v.name, "-", "-", "-", "-", "-", "ok"}
		if v.oneSided != "change only" {
			cells[1], cells[4] = fmt.Sprintf("%.0f", v.baseNs), fmt.Sprintf("%.0f", v.baseAllocs)
		}
		if v.oneSided != "base only" {
			cells[2], cells[5] = fmt.Sprintf("%.0f", v.changeNs), fmt.Sprintf("%.0f", v.changeAllocs)
		}
		switch {
		case v.oneSided != "":
			cells[6] = v.oneSided
		case len(v.failed) > 0:
			cells[3], cells[6] = fmt.Sprintf("%.2f", v.ratio), "FAIL "+strings.Join(v.failed, ", ")
			failures++
		default:
			cells[3] = fmt.Sprintf("%.2f", v.ratio)
		}
		fmt.Fprintln(tw, strings.Join(cells, "\t"))
	}
	tw.Flush()
	return failures
}

// buildGated compiles one test binary per gated package of s.tree into
// s.bins.
func buildGated(s gateSide) error {
	for _, g := range gated {
		cmd := exec.Command("go", "test", "-c", "-o", filepath.Join(s.bins, binName(g.pkg)), "./"+g.pkg)
		cmd.Dir = s.tree
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("building %s in %s: %v\n%s", g.pkg, s.tree, err, out)
		}
	}
	return nil
}

// runGated runs every gated benchmark of one side once, each test binary
// from its package directory, and returns the parsed rows.
func runGated(s gateSide, procs int) ([]benchRow, error) {
	var rows []benchRow
	for _, g := range gated {
		cmd := exec.Command(filepath.Join(s.bins, binName(g.pkg)),
			"-test.run", "^$", "-test.bench", g.bench, "-test.benchmem",
			"-test.benchtime", gateBenchtime, "-test.timeout", "10m")
		cmd.Dir = filepath.Join(s.tree, g.pkg)
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("running %s benchmarks in %s: %v\n%s%s", g.pkg, s.tree, err, out, stderr.Bytes())
		}
		r, err := parseBench(bytes.NewReader(out), g.pkg, procs)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

func binName(pkg string) string { return strings.ReplaceAll(pkg, "/", "_") + ".test" }

// git runs a git command in dir ("" for the current directory) and returns
// its trimmed standard output.
func git(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, bytes.TrimSpace(stderr.Bytes()))
	}
	return string(bytes.TrimSpace(out)), nil
}
