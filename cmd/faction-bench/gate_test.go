package main

import (
	"bytes"
	"strings"
	"testing"
)

// capturedBench is `go test -bench -benchmem` output from a 2-CPU host, with
// the -2 GOMAXPROCS suffix, a MB/s column and a custom metric.
const capturedBench = "goos: linux\n" +
	"goarch: amd64\n" +
	"pkg: faction/internal/mat\n" +
	"cpu: Intel(R) Xeon(R) Processor\n" +
	"BenchmarkMulInto/64/serial-2         \t    8118\t    146011 ns/op\t  14.37 MB/s\t       0 B/op\t       0 allocs/op\n" +
	"BenchmarkMulInto/64/parallel-2       \t       1\t    244961 ns/op\t8561.17 MB/s\t      96 B/op\t       1 allocs/op\n" +
	"BenchmarkCoalescedPredict-2             \t     688\t    149361 ns/op\t        14.96 rows/flush\t   11377 B/op\t     126 allocs/op\n" +
	"BenchmarkWithLog-2   \tsome logged text\n" +
	"PASS\n"

func TestParseBench(t *testing.T) {
	rows, err := parseBench(strings.NewReader(capturedBench), "internal/mat", 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []benchRow{
		{"mat.MulInto/64/serial", 146011, 0},
		{"mat.MulInto/64/parallel", 244961, 1},
		{"mat.CoalescedPredict", 149361, 126},
	}
	if len(rows) != len(want) {
		t.Fatalf("parsed %v, want %v", rows, want)
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Fatalf("row %d = %+v, want %+v", i, rows[i], want[i])
		}
	}

	// At GOMAXPROCS 1 testing appends no suffix, so a trailing -2 is part of
	// the name.
	rows, err = parseBench(strings.NewReader("BenchmarkScan/batch-2 \t 10\t 5.5 ns/op\t 0 B/op\t 0 allocs/op\n"), "internal/obs/slo", 1)
	if err != nil || len(rows) != 1 || rows[0].name != "slo.Scan/batch-2" {
		t.Fatalf("GOMAXPROCS 1 rows = %v, %v", rows, err)
	}

	// A result without -benchmem columns cannot be gated.
	if _, err := parseBench(strings.NewReader("BenchmarkX-2 \t 10\t 5.5 ns/op\n"), "internal/mat", 2); err == nil {
		t.Fatal("expected an error for a row without allocs/op")
	}
}

func TestCompareRules(t *testing.T) {
	// Three rounds per side; the k-th row of a name is round k.
	round := func(name string, ns, allocs []float64) []benchRow {
		out := make([]benchRow, len(ns))
		for i := range ns {
			out[i] = benchRow{name, ns[i], allocs[i]}
		}
		return out
	}
	var base, change []benchRow
	add := func(name string, bns, bal, cns, cal []float64) {
		if bns != nil {
			base = append(base, round(name, bns, bal)...)
		}
		if cns != nil {
			change = append(change, round(name, cns, cal)...)
		}
	}
	zero := []float64{0, 0, 0}
	// One round over 2× does not fail a row whose median ratio is 1.9.
	add("noisy", []float64{100, 100, 100}, zero, []float64{190, 250, 150}, zero)
	// A median ratio of 2.2 does.
	add("slow", []float64{100, 100, 100}, zero, []float64{210, 220, 300}, zero)
	// A single background malloc on either side cannot fail the alloc rule.
	add("stray", []float64{100, 100, 100}, []float64{0, 1, 0}, []float64{100, 100, 100}, []float64{1, 0, 1})
	// An allocation in every round on a base-zero row does.
	add("allocates", []float64{100, 100, 100}, zero, []float64{100, 100, 100}, []float64{1, 1, 1})
	// Allocation growth on a row the base does not hold at zero is not gated.
	add("nonpinned", []float64{100, 100, 100}, []float64{3, 3, 3}, []float64{100, 100, 100}, []float64{7, 7, 7})
	// Rows on one side only are reported, never failed.
	add("renamed", []float64{100, 100, 100}, zero, nil, nil)
	add("new", nil, nil, []float64{1e9, 1e9, 1e9}, []float64{100, 100, 100})

	verdicts := compare(base, change)
	want := []struct {
		name, oneSided, failed string
	}{
		{"noisy", "", ""},
		{"slow", "", "ns/op"},
		{"stray", "", ""},
		{"allocates", "", "allocs/op"},
		{"nonpinned", "", ""},
		{"renamed", "base only", ""},
		{"new", "change only", ""},
	}
	if len(verdicts) != len(want) {
		t.Fatalf("verdicts = %+v", verdicts)
	}
	for i, w := range want {
		v := verdicts[i]
		if v.name != w.name || v.oneSided != w.oneSided || strings.Join(v.failed, ",") != w.failed {
			t.Fatalf("verdict %d = %+v, want %+v", i, v, w)
		}
	}
	if v := verdicts[0]; v.ratio != 1.9 || v.baseNs != 100 || v.changeNs != 190 {
		t.Fatalf("noisy: ratio %v, medians %v/%v; want 1.9, 100/190", v.ratio, v.baseNs, v.changeNs)
	}

	var out bytes.Buffer
	if n := printVerdicts(&out, verdicts); n != 2 {
		t.Fatalf("printVerdicts counted %d failures, want 2:\n%s", n, out.String())
	}
	for _, s := range []string{"FAIL ns/op", "FAIL allocs/op", "base only", "change only"} {
		if !strings.Contains(out.String(), s) {
			t.Fatalf("table lacks %q:\n%s", s, out.String())
		}
	}
}
