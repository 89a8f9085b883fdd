package data

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
)

func TestCSVRoundTrip(t *testing.T) {
	orig := NYSF(StreamConfig{Seed: 9, SamplesPerTask: 25})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, "nysf-roundtrip")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTasks() != orig.NumTasks() || got.Dim != orig.Dim {
		t.Fatalf("shape: %d tasks dim %d, want %d/%d", got.NumTasks(), got.Dim, orig.NumTasks(), orig.Dim)
	}
	for ti := range orig.Tasks {
		a, b := orig.Tasks[ti], got.Tasks[ti]
		if a.ID != b.ID || a.Env != b.Env || a.Pool.Len() != b.Pool.Len() {
			t.Fatalf("task %d metadata mismatch", ti)
		}
		for i := range a.Pool.Samples {
			sa, sb := a.Pool.Samples[i], b.Pool.Samples[i]
			if sa.Y != sb.Y || sa.S != sb.S {
				t.Fatalf("task %d sample %d label mismatch", ti, i)
			}
			for d := range sa.X {
				if sa.X[d] != sb.X[d] {
					t.Fatalf("task %d sample %d feature %d: %g != %g", ti, i, d, sa.X[d], sb.X[d])
				}
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"bad header":    "a,b,c\n",
		"bad task":      "task,env,y,s,x0\nx,0,0,1,0.5\n",
		"bad env":       "task,env,y,s,x0\n0,x,0,1,0.5\n",
		"bad label":     "task,env,y,s,x0\n0,0,7,1,0.5\n",
		"bad sensitive": "task,env,y,s,x0\n0,0,1,0,0.5\n",
		"bad feature":   "task,env,y,s,x0\n0,0,1,1,zzz\n",
		"empty":         "task,env,y,s,x0\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in), "x"); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}

func TestReadCSVOrdersTasks(t *testing.T) {
	in := "task,env,y,s,x0\n" +
		"2,1,1,1,0.2\n" +
		"0,0,0,-1,0.0\n" +
		"1,0,1,1,0.1\n"
	st, err := ReadCSV(strings.NewReader(in), "ordered")
	if err != nil {
		t.Fatal(err)
	}
	if st.NumTasks() != 3 {
		t.Fatalf("tasks = %d", st.NumTasks())
	}
	for i, task := range st.Tasks {
		if task.ID != i {
			t.Fatalf("task order: got id %d at position %d", task.ID, i)
		}
	}
	if st.Tasks[2].Env != 1 || st.Tasks[2].Pool.Samples[0].X[0] != 0.2 {
		t.Fatal("content mismatch")
	}
}

// TestCSVRoundTripSpecialValues writes the float64 values at the edges of
// the format and reads them back: NaN, ±Inf, −0, the smallest subnormal and
// ±MaxFloat64 keep their bits (NaN stays a NaN).
func TestCSVRoundTripSpecialValues(t *testing.T) {
	vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64}
	pool := NewDataset("edge/task0", len(vals), 2)
	pool.Append(Sample{X: vals, Y: 1, S: -1}, Sample{X: append([]float64(nil), vals...), Y: 0, S: 1})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, &Stream{Name: "edge", Dim: len(vals), Classes: 2, Tasks: []Task{{Name: "task0", Pool: pool}}}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, "edge")
	if err != nil {
		t.Fatal(err)
	}
	for i, smp := range got.Tasks[0].Pool.Samples {
		for d, v := range smp.X {
			if want := vals[d]; math.Float64bits(v) != math.Float64bits(want) && !(math.IsNaN(v) && math.IsNaN(want)) {
				t.Fatalf("sample %d feature %d: %v (%#x), want %v (%#x)", i, d, v, math.Float64bits(v), want, math.Float64bits(want))
			}
		}
	}
}

// TestReadCSVFeaturesDoNotAlias: samples share feature chunks, so each X must
// be capped at its own features; an append to one sample's X must copy, not
// write into the next sample's features.
func TestReadCSVFeaturesDoNotAlias(t *testing.T) {
	in := "task,env,y,s,x0,x1\n" +
		"0,0,1,1,1,2\n" +
		"0,0,0,-1,3,4\n"
	st, err := ReadCSV(strings.NewReader(in), "alias")
	if err != nil {
		t.Fatal(err)
	}
	smp := st.Tasks[0].Pool.Samples
	if cap(smp[0].X) != 2 {
		t.Fatalf("cap(X) = %d, want 2", cap(smp[0].X))
	}
	grown := append(smp[0].X, 99, 98)
	grown[0] = -1
	if smp[0].X[0] != 1 || smp[1].X[0] != 3 || smp[1].X[1] != 4 {
		t.Fatalf("appending to sample 0 changed the features: %v, %v", smp[0].X, smp[1].X)
	}
}

// referenceReadCSV is ReadCSV as it was before the single-pass reader:
// encoding/csv, strconv.Atoi and strconv.ParseFloat, one slice per row. The
// differential tests hold ReadCSV to it.
func referenceReadCSV(r io.Reader, name string) (*Stream, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("data: reading CSV header: %w", err)
	}
	if len(header) < 5 || header[0] != "task" || header[1] != "env" || header[2] != "y" || header[3] != "s" {
		return nil, fmt.Errorf("data: unexpected CSV header %v (want task,env,y,s,x0,...)", header)
	}
	dim := len(header) - 4
	// Every field is parsed before the next Read, so one record slice
	// serves every row.
	cr.ReuseRecord = true

	type taskAcc struct {
		env  int
		pool *Dataset
	}
	tasks := map[int]*taskAcc{}
	line := 1
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		line++
		if err != nil {
			return nil, fmt.Errorf("data: CSV line %d: %w", line, err)
		}
		taskID, err := strconv.Atoi(row[0])
		if err != nil {
			return nil, fmt.Errorf("data: CSV line %d: bad task id %q", line, row[0])
		}
		env, err := strconv.Atoi(row[1])
		if err != nil {
			return nil, fmt.Errorf("data: CSV line %d: bad env %q", line, row[1])
		}
		y, err := strconv.Atoi(row[2])
		if err != nil || (y != 0 && y != 1) {
			return nil, fmt.Errorf("data: CSV line %d: bad label %q", line, row[2])
		}
		s, err := strconv.Atoi(row[3])
		if err != nil || (s != -1 && s != 1) {
			return nil, fmt.Errorf("data: CSV line %d: bad sensitive value %q", line, row[3])
		}
		x := make([]float64, dim)
		for i := 0; i < dim; i++ {
			x[i], err = strconv.ParseFloat(row[4+i], 64)
			if err != nil {
				return nil, fmt.Errorf("data: CSV line %d: bad feature %q", line, row[4+i])
			}
		}
		acc, ok := tasks[taskID]
		if !ok {
			acc = &taskAcc{env: env, pool: NewDataset(fmt.Sprintf("%s/task%d", name, taskID), dim, 2)}
			tasks[taskID] = acc
		}
		acc.pool.Append(Sample{X: x, Y: y, S: s, Env: env})
	}
	if len(tasks) == 0 {
		return nil, fmt.Errorf("data: CSV contains no samples")
	}

	ids := make([]int, 0, len(tasks))
	for id := range tasks {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	stream := &Stream{Name: name, Dim: dim, Classes: 2}
	for _, id := range ids {
		acc := tasks[id]
		stream.Tasks = append(stream.Tasks, Task{
			ID:   id,
			Env:  acc.env,
			Name: fmt.Sprintf("task%d", id),
			Pool: acc.pool,
		})
	}
	return stream, nil
}

// streamDiff describes the first difference between two streams read from
// one input, or returns "": names, shape, task order, IDs, envs, and every
// sample's label, group, env and feature bits.
func streamDiff(a, b *Stream) string {
	if a.Name != b.Name || a.Dim != b.Dim || a.Classes != b.Classes || len(a.Tasks) != len(b.Tasks) {
		return fmt.Sprintf("stream %q dim %d classes %d, %d tasks; want %q, %d, %d, %d",
			a.Name, a.Dim, a.Classes, len(a.Tasks), b.Name, b.Dim, b.Classes, len(b.Tasks))
	}
	for t := range a.Tasks {
		ta, tb := a.Tasks[t], b.Tasks[t]
		pa, pb := ta.Pool, tb.Pool
		if ta.ID != tb.ID || ta.Env != tb.Env || ta.Name != tb.Name || pa.Name != pb.Name ||
			pa.Dim != pb.Dim || pa.Classes != pb.Classes || pa.Len() != pb.Len() {
			return fmt.Sprintf("task %d: %+v %q/%d/%d/%d; want %+v %q/%d/%d/%d", t,
				ta, pa.Name, pa.Dim, pa.Classes, pa.Len(), tb, pb.Name, pb.Dim, pb.Classes, pb.Len())
		}
		for i := range pa.Samples {
			sa, sb := pa.Samples[i], pb.Samples[i]
			if sa.Y != sb.Y || sa.S != sb.S || sa.Env != sb.Env || len(sa.X) != len(sb.X) {
				return fmt.Sprintf("task %d sample %d: %+v; want %+v", t, i, sa, sb)
			}
			for d := range sa.X {
				if math.Float64bits(sa.X[d]) != math.Float64bits(sb.X[d]) {
					return fmt.Sprintf("task %d sample %d feature %d: %#x; want %#x",
						t, i, d, math.Float64bits(sa.X[d]), math.Float64bits(sb.X[d]))
				}
			}
		}
	}
	return ""
}

// readCSVSeeds are inputs at the edges of the reader's grammar: the
// canonical header, quoted fields (one spanning lines, one in the header),
// CRLF line ends and blank lines, signs, an exponent out of range, a
// subnormal, hex, NaN and inf, a 25-digit mantissa, wrong widths, bad
// labels, bare and unterminated quotes, and tasks out of order.
var readCSVSeeds = []string{
	"task,env,y,s,x0,x1\n0,0,1,1,0.5,-1.25\n1,1,0,-1,3,4e-7\n",
	"task,env,y,s,x0\n\"0\",0,1,1,\"0.5\"\n",
	"task,env,y,s,x0\n0,0,1,1,\"0.5\n\"\n",
	"\"task\",env,y,s,\"x\n0\"\n0,0,1,1,2\n",
	"task,env,y,s,x0\n0,0,1,1,\"1\"\"2\"\n",
	"task,env,y,s,x0\r\n\r\n1,0,1,-1,2.5\r\n\n0,1,0,1,3\r\n",
	"\n\ntask,env,y,s,x0\r\n0,0,1,1,1\r",
	"task,env,y,s,x0,x1\n+1,-0,+1,+1,-0,+1\n",
	"task,env,y,s,x0\n0,0,1,1,1e400\n",
	"task,env,y,s,x0\n0,0,1,1,4.9e-324\n",
	"task,env,y,s,x0\n0,0,1,1,0x1p-2\n",
	"task,env,y,s,x0,x1\n0,0,1,1,NaN,inf\n",
	"task,env,y,s,x0\n0,0,1,1,1234567890123456789012345\n",
	"task,env,y,s,x0,x1\n0,0,1,1,0.5\n",
	"task,env,y,s,x0\n0,0,1,1,0.5,7\n",
	"task,env,y,s,x0\n0,0,1,1,0.5,\n",
	"task,env,y,s,x0\n0,0,2,1,0.5\n",
	"task,env,y,s,x0\n0,0,1,1,0\"5\n",
	"task,env,y,s,x0\n0,0,1,1,\"0.5\n",
	"task,env,y,s,x0\n2,1,1,1,0.2\n0,0,0,-1,0.0\n2,0,1,1,0.1\n",
	"task,env,y,s,x0\n0,0,1,1,1_0\n",
	"task,env,y,s,x0\n12345678901234567890,0,1,1,1\n",
	"task,env,y,s,x0\n0,0,1,1, 1\n",
	"task,env,y,s,x0\n0,0,1,1,1\r\r\n",
	"task,env,y,s\n0,0,1,1\n",
	"",
}

// TestReadCSVMatchesReference holds ReadCSV to referenceReadCSV on the seed
// inputs (also FuzzReadCSV's corpus), on rows of 6,000 features (lines of
// about 110 KB, longer than the reader's buffer; one of them quoted), and on
// an NYSF stream's CSV read through a reader that returns a few bytes at a
// time, so that lines straddle every buffer refill.
func TestReadCSVMatchesReference(t *testing.T) {
	for _, in := range readCSVSeeds {
		if msg := readCSVMismatch([]byte(in)); msg != "" {
			t.Fatalf("%q: %s", in, msg)
		}
	}
	var wide bytes.Buffer
	wide.WriteString("task,env,y,s")
	for d := 0; d < 6000; d++ {
		fmt.Fprintf(&wide, ",x%d", d)
	}
	for row := 0; row < 3; row++ {
		fmt.Fprintf(&wide, "\n%d,0,1,-1", row%2)
		for d := 0; d < 6000; d++ {
			if row == 1 && d == 4000 {
				wide.WriteString(`,"-0.5e-3"`)
				continue
			}
			fmt.Fprintf(&wide, ",%.17g", float64(d)/7-float64(row))
		}
	}
	if msg := readCSVMismatch(wide.Bytes()); msg != "" {
		t.Fatalf("wide rows: %s", msg)
	}
	if st, err := ReadCSV(bytes.NewReader(wide.Bytes()), "wide"); err != nil || st.Dim != 6000 || st.TotalSamples() != 3 {
		t.Fatalf("wide rows: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, NYSF(StreamConfig{Seed: 3, SamplesPerTask: 300})); err != nil {
		t.Fatal(err)
	}
	want, err := referenceReadCSV(bytes.NewReader(buf.Bytes()), "nysf")
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&trickle{buf.Bytes()}, "nysf")
	if err != nil {
		t.Fatal(err)
	}
	if msg := streamDiff(got, want); msg != "" {
		t.Fatal(msg)
	}
}

// trickle reads out its bytes 1 to 7 at a time.
type trickle struct{ b []byte }

func (r *trickle) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), 1+len(r.b)%7)], r.b)
	r.b = r.b[n:]
	return n, nil
}

// readCSVMismatch describes how ReadCSV and referenceReadCSV disagree on in,
// or returns "": both must fail, or both succeed with equal streams.
func readCSVMismatch(in []byte) string {
	want, wantErr := referenceReadCSV(bytes.NewReader(in), "fuzz")
	got, err := ReadCSV(bytes.NewReader(in), "fuzz")
	switch {
	case (err == nil) != (wantErr == nil):
		return fmt.Sprintf("ReadCSV error %v, reference error %v", err, wantErr)
	case err != nil:
		return ""
	}
	return streamDiff(got, want)
}

// FuzzReadCSV holds ReadCSV to referenceReadCSV on any bytes.
func FuzzReadCSV(f *testing.F) {
	for _, in := range readCSVSeeds {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if msg := readCSVMismatch(in); msg != "" {
			t.Fatalf("%q: %s", in, msg)
		}
	})
}

// BenchmarkReadCSV reads the paper-scale NYSF stream (16 tasks of 2,200
// rows, 16 features) back from its CSV, as perfbench's set-up does.
func BenchmarkReadCSV(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, NYSF(StreamConfig{Seed: 1, SamplesPerTask: 2200})); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadCSV(bytes.NewReader(raw), "nysf"); err != nil {
			b.Fatal(err)
		}
	}
}
