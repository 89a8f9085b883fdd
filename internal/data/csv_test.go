package data

import (
	"bytes"
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
