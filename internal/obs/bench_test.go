package obs

import (
	"context"
	"testing"
)

// TestCounterIncZeroAllocs pins the hot-path contract the serving and online
// layers rely on: incrementing an unlabeled counter, setting a gauge and
// observing into a histogram allocate nothing.
func TestCounterIncZeroAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot_total", "")
	g := r.Gauge("hot_gauge", "")
	h := r.Histogram("hot_hist", "", nil)
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Fatalf("Counter.Inc allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(1.5) }); n != 0 {
		t.Fatalf("Gauge.Set allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.42) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %v/op, want 0", n)
	}
	// A resolved vec child is as cheap as an unlabeled counter.
	child := r.CounterVec("hot_vec_total", "", "route").With("/predict")
	if n := testing.AllocsPerRun(1000, func() { child.Inc() }); n != 0 {
		t.Fatalf("resolved vec child Inc allocates %v/op, want 0", n)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_hist", "", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%100) * 0.01)
	}
}

func BenchmarkHistogramQuantile(b *testing.B) {
	h := NewRegistry().Histogram("bench_hist_q", "", nil)
	for i := 0; i < 4096; i++ {
		h.Observe(float64(i%700) * 0.001)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Quantile(0.99)
	}
}

func BenchmarkCounterVecWith(b *testing.B) {
	v := NewRegistry().CounterVec("bench_vec_total", "", "route")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.With("/predict").Inc()
	}
}

func BenchmarkStartSpanEnd(b *testing.B) {
	tr := NewTracer(1024)
	ctx := WithTracer(context.Background(), tr)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, s := StartSpan(ctx, "bench")
		s.End()
	}
}
