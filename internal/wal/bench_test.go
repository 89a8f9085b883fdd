package wal

import (
	"fmt"
	"testing"
)

// BenchmarkAppend measures single-appender throughput per fsync mode. The
// group-commit batching effect itself needs parallel appenders; see
// BenchmarkAppendParallel.
func BenchmarkAppend(b *testing.B) {
	for _, mode := range []FsyncMode{FsyncNever, FsyncGroup} {
		b.Run(fmt.Sprintf("fsync=%s", mode), func(b *testing.B) {
			w, err := Open(b.TempDir(), Options{Fsync: mode})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			payload := make([]byte, 256)
			b.SetBytes(int64(frameHeader + len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.Append(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAppendParallel shows group commit amortising fsyncs across
// concurrent appenders: many goroutines, far fewer syncs. It reports the
// records each fsync made durable.
func BenchmarkAppendParallel(b *testing.B) {
	w, err := Open(b.TempDir(), Options{Fsync: FsyncGroup})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	payload := make([]byte, 256)
	b.SetBytes(int64(frameHeader + len(payload)))
	fsyncs := w.FsyncCount()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := w.Append(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	if n := w.FsyncCount() - fsyncs; n > 0 {
		b.ReportMetric(float64(b.N)/float64(n), "records/fsync")
	}
}
