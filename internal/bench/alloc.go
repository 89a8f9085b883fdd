package bench

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"faction/internal/gda"
	"faction/internal/mat"
	"faction/internal/nn"
	"faction/internal/obs"
	"faction/internal/server"
)

// AllocReport is the schema of BENCH_alloc.json: the read-path allocation
// trajectory. Each entry pairs an operation with its steady-state ns/op and
// allocs/op; the pooled variants (".../scratch", ".../raw", ".../into") are
// the paths the serving layer actually takes, and their allocs/op are pinned
// at zero by tests in internal/nn, internal/gda and internal/server — this
// report records the same facts in committed, machine-readable form so the
// bench gate can detect a pooled path silently growing allocations.
type AllocReport struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	// Rows × InputDim is the request shape every entry measures.
	Rows     int            `json:"rows"`
	InputDim int            `json:"input_dim"`
	Kernels  []KernelResult `json:"kernels"`
}

// allocReplayBody is a resettable request body so the HTTP entry can reuse
// one request across benchmark iterations.
type allocReplayBody struct{ r bytes.Reader }

func (b *allocReplayBody) Read(p []byte) (int, error) { return b.r.Read(p) }
func (b *allocReplayBody) Close() error               { return nil }

// allocResponseWriter is a reusable ResponseWriter whose buffer reaches
// steady capacity after warmup, so the measurement sees only the server's
// own allocations.
type allocResponseWriter struct {
	h    http.Header
	body []byte
	code int
}

func (w *allocResponseWriter) Header() http.Header { return w.h }
func (w *allocResponseWriter) WriteHeader(c int)   { w.code = c }
func (w *allocResponseWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.body = append(w.body, p...)
	return len(p), nil
}

// RunAlloc measures the read path's steady-state allocation behavior: the
// allocating entry points next to their pooled replacements, plus the full
// /predict HTTP stack. Kernel parallelism is forced serial for the duration,
// matching the alloc-pin tests (the parallel handoff is also allocation-free
// at steady state, but worker warmup would smear the counts).
func RunAlloc() (AllocReport, error) {
	rep := AllocReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Rows:        8,
		InputDim:    16,
	}
	old := mat.Parallelism()
	mat.SetParallelism(1)
	defer mat.SetParallelism(old)

	model, est, err := serveArtifacts()
	if err != nil {
		return rep, err
	}
	rng := rand.New(rand.NewSource(29))
	probe := randDense(rng, rep.Rows, rep.InputDim)
	feats := model.Features(probe)

	add := func(name string, fn func(b *testing.B)) {
		rep.Kernels = append(rep.Kernels, toResult(name, stableBench(fn)))
	}

	// Forward pass: heap activations (nil arena) per call vs the pooled arena.
	add("LogitsAndFeatures/alloc", func(b *testing.B) {
		b.ReportAllocs()
		quiesce(b)
		for i := 0; i < b.N; i++ {
			model.LogitsAndFeatures(probe, nil)
		}
	})
	add("LogitsAndFeatures/scratch", func(b *testing.B) {
		for i := 0; i < 10; i++ { // warm the arena pools
			a := mat.GetArena()
			model.LogitsAndFeatures(probe, a)
			a.Release()
		}
		b.ReportAllocs()
		quiesce(b)
		for i := 0; i < b.N; i++ {
			a := mat.GetArena()
			model.LogitsAndFeatures(probe, a)
			a.Release()
		}
	})

	// Density scoring (Eqs. 3–5): fresh BatchScores per call vs the pooled
	// raw pass sliced into a caller-owned buffer.
	add("GDAScoreBatch/alloc", func(b *testing.B) {
		b.ReportAllocs()
		quiesce(b)
		for i := 0; i < b.N; i++ {
			est.ScoreBatch(feats)
		}
	})
	add("GDAScoreBatch/raw", func(b *testing.B) {
		var batch gda.BatchScores
		for i := 0; i < 10; i++ {
			raw := est.ScoreBatchRaw(feats)
			raw.SliceInto(&batch, 0, feats.Rows)
			raw.Release()
		}
		b.ReportAllocs()
		quiesce(b)
		for i := 0; i < b.N; i++ {
			raw := est.ScoreBatchRaw(feats)
			raw.SliceInto(&batch, 0, feats.Rows)
			raw.Release()
		}
	})

	// Log-density batch (Eq. 3): fresh slice per call vs caller-owned dst.
	add("LogDensityBatch/alloc", func(b *testing.B) {
		b.ReportAllocs()
		quiesce(b)
		for i := 0; i < b.N; i++ {
			est.LogDensityBatch(feats)
		}
	})
	add("LogDensityBatch/into", func(b *testing.B) {
		dst := make([]float64, feats.Rows)
		for i := 0; i < 10; i++ {
			est.LogDensityBatchInto(dst, feats)
		}
		b.ReportAllocs()
		quiesce(b)
		for i := 0; i < b.N; i++ {
			est.LogDensityBatchInto(dst, feats)
		}
	})

	// The full /predict HTTP stack — middleware chain included. The handler
	// body itself is pinned at zero allocs by internal/server tests; what
	// remains here is the per-request middleware cost (request ID, context
	// values, the timeout goroutine and its buffered response).
	httpRes, err := benchPredictHTTP(model, est, probe)
	if err != nil {
		return rep, err
	}
	rep.Kernels = append(rep.Kernels, httpRes)
	return rep, nil
}

func benchPredictHTTP(model *nn.Classifier, est *gda.Estimator, probe *mat.Dense) (KernelResult, error) {
	s, err := server.New(server.Config{
		Model:             model,
		Density:           est,
		TrainLogDensities: est.TrainLogDensities,
		Lambda:            0.5,
		Logger:            slog.New(slog.NewTextHandler(io.Discard, nil)),
		Metrics:           obs.NewRegistry(),
	})
	if err != nil {
		return KernelResult{}, err
	}
	defer s.Close()
	h := s.Handler()

	inst := make([][]float64, probe.Rows)
	for i := range inst {
		inst[i] = probe.Row(i)
	}
	var reqBody struct {
		Instances [][]float64 `json:"instances"`
	}
	reqBody.Instances = inst
	body, err := json.Marshal(reqBody)
	if err != nil {
		return KernelResult{}, err
	}
	req := httptest.NewRequest("POST", "/predict", nil)
	rb := &allocReplayBody{}
	req.Body = rb
	w := &allocResponseWriter{h: http.Header{}}
	return toResult("PredictHTTP/full-stack", stableBench(func(b *testing.B) {
		serve := func() {
			rb.r.Reset(body)
			w.body, w.code = w.body[:0], 0
			h.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				b.Fatalf("predict returned %d: %s", w.code, w.body)
			}
		}
		for i := 0; i < 10; i++ {
			serve()
		}
		b.ReportAllocs()
		quiesce(b)
		for i := 0; i < b.N; i++ {
			serve()
		}
	})), nil
}
