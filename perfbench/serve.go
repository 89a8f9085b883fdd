package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"faction/internal/data"
	"faction/internal/drift"
	"faction/internal/fleet"
	"faction/internal/gda"
	"faction/internal/nn"
	"faction/internal/obs"
	"faction/internal/obs/slo"
	"faction/internal/resilience"
	"faction/internal/rngutil"
	"faction/internal/server"
	"faction/internal/wal"
)

// Request shapes of the serving workloads.
const (
	scoreRows    = 64 // rows per /score request
	feedbackRows = 16 // labelled rows per /feedback batch
	readCycle    = 8  // a reader sends 7 single-row /predict, then one /score
	predictPool  = 512
	scorePool    = 64
)

// clientTimeout bounds every request. A failed or refused request is recorded
// at this latency, so it misses any latency limit below it.
const clientTimeout = 10 * time.Second

type serveSize struct {
	trainSamples   int // rcmnist samples per task, as faction-serve -samples
	rounds         int // interleaved baseline and measured chunks
	readsPerRound  int // reader operations per chunk
	writesPerRound int // serve-mixed feedback batches per round
	refitEvery     int // feedback batches between synchronous /refit calls
	setupReps      int // timed set-ups behind setup_s
}

func serveSizeFor(o opts, routed bool) serveSize {
	if o.smoke {
		return serveSize{trainSamples: 120, rounds: 2, readsPerRound: 32, writesPerRound: 4, refitEvery: 4, setupReps: 2}
	}
	// --seconds sizes the round count. On a 2-vCPU host a serve-routed chunk
	// of 750 reads takes ~0.15 s; short chunks, many of them, let the median
	// over rounds shrug off host noise. A serve-mixed round is 3000 reads
	// beside 100 feedback batches and one refit, so the reads overlap the
	// whole refit.
	if routed {
		return serveSize{trainSamples: 800, rounds: 2 * o.seconds, readsPerRound: 750, setupReps: 7}
	}
	return serveSize{trainSamples: 800, rounds: max(2, o.seconds/2), readsPerRound: 3000, writesPerRound: 100, refitEvery: 100, setupReps: 7}
}

// serveInputs are the generated inputs of a serving workload: the training
// stream, pre-encoded request bodies, the reader's operation sequence, the
// writer's feedback batches and the held-out evaluation rows.
type serveInputs struct {
	seed      int64
	stream    *data.Stream
	train     *data.Dataset
	predict   [][]byte // single-row /predict bodies
	score     [][]byte // scoreRows-row /score bodies
	ops       []readOp
	feedback  [][]byte
	heldOut   *data.Dataset
	firstBody []byte
}

type readOp struct {
	score bool
	body  int
}

func makeServeInputs(o opts, size serveSize) *serveInputs {
	seed := rngutil.DeriveSeed(o.seed, "perfbench", "rcmnist")
	stream := data.RotatedColoredMNIST(data.StreamConfig{Seed: seed, SamplesPerTask: size.trainSamples})
	in := &serveInputs{seed: seed, stream: stream}
	// Training set: the first three tasks (environment 0), as faction-serve -train.
	in.train = data.NewDataset("train", stream.Dim, stream.Classes)
	for _, t := range stream.Tasks[:3] {
		in.train.Samples = append(in.train.Samples, t.Pool.Samples...)
	}
	// Feedback from a later environment (tasks 6 and 7, rotated 30 degrees);
	// task 8 of the same environment is held out for accuracy.
	var fb []data.Sample
	for _, t := range stream.Tasks[6:8] {
		fb = append(fb, t.Pool.Samples...)
	}
	for i := 0; i+feedbackRows <= len(fb); i += feedbackRows {
		in.feedback = append(in.feedback, feedbackBody(fb[i:i+feedbackRows]))
	}
	in.heldOut = stream.Tasks[8].Pool

	// Reader rows come from every environment after the training one.
	var rows [][]float64
	for _, t := range stream.Tasks[3:] {
		for _, s := range t.Pool.Samples {
			rows = append(rows, s.X)
		}
	}
	rng := rngutil.Derive(o.seed, "perfbench", "reader")
	pick := func(n int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = rows[rng.Intn(len(rows))]
		}
		return out
	}
	for i := 0; i < predictPool; i++ {
		in.predict = append(in.predict, instancesBody(pick(1)))
	}
	for i := 0; i < scorePool; i++ {
		in.score = append(in.score, instancesBody(pick(scoreRows)))
	}
	for i := 0; i < size.rounds*size.readsPerRound; i++ {
		if i%readCycle == readCycle-1 {
			in.ops = append(in.ops, readOp{score: true, body: rng.Intn(scorePool)})
		} else {
			in.ops = append(in.ops, readOp{body: rng.Intn(predictPool)})
		}
	}
	in.firstBody = instancesBody(pick(1))
	return in
}

func instancesBody(rows [][]float64) []byte {
	b, _ := json.Marshal(map[string][][]float64{"instances": rows})
	return b
}

func feedbackBody(samples []data.Sample) []byte {
	req := struct {
		Instances [][]float64 `json:"instances"`
		Labels    []int       `json:"labels"`
		Sensitive []int       `json:"sensitive"`
	}{}
	for _, s := range samples {
		req.Instances = append(req.Instances, s.X)
		req.Labels = append(req.Labels, s.Y)
		req.Sensitive = append(req.Sensitive, s.S)
	}
	b, _ := json.Marshal(req)
	return b
}

// stack is one booted serving deployment: its servers, the WAL of the
// online one, and for serve-routed the router in front of two replicas.
type stack struct {
	servers  []*server.Server
	https    []*http.Server
	serveErr []chan error
	urls     []string // replica base URLs
	wal      *wal.WAL
	router   *fleet.Router
	routerRg *obs.Registry
	front    string // where readers send: the replica, or the router
}

func (s *stack) close() {
	if s.router != nil {
		s.router.Stop()
	}
	for i, h := range s.https {
		h.Close()
		<-s.serveErr[i]
	}
	for _, srv := range s.servers {
		srv.Close()
	}
	if s.wal != nil {
		s.wal.Close()
	}
}

// boot sets up one deployment the way faction-serve -train does: train and
// fit the served model, save and reload its snapshots, open the WAL, build
// the servers (and router), and answer one request. It returns the stack and
// the durations of the whole set-up and of its boot part (everything after
// the model and density exist).
func boot(o opts, in *serveInputs, routed bool, rep int, rec *recorder, parent spanRef) (*stack, time.Duration, time.Duration, error) {
	dir := filepath.Join(o.dir, fmt.Sprintf("setup-%d", rep))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, 0, err
	}
	modelPath, densPath := filepath.Join(dir, "model.gob"), filepath.Join(dir, "density.gob")
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))

	start := time.Now()
	root := rec.begin("setup", parent)
	sp := rec.begin("nn.Train", root)
	model := nn.NewClassifier(nn.Config{
		InputDim: in.stream.Dim, NumClasses: in.stream.Classes, Hidden: []int{64},
		SpectralNorm: true, SpectralCoeff: 3, Seed: in.seed,
	})
	x := in.train.Matrix()
	model.Train(x, in.train.Labels(), in.train.Sensitive(), nn.NewAdam(0.01),
		nn.TrainOpts{Epochs: 20, BatchSize: 32, Fair: nn.FairConfig{Mu: 0.7, Eps: 0.01}}, rngutil.New(in.seed))
	rec.end(sp)
	sp = rec.begin("nn.SaveClassifierFile", root)
	err := nn.SaveClassifierFile(modelPath, model, 2)
	rec.end(sp)
	if err != nil {
		return nil, 0, 0, err
	}
	sp = rec.begin("gda.Fit", root)
	est, err := gda.Fit(model.Features(x), in.train.Labels(), in.train.Sensitive(), in.stream.Classes, []int{-1, 1}, gda.Config{})
	rec.end(sp)
	if err != nil {
		return nil, 0, 0, err
	}
	sp = rec.begin("gda.SaveFile", root)
	err = est.SaveFile(densPath, 2)
	rec.end(sp)
	if err != nil {
		return nil, 0, 0, err
	}

	bootStart := time.Now()
	bootSpan := rec.begin("server.boot", root)
	st := &stack{}
	fail := func(err error) (*stack, time.Duration, time.Duration, error) {
		st.close()
		return nil, 0, 0, err
	}
	replicas := 1
	if routed {
		replicas = 2
	}
	for r := 0; r < replicas; r++ {
		sp = rec.begin("snapshot.Load", bootSpan)
		m, err := nn.LoadClassifierFile(modelPath)
		if err != nil {
			rec.end(sp)
			return fail(err)
		}
		e, err := gda.LoadFile(densPath)
		rec.end(sp)
		if err != nil {
			return fail(err)
		}
		cfg := server.Config{
			Model: m, Density: e, TrainLogDensities: e.TrainLogDensities,
			Lambda: 1, Drift: drift.New(drift.Config{}),
			BatchRows: 64, MaxInflight: 64, RequestTimeout: 30 * time.Second, MaxBodyBytes: 8 << 20,
			HistoryInterval: 10 * time.Second, HistoryPoints: 512,
			Logger: logger,
		}
		spec := slo.DefaultSpec()
		cfg.SLO = &spec
		if !routed {
			sp = rec.begin("wal.Open", bootSpan)
			st.wal, err = wal.Open(filepath.Join(dir, "wal"), wal.Options{Fsync: wal.FsyncGroup, Metrics: wal.NewMetrics(obs.Default())})
			rec.end(sp)
			if err != nil {
				return fail(err)
			}
			cfg.WAL = st.wal
			cfg.Online = server.OnlineConfig{Enabled: true, Fair: nn.FairConfig{Mu: 0.7, Eps: 0.01}, Seed: in.seed}
		}
		sp = rec.begin("server.New", bootSpan)
		srv, err := server.New(cfg)
		rec.end(sp)
		if err != nil {
			return fail(err)
		}
		st.servers = append(st.servers, srv)
		if st.wal != nil {
			srv.SetReplaying(true)
			lsn, err := resilience.SnapshotLSN(modelPath)
			if err != nil {
				return fail(err)
			}
			if _, err := srv.ReplayFeedback(lsn); err != nil {
				return fail(err)
			}
			srv.SetReplaying(false)
		}
		u, err := st.listen(srv.Handler())
		if err != nil {
			return fail(err)
		}
		st.urls = append(st.urls, u)
	}
	st.front = st.urls[0]
	if routed {
		sp = rec.begin("fleet.New", bootSpan)
		st.routerRg = obs.NewRegistry()
		var reps []fleet.Replica
		for _, u := range st.urls {
			reps = append(reps, fleet.Replica{URL: u})
		}
		rt, err := fleet.New(fleet.Config{Replicas: reps, Balance: fleet.BalanceLeastInflight,
			ProbeInterval: time.Second, Logger: logger, Metrics: st.routerRg})
		if err != nil {
			rec.end(sp)
			return fail(err)
		}
		st.router = rt
		rt.ProbeOnce(context.Background())
		rt.Start()
		st.front, err = st.listen(rt.Handler())
		rec.end(sp)
		if err != nil {
			return fail(err)
		}
	}
	sp = rec.begin("http POST /predict", bootSpan)
	c := newClient(st.front)
	status, body, err := c.post("/predict", in.firstBody)
	c.close()
	rec.end(sp)
	if err != nil || status != http.StatusOK {
		return fail(fmt.Errorf("first request: status %d, %v: %s", status, err, body))
	}
	rec.end(bootSpan)
	rec.end(root)
	return st, time.Since(start), time.Since(bootStart), nil
}

// listen serves h on a fresh loopback port and returns its base URL.
func (s *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second, IdleTimeout: 60 * time.Second}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	s.https = append(s.https, srv)
	s.serveErr = append(s.serveErr, done)
	return "http://" + ln.Addr().String(), nil
}

// bootRepeated boots setupReps deployments, keeps the last one and reports
// the median set-up and boot durations.
func bootRepeated(o opts, in *serveInputs, size serveSize, routed bool, rec *recorder, out *outcome) (*stack, error) {
	var setups, boots []float64
	var st *stack
	for r := 0; r < size.setupReps; r++ {
		if st != nil {
			st.close()
		}
		runtime.GC()
		var setup, bootD time.Duration
		var err error
		st, setup, bootD, err = boot(o, in, routed, r, rec, spanRef{})
		if err != nil {
			return nil, err
		}
		setups, boots = append(setups, setup.Seconds()), append(boots, bootD.Seconds())
	}
	out.e2e["setup_s"] = median(setups)
	out.layer["server.boot_s"] = median(boots)
	out.note("set-up %d times: median %.4f s, boot part %.4f s", size.setupReps, median(setups), median(boots))
	return st, nil
}

// client is one closed-loop caller: one persistent connection, each request
// sent only after the previous response was read in full.
type client struct {
	hc   *http.Client
	tr   *http.Transport
	base *url.URL
	buf  bytes.Buffer
}

func newClient(base string) *client {
	u, err := url.Parse(base)
	if err != nil {
		panic(err) // base URLs come from net.Listen
	}
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true, IdleConnTimeout: time.Minute}
	return &client{hc: &http.Client{Transport: tr, Timeout: clientTimeout}, tr: tr, base: u}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// post sends body and returns the status and the response body, which stays
// valid until the next call.
func (c *client) post(path string, body []byte) (int, []byte, error) {
	u := *c.base
	u.Path = path
	req := &http.Request{
		Method: http.MethodPost, URL: &u, Host: u.Host,
		Header:        http.Header{"Content-Type": {"application/json"}},
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
		Proto:         "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), err
}

func (c *client) get(path string) (int, []byte, error) {
	u := *c.base
	u.Path = path
	resp, err := c.hc.Get(u.String())
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), err
}
