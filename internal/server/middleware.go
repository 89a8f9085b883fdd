package server

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"faction/internal/obs"
)

// The middleware stack keeps one bad request — a panic, a slow client, an
// oversized body, a traffic spike — from taking the whole deployment down,
// and measures every request on the way through. Handler() serves one route
// mux as
//
//	requestID → instrument → recoverer → mux
//
// and wraps each model route in one shared chain
//
//	limitConcurrency → timeout → maxBytes → route handler
//
// so /healthz, /readyz, /metrics, the observability surfaces and
// /debug/pprof keep answering while the service sheds load. instrument sits
// outside the recoverer so panics, sheds and timeouts are all counted with
// the status code the client actually received.

type middleware func(http.Handler) http.Handler

// chain wraps h with mws, outermost first.
func chain(h http.Handler, mws ...middleware) http.Handler {
	for i := len(mws) - 1; i >= 0; i-- {
		h = mws[i](h)
	}
	return h
}

// reqInfo is the one value the middleware puts in a request's context: the
// request ID and the server logger, so free functions like writeJSON and
// httpError can log with the ID without threading a *Server through.
type reqInfo struct {
	id     string
	logger *slog.Logger
}

type reqInfoKey struct{}

var (
	reqCounter atomic.Uint64
	reqPrefix  = func() string {
		var b [3]byte
		if _, err := rand.Read(b[:]); err != nil {
			return "req"
		}
		return hex.EncodeToString(b[:])
	}()
)

// maxRequestIDLen bounds a client-supplied request ID. The ID is echoed,
// logged and kept by every audit record of its request, so an unbounded one
// (net/http admits a megabyte of headers) would pin that much memory per
// record.
const maxRequestIDLen = 128

// requestIDFrom returns the request's ID, or "" outside the middleware.
func requestIDFrom(ctx context.Context) string {
	if info, ok := ctx.Value(reqInfoKey{}).(*reqInfo); ok {
		return info.id
	}
	return ""
}

// ctxLogger returns the server logger the requestID middleware stashed in the
// request context; slog.Default() outside the middleware.
func ctxLogger(ctx context.Context) *slog.Logger {
	if info, ok := ctx.Value(reqInfoKey{}).(*reqInfo); ok {
		return info.logger
	}
	return slog.Default()
}

// reqLogger scopes a logger to the request: every record it emits carries the
// request ID, so a client-quoted ID greps straight to the structured log
// lines of its request.
func reqLogger(base *slog.Logger, ctx context.Context) *slog.Logger {
	if id := requestIDFrom(ctx); id != "" {
		return base.With(slog.String("requestId", id))
	}
	return base
}

// requestID assigns every request an ID, echoed in the X-Request-Id response
// header and embedded in JSON error bodies and decision audit records, so a
// client-reported failure can be matched to the server log line. A client's
// own X-Request-Id is kept when it is a valid ID (validRequestID); otherwise
// the server mints one. Header keys are written in canonical form, so no key
// is canonicalised per request.
func requestID(logger *slog.Logger) middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			info := &reqInfo{logger: logger}
			if ids := r.Header["X-Request-Id"]; len(ids) > 0 && validRequestID(ids[0]) {
				info.id = ids[0]
			} else {
				info.id = newRequestID()
			}
			w.Header()["X-Request-Id"] = []string{info.id}
			next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), reqInfoKey{}, info)))
		})
	}
}

// validRequestID reports whether a client-supplied ID may be echoed and kept:
// 1 to maxRequestIDLen bytes of printable ASCII without spaces (0x21–0x7E),
// which covers UUIDs and the IDs other proxies mint, and keeps control bytes
// out of log lines.
func validRequestID(id string) bool {
	if len(id) == 0 || len(id) > maxRequestIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		if c := id[i]; c < 0x21 || c > 0x7e {
			return false
		}
	}
	return true
}

// newRequestID mints the next "<prefix>-<n>" ID.
func newRequestID() string {
	var b [32]byte
	id := append(b[:0], reqPrefix...)
	id = append(id, '-')
	return string(strconv.AppendUint(id, reqCounter.Add(1), 10))
}

// recoverer converts a handler panic into a 500 response, a panics-counter
// tick and a structured log record carrying the stack; the process keeps
// serving. http.ErrAbortHandler (the sanctioned "hang up on this client"
// panic) is re-raised for net/http to handle.
func recoverer(logger *slog.Logger, panics *obs.Counter) middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			defer func() {
				p := recover()
				if p == nil {
					return
				}
				if p == http.ErrAbortHandler {
					panic(p)
				}
				panics.Inc()
				reqLogger(logger, r.Context()).Error("panic serving request",
					slog.String("method", r.Method),
					slog.String("path", r.URL.Path),
					slog.Any("panic", p),
					slog.String("stack", string(debug.Stack())))
				httpError(w, r, http.StatusInternalServerError, "internal error")
			}()
			next.ServeHTTP(w, r)
		})
	}
}

// limitConcurrency admits at most n requests at once and sheds the rest
// immediately with 429 + Retry-After — bounded memory under a spike, instead
// of an unbounded goroutine queue that melts the process. Every shed request
// ticks the shed counter.
func limitConcurrency(n int, shed *obs.Counter) middleware {
	sem := make(chan struct{}, n)
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
				next.ServeHTTP(w, r)
			default:
				shed.Inc()
				w.Header().Set("Retry-After", "1")
				httpError(w, r, http.StatusTooManyRequests, "server at capacity (%d in-flight requests)", n)
			}
		})
	}
}

// maxBytes caps request bodies; a client streaming an oversized body gets a
// 400 from the JSON decoder when the cap trips mid-read.
func maxBytes(n int64) middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Body != nil {
				r.Body = http.MaxBytesReader(w, r.Body, n)
			}
			next.ServeHTTP(w, r)
		})
	}
}

// statusClientClosedRequest is the nginx-convention 499: the client went
// away before the handler finished. It is never seen by that client (it is
// gone) — its job is to keep the instrument middleware's per-route counters
// truthful without landing in the 5xx bucket the error-rate SLO burns on.
const statusClientClosedRequest = 499

// timeout bounds each request to d. The handler runs on a worker goroutine
// of p against the worker's buffered response; if the deadline passes first
// the client gets 503 (and the timeouts counter ticks) and the
// (context-cancelled) handler's late output is discarded, so even CPU-bound
// handlers cannot wedge a connection slot forever.
//
// The <-ctx.Done() arm also fires when the *client* disconnects (net/http
// cancels the request context), which is not a server fault: those requests
// tick the cancels counter, log at debug, and record 499 — counting them as
// deadline 503s would inflate the timeouts counter and burn the error-rate
// SLO on client behavior the server cannot control.
//
// Trade-off: answering the 503 returns from this middleware — and releases
// the concurrency-limiter slot wrapping it — while the abandoned worker keeps
// running its handler until it next observes its cancelled context. So
// under sustained timeouts MaxInflight bounds admitted requests, not
// handlers still winding down; a handler that ignores its context can
// accumulate. A panic raised after the deadline can no longer reach the
// recoverer, so it is counted and logged here instead of being dropped. An
// abandoned worker is stopped once its handler returns, never reused: its
// buffer holds the late output.
func timeout(p *workerPool, d time.Duration, logger *slog.Logger, timeouts, cancels, panics *obs.Counter) middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ctx, cancel := context.WithTimeout(r.Context(), d)
			defer cancel()
			r = r.WithContext(ctx)
			wk := p.get()
			wk.h, wk.r = next, r
			wk.start <- struct{}{}
			select {
			case hp := <-wk.result:
				if hp != nil {
					close(wk.start)
					panic(hp.val) // surface on the serving goroutine for recoverer
				}
				wk.resp.flushTo(w)
				p.put(wk)
			case <-ctx.Done():
				if errors.Is(ctx.Err(), context.DeadlineExceeded) {
					timeouts.Inc()
					httpError(w, r, http.StatusServiceUnavailable, "request timed out after %s", d)
				} else {
					cancels.Inc()
					// The connection is gone; the write is for the status
					// recorder, not the wire.
					httpError(w, r, statusClientClosedRequest, "client closed request")
					reqLogger(logger, r.Context()).Debug("client disconnected before response",
						slog.String("method", r.Method), slog.String("path", r.URL.Path))
				}
				late := reqLogger(logger, r.Context()).With(
					slog.String("method", r.Method), slog.String("path", r.URL.Path))
				go func() {
					if hp := <-wk.result; hp != nil && hp.val != http.ErrAbortHandler {
						panics.Inc()
						late.Error("panic in timed-out handler",
							slog.Any("panic", hp.val),
							slog.String("stack", string(hp.stack)))
					}
					close(wk.start)
				}()
			}
		})
	}
}

// handlerPanic carries a panic (and the stack where it was raised) off a
// worker goroutine.
type handlerPanic struct {
	val   any
	stack []byte
}

// workerPool holds the long-lived goroutines the timeout middleware runs
// handlers on. A goroutine started per request begins on a minimal stack and
// regrows it on every request (runtime.newstack was about 30% of a CPU
// profile of the full /predict stack); a pooled worker keeps the stack it
// grew. At most max workers wait idle, the most recently used first; stop
// ends them.
type workerPool struct {
	mu     sync.Mutex
	idle   []*worker
	max    int
	closed bool
	live   atomic.Int64 // worker goroutines not yet returned
}

// worker is one pooled goroutine and its job: the handler and request to
// serve, the buffered response, and the result signal. Whoever receives a
// job's result owns the worker: it returns it to the pool only after the
// handler returned normally and its response was flushed, and stops it
// otherwise, so no late write reaches a later request.
type worker struct {
	start  chan struct{}      // a job is set; closed to stop the worker
	result chan *handlerPanic // nil when the handler returned normally; buffered so an abandoned job never blocks its worker
	exited chan struct{}      // closed when the goroutine returns
	h      http.Handler
	r      *http.Request
	resp   bufferedResponse
}

// get returns an idle worker, or starts one.
func (p *workerPool) get() *worker {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		wk := p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return wk
	}
	p.mu.Unlock()
	wk := &worker{
		start:  make(chan struct{}, 1),
		result: make(chan *handlerPanic, 1),
		exited: make(chan struct{}),
		resp:   bufferedResponse{header: make(http.Header)},
	}
	p.live.Add(1)
	go wk.run(&p.live)
	return wk
}

// put returns a worker whose response was flushed to the pool, or stops it
// when the pool is full or stopped.
func (p *workerPool) put(wk *worker) {
	wk.resp.reset()
	p.mu.Lock()
	if !p.closed && len(p.idle) < p.max {
		p.idle = append(p.idle, wk)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	close(wk.start)
}

// stop ends every idle worker and waits for them to return. Workers busy at
// the time stop when their job ends. Safe to call more than once.
func (p *workerPool) stop() {
	p.mu.Lock()
	idle := p.idle
	p.idle, p.closed = nil, true
	p.mu.Unlock()
	for _, wk := range idle {
		close(wk.start)
	}
	for _, wk := range idle {
		<-wk.exited
	}
}

// counts returns the number of idle workers and of worker goroutines still
// running.
func (p *workerPool) counts() (idle, live int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle), int(p.live.Load())
}

func (wk *worker) run(live *atomic.Int64) {
	defer close(wk.exited)
	defer live.Add(-1)
	for range wk.start {
		wk.result <- wk.serve()
	}
}

// serve runs the job's handler, returning its panic if it raised one.
func (wk *worker) serve() (hp *handlerPanic) {
	defer func() {
		if v := recover(); v != nil {
			hp = &handlerPanic{val: v, stack: debug.Stack()}
		}
		wk.h, wk.r = nil, nil
	}()
	wk.h.ServeHTTP(&wk.resp, wk.r)
	return nil
}

// bufferedResponse captures a handler's response so the timeout middleware
// can atomically either flush it or replace it with a 503. Only the worker
// touches it until its result is sent, so no locking is needed.
type bufferedResponse struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

// maxKeptBody is the largest body buffer a worker keeps between requests;
// a bigger one (a snapshot export) is dropped rather than pinned by an idle
// worker.
const maxKeptBody = 64 << 10

func (b *bufferedResponse) Header() http.Header { return b.header }

func (b *bufferedResponse) WriteHeader(code int) {
	if b.code == 0 {
		b.code = code
	}
}

func (b *bufferedResponse) Write(p []byte) (int, error) {
	b.WriteHeader(http.StatusOK)
	return b.body.Write(p)
}

func (b *bufferedResponse) flushTo(w http.ResponseWriter) {
	h := w.Header()
	for k, vs := range b.header {
		h[k] = vs
	}
	if b.code != 0 {
		w.WriteHeader(b.code)
	}
	_, _ = w.Write(b.body.Bytes())
}

// reset empties a flushed response for the worker's next job.
func (b *bufferedResponse) reset() {
	clear(b.header)
	b.code = 0
	if b.body.Cap() > maxKeptBody {
		b.body = bytes.Buffer{}
	}
	b.body.Reset()
}
