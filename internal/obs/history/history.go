// Package history is an in-process metric self-scraper: it samples selected
// series (fairness gap, drift statistics, regret/violation gauges, p99
// latency, WAL replay lag) into fixed-size ring buffers on a timer and serves
// them as a JSON timeline on GET /metrics/history.
//
// The point is that the paper's central quantities — fairness violation and
// regret under changing environments — are *trajectories*, not instants. A
// Prometheus gauge answers "what is the demographic-parity gap now?"; the
// history sampler answers "how did it move through the last drift episode?"
// without requiring an external Prometheus, and is the data source fleet
// aggregation will consume later.
//
// Memory is strictly bounded: each tracked series owns one pre-allocated ring
// of Capacity points, so a sampler tracking S series holds S·Capacity points
// forever, regardless of uptime. Sources that return non-finite values (NaN,
// ±Inf — e.g. a p99 over an empty histogram) are skipped for that tick, so the
// stored timeline is always JSON-marshalable.
package history

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"math"
)

// Source produces one sample of a series. ok=false (or a non-finite value)
// skips the tick — the series simply has no point at that instant.
type Source func() (v float64, ok bool)

// Point is one retained sample. T is Unix milliseconds.
type Point struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
}

// series is one tracked name: a fixed ring of points.
type series struct {
	mu   sync.Mutex
	src  Source
	buf  []Point // len == capacity, pre-allocated
	head int     // next write slot
	n    int     // points currently held (≤ len(buf))
}

// snapshotWindow appends, oldest-first, the retained points inside the
// trailing window. The cutoff is anchored at the series' own newest retained
// timestamp — not the wall clock — so a timeline driven by a synthetic clock
// (deterministic tests, replayed fleet aggregation) filters against its own
// epoch instead of whenever the snapshot happens to be taken. windowMs ≤ 0
// keeps everything retained.
func (s *series) snapshotWindow(windowMs int64, out []Point) []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return out
	}
	cutoff := int64(0)
	if windowMs > 0 {
		newest := s.buf[(s.head-1+len(s.buf))%len(s.buf)].T
		cutoff = newest - windowMs
	}
	start := s.head - s.n
	for i := 0; i < s.n; i++ {
		p := s.buf[(start+i+len(s.buf))%len(s.buf)]
		if p.T >= cutoff {
			out = append(out, p)
		}
	}
	return out
}

func (s *series) sample(now int64) {
	// The source pointer is replaced by Track (under mu) while the sampling
	// loop runs — re-tracking a series across a refit is explicitly
	// supported — so the read must hold the lock too. The source itself is
	// invoked outside the critical section: a slow source must not block
	// snapshot readers.
	s.mu.Lock()
	src := s.src
	s.mu.Unlock()
	v, ok := src()
	if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	s.mu.Lock()
	s.buf[s.head] = Point{T: now, V: v}
	s.head = (s.head + 1) % len(s.buf)
	if s.n < len(s.buf) {
		s.n++
	}
	s.mu.Unlock()
}

// Sampler owns the tracked series and the sampling loop.
type Sampler struct {
	interval time.Duration
	capacity int

	mu     sync.RWMutex
	series map[string]*series

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// New returns a sampler that, once started, samples every tracked series each
// interval, retaining the most recent capacity points per series. interval
// must be positive; capacity defaults to 512 when non-positive.
func New(interval time.Duration, capacity int) *Sampler {
	if interval <= 0 {
		panic("history: non-positive sample interval")
	}
	if capacity <= 0 {
		capacity = 512
	}
	return &Sampler{
		interval: interval,
		capacity: capacity,
		series:   map[string]*series{},
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Interval returns the configured sampling interval.
func (sp *Sampler) Interval() time.Duration { return sp.interval }

// Capacity returns the per-series ring size.
func (sp *Sampler) Capacity() int { return sp.capacity }

// Track registers a named series. Tracking an already-tracked name replaces
// its source but keeps the retained points (so re-registration across a refit
// does not lose the timeline). Safe to call while the sampler is running.
func (sp *Sampler) Track(name string, src Source) {
	if src == nil {
		panic("history: nil source for series " + name)
	}
	sp.mu.Lock()
	if s, ok := sp.series[name]; ok {
		s.mu.Lock()
		s.src = src
		s.mu.Unlock()
	} else {
		sp.series[name] = &series{src: src, buf: make([]Point, sp.capacity)}
	}
	sp.mu.Unlock()
}

// Names returns the tracked series names, sorted.
func (sp *Sampler) Names() []string {
	sp.mu.RLock()
	out := make([]string, 0, len(sp.series))
	for name := range sp.series {
		out = append(out, name)
	}
	sp.mu.RUnlock()
	sort.Strings(out)
	return out
}

// SampleNow takes one synchronous sample of every tracked series at the given
// time. The background loop calls it each tick; tests and the e2e drift
// scenario call it directly for a deterministic timeline. It does not
// allocate once series are registered.
func (sp *Sampler) SampleNow(now time.Time) {
	t := now.UnixMilli()
	sp.mu.RLock()
	for _, s := range sp.series {
		s.sample(t)
	}
	sp.mu.RUnlock()
}

// Start launches the background sampling loop. Subsequent calls are no-ops.
func (sp *Sampler) Start() {
	sp.startOnce.Do(func() {
		go func() {
			defer close(sp.done)
			tick := time.NewTicker(sp.interval)
			defer tick.Stop()
			for {
				select {
				case <-sp.stop:
					return
				case now := <-tick.C:
					sp.SampleNow(now)
				}
			}
		}()
	})
}

// Stop terminates the background loop and waits for it to exit. Safe to call
// multiple times, and safe even if Start was never called.
func (sp *Sampler) Stop() {
	sp.stopOnce.Do(func() { close(sp.stop) })
	sp.startOnce.Do(func() { close(sp.done) }) // never started: mark done
	<-sp.done
}

// Response is the JSON shape served by Handler.
type Response struct {
	IntervalSeconds float64            `json:"intervalSeconds"`
	Capacity        int                `json:"capacity"`
	Series          map[string][]Point `json:"series"`
}

// Snapshot returns the retained timeline. names selects series (nil or empty
// = all tracked); window limits points to the trailing duration, measured
// back from each series' newest retained point — not from time.Now() — so a
// timeline sampled with a synthetic clock windows deterministically (0 = all
// retained). Unknown names yield empty slices, so callers can distinguish
// "tracked but quiet" from a typo by checking Names.
func (sp *Sampler) Snapshot(names []string, window time.Duration) Response {
	if len(names) == 0 {
		names = sp.Names()
	}
	resp := Response{
		IntervalSeconds: sp.interval.Seconds(),
		Capacity:        sp.capacity,
		Series:          make(map[string][]Point, len(names)),
	}
	for _, name := range names {
		sp.mu.RLock()
		s := sp.series[name]
		sp.mu.RUnlock()
		pts := []Point{}
		if s != nil {
			pts = s.snapshotWindow(window.Milliseconds(), pts)
		}
		resp.Series[name] = pts
	}
	return resp
}

// Handler serves GET and HEAD /metrics/history, and answers any other
// method 405 with an Allow header. Query parameters:
//
//	series — comma-separated series names (default: all tracked)
//	window — trailing duration like "5m" or "1h" (default: all retained)
func (sp *Sampler) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		var names []string
		if q := r.URL.Query().Get("series"); q != "" {
			for _, n := range strings.Split(q, ",") {
				if n = strings.TrimSpace(n); n != "" {
					names = append(names, n)
				}
			}
		}
		var window time.Duration
		if q := r.URL.Query().Get("window"); q != "" {
			d, err := time.ParseDuration(q)
			if err != nil || d < 0 {
				http.Error(w, "bad window: "+strconv.Quote(q), http.StatusBadRequest)
				return
			}
			window = d
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		_ = enc.Encode(sp.Snapshot(names, window))
	})
}
