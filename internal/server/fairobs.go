package server

import (
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"faction/internal/fairness"
	"faction/internal/obs"
)

// Fairness-first serving observability (DESIGN.md §13): every /predict and
// /score decision is attributed to its sensitive group — read from a
// configured feature column of the request — feeding per-group decision
// counters, a sliding-window positive rate per group, the live
// faction_fairness_gap gauge (max pairwise demographic-parity gap, the
// served-time counterpart of fairness.DDPMulti), and a bounded audit ring
// that links a metrics anomaly back to concrete request IDs.
//
// The whole layer preserves the pinned 0 allocs/op read path: group/class
// counter children are pre-resolved at construction (no per-request label
// rendering), the per-group windows are fixed-size uint8 rings, the gap is
// recomputed from pre-allocated rate scratch, and audit records are written
// into pre-allocated slots claimed with one atomic add.

// FairObsConfig enables per-group decision attribution. The request schema
// carries no explicit sensitive field, so the group is read from a feature
// column of each instance (the S column of the paper's data layout).
type FairObsConfig struct {
	// SensitiveCol is the feature column holding the sensitive attribute.
	// Must be a valid column index for the model's input dimension.
	SensitiveCol int
	// GroupValues are the expected sensitive values, one metric group each;
	// instances whose column matches none are counted under group "other"
	// (excluded from the gap — an unknown encoding must not fake fairness
	// movement). Default {-1, 1}, the paper's binary coding.
	GroupValues []int
	// PositiveClass is the predicted class counted as the positive outcome
	// of the demographic-parity rate. Negative (conventionally -1) means
	// "use the default", class 1. Class 0 is a valid positive outcome — an
	// earlier sentinel treated 0 as unset and silently rewrote it to 1, so
	// demographic parity over the 0-labeled outcome could never be tracked.
	PositiveClass int
	// Window is the per-group sliding window length (decisions) behind the
	// positive rates and the gap. Default 1024.
	Window int
	// AuditSize is the decision audit-ring capacity served by
	// GET /debug/decisions. Default 256.
	AuditSize int
}

func (c *FairObsConfig) setDefaults() {
	if len(c.GroupValues) == 0 {
		c.GroupValues = []int{-1, 1}
	}
	if c.PositiveClass < 0 {
		c.PositiveClass = 1
	}
	if c.Window <= 0 {
		c.Window = 1024
	}
	if c.AuditSize <= 0 {
		c.AuditSize = 256
	}
}

// groupTracker maintains the per-group serving metrics. One mutex guards the
// windows and rate scratch; the critical section is a few ring updates and a
// linear gap reduction over the (few) groups, so contention is negligible
// next to a forward pass.
type groupTracker struct {
	col           int
	values        []float64 // expected sensitive values, parallel to rings
	positiveClass int

	mu    sync.Mutex
	rings [][]uint8 // per known group: 1 = positive decision
	heads []int
	ns    []int
	pos   []int     // positives currently in each ring
	rate  []float64 // gap scratch: positives per group
	cnt   []float64 // gap scratch: decisions per group

	// Pre-resolved metric children, [group][class]; group index
	// len(values) is the trailing "other" bucket.
	decisions [][]*obs.Counter
	posRate   []*obs.Gauge // known groups only
	windowN   []*obs.Gauge // known groups only
	gap       *obs.Gauge
}

func newGroupTracker(cfg FairObsConfig, numClasses int, m *serverMetrics) *groupTracker {
	t := &groupTracker{
		col:           cfg.SensitiveCol,
		values:        make([]float64, len(cfg.GroupValues)),
		positiveClass: cfg.PositiveClass,
		rings:         make([][]uint8, len(cfg.GroupValues)),
		heads:         make([]int, len(cfg.GroupValues)),
		ns:            make([]int, len(cfg.GroupValues)),
		pos:           make([]int, len(cfg.GroupValues)),
		rate:          make([]float64, len(cfg.GroupValues)),
		cnt:           make([]float64, len(cfg.GroupValues)),
		decisions:     make([][]*obs.Counter, len(cfg.GroupValues)+1),
		posRate:       make([]*obs.Gauge, len(cfg.GroupValues)),
		windowN:       make([]*obs.Gauge, len(cfg.GroupValues)),
		gap:           m.fairnessGap,
	}
	for g, v := range cfg.GroupValues {
		t.values[g] = float64(v)
		t.rings[g] = make([]uint8, cfg.Window)
		label := strconv.Itoa(v)
		t.decisions[g] = make([]*obs.Counter, numClasses)
		for c := 0; c < numClasses; c++ {
			t.decisions[g][c] = m.decisions.With(label, strconv.Itoa(c))
		}
		t.posRate[g] = m.groupPosRate.With(label)
		t.windowN[g] = m.groupWindow.With(label)
	}
	other := make([]*obs.Counter, numClasses)
	for c := 0; c < numClasses; c++ {
		other[c] = m.decisions.With("other", strconv.Itoa(c))
	}
	t.decisions[len(cfg.GroupValues)] = other
	return t
}

// groupIndex maps a sensitive value to its group index; unmatched values map
// to the trailing "other" bucket. Linear scan — the group set is tiny.
func (t *groupTracker) groupIndex(v float64) int {
	for g, gv := range t.values {
		if v == gv {
			return g
		}
	}
	return len(t.values)
}

// observe folds one decision into the counters, the group's window, and the
// gap gauge. group is a groupIndex result; class is the predicted class.
func (t *groupTracker) observe(group, class int) {
	if class < 0 || class >= len(t.decisions[group]) {
		return // defensive: never index out of the pre-resolved set
	}
	t.decisions[group][class].Inc()
	if group == len(t.values) {
		return // "other" is counted but kept out of the rates and the gap
	}
	t.mu.Lock()
	ring := t.rings[group]
	bit := uint8(0)
	if class == t.positiveClass {
		bit = 1
	}
	if t.ns[group] == len(ring) {
		t.pos[group] -= int(ring[t.heads[group]])
	} else {
		t.ns[group]++
	}
	ring[t.heads[group]] = bit
	t.heads[group] = (t.heads[group] + 1) % len(ring)
	t.pos[group] += int(bit)

	t.posRate[group].Set(float64(t.pos[group]) / float64(t.ns[group]))
	t.windowN[group].Set(float64(t.ns[group]))
	for g := range t.values {
		t.rate[g] = float64(t.pos[g])
		t.cnt[g] = float64(t.ns[g])
	}
	t.gap.Set(fairness.MaxRateGap(t.rate, t.cnt))
	t.mu.Unlock()
}

// auditRec is one retained decision.
type auditRec struct {
	seq     uint64
	t       int64 // unix ms
	reqID   string
	kind    reqKind
	batched bool
	s       float64 // raw sensitive value (NaN-free by decode validation)
	group   int     // groupIndex result
	class   int
	margin  float64 // top-1 minus top-2 probability
	gen     uint64
	drift   int64 // drift shifts at decision time
}

// auditRing is a bounded ring of recent decisions. Writers claim a slot with
// one atomic add and copy the record under that slot's own mutex, so
// concurrent writers never contend with each other (distinct slots) and a
// reader never observes a torn record. A true seqlock would be flagged by
// the race detector; per-slot mutexes keep `go test -race` clean while
// writes stay wait-free against other writers.
type auditRing struct {
	next  atomic.Uint64
	slots []auditSlot
}

type auditSlot struct {
	mu  sync.Mutex
	rec auditRec
}

func newAuditRing(size int) *auditRing {
	return &auditRing{slots: make([]auditSlot, size)}
}

func (a *auditRing) add(rec auditRec) {
	seq := a.next.Add(1)
	rec.seq = seq
	slot := &a.slots[(seq-1)%uint64(len(a.slots))]
	slot.mu.Lock()
	slot.rec = rec
	slot.mu.Unlock()
}

// snapshot returns up to limit of the most recent records, newest first.
// A slot overwritten between the sequence read and the slot read is detected
// by its sequence number and skipped (it will appear at its new position).
func (a *auditRing) snapshot(limit int) []auditRec {
	newest := a.next.Load()
	if limit <= 0 || uint64(limit) > uint64(len(a.slots)) {
		limit = len(a.slots)
	}
	out := make([]auditRec, 0, limit)
	for seq := newest; seq > 0 && len(out) < limit && seq+uint64(len(a.slots)) > newest; seq-- {
		slot := &a.slots[(seq-1)%uint64(len(a.slots))]
		slot.mu.Lock()
		rec := slot.rec
		slot.mu.Unlock()
		if rec.seq == seq {
			out = append(out, rec)
		}
	}
	return out
}

// observeDecisions attributes a served request's decisions: one counter and
// window update per row plus one audit record per row. Called by the shared
// /predict and /score handler body once the pass has built the response in
// sc (classes and margins filled by buildPredictInto/buildScoreInto);
// batched records whether the pass was coalesced. Allocation-free: the request ID string
// already exists in the context, and everything else lands in pre-allocated
// storage.
func (s *Server) observeDecisions(r *http.Request, sc *reqScratch, kind reqKind, batched bool) {
	t := s.fairobs
	if t == nil {
		return
	}
	reqID := requestIDFrom(r.Context())
	now := time.Now().UnixMilli()
	gen := s.generation.Load()
	drift := s.driftShiftsNow.Load()
	dim := s.inputDim
	rows := sc.x.Rows
	for i := 0; i < rows; i++ {
		sv := sc.x.Data[i*dim+t.col]
		group := t.groupIndex(sv)
		class := sc.classes[i]
		t.observe(group, class)
		s.audit.add(auditRec{
			t:       now,
			reqID:   reqID,
			kind:    kind,
			batched: batched,
			s:       sv,
			group:   group,
			class:   class,
			margin:  sc.margins[i],
			gen:     gen,
			drift:   drift,
		})
	}
}

// decisionJSON is one row of the /debug/decisions response.
type decisionJSON struct {
	Seq         uint64  `json:"seq"`
	T           int64   `json:"t"`
	RequestID   string  `json:"requestId"`
	Route       string  `json:"route"`
	Batched     bool    `json:"batched,omitempty"`
	S           float64 `json:"s"`
	Group       string  `json:"group"`
	Class       int     `json:"class"`
	Margin      float64 `json:"margin"`
	Generation  uint64  `json:"generation"`
	DriftShifts int64   `json:"driftShifts"`
}

// groupLabel renders a group index back to its metric label.
func (s *Server) groupLabel(group int) string {
	if group >= 0 && group < len(s.cfg.FairObs.GroupValues) {
		return strconv.Itoa(s.cfg.FairObs.GroupValues[group])
	}
	return "other"
}

// handleDecisions serves GET /debug/decisions?n=..: the most recent
// decisions, newest first. Snapshotting is read-mostly and off the serving
// hot path, so it simply allocates the response.
func (s *Server) handleDecisions(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if q := r.URL.Query().Get("n"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 {
			httpError(w, r, http.StatusBadRequest, "bad n: %q", q)
			return
		}
		limit = n
	}
	recs := s.audit.snapshot(limit)
	out := struct {
		Capacity  int            `json:"capacity"`
		Decisions []decisionJSON `json:"decisions"`
	}{Capacity: len(s.audit.slots), Decisions: make([]decisionJSON, 0, len(recs))}
	for _, rec := range recs {
		route := "/predict"
		if rec.kind == reqScore {
			route = "/score"
		}
		out.Decisions = append(out.Decisions, decisionJSON{
			Seq:         rec.seq,
			T:           rec.t,
			RequestID:   rec.reqID,
			Route:       route,
			Batched:     rec.batched,
			S:           rec.s,
			Group:       s.groupLabel(rec.group),
			Class:       rec.class,
			Margin:      rec.margin,
			Generation:  rec.gen,
			DriftShifts: rec.drift,
		})
	}
	writeJSON(w, r, out)
}
