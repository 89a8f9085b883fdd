// Package slo evaluates declarative service-level objectives with
// multi-window burn-rate rules — the SRE alerting pattern (fast window to
// catch a cliff quickly, slow window to suppress flapping) applied to the
// quantities this system actually cares about: the served fairness gap, tail
// latency, error rate, and WAL replay lag.
//
// Each objective names a target series and a threshold. Every evaluation
// tick the target is sampled and classified as violating or not (a sample
// that cannot be resolved — NaN, missing series — counts as violating: an
// objective that cannot be measured must fail loud, not pass silent). The
// violation bits feed two sliding windows; the observed violating fraction
// divided by the error budget is the burn rate, and the objective is
// *burning* when both windows exceed the configured factor. State
// transitions increment faction_slo_transitions_total and emit one
// structured slog event; steady-state evaluation touches only pre-resolved
// gauges and is allocation-free.
package slo

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"sync"
	"time"

	"faction/internal/obs"
)

// Duration is a time.Duration that marshals to/from JSON as a Go duration
// string ("5m", "1h30m"), so SLO config files stay human-writable.
type Duration time.Duration

func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("slo: duration must be a string like \"5m\": %w", err)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("slo: bad duration %q: %w", s, err)
	}
	*d = Duration(v)
	return nil
}

// ObjectiveSpec declares one objective.
type ObjectiveSpec struct {
	// Name labels the objective in metrics, logs and /slo.
	Name string `json:"name"`
	// Target names the sampled series. The engine resolves it against the
	// target functions it was built with, falling back to an unlabeled
	// family of that name in the registry; an unresolvable target samples
	// as NaN and therefore always violates.
	Target string `json:"target"`
	// Max is the objective threshold: a sample v meets the objective iff
	// v <= Max.
	Max float64 `json:"max"`
	// Budget is the tolerated violating fraction of the window (0 < b <= 1).
	// Default 0.05.
	Budget float64 `json:"budget,omitempty"`
	// Window is the slow evaluation window. Default 1h.
	Window Duration `json:"window,omitempty"`
	// FastWindow is the fast window. Default Window/12.
	FastWindow Duration `json:"fastWindow,omitempty"`
	// BurnFactor: burning when both windows' burn rates reach it. Default 2.
	BurnFactor float64 `json:"burnFactor,omitempty"`
}

// Spec is a full SLO configuration.
type Spec struct {
	// Interval between evaluations. Default 10s.
	Interval   Duration        `json:"interval,omitempty"`
	Objectives []ObjectiveSpec `json:"objectives"`
}

// DefaultSpec covers the four signals the serving stack exposes natively.
func DefaultSpec() Spec {
	return Spec{
		Interval: Duration(10 * time.Second),
		Objectives: []ObjectiveSpec{
			{Name: "fairness_gap", Target: "fairness_gap", Max: 0.25, Budget: 0.10},
			{Name: "p99_latency", Target: "p99_latency", Max: 0.25, Budget: 0.05},
			{Name: "error_rate", Target: "error_rate", Max: 0.01, Budget: 0.05},
			{Name: "wal_replay_lag", Target: "wal_replay_lag", Max: 10000, Budget: 0.05},
		},
	}
}

// ParseSpec decodes, defaults and validates a JSON spec.
func ParseSpec(b []byte) (Spec, error) {
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return Spec{}, fmt.Errorf("slo: parse spec: %w", err)
	}
	if err := s.normalize(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// maxWindowTicks bounds an objective's window in evaluation ticks. The
// engine allocates one ring byte per tick up front and scans the fast window
// on every evaluation, so without a bound a few bytes of spec could demand
// any amount of memory: a 1 ns interval over a 1 h window asks for 3.6 TB.
// 65,536 ticks keeps a ring at 64 KiB and admits a week at the default 10 s
// interval (60,480 ticks); the default spec uses 360.
const maxWindowTicks = 1 << 16

// normalize applies defaults and validates in place.
func (s *Spec) normalize() error {
	if s.Interval <= 0 {
		s.Interval = Duration(10 * time.Second)
	}
	if len(s.Objectives) == 0 {
		return errors.New("slo: spec has no objectives")
	}
	seen := map[string]bool{}
	for i := range s.Objectives {
		o := &s.Objectives[i]
		if o.Name == "" {
			return fmt.Errorf("slo: objective %d has no name", i)
		}
		if seen[o.Name] {
			return fmt.Errorf("slo: duplicate objective %q", o.Name)
		}
		seen[o.Name] = true
		if o.Target == "" {
			o.Target = o.Name
		}
		if math.IsNaN(o.Max) {
			return fmt.Errorf("slo: objective %q has NaN max", o.Name)
		}
		if o.Budget == 0 {
			o.Budget = 0.05
		}
		if o.Budget <= 0 || o.Budget > 1 {
			return fmt.Errorf("slo: objective %q budget %g outside (0, 1]", o.Name, o.Budget)
		}
		if o.Window <= 0 {
			o.Window = Duration(time.Hour)
		}
		if ticks := o.Window / s.Interval; ticks > maxWindowTicks {
			return fmt.Errorf("slo: objective %q window %v is %d intervals of %v, more than %d",
				o.Name, time.Duration(o.Window), ticks, time.Duration(s.Interval), maxWindowTicks)
		}
		if o.FastWindow <= 0 {
			o.FastWindow = o.Window / 12
		}
		if o.FastWindow > o.Window {
			return fmt.Errorf("slo: objective %q fast window %v exceeds window %v",
				o.Name, time.Duration(o.FastWindow), time.Duration(o.Window))
		}
		if o.BurnFactor == 0 {
			o.BurnFactor = 2
		}
		if o.BurnFactor < 1 {
			return fmt.Errorf("slo: objective %q burn factor %g < 1", o.Name, o.BurnFactor)
		}
	}
	return nil
}

// TargetFunc samples one target series.
type TargetFunc func() float64

// objective is the runtime state of one ObjectiveSpec.
type objective struct {
	spec ObjectiveSpec
	src  TargetFunc

	ring      []uint8 // 1 = violating, fixed size = slow-window ticks
	head, n   int
	slowBad   int // violating ticks currently in the ring
	fastTicks int

	// Pre-resolved children: steady-state Evaluate never renders labels.
	budgetRemaining *obs.Gauge
	burningFast     *obs.Gauge
	burningSlow     *obs.Gauge
	burnRateFast    *obs.Gauge
	burnRateSlow    *obs.Gauge
	toBurning       *obs.Counter
	toOK            *obs.Counter

	// Last-evaluation snapshot for Status, guarded by Engine.mu.
	lastValue float64
	lastFast  float64
	lastSlow  float64
	violating bool
	burning   bool
}

// Engine evaluates a Spec against live target functions.
type Engine struct {
	spec   Spec
	logger *slog.Logger

	mu         sync.Mutex // guards rings and status snapshots
	objectives []*objective

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewEngine builds an engine. targets maps ObjectiveSpec.Target names to
// sampling functions; a target with no entry falls back to reading the
// unlabeled registry family of that name, and to NaN (always violating) if
// that does not exist either. The spec is normalized (defaults applied) and
// validated. The engine registers its gauges and transition counters in reg.
func NewEngine(reg *obs.Registry, spec Spec, targets map[string]TargetFunc, logger *slog.Logger) (*Engine, error) {
	if err := spec.normalize(); err != nil {
		return nil, err
	}
	if logger == nil {
		logger = slog.Default()
	}
	budget := reg.GaugeVec("faction_slo_budget_remaining",
		"Fraction of the objective's error budget left over the slow window (1 = untouched, <=0 = exhausted).", "slo")
	burning := reg.GaugeVec("faction_slo_burning",
		"1 when the window's burn rate meets the objective's burn factor.", "slo", "window")
	burnRate := reg.GaugeVec("faction_slo_burn_rate",
		"Observed violating fraction divided by the error budget, per window.", "slo", "window")
	transitions := reg.CounterVec("faction_slo_transitions_total",
		"Objective state transitions.", "slo", "to")

	e := &Engine{
		spec:   spec,
		logger: logger,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	interval := time.Duration(spec.Interval)
	for _, os := range spec.Objectives {
		slowTicks := int(time.Duration(os.Window) / interval)
		if slowTicks < 1 {
			slowTicks = 1
		}
		fastTicks := int(time.Duration(os.FastWindow) / interval)
		if fastTicks < 1 {
			fastTicks = 1
		}
		if fastTicks > slowTicks {
			fastTicks = slowTicks
		}
		src := targets[os.Target]
		if src == nil {
			name := os.Target
			src = func() float64 {
				v, ok := reg.Sample(name)
				if !ok {
					return math.NaN()
				}
				return v
			}
		}
		o := &objective{
			spec:            os,
			src:             src,
			ring:            make([]uint8, slowTicks),
			fastTicks:       fastTicks,
			budgetRemaining: budget.With(os.Name),
			burningFast:     burning.With(os.Name, "fast"),
			burningSlow:     burning.With(os.Name, "slow"),
			burnRateFast:    burnRate.With(os.Name, "fast"),
			burnRateSlow:    burnRate.With(os.Name, "slow"),
			toBurning:       transitions.With(os.Name, "burning"),
			toOK:            transitions.With(os.Name, "ok"),
		}
		o.budgetRemaining.Set(1)
		e.objectives = append(e.objectives, o)
	}
	return e, nil
}

// Interval returns the evaluation interval.
func (e *Engine) Interval() time.Duration { return time.Duration(e.spec.Interval) }

// Evaluate runs one evaluation tick: samples every objective's target,
// advances the violation windows, updates the gauges, and logs state
// transitions. The background loop calls it each interval; tests call it
// directly. Steady-state (no transition) it performs zero allocations.
func (e *Engine) Evaluate(now time.Time) {
	e.mu.Lock()
	for _, o := range e.objectives {
		v := o.src()
		// NaN never satisfies <=, so an unmeasurable objective violates.
		violated := !(v <= o.spec.Max)

		// Advance the ring, keeping the slow-window violation count.
		evicted := uint8(0)
		if o.n == len(o.ring) {
			evicted = o.ring[o.head]
		} else {
			o.n++
		}
		bit := uint8(0)
		if violated {
			bit = 1
		}
		o.ring[o.head] = bit
		o.head = (o.head + 1) % len(o.ring)
		o.slowBad += int(bit) - int(evicted)

		// Fast-window violation count: scan the most recent fastTicks.
		fastN := o.fastTicks
		if fastN > o.n {
			fastN = o.n
		}
		fastBad := 0
		for i := 1; i <= fastN; i++ {
			fastBad += int(o.ring[(o.head-i+len(o.ring))%len(o.ring)])
		}

		burnFast := float64(fastBad) / float64(fastN) / o.spec.Budget
		burnSlow := float64(o.slowBad) / float64(o.n) / o.spec.Budget
		burning := burnFast >= o.spec.BurnFactor && burnSlow >= o.spec.BurnFactor

		o.burnRateFast.Set(burnFast)
		o.burnRateSlow.Set(burnSlow)
		setBool(o.burningFast, burnFast >= o.spec.BurnFactor)
		setBool(o.burningSlow, burnSlow >= o.spec.BurnFactor)
		// Budget remaining over the slow window: fraction of the tolerated
		// violating ticks not yet spent. Can go negative when overspent.
		o.budgetRemaining.Set(1 - burnSlow)

		if burning != o.burning {
			if burning {
				o.toBurning.Inc()
				e.logger.Warn("slo burning",
					"slo", o.spec.Name, "target", o.spec.Target,
					"value", v, "max", o.spec.Max,
					"burn_fast", burnFast, "burn_slow", burnSlow,
					"budget", o.spec.Budget, "factor", o.spec.BurnFactor)
			} else {
				o.toOK.Inc()
				e.logger.Info("slo recovered",
					"slo", o.spec.Name, "target", o.spec.Target,
					"value", v, "burn_fast", burnFast, "burn_slow", burnSlow)
			}
		}

		o.lastValue, o.lastFast, o.lastSlow = v, burnFast, burnSlow
		o.violating, o.burning = violated, burning
	}
	e.mu.Unlock()
	_ = now // reserved for future wall-clock windowing; rings are tick-based
}

func setBool(g *obs.Gauge, b bool) {
	if b {
		g.Set(1)
	} else {
		g.Set(0)
	}
}

// Start launches the background evaluation loop. Subsequent calls are no-ops.
func (e *Engine) Start() {
	e.startOnce.Do(func() {
		go func() {
			defer close(e.done)
			tick := time.NewTicker(time.Duration(e.spec.Interval))
			defer tick.Stop()
			for {
				select {
				case <-e.stop:
					return
				case now := <-tick.C:
					e.Evaluate(now)
				}
			}
		}()
	})
}

// Stop terminates the background loop and waits for it. Idempotent, and safe
// even if Start was never called.
func (e *Engine) Stop() {
	e.stopOnce.Do(func() { close(e.stop) })
	e.startOnce.Do(func() { close(e.done) })
	<-e.done
}

// nullFloat marshals non-finite values as JSON null instead of failing the
// whole encode.
type nullFloat float64

func (f nullFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

// ObjectiveStatus is one objective's row in the /slo response.
type ObjectiveStatus struct {
	Name            string    `json:"name"`
	Target          string    `json:"target"`
	Max             float64   `json:"max"`
	Budget          float64   `json:"budget"`
	Window          string    `json:"window"`
	FastWindow      string    `json:"fastWindow"`
	BurnFactor      float64   `json:"burnFactor"`
	Value           nullFloat `json:"value"`
	Violating       bool      `json:"violating"`
	BurnRateFast    nullFloat `json:"burnRateFast"`
	BurnRateSlow    nullFloat `json:"burnRateSlow"`
	Burning         bool      `json:"burning"`
	BudgetRemaining nullFloat `json:"budgetRemaining"`
	Ticks           int       `json:"ticks"`
}

// Status reports every objective's last-evaluated state.
type Status struct {
	IntervalSeconds float64           `json:"intervalSeconds"`
	Objectives      []ObjectiveStatus `json:"objectives"`
}

// Status snapshots the engine state for the /slo endpoint.
func (e *Engine) Status() Status {
	st := Status{
		IntervalSeconds: time.Duration(e.spec.Interval).Seconds(),
		Objectives:      make([]ObjectiveStatus, 0, len(e.objectives)),
	}
	e.mu.Lock()
	for _, o := range e.objectives {
		st.Objectives = append(st.Objectives, ObjectiveStatus{
			Name:            o.spec.Name,
			Target:          o.spec.Target,
			Max:             o.spec.Max,
			Budget:          o.spec.Budget,
			Window:          time.Duration(o.spec.Window).String(),
			FastWindow:      time.Duration(o.spec.FastWindow).String(),
			BurnFactor:      o.spec.BurnFactor,
			Value:           nullFloat(o.lastValue),
			Violating:       o.violating,
			BurnRateFast:    nullFloat(o.lastFast),
			BurnRateSlow:    nullFloat(o.lastSlow),
			Burning:         o.burning,
			BudgetRemaining: nullFloat(1 - o.lastSlow),
			Ticks:           o.n,
		})
	}
	e.mu.Unlock()
	return st
}

// Handler serves GET /slo.
func (e *Engine) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(e.Status())
	})
}
