package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"faction/internal/obs"
)

// span is one timed call the benchmark made into a layer, or one stage span
// the program exported, on the run's clock (offsets from the recorder's t0).
// Spans of one run or one request share Trace.
type span struct {
	Name   string        `json:"name"`
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Trace  uint64        `json:"trace"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// spanRef is an open span. The zero value is "no parent".
type spanRef struct {
	name   string
	id     uint64
	parent uint64
	trace  uint64
	start  time.Time
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so untraced runs pay no tracing cost.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	next  uint64
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string, parent spanRef) spanRef {
	if r == nil {
		return spanRef{}
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	trace := parent.trace
	if parent.id == 0 {
		trace = id
	}
	return spanRef{name: name, id: id, parent: parent.id, trace: trace, start: time.Now()}
}

// end records s and returns its duration.
func (r *recorder) end(s spanRef) time.Duration {
	if r == nil {
		return 0
	}
	now := time.Now()
	sp := span{Name: s.name, ID: s.id, Parent: s.parent, Trace: s.trace,
		Start: s.start.Sub(r.t0), End: now.Sub(r.t0)}
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
	return sp.dur()
}

// adopt imports the program's own spans (from an obs.Tracer) under parent:
// their roots become children of parent and their IDs are remapped into the
// recorder's ID space, so one tree joins benchmark and program spans.
func (r *recorder) adopt(spans []obs.Span, parent spanRef) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := make(map[uint64]uint64, len(spans))
	for _, s := range spans {
		r.next++
		ids[s.ID] = r.next
	}
	for _, s := range spans {
		p, ok := ids[s.Parent]
		if !ok {
			p = parent.id
		}
		start := s.Start.Sub(r.t0)
		r.spans = append(r.spans, span{Name: s.Name, ID: ids[s.ID], Parent: p, Trace: parent.trace,
			Start: start, End: start + s.Duration})
	}
}

// reparent moves every span named child under the span named parentName
// whose interval contains it. It joins a benchmark span that wraps a call the
// program makes (FACTION's SelectBatch inside online.select) to the program
// span it runs in.
func (r *recorder) reparent(child, parentName string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var parents []span
	for _, s := range r.spans {
		if s.Name == parentName {
			parents = append(parents, s)
		}
	}
	sort.Slice(parents, func(i, j int) bool { return parents[i].Start < parents[j].Start })
	for i, s := range r.spans {
		if s.Name != child {
			continue
		}
		k := sort.Search(len(parents), func(k int) bool { return parents[k].Start > s.Start }) - 1
		if k >= 0 && parents[k].End >= s.End {
			r.spans[i].Parent = parents[k].ID
			r.spans[i].Trace = parents[k].Trace
		}
	}
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// spanStat aggregates spans of one name.
type spanStat struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval that its children cover.
func selfTimes(spans []span) []spanStat {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*spanStat{}
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{name: s.Name}
			byName[s.Name] = st
		}
		st.count++
		st.total += s.dur()
		st.self += s.dur() - covered(s, children[s.ID])
	}
	out := make([]spanStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].total > out[j].total })
	return out
}

// covered is the length of the union of the children's intervals, clipped to
// the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	curS, curE := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
			continue
		}
		curE = max(curE, e)
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// checkNesting reports spans whose parent is missing or does not contain
// them in time.
func checkNesting(spans []span) error {
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		if _, dup := byID[s.ID]; dup {
			return fmt.Errorf("span id %d used twice", s.ID)
		}
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %s (%d) ends before it starts", s.Name, s.ID)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %s (%d) has unknown parent %d", s.Name, s.ID, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %s [%v,%v] escapes parent %s [%v,%v]", s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
		if s.Trace != p.Trace {
			return fmt.Errorf("span %s (%d) has trace %d, parent %s has %d", s.Name, s.ID, s.Trace, p.Name, p.Trace)
		}
	}
	return nil
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// scrape reads a registry's Prometheus text exposition into a map keyed by
// series (`name{labels}`). It is how the benchmark reads the counters and
// histograms the program already exports.
func scrape(reg *obs.Registry) (series, error) {
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		return nil, err
	}
	return parseExposition(strings.NewReader(b.String()))
}

type series map[string]float64

func parseExposition(r io.Reader) (series, error) {
	out := series{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("exposition line without value: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("exposition line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sub returns after minus before for every series in after.
func (after series) sub(before series) series {
	out := make(series, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// sum adds every series whose key starts with prefix (all label sets of a
// family member such as `faction_router_requests_total{`).
func (s series) sum(prefix string) float64 {
	t := 0.0
	for k, v := range s {
		if strings.HasPrefix(k, prefix) {
			t += v
		}
	}
	return t
}

// mean is a histogram's sum over its count for one series key (without the
// _sum/_count suffix and with its label set), 0 when nothing was observed.
func (s series) mean(name, labels string) float64 {
	n := s[name+"_count"+labels]
	if n == 0 {
		return 0
	}
	return s[name+"_sum"+labels] / n
}
