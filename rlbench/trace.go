package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer keeps the traced run's spans in memory; they are written out
// once, when the run ends. A nil *tracer records nothing, which is how
// the untraced run pays no tracing cost.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []spanRec
}

// spanRec is one span: times are microseconds since the run started;
// Parent 0 marks a root.
type spanRec struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	SelfUS float64 `json:"self_us"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) since() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e3 }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := t.since()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRec{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.since()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// span runs f inside a span and returns the span's ID.
func (t *tracer) span(name string, parent int, f func()) int {
	id := t.begin(name, parent)
	f()
	t.end(id)
	return id
}

// finish derives every span's self time — its duration minus the part
// of its interval that its children cover — and returns the spans.
func (t *tracer) finish() []spanRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][]spanRec)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.SelfUS = s.End - s.Start - covered(s.Start, s.End, kids[s.ID])
	}
	return t.spans
}

// covered is the length of [lo,hi] that the union of cs covers.
func covered(lo, hi float64, cs []spanRec) float64 {
	sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
	total, cur := 0.0, lo
	for _, c := range cs {
		a, b := max(c.Start, cur), min(c.End, hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// writeTrace saves the spans and the per-name self-time medians.
func writeTrace(path string, meta map[string]any, spans []spanRec) error {
	byName := make(map[string][]float64)
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s.SelfUS)
	}
	self := make(map[string]map[string]float64)
	for name, v := range byName {
		self[name] = map[string]float64{"median_us": median(v), "count": float64(len(v))}
	}
	data, err := json.Marshal(map[string]any{"meta": meta, "self": self, "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
