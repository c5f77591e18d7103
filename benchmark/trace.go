package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the program under test carries no spans of its own yet). Times are
// nanoseconds since the tracer started. Spans of one operation share Op;
// Parent is the ID of the span that caused this one, 0 for a root.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent,omitempty"`
	Op     int                `json:"op"`
	Name   string             `json:"name"`
	Phase  string             `json:"phase"`
	Tag    string             `json:"tag,omitempty"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced run pays no tracing cost.
type tracer struct {
	t0    time.Time
	phase string

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setPhase labels the spans that follow: "setup", "run" or "probe". Called
// only between concurrent sections.
func (t *tracer) setPhase(p string) {
	if t != nil {
		t.phase = p
	}
}

// start opens a span and returns its ID (0 from a nil tracer).
func (t *tracer) start(name, tag string, op, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Phase: t.phase, Tag: tag, Start: now})
	return len(t.spans)
}

// end closes a span, attaching the counts measured at its boundary.
func (t *tracer) end(id int, counts map[string]float64) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Counts = counts
}

// selected returns the spans with the given name in the given phase ("" for
// any phase).
func (t *tracer) selected(name, phase string) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && (phase == "" || s.Phase == phase) {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its child spans cover. Overlapping children are merged first,
// so two concurrent children do not count twice.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, edge := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// write stores every span, with its self time, as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	type row struct {
		span
		Self int64 `json:"self_ns"`
	}
	rows := make([]row, len(spans))
	for i, s := range spans {
		rows[i] = row{s, self[s.ID]}
	}
	data, err := json.Marshal(map[string]interface{}{"spans": rows})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
