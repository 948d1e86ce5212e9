package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run: a call the benchmark made
// into a layer, or a stage of a flow observed through its progress events.
// Times are seconds since the tracer was created. Spans of one request (a
// flow run, a service job) share Trace.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"` // 0: a root span
	Trace  string  `json:"trace,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Calls  int     `json:"calls,omitempty"` // repeated calls the span covers
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so call sites need no branches.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// record adds a finished span covering [start, end] and returns its ID.
func (t *tracer) record(parent int, trace, name string, start, end time.Time, calls int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(t.origin).Seconds(), End: end.Sub(t.origin).Seconds(),
		Calls: calls,
	})
	return id
}

// begin opens a span that ends when the returned function is called with
// the current time; it returns the span's ID for children to name.
func (t *tracer) begin(parent int, trace, name string) (id int, end func()) {
	if t == nil {
		return 0, func() {}
	}
	t.mu.Lock()
	id = len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: time.Since(t.origin).Seconds()})
	t.mu.Unlock()
	return id, func() {
		now := time.Since(t.origin).Seconds()
		t.mu.Lock()
		t.spans[id-1].End = now
		t.mu.Unlock()
	}
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval covered by its children (overlapping children count once,
// and child time outside the parent's interval is ignored).
func selfTimes(spans []span) map[int]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := 0.0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// writeTrace writes the spans and their self times to path as JSON.
func writeTrace(path string, spans []span) error {
	type out struct {
		span
		Self float64 `json:"self_s"`
	}
	self := selfTimes(spans)
	rows := make([]out, len(spans))
	for i, s := range spans {
		rows[i] = out{span: s, Self: self[s.ID]}
	}
	data, err := json.MarshalIndent(struct {
		Spans []out `json:"spans"`
	}{rows}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
