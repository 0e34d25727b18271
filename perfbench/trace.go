package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Parent indexes the enclosing span (-1 for an operation's root).
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans and per-boundary counts in memory; write dumps them at
// exit. A nil *tracer records nothing, so untraced code paths call it freely.
type tracer struct {
	t0     time.Time
	spans  []span
	stack  []int
	op     int
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]float64{}}
}

// beginOp starts a new operation; later spans carry its id.
func (t *tracer) beginOp() {
	if t != nil {
		t.op++
	}
}

// do runs f inside a span named name.
func (t *tracer) do(name string, f func()) {
	if t == nil {
		f()
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, StartNS: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	f()
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].EndNS = int64(time.Since(t.t0))
}

// add accumulates a count taken at a layer boundary.
func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.counts[name] += v
	}
}

// layerTime is one span name's aggregate.
type layerTime struct {
	Calls   int     `json:"calls"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"` // total minus the time covered by child spans
}

// layers aggregates spans by name. Child spans never overlap (calls are
// sequential), so a span's self time is its duration minus its children's.
func (t *tracer) layers() map[string]*layerTime {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := map[string]*layerTime{}
	for i, s := range t.spans {
		l := out[s.Name]
		if l == nil {
			l = &layerTime{}
			out[s.Name] = l
		}
		d := s.EndNS - s.StartNS
		l.Calls++
		l.TotalMS += float64(d) / 1e6
		l.SelfMS += float64(d-child[i]) / 1e6
	}
	return out
}

// write dumps the spans, the per-layer aggregates and the counts as JSON.
func (t *tracer) write(path string, header map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := map[string]any{
		"host":   header,
		"layers": t.layers(),
		"counts": t.counts,
		"spans":  t.spans,
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
