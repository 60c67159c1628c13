package main

import (
	"time"
)

// Spans are recorded here, around bench's own calls into each layer of
// the program; the program itself carries no spans yet. They stay in
// memory and are written once, to out/trace-<workload>.json, when the
// traced pass ends.

// span is one timed call into a layer. Spans of one load or one query
// share Op. A probe is a call the parent makes internally and bench
// repeats by itself right after, to see how much of the parent it is; a
// probe's interval therefore lies after its parent's, not inside it.
type span struct {
	ID      int                `json:"id"`
	Parent  int                `json:"parent"` // 0: a root
	Op      int                `json:"op"`
	Name    string             `json:"name"`
	StartUs float64            `json:"start_us"`
	EndUs   float64            `json:"end_us"`
	SelfUs  float64            `json:"self_us"` // duration minus the children's
	Probe   bool               `json:"probe,omitempty"`
	Counts  map[string]float64 `json:"counts,omitempty"`
}

func (s *span) ms() float64 { return (s.EndUs - s.StartUs) / 1e3 }

// count records a quantity observed at this span's boundary.
func (s *span) count(key string, v float64) {
	if s.Counts == nil {
		s.Counts = make(map[string]float64)
	}
	s.Counts[key] = v
}

type tracer struct {
	t0    time.Time
	spans []*span
	open  []*span // the stack of spans not yet ended
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp starts a new operation: the spans that follow share its id.
func (t *tracer) newOp() { t.op++ }

func (t *tracer) begin(name string) *span {
	s := &span{ID: len(t.spans) + 1, Op: t.op, Name: name}
	if len(t.open) > 0 {
		s.Parent = t.open[len(t.open)-1].ID
	}
	t.spans = append(t.spans, s)
	t.open = append(t.open, s)
	s.StartUs = usSince(t.t0)
	return s
}

func (t *tracer) end(s *span) {
	s.EndUs = usSince(t.t0)
	t.open = t.open[:len(t.open)-1]
}

// call times f as a child of the innermost open span.
func (t *tracer) call(name string, f func()) *span {
	s := t.begin(name)
	f()
	t.end(s)
	return s
}

// probe times f as a repeated sub-call of parent.
func (t *tracer) probe(parent *span, name string, f func()) *span {
	s := t.call(name, f)
	s.Parent, s.Probe = parent.ID, true
	return s
}

// ms returns the durations of every span called name.
func (t *tracer) ms(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// lastCount returns a count recorded on the latest span called name.
func (t *tracer) lastCount(name, key string) float64 {
	for i := len(t.spans) - 1; i >= 0; i-- {
		if s := t.spans[i]; s.Name == name {
			return s.Counts[key]
		}
	}
	return 0
}

// finish computes self times and returns the spans for writing.
func (t *tracer) finish() []*span {
	children := make(map[int]float64)
	for _, s := range t.spans {
		children[s.Parent] += s.EndUs - s.StartUs
	}
	for _, s := range t.spans {
		s.SelfUs = s.EndUs - s.StartUs - children[s.ID]
	}
	return t.spans
}
