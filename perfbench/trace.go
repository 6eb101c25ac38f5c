package main

import (
	"encoding/json"
	"os"
	"runtime"
	"time"
)

// span is one timed call from the benchmark into a layer's public API.
// Spans nest: a span opened while another is open records it as Parent.
// Request groups the spans of one logical operation (a ChangeSet, a
// technique's template, a matrix).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root span
	Name    string `json:"name"`
	Request int    `json:"request"`
	StartNs int64  `json:"startNs"` // since the tracer started
	EndNs   int64  `json:"endNs"`
	SelfNs  int64  `json:"selfNs"` // duration minus the time covered by child spans
	// AllocBytes and GCCycles are runtime.MemStats deltas across the span.
	// The traced phases run sequentially, so a delta belongs to its span.
	AllocBytes uint64 `json:"allocBytes"`
	GCCycles   uint32 `json:"gcCycles"`

	childNs    int64
	startAlloc uint64
	startGC    uint32
}

func (s *span) durNs() int64 { return s.EndNs - s.StartNs }

// tracer keeps spans in memory and writes them out once, at exit. A nil
// *tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span IDs
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its ID for end.
func (t *tracer) start(name string, req int) int {
	if t == nil {
		return -1
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Request: req,
		StartNs:    int64(time.Since(t.t0)),
		startAlloc: ms.TotalAlloc, startGC: ms.NumGC,
	})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic("perfbench: spans closed out of order")
	}
	t.open = t.open[:len(t.open)-1]
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := &t.spans[id]
	s.EndNs = int64(time.Since(t.t0))
	s.AllocBytes = ms.TotalAlloc - s.startAlloc
	s.GCCycles = ms.NumGC - s.startGC
	s.SelfNs = s.durNs() - s.childNs
	if s.Parent >= 0 {
		t.spans[s.Parent].childNs += s.durNs()
	}
}

// do runs f inside a span.
func (t *tracer) do(name string, req int, f func()) {
	id := t.start(name, req)
	f()
	t.end(id)
}

// named returns the closed spans with the given name, in start order.
func (t *tracer) named(name string) []span {
	if t == nil {
		return nil
	}
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durationsMs returns the durations of the named spans in milliseconds.
func (t *tracer) durationsMs(name string) []float64 {
	var out []float64
	for _, s := range t.named(name) {
		out = append(out, float64(s.durNs())/1e6)
	}
	return out
}

// writeFile dumps every span as JSON.
func (t *tracer) writeFile(path string) error {
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
