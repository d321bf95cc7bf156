package main

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed call from the benchmark into a layer. Times are
// nanoseconds since the tracer started; Parent is the index of the span
// that caused it (-1 for none); Op identifies the benchmark operation whose
// inputs the call used.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs pay one nil check per call.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Start opens a span and returns its id (-1 on a nil tracer).
func (t *Tracer) Start(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	t.mu.Unlock()
	return id
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// LayerTime is the self time and call count of one span name.
type LayerTime struct {
	SelfNs int64 `json:"selfNs"`
	Calls  int64 `json:"calls"`
}

// selfTimes aggregates per span name the self time: a span's duration
// minus the part of it that its children cover.
func selfTimes(spans []Span) map[string]LayerTime {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make(map[string]LayerTime)
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		self := s.End - s.Start - covered(spans, kids[i], s.Start, s.End)
		lt := out[s.Name]
		lt.SelfNs += self
		lt.Calls++
		out[s.Name] = lt
	}
	return out
}

// covered is the length of the union of the child intervals, clipped to
// [lo, hi].
func covered(spans []Span, kids []int, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, lo), min(spans[k].End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64 = 0, lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}
