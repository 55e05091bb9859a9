package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail value resting on fewer is one outlier, not a distribution.
const minBeyond = 10

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle sample (mean of the two middle ones for an
// even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs and whether
// it is reportable: at least minBeyond samples must rank above it.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(p/100*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx], len(s)-1-idx >= minBeyond
}

// tailPercentiles are the tail ranks the report picks from, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// tail returns the highest percentile in tailPercentiles that the sample
// count supports, with its value; ok is false when none does.
func tail(xs []float64) (p, v float64, ok bool) {
	for _, p := range tailPercentiles {
		if v, ok := percentile(xs, p); ok {
			return p, v, true
		}
	}
	return 0, 0, false
}

// perSecond is count over a wall time; the base is the measured seconds.
func perSecond(count float64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return count / d.Seconds()
}

// ratio is num/base, 0 when nothing was attempted.
func ratio(num, base float64) float64 {
	if base == 0 {
		return 0
	}
	return num / base
}

// span is one traced call: which layer ran, when, and the span whose
// call caused it (0: a root).
type span struct {
	id, parent int64
	layer      string
	name       string
	start, end time.Time
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// still hands out ids (request ids are sent either way, so the traced
// and untraced runs do the same HTTP work) but records nothing.
type tracer struct {
	on    bool
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

// id reserves a span id.
func (t *tracer) id() int64 { return t.ids.Add(1) }

// add records a finished span under a reserved id.
func (t *tracer) add(id, parent int64, layer, name string, start, end time.Time) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{id: id, parent: parent, layer: layer, name: name, start: start, end: end})
	t.mu.Unlock()
}

// record reserves an id, records the span and returns its id.
func (t *tracer) record(parent int64, layer, name string, start, end time.Time) int64 {
	id := t.id()
	t.add(id, parent, layer, name, start, end)
	return id
}

// take returns the recorded spans and clears the tracer.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = nil
	return s
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval covered by its children. Children may overlap each other
// (concurrent calls) or stick out of the parent; only the covered part
// inside the parent is subtracted, once.
func selfTimes(spans []span) map[string]time.Duration {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.layer] += s.end.Sub(s.start) - covered(s, kids[s.id])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.start, k.end
		if a.Before(parent.start) {
			a = parent.start
		}
		if b.After(parent.end) {
			b = parent.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}
