package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Parent is the enclosing span's ID (0 for an operation's root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// tracer keeps spans in memory; they are written when the run ends. A nil
// tracer records nothing, so untraced runs call the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ids   int64
	ops   int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp returns a fresh operation identifier.
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// open starts a span and returns it with its ID assigned, so children can
// name it as their parent before it closes.
func (t *tracer) open(name string, op, parent int64) span {
	if t == nil {
		return span{}
	}
	t.mu.Lock()
	t.ids++
	id := t.ids
	t.mu.Unlock()
	return span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.t0))}
}

// close ends s, records it and returns its duration.
func (t *tracer) close(s span) time.Duration {
	if t == nil {
		return 0
	}
	s.End = int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return time.Duration(s.End - s.Start)
}

// layerTime is the count and summed self time of the spans of one name.
type layerTime struct {
	count int64
	self  time.Duration
}

// selfTimes sums each span name's self time: a span's duration minus the
// part of it its children cover.
func selfTimes(spans []span) map[string]*layerTime {
	type interval struct{ s, e int64 }
	children := map[int64][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := map[string]*layerTime{}
	for _, s := range spans {
		covered := int64(0)
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].s < kids[j].s })
		end := s.Start
		for _, k := range kids {
			lo, hi := max(k.s, end), min(k.e, s.End)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.count++
		lt.self += time.Duration(s.End - s.Start - covered)
	}
	return out
}

func writeSpans(path string, spans []span) error {
	buf, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
