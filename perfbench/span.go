package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the benchmark made into the program: a name, its
// start and end relative to the tracer's origin, and the span it ran
// inside (-1 at the top level).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer records spans in memory. Spans nest strictly (the benchmark is
// single-threaded around its calls), so a stack gives each span its parent.
// A nil *tracer records nothing, which is how timed runs keep tracing off.
type tracer struct {
	origin time.Time
	spans  []span
	stack  []int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(t.origin)})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id (and any span opened inside it and left open) and
// returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := time.Since(t.origin)
	for len(t.stack) > 0 {
		top := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		t.spans[top].End = now
		if top == id {
			break
		}
	}
	return t.spans[id].dur()
}

// do runs fn inside a span named name and returns the span's duration.
func (t *tracer) do(name string, fn func()) time.Duration {
	id := t.begin(name)
	if t == nil {
		start := time.Now()
		fn()
		return time.Since(start)
	}
	fn()
	return t.end(id)
}

// selfTimes returns each span's duration minus the part of it that its
// direct children cover. Children may overlap each other, so their
// intervals are merged before they are subtracted, and each is clipped to
// the parent.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the children cover.
func covered(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// write saves the spans, with their self times, as JSON at path.
func (t *tracer) write(path string) error {
	type row struct {
		span
		SelfNS time.Duration `json:"self_ns"`
	}
	self := selfTimes(t.spans)
	rows := make([]row, len(t.spans))
	for i, s := range t.spans {
		rows[i] = row{s, self[i]}
	}
	data, err := json.MarshalIndent(rows, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
