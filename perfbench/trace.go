package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share Req; Parent is the span that caused this one (0: a root).
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// Only the benchmark's own code records spans, around its calls into the
// layers.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
	next  uint64
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) add(name string, parent, req uint64, t0, t1 time.Time) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	if req == 0 {
		req = t.next
	}
	t.spans = append(t.spans, span{Name: name, ID: t.next, Parent: parent, Req: req,
		Start: t0.Sub(t.base).Nanoseconds(), End: t1.Sub(t.base).Nanoseconds()})
	return t.next
}

// client records one client request of the load phase as its own root span.
func (t *tracer) client(name string, t0, t1 time.Time) { t.add(name, 0, 0, t0, t1) }

// open is a span whose children are recorded before it ends.
type open struct {
	t       *tracer
	name    string
	id, req uint64
	parent  uint64
	start   time.Time
}

// begin starts a parent span; its ID is reserved now so children can name it.
func (t *tracer) begin(name string, parent, req uint64) *open {
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	if req == 0 {
		req = id
	}
	return &open{t: t, name: name, id: id, req: req, parent: parent, start: time.Now()}
}

func (o *open) end() {
	t1 := time.Now()
	o.t.mu.Lock()
	defer o.t.mu.Unlock()
	o.t.spans = append(o.t.spans, span{Name: o.name, ID: o.id, Parent: o.parent, Req: o.req,
		Start: o.start.Sub(o.t.base).Nanoseconds(), End: t1.Sub(o.t.base).Nanoseconds()})
}

// call runs fn as a child span of parent and returns its duration.
func (t *tracer) call(name string, parent, req uint64, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	t.add(name, parent, req, t0, t1)
	return t1.Sub(t0)
}

// spanSummary is the per-name total of span durations and self times.
type spanSummary struct {
	name            string
	count           int
	totalMS, selfMS float64
}

// summarize computes self times: a span's duration minus the part of it
// its children cover (children are merged as intervals, clipped to the
// parent).
func (t *tracer) summarize() []spanSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[uint64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*spanSummary)
	for _, s := range t.spans {
		covered := int64(0)
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		cur0, cur1 := int64(-1), int64(-1)
		for _, k := range kids {
			a, b := max(k.Start, s.Start), min(k.End, s.End)
			if b <= a {
				continue
			}
			if a > cur1 {
				covered += cur1 - cur0
				cur0, cur1 = a, b
			} else if b > cur1 {
				cur1 = b
			}
		}
		covered += cur1 - cur0
		sum := byName[s.Name]
		if sum == nil {
			sum = &spanSummary{name: s.Name}
			byName[s.Name] = sum
		}
		sum.count++
		sum.totalMS += float64(s.End-s.Start) / 1e6
		sum.selfMS += float64(s.End-s.Start-covered) / 1e6
	}
	out := make([]spanSummary, 0, len(byName))
	for _, s := range byName {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// writeSpans writes every span as one JSON line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := t.encode(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (t *tracer) encode(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return nil
}
