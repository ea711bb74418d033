package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function.
type span struct {
	Name   string  `json:"name"`
	Job    string  `json:"job,omitempty"`
	Parent int     `json:"parent"` // index of the parent span, -1 for a root
	Start  float64 `json:"start"`  // seconds since the tracer's epoch
	End    float64 `json:"end"`
}

// tracer keeps spans in memory; they are written out when the run ends. A
// nil *tracer records nothing, so call sites need no guards.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() float64 { return time.Since(t.epoch).Seconds() }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name, job string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if job == "" && parent >= 0 {
		job = t.spans[parent].Job
	}
	t.spans = append(t.spans, span{Name: name, Job: job, Parent: parent, Start: t.now()})
	return len(t.spans) - 1
}

// beginIf opens a span only when on is set.
func (t *tracer) beginIf(on bool, name, job string, parent int) int {
	if !on {
		return -1
	}
	return t.begin(name, job, parent)
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = t.now()
	t.mu.Unlock()
}

func (t *tracer) setJob(id int, job string) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].Job = job
	t.mu.Unlock()
}

// timed runs fn inside a span and returns the span's duration in seconds.
func (t *tracer) timed(name, job string, parent int, fn func()) float64 {
	id := t.begin(name, job, parent)
	t0 := time.Now()
	fn()
	d := time.Since(t0).Seconds()
	t.end(id)
	return d
}

// selfTimes returns each span's duration minus the time its children
// cover, summed by span name, with the number of spans of each name.
func (t *tracer) selfTimes() (self map[string]float64, count map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self, count = map[string]float64{}, map[string]int{}
	for i, s := range t.spans {
		self[s.Name] += (s.End - s.Start) - child[i]
		count[s.Name]++
	}
	return self, count
}

// write stores the spans as JSON, ordered by start time.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	idx := make([]int, len(out))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return out[idx[a]].Start < out[idx[b]].Start })
	type indexed struct {
		ID int `json:"id"`
		span
	}
	doc := make([]indexed, len(out))
	for k, i := range idx {
		doc[k] = indexed{ID: i, span: out[i]}
	}
	b, err := json.MarshalIndent(struct {
		Spans []indexed `json:"spans"`
	}{doc}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
