package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the harness into a layer's public
// functions. Start and End are nanoseconds since the tracer was made;
// Parent is the index of the enclosing span in the trace file, -1 at the
// top. Spans sit outside the program: nothing inside internal/ is
// instrumented, so a layer's share of a run is estimated from probe cost
// × the run's own counts, not read off the spans.
type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Start    int64  `json:"start"`
	End      int64  `json:"end"`
	Parent   int    `json:"parent"`
}

// tracer keeps spans in memory until write. A nil tracer records
// nothing, which is how the measured (untraced) run uses the same code.
type tracer struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// begin opens a span under parent (-1 for none) and returns its index.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Workload: t.workload, Start: now, End: now, Parent: parent})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// time runs fn inside a span and returns fn's wall time in seconds. It
// times fn with or without a tracer, so probes and legs are measured by
// the same code in both runs.
func (t *tracer) time(name string, parent int, fn func(id int)) float64 {
	id := t.begin(name, parent)
	start := time.Now()
	fn(id)
	d := time.Since(start)
	t.end(id)
	return d.Seconds()
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover (overlapping children are
// counted once).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// write stores the spans, each with its self time, as
// <dir>/trace-<workload>.json.
func (t *tracer) write(dir string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	type row struct {
		span
		Self int64 `json:"self"`
	}
	self := selfTimes(t.spans)
	rows := make([]row, len(t.spans))
	for i, s := range t.spans {
		rows[i] = row{s, self[i]}
	}
	data, err := json.Marshal(rows)
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+t.workload+".json"), data, 0o644)
}
