package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one unit of work — a
// change, a frame — share a group; parent is the index of the span
// that caused this one (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Group  int64  `json:"group"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory; they are written out once the run
// ends. A nil tracer records nothing, so untraced runs pay one nil
// check per boundary.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, group int64, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Group: group, Parent: parent, Start: now, End: -1})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record stores a span whose bounds were taken elsewhere — a latency
// measured from a schedule's due time, say.
func (t *tracer) record(name string, group int64, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Group: group, Parent: parent,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	t.mu.Unlock()
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	Count int
	Total time.Duration // summed span durations
	Self  time.Duration // summed durations minus time covered by children
}

// layers aggregates every closed span by name. A span's self time is
// its duration minus that of its direct children, which the benchmark
// only opens one at a time inside a parent.
func (t *tracer) layers() map[string]*layerStat {
	out := map[string]*layerStat{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 && s.Parent >= 0 {
			child[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		d := time.Duration(s.End - s.Start)
		st.Count++
		st.Total += d
		st.Self += d - child[i]
	}
	return out
}

// durations returns the closed spans' durations for one name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// dump writes the run metadata and then every span as JSON lines.
func (t *tracer) dump(path string, meta map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(meta); err != nil {
		f.Close()
		return err
	}
	if t != nil {
		t.mu.Lock()
		for _, s := range t.spans {
			if err := enc.Encode(s); err != nil {
				t.mu.Unlock()
				f.Close()
				return err
			}
		}
		t.mu.Unlock()
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
