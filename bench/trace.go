package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// harness around the call. Times are wall-clock nanoseconds since the
// trace began;
// Parent is the index of the enclosing span (-1 for a root) and Op the
// measured operation the span belongs to (-1 for set-up and probes).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays one nil check per boundary. It is
// used from the single load-generating goroutine only.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index, to be passed to end and as
// the parent of spans it causes.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Nanoseconds(), Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].End = time.Since(t.t0).Nanoseconds()
	}
}

// rename relabels a span whose role is known only once it has ended (the
// poll that turned out to be the one that fetched the terminal status).
func (t *tracer) rename(id int, name string) {
	if t != nil {
		t.spans[id].Name = name
	}
}

// perOpMs returns, for each op in [0, ops), the summed duration in
// milliseconds of its spans called name; an op with none contributes 0.
func (t *tracer) perOpMs(name string, firstOp, ops int) []float64 {
	out := make([]float64, ops)
	for _, s := range t.spans {
		if s.Name == name && s.Op >= firstOp && s.Op < firstOp+ops {
			out[s.Op-firstOp] += float64(s.End-s.Start) / 1e6
		}
	}
	return out
}

// timed runs f reps times inside spans called name under parent and
// returns the median duration in microseconds.
func (t *tracer) timed(name string, parent, reps int, f func()) float64 {
	us := make([]float64, reps)
	for i := range us {
		id := t.begin(name, parent, -1)
		t0 := time.Now()
		f()
		us[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
		t.end(id)
	}
	return median(us)
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
