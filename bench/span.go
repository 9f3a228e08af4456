package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded from the harness side of
// the layer's public boundary. Times are nanoseconds since the recorder
// was created; Parent is the ID of the span that caused this one (0 for a
// root). Spans of one workload repeat share Workload and Repeat.
type Span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Repeat   int    `json:"repeat"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// spanRecorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay no clock reads for it.
type spanRecorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

// add records a finished span and returns its ID.
func (r *spanRecorder) add(parent int, name, workload string, repeat int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{
		ID: id, Parent: parent, Name: name, Workload: workload, Repeat: repeat,
		StartNs: start.Sub(r.epoch).Nanoseconds(), EndNs: end.Sub(r.epoch).Nanoseconds(),
	})
	return id
}

// open reserves a span whose end is not known yet (a phase that will have
// children) and returns its ID; close stamps the end.
func (r *spanRecorder) open(parent int, name, workload string, repeat int) int {
	now := time.Now()
	return r.add(parent, name, workload, repeat, now, now)
}

func (r *spanRecorder) close(id int) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].EndNs = time.Since(r.epoch).Nanoseconds()
	r.mu.Unlock()
}

func (r *spanRecorder) write(path string) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	raw, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
