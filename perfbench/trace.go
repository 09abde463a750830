package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one operation share Op; Parent is the ID of the
// span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for one goroutine (no locking); the run
// merges every tracer and writes the spans out when it ends. A nil
// tracer records nothing, which is how the untraced passes run. Spans
// past the cap are counted but not kept, so a long run stays small.
type tracer struct {
	base    time.Time
	idBase  int64
	next    int64
	spans   []span
	dropped int64
}

// spanCap bounds the spans one tracer keeps.
const spanCap = 1 << 12

func newTracer(base time.Time, idBase int64) *tracer {
	return &tracer{base: base, idBase: idBase, spans: make([]span, 0, 1024)}
}

// now returns nanoseconds since the tracer's base (0 for a nil tracer).
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.base))
}

// id reserves a span ID, so a parent can be named before it ends.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.next++
	return t.idBase + t.next
}

// record keeps a finished span under a reserved ID.
func (t *tracer) record(id, parent, opID int64, name string, start, end int64) {
	if t == nil {
		return
	}
	if len(t.spans) >= spanCap {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: opID, Name: name, Start: start, End: end})
}

// add records a finished span under a fresh ID and returns the ID.
func (t *tracer) add(parent, opID int64, name string, start, end int64) int64 {
	id := t.id()
	t.record(id, parent, opID, name, start, end)
	return id
}

// writeSpans writes every tracer's spans to dir/name as one JSON
// document and returns the path and the number written.
func writeSpans(dir, name string, ts []*tracer) (string, int, error) {
	var all []span
	var dropped int64
	for _, t := range ts {
		if t != nil {
			all = append(all, t.spans...)
			dropped += t.dropped
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, fmt.Errorf("create span directory: %w", err)
	}
	path := filepath.Join(dir, name)
	data, err := json.Marshal(struct {
		Dropped int64  `json:"dropped"`
		Spans   []span `json:"spans"`
	}{dropped, all})
	if err != nil {
		return "", 0, fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", 0, fmt.Errorf("write spans: %w", err)
	}
	return path, len(all), nil
}
