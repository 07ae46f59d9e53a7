package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer's public function. Op is the index of
// the generated operation it served, so the spans of one operation across
// the replicas of the ladder share an identifier; Parent is the span of the
// rung above for the same operation (0: none).
type span struct {
	ID     int
	Name   string
	Layer  string
	Op     int
	Parent int
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
}

// tracer keeps spans in memory and writes them out when the run ends. It
// belongs to the serial traced run: one goroutine, no lock.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished call and returns its span ID.
func (t *tracer) add(layer, name string, op, parent int, start time.Time, took time.Duration) int {
	id := len(t.spans) + 1
	s := start.Sub(t.epoch)
	t.spans = append(t.spans, span{ID: id, Name: name, Layer: layer, Op: op, Parent: parent, Start: s, End: s + took})
	return id
}

// timed runs fn inside a span.
func (t *tracer) timed(layer, name string, op, parent int, fn func()) (int, time.Duration) {
	start := time.Now()
	fn()
	took := time.Since(start)
	return t.add(layer, name, op, parent, start, took), took
}

// layerTrack gives each layer its own track in the viewer, outermost first.
var layerTrack = map[string]int{
	"api": 1, "shard": 2, "cloud": 3, "core": 4, "sm": 5, "ib": 6,
	"routing": 7, "audit": 8, "cdg": 9, "reconcile": 10, "topology": 11,
}

// write emits the spans in Chrome trace-event format (complete "X" events,
// µs), loadable in chrome://tracing or Perfetto.
func (t *tracer) write(dir, workload string) (string, error) {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	type meta struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		PID  int               `json:"pid"`
		TID  int               `json:"tid"`
		Args map[string]string `json:"args"`
	}
	events := make([]any, 0, len(t.spans)+len(layerTrack))
	for layer, tid := range layerTrack {
		events = append(events, meta{"thread_name", "M", 1, tid, map[string]string{"name": layer}})
	}
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.Name, Cat: s.Layer, Ph: "X", TS: us(s.Start), Dur: us(s.End - s.Start),
			PID: 1, TID: layerTrack[s.Layer],
			Args: map[string]int{"span": s.ID, "op_id": s.Op, "parent": s.Parent},
		})
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
