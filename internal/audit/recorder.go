package audit

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"ibvsim/internal/telemetry"
)

// Entry is one flight-recorder ring slot: either a tracer event or a
// control-plane mutation summary.
type Entry struct {
	Seq  int    `json:"seq"`
	Kind string `json:"kind"` // "event" | "mutation"

	// event fields
	Category string `json:"category,omitempty"`
	Msg      string `json:"msg,omitempty"`

	// mutation fields
	Op        string `json:"op,omitempty"`
	Name      string `json:"name,omitempty"`
	RequestID string `json:"request_id,omitempty"`
	Status    int    `json:"status,omitempty"`
	Gen       uint64 `json:"generation,omitempty"`
	SpanFrom  int    `json:"span_from,omitempty"` // first span ID the mutation emitted
	SpanTo    int    `json:"span_to,omitempty"`   // last span ID the mutation emitted
}

// Mutation summarises one control-plane operation for the recorder.
type Mutation struct {
	Op        string
	Name      string
	RequestID string
	Status    int
	Gen       uint64
	SpanFrom  int // first span ID emitted by the operation (LastSpanID before + 1)
	SpanTo    int // last span ID emitted (LastSpanID after)
}

// Dump is the black-box snapshot written when an audit violation fires: the
// retained entry ring plus the telemetry spans covering the retained
// mutations, so the violation arrives with the window that caused it. Meta
// carries caller-attached replay context (the chaos runner records the
// campaign name, seed and step there), File the on-disk path when the
// recorder has a directory.
type Dump struct {
	Seq     int                  `json:"dump_seq"`
	File    string               `json:"file,omitempty"`
	Meta    map[string]string    `json:"meta,omitempty"`
	Reason  *Report              `json:"reason"`
	Entries []Entry              `json:"entries"`
	Spans   []telemetry.SpanView `json:"spans,omitempty"`
}

// DefaultRecorderCap is the default ring size (entries retained).
const DefaultRecorderCap = 512

// maxDumpSpans bounds the span window attached to one dump.
const maxDumpSpans = 1024

// dumpFileSeq numbers dump files process-wide. Per-recorder counters are
// not enough: two recorders sharing one directory (or a recorder recreated
// after a restart) both start at dump 1 and would overwrite each other's
// flight-0001 file when their violations land close together — within the
// old timestamped scheme, in the same second.
var dumpFileSeq atomic.Int64

// Recorder is the flight recorder: a fixed-size ring of recent tracer
// events and mutation summaries. It is safe for concurrent use.
type Recorder struct {
	tr *telemetry.Tracer

	mu           sync.Mutex
	cap          int
	buf          []Entry // ring, oldest first once full
	start        int     // index of oldest entry when len(buf) == cap
	seq          int
	lastEventSeq int // high-water mark of tracer events already ingested
	dir          string
	dumps        int
	lastDump     *Dump
	meta         map[string]string
}

// NewRecorder returns a recorder ingesting events from tr (may be nil).
// dir, when non-empty, is where violation dumps are written as JSON files;
// it is created on first dump. capEntries <= 0 means DefaultRecorderCap.
func NewRecorder(tr *telemetry.Tracer, dir string, capEntries int) *Recorder {
	if capEntries <= 0 {
		capEntries = DefaultRecorderCap
	}
	return &Recorder{tr: tr, cap: capEntries, dir: dir}
}

// push appends one entry to the ring. Caller holds r.mu.
func (r *Recorder) push(e Entry) {
	r.seq++
	e.Seq = r.seq
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.start] = e
	r.start = (r.start + 1) % r.cap
}

// syncEvents ingests tracer events newer than the high-water mark. Caller
// holds r.mu.
func (r *Recorder) syncEvents() {
	if r.tr == nil {
		return
	}
	for _, ev := range r.tr.EventsSince(r.lastEventSeq) {
		if ev.Seq > r.lastEventSeq {
			r.lastEventSeq = ev.Seq
		}
		r.push(Entry{Kind: "event", Category: ev.Category, Msg: ev.Msg})
	}
}

// RecordMutation appends a mutation summary, first ingesting any tracer
// events the mutation produced so the ring interleaves them in order.
func (r *Recorder) RecordMutation(m Mutation) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.syncEvents()
	r.push(Entry{
		Kind: "mutation",
		Op:   m.Op, Name: m.Name, RequestID: m.RequestID,
		Status: m.Status, Gen: m.Gen,
		SpanFrom: m.SpanFrom, SpanTo: m.SpanTo,
	})
}

// entries returns the ring oldest-first. Caller holds r.mu.
func (r *Recorder) entries() []Entry {
	out := make([]Entry, 0, len(r.buf))
	if len(r.buf) < r.cap {
		return append(out, r.buf...)
	}
	out = append(out, r.buf[r.start:]...)
	return append(out, r.buf[:r.start]...)
}

// Entries returns a copy of the retained ring, oldest first.
func (r *Recorder) Entries() []Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.syncEvents()
	return r.entries()
}

// SetMeta attaches (or, with an empty value, removes) one replay-context
// key carried by every subsequent dump. The scenario engine keeps
// "campaign", "seed" and "step" current here so a violation dump names the
// exact replay coordinates.
func (r *Recorder) SetMeta(key, value string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if value == "" {
		delete(r.meta, key)
		return
	}
	if r.meta == nil {
		r.meta = map[string]string{}
	}
	r.meta[key] = value
}

// Dumps returns how many dumps have been taken.
func (r *Recorder) Dumps() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dumps
}

// LastDump returns the most recent dump, or nil.
func (r *Recorder) LastDump() *Dump {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastDump
}

// Dump snapshots the ring and the span window of the retained mutations
// into a Dump, keeps it in memory, and — when the recorder has a directory
// — writes it to disk as flight-NNNN-genG-sSSSSSS.json, where SSSSSS is a
// process-wide monotonic sequence so concurrent recorders sharing a
// directory can never collide. Returns the dump; the disk write error (if
// any) is returned but the in-memory dump always succeeds.
func (r *Recorder) Dump(reason *Report) (*Dump, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.syncEvents()
	entries := r.entries()

	// Span window: from the first span of the oldest retained mutation
	// through the newest span.
	var spans []telemetry.SpanView
	if r.tr != nil {
		// Never older than the last maxDumpSpans spans.
		from := max(r.tr.LastSpanID()-maxDumpSpans, 0) + 1
		for _, e := range entries {
			if e.Kind == "mutation" && e.SpanFrom > 0 {
				from = max(from, e.SpanFrom)
				break
			}
		}
		spans = r.tr.SpansSince(from - 1)
	}

	r.dumps++
	d := &Dump{Seq: r.dumps, Reason: reason, Entries: entries, Spans: spans}
	if len(r.meta) > 0 {
		d.Meta = make(map[string]string, len(r.meta))
		for k, v := range r.meta {
			d.Meta[k] = v
		}
	}
	r.lastDump = d
	if r.dir == "" {
		return d, nil
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return d, err
	}
	d.File = filepath.Join(r.dir,
		fmt.Sprintf("flight-%04d-gen%d-s%06d.json", r.dumps, reason.Gen, dumpFileSeq.Add(1)))
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return d, err
	}
	return d, os.WriteFile(d.File, data, 0o644)
}
