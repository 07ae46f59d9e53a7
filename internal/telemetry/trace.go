package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// SpanKind types a trace span after the reconfiguration step it covers.
type SpanKind string

// The reconfiguration span vocabulary. One live migration produces a
// SpanMigration root whose children are the SpanLFTSwap (LFT edit pass,
// with one SpanSMP child per LFT block actually sent — the paper's n' x m')
// and the SpanGUIDMigrate address transfer. Subnet bring-up produces
// SpanSweep, SpanPathCompute (with SpanPhase children for engine phases and
// worker busy time) and SpanLFTDistribute roots.
const (
	SpanSweep         SpanKind = "sweep"
	SpanPathCompute   SpanKind = "path-compute"
	SpanLFTDistribute SpanKind = "lft-distribute"
	SpanGUIDMigrate   SpanKind = "guid-migrate"
	SpanLFTSwap       SpanKind = "lft-swap"
	SpanMigration     SpanKind = "migration"
	SpanSMP           SpanKind = "smp"
	SpanPhase         SpanKind = "phase"
	SpanHandover      SpanKind = "sm-handover"
	SpanAudit         SpanKind = "audit"
	SpanReconcile     SpanKind = "reconcile"
)

// Span is the handle on one timed, attributed step of a trace while it is
// open. IDs are sequential per tracer (allocation order), which keeps
// exports deterministic without any wall-clock or random identifier. End
// seals the span into the tracer's record store; from then on the handle
// only names it (ID, Child) and further Set calls are dropped — every call
// site in the tree sets its attributes before it ends the span. All methods
// are nil-safe.
type Span struct {
	tr     *Tracer
	id     int
	parent int // 0 = root

	kind SpanKind
	name string

	mu       sync.Mutex
	attrs    []byte   // encoded as in a sealed record, without the terminator
	small    [64]byte // where attrs starts out: most spans never outgrow it
	started  time.Time
	wall     time.Duration
	modelled time.Duration
	ended    bool
}

// attr is one decoded span attribute.
type attr struct {
	key string
	val any
}

// attrMap is the exported shape of a span's attributes: a fresh map, nil
// when there are none.
func attrMap(attrs []attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.key] = a.val
	}
	return m
}

// ID returns the span's sequential identifier (1-based; 0 for nil).
func (s *Span) ID() int {
	if s == nil {
		return 0
	}
	return s.id
}

// SetAttr records one attribute, the last write to a key winning. Ints are
// widened to int64, durations become nanosecond int64s and Stringers their
// text, so the JSON export is type-stable.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		s.attrs = appendAttr(s.attrs, &s.tr.syms, key, value)
	}
}

// SetAttrs records attributes from alternating key/value pairs under one
// lock acquisition, with the same type widening as SetAttr; a pair whose key
// is not a string is skipped.
func (s *Span) SetAttrs(kv ...any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		s.attrs = appendAttrs(s.attrs, &s.tr.syms, kv)
	}
}

// SetModelled sets the span's modelled duration (cost-model time, exactly
// reproducible run to run).
func (s *Span) SetModelled(d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		s.modelled = d
	}
}

// AddModelled accumulates modelled time onto the span.
func (s *Span) AddModelled(d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		s.modelled += d
	}
}

// Child starts a span parented to s. It must still be ended.
func (s *Span) Child(kind SpanKind, name string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.start(kind, name, s.id)
}

// End stamps the span's wall duration from its start time and seals it.
// Ending twice is a no-op.
func (s *Span) End() {
	if s != nil {
		s.seal(time.Since(s.started))
	}
}

// EndWithWall ends the span with an externally measured wall duration
// (e.g. a per-phase timing captured by a routing engine).
func (s *Span) EndWithWall(d time.Duration) {
	if s != nil {
		s.seal(d)
	}
}

func (s *Span) seal(wall time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	s.ended, s.wall = true, wall
	t := s.tr
	var buf [recordBuf]byte
	head := appendSpan(buf[:0], &t.syms, s.parent, s.kind, s.name, uint64(s.started.Sub(t.epoch))+1, s.wall, s.modelled)
	t.mu.Lock()
	t.spans.put(s.id, head, s.attrs, endAttrs)
	delete(t.open, s.id)
	t.mu.Unlock()
}

// data copies the span's state as readers see it.
func (s *Span) data() spanData {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := decoder{syms: &s.tr.syms, b: s.attrs}
	return spanData{id: s.id, parent: s.parent, kind: s.kind, name: s.name, attrs: d.attrs(),
		started: s.started, wall: s.wall, modelled: s.modelled}
}

// Event is one free-text entry of the trace's event stream — the backing
// store of sm.EventLog.
type Event struct {
	Seq      int
	At       time.Time
	Category string
	Msg      string
}

// Tracer collects spans and events. All methods are safe for concurrent
// use and nil-safe, so a component without a tracer simply records nothing.
//
// What it retains is bytes (store.go): a span is a Go value only while it is
// open, an event never. Lock order is span, then tracer; readers take the
// tracer's lock to pick the records and open spans of a window, release it,
// and decode.
type Tracer struct {
	epoch time.Time // span starts and event times are stored relative to it
	syms  symtab

	mu     sync.Mutex
	spans  store         // numbered by span ID
	open   map[int]*Span // spans started and not yet ended
	events store         // numbered by Seq
	scope  []int         // span-ID stack; Start parents new spans to the top
}

// DefaultEventCap bounds the event stream when no cap is set explicitly.
const DefaultEventCap = 65536

// DefaultSpanCap bounds the retained span list when no cap is set
// explicitly. Span IDs keep growing past the cap; only retention is
// bounded, oldest first: exactly the newest cap spans are readable, and
// nothing is allocated until they exist. The default is sized so one
// fabric-wide operation on an O(10^4) node fabric (a migration emits one smp
// span per touched switch block run) always fits, while a long-running
// daemon cannot grow without bound.
const DefaultSpanCap = 1 << 19

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now(), open: map[int]*Span{},
		spans: store{limit: DefaultSpanCap}, events: store{limit: DefaultEventCap}}
}

// SetSpanCap bounds the retained span list to the newest n (values below 1
// clamp to 1). Consumers that bracket an operation with LastSpanID +
// SpansSince are unaffected as long as the window they read back fits the
// cap.
func (t *Tracer) SetSpanCap(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans.resize(max(n, 1))
	t.forgetEvicted()
}

// SetEventCap bounds the retained event stream to the newest n (values
// below 1 clamp to 1).
func (t *Tracer) SetEventCap(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events.resize(max(n, 1))
}

// recordBuf is the stack space a record is assembled in before the lock is
// taken to seal it — what goes into a record may be a caller's String method,
// which must not run under the tracer's lock. The smp span the SM emits per
// block run is ~50 bytes (its switch name is most of it); a record that
// outgrows this moves to the heap.
const recordBuf = 192

// Start begins a span. If a scope is pushed (PushScope), the new span is
// parented to it; otherwise it is a root.
func (t *Tracer) Start(kind SpanKind, name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	parent := 0
	if len(t.scope) > 0 {
		parent = t.scope[len(t.scope)-1]
	}
	t.mu.Unlock()
	return t.start(kind, name, parent)
}

func (t *Tracer) start(kind SpanKind, name string, parent int) *Span {
	if t == nil {
		return nil
	}
	sp := &Span{tr: t, kind: kind, name: name, parent: parent, started: time.Now()}
	sp.attrs = sp.small[:0]
	t.mu.Lock()
	sp.id = t.nextSpan()
	t.open[sp.id] = sp
	t.mu.Unlock()
	return sp
}

// nextSpan allocates a span ID. Caller holds t.mu.
func (t *Tracer) nextSpan() int {
	id := t.spans.next()
	if id%chunkRecs == 0 {
		t.forgetEvicted()
	}
	return id
}

// forgetEvicted drops the handles of spans that left the window without ever
// being ended, so a caller that leaks open spans leaks nothing here. Run
// once per chunk of IDs: the open set is a few spans deep. Caller holds t.mu.
func (t *Tracer) forgetEvicted() {
	for id := range t.open {
		if id <= t.spans.floor {
			delete(t.open, id)
		}
	}
}

// Emit appends one already-finished span in a single lock acquisition: the
// span is sealed straight from its arguments (attributes, modelled cost,
// wall duration) and is never a Go value, so hot paths that emit tens of
// thousands of leaf spans per operation — the SM's
// one-smp-span-per-block-run — skip the allocation and lock churn of
// Start/SetAttrs/SetModelled/End. The kv pairs follow the SetAttrs contract.
// The span hangs under parent (nil: a root) and never under the scope: its
// callers run on several actors at once, so the parent travels with the
// call. Returns the allocated span ID.
func (t *Tracer) Emit(kind SpanKind, name string, parent *Span, wall, modelled time.Duration, kv ...any) int {
	if t == nil {
		return 0
	}
	var buf [recordBuf]byte
	rec := appendSpan(buf[:0], &t.syms, parent.ID(), kind, name, 0, wall, modelled)
	rec = appendAttrs(rec, &t.syms, kv)
	t.mu.Lock()
	id := t.nextSpan()
	t.spans.put(id, rec, endAttrs)
	t.mu.Unlock()
	return id
}

// PushScope makes sp the implicit parent of spans started until the
// matching PopScope. The stack is process-wide: only a path that has the
// whole control plane to itself may push (a reconcile command under the
// freeze, an SM handover). Anything an actor can run beside another actor
// passes its parent explicitly (Span.Child, Emit).
func (t *Tracer) PushScope(sp *Span) {
	if t == nil || sp == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.scope = append(t.scope, sp.id)
}

// PopScope removes the innermost scope.
func (t *Tracer) PopScope() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.scope) > 0 {
		t.scope = t.scope[:len(t.scope)-1]
	}
}

// Eventf appends a formatted entry to the event stream.
func (t *Tracer) Eventf(category, format string, args ...interface{}) {
	if t == nil {
		return
	}
	msg := fmt.Sprintf(format, args...)
	var buf [recordBuf]byte
	rec := appendEvent(buf[:0], &t.syms, time.Since(t.epoch), category, msg)
	t.mu.Lock()
	t.events.put(t.events.next(), rec)
	t.mu.Unlock()
}

// Events returns a copy of the retained event stream, oldest first.
func (t *Tracer) Events() []Event { return t.EventsSince(0) }

// EventsSince returns a copy of the retained events with Seq > afterSeq,
// oldest first. Streaming consumers (the daemon's SSE endpoint) tail the
// stream by passing the last sequence number they delivered, so each poll
// decodes only the new suffix rather than the whole window.
func (t *Tracer) EventsSince(afterSeq int) []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	from := max(afterSeq, t.events.floor) + 1
	if from > t.events.last {
		t.mu.Unlock()
		return nil
	}
	recs := make([][]byte, 0, t.events.last-from+1)
	for seq := from; seq <= t.events.last; seq++ {
		recs = append(recs, t.events.get(seq))
	}
	t.mu.Unlock()
	out := make([]Event, len(recs))
	for i, rec := range recs {
		d := decoder{syms: &t.syms, b: rec}
		out[i] = d.event(from+i, t.epoch)
	}
	return out
}

// spanRef is where one retained span is to be read from, picked under the
// tracer's lock: its sealed record, or its handle while it is open. Neither
// is set for a span that was evicted while open and ended since.
type spanRef struct {
	id   int
	rec  []byte
	open *Span
}

// load reads the span a ref names; the tracer's lock must not be held.
func (t *Tracer) load(r spanRef) (spanData, bool) {
	switch {
	case r.rec != nil:
		d := decoder{syms: &t.syms, b: r.rec}
		return d.span(r.id, t.epoch), true
	case r.open != nil:
		return r.open.data(), true
	}
	return spanData{}, false
}

// retained returns the retained spans with ID > afterID in ID order, sealed
// and open alike: the one read every export and window query goes through.
func (t *Tracer) retained(afterID int) []spanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	from := max(afterID, t.spans.floor) + 1
	refs := make([]spanRef, 0, max(t.spans.last-from+1, 0))
	for id := from; id <= t.spans.last; id++ {
		refs = append(refs, spanRef{id: id, rec: t.spans.get(id), open: t.open[id]})
	}
	t.mu.Unlock()
	out := make([]spanData, 0, len(refs))
	for _, r := range refs {
		if sd, ok := t.load(r); ok {
			out = append(out, sd)
		}
	}
	return out
}

// TraceStats is what the tracer holds and what it has let go of.
type TraceStats struct {
	RetainedBytes  int   // record bytes and their index, spans and events
	RetainedSpans  int   // spans inside the span cap
	RetainedEvents int   // events inside the event cap
	SpansEvicted   int64 // spans that have left the window since start
	EventsEvicted  int64 // events that have left the window since start
}

// Stats reports retention. The store counts as it goes, so this is O(1).
func (t *Tracer) Stats() TraceStats {
	if t == nil {
		return TraceStats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return TraceStats{
		RetainedBytes:  t.spans.bytes + t.events.bytes,
		RetainedSpans:  t.spans.retained(),
		RetainedEvents: t.events.retained(),
		SpansEvicted:   t.spans.evicted,
		EventsEvicted:  t.events.evicted,
	}
}

// SpanView is a read-only copy of one span's state, for programmatic
// consumers (flight-recorder dumps, /v1/explain). Attrs is a fresh map.
type SpanView struct {
	ID       int
	Parent   int
	Kind     SpanKind
	Name     string
	Attrs    map[string]any
	Modelled time.Duration
	Wall     time.Duration
}

// LastSpanID returns the highest span ID allocated so far (0 when none).
// Combined with SpansSince it brackets the spans one operation emitted:
// IDs are handed out in allocation order under the tracer's lock.
func (t *Tracer) LastSpanID() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans.last
}

// SpansSince returns copies of every retained span with ID > afterID, in ID
// order; only that suffix of the window is decoded. Pass 0 for all spans.
func (t *Tracer) SpansSince(afterID int) []SpanView {
	spans := t.retained(afterID)
	if len(spans) == 0 {
		return nil
	}
	out := make([]SpanView, len(spans))
	for i, sd := range spans {
		out[i] = sd.view()
	}
	return out
}

// SpanByID returns a copy of one span in O(1), or false when the ID was
// never allocated or the span has been evicted from the window.
func (t *Tracer) SpanByID(id int) (SpanView, bool) {
	if t == nil {
		return SpanView{}, false
	}
	t.mu.Lock()
	r := spanRef{id: id, rec: t.spans.get(id), open: t.open[id]}
	t.mu.Unlock()
	sd, ok := t.load(r)
	return sd.view(), ok
}

func (sd spanData) view() SpanView {
	return SpanView{
		ID:       sd.id,
		Parent:   sd.parent,
		Kind:     sd.kind,
		Name:     sd.name,
		Attrs:    attrMap(sd.attrs),
		Modelled: sd.modelled,
		Wall:     sd.wall,
	}
}

// spanJSON fixes the trace export schema and its field order.
type spanJSON struct {
	ID         int            `json:"id"`
	Parent     int            `json:"parent,omitempty"`
	Kind       string         `json:"kind"`
	Name       string         `json:"name,omitempty"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	ModelledNS int64          `json:"modelled_ns"`
	WallNS     int64          `json:"wall_ns,omitempty"`
}

type eventJSON struct {
	Seq      int    `json:"seq"`
	Category string `json:"category"`
	Msg      string `json:"msg"`
}

type traceJSON struct {
	Spans  []spanJSON  `json:"spans"`
	Events []eventJSON `json:"events,omitempty"`
}

// WriteJSON exports the trace deterministically: spans in ID order, attrs
// with sorted keys (encoding/json map behaviour), modelled durations in
// nanoseconds. Wall durations appear only with opts.IncludeWall, and the
// event stream only with opts.IncludeEvents.
func (t *Tracer) WriteJSON(w io.Writer, opts Options) error {
	out := traceJSON{Spans: []spanJSON{}}
	for _, sd := range t.retained(0) {
		sj := spanJSON{
			ID:         sd.id,
			Parent:     sd.parent,
			Kind:       string(sd.kind),
			Name:       sd.name,
			Attrs:      attrMap(sd.attrs),
			ModelledNS: int64(sd.modelled),
		}
		if opts.IncludeWall {
			sj.WallNS = int64(sd.wall)
		}
		out.Spans = append(out.Spans, sj)
	}
	if opts.IncludeEvents {
		for _, e := range t.Events() {
			out.Events = append(out.Events, eventJSON{Seq: e.Seq, Category: e.Category, Msg: e.Msg})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// RenderTree formats the span forest as an indented human summary: kind,
// name, sorted attributes and the modelled duration of every span.
func (t *Tracer) RenderTree() string {
	spans := t.retained(0)
	children := map[int][]int{} // parent ID -> indices into spans
	for i, sd := range spans {
		children[sd.parent] = append(children[sd.parent], i)
	}
	var sb strings.Builder
	var walk func(parent, depth int)
	walk = func(parent, depth int) {
		for _, i := range children[parent] {
			sd := &spans[i]
			fmt.Fprintf(&sb, "%s%s", strings.Repeat("  ", depth), sd.kind)
			if sd.name != "" {
				fmt.Fprintf(&sb, " %s", sd.name)
			}
			sort.Slice(sd.attrs, func(i, j int) bool { return sd.attrs[i].key < sd.attrs[j].key })
			for _, a := range sd.attrs {
				fmt.Fprintf(&sb, " %s=%v", a.key, a.val)
			}
			if sd.modelled > 0 {
				fmt.Fprintf(&sb, " [modelled %v]", sd.modelled)
			}
			sb.WriteByte('\n')
			walk(sd.id, depth+1)
		}
	}
	walk(0, 0)
	return sb.String()
}
