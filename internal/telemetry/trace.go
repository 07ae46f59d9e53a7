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

// Span is one timed, attributed step of a trace. IDs are sequential per
// tracer (allocation order), which keeps exports deterministic without any
// wall-clock or random identifier. All methods are nil-safe.
type Span struct {
	tr     *Tracer
	id     int
	parent int // 0 = root

	kind SpanKind
	name string

	mu       sync.Mutex
	attrs    []attr
	started  time.Time
	wall     time.Duration
	modelled time.Duration
	ended    bool
}

// attr is one span attribute. A span keeps its handful of attributes in a
// slice, in first-write order: the retained-span ring holds tens of
// thousands of spans, and a map per span was most of its heap. Exports build
// the map (attrMap).
type attr struct {
	key string
	val any
}

// setAttr records key = value, the last write to a key winning. Ints are
// widened to int64, durations become nanosecond int64s and Stringers their
// text, so the JSON export is type-stable.
func setAttr(attrs []attr, key string, value any) []attr {
	switch v := value.(type) {
	case int:
		value = int64(v)
	case time.Duration:
		value = int64(v)
	case fmt.Stringer:
		value = v.String()
	}
	for i := range attrs {
		if attrs[i].key == key {
			attrs[i].val = value
			return attrs
		}
	}
	return append(attrs, attr{key, value})
}

// setAttrs is setAttr over alternating key/value pairs, growing the slice
// once, to exactly what the pairs need; a pair whose key is not a string is
// skipped.
func setAttrs(attrs []attr, kv []any) []attr {
	if attrs == nil {
		attrs = make([]attr, 0, len(kv)/2)
	}
	for i := 0; i+1 < len(kv); i += 2 {
		if key, ok := kv[i].(string); ok {
			attrs = setAttr(attrs, key, kv[i+1])
		}
	}
	return attrs
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

// SetAttr records one attribute. Ints are widened to int64 and durations
// become nanosecond int64s so the JSON export is type-stable.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attrs = setAttr(s.attrs, key, value)
}

// SetAttrs records attributes from alternating key/value pairs under one
// lock acquisition, with the same type widening as SetAttr. Hot paths that
// stamp several attributes per span (the SM emits one smp span per LFT
// block run, tens of thousands per fabric-wide operation) use this to avoid
// paying the lock and map setup per attribute.
func (s *Span) SetAttrs(kv ...any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attrs = setAttrs(s.attrs, kv)
}

// SetModelled sets the span's modelled duration (cost-model time, exactly
// reproducible run to run).
func (s *Span) SetModelled(d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.modelled = d
}

// AddModelled accumulates modelled time onto the span.
func (s *Span) AddModelled(d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.modelled += d
}

// Child starts a span parented to s. It must still be ended.
func (s *Span) Child(kind SpanKind, name string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.start(kind, name, s.id)
}

// End stamps the span's wall duration from its start time. Ending twice is
// a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	s.wall = time.Since(s.started)
}

// EndWithWall ends the span with an externally measured wall duration
// (e.g. a per-phase timing captured by a routing engine).
func (s *Span) EndWithWall(d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	s.wall = d
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
type Tracer struct {
	mu     sync.Mutex
	spans  ring[*Span] // numbered by span ID
	events ring[Event] // numbered by Seq
	scope  []int       // span-ID stack; Start parents new spans to the top
}

// DefaultEventCap bounds the event stream when no cap is set explicitly.
const DefaultEventCap = 65536

// DefaultSpanCap bounds the retained span list when no cap is set
// explicitly. Span IDs keep growing past the cap; only retention is
// bounded, oldest first — the same ring as the event stream: exactly the
// newest cap spans are kept, and nothing is allocated until they exist. The
// default is sized so one fabric-wide operation on an O(10^4) node fabric (a
// migration emits one smp span per touched switch block run) always fits,
// while a long-running daemon cannot grow without bound.
const DefaultSpanCap = 1 << 19

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{spans: newRing[*Span](DefaultSpanCap), events: newRing[Event](DefaultEventCap)}
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
	t.mu.Lock()
	sp.id = t.spans.push(sp)
	t.mu.Unlock()
	return sp
}

// Emit appends one already-finished span in a single lock acquisition:
// the span is created fully formed (attributes, modelled cost, wall
// duration), so hot paths that emit tens of thousands of leaf spans per
// operation — the SM's one-smp-span-per-block-run — skip the lock and
// map churn of Start/SetAttrs/SetModelled/End. The kv pairs follow the
// SetAttrs contract. The span hangs under parent (nil: a root) and never
// under the scope: its callers run on several actors at once, so the parent
// travels with the call. Returns the allocated span ID.
func (t *Tracer) Emit(kind SpanKind, name string, parent *Span, wall, modelled time.Duration, kv ...any) int {
	if t == nil {
		return 0
	}
	sp := &Span{tr: t, kind: kind, name: name, parent: parent.ID(), wall: wall, modelled: modelled, ended: true}
	if len(kv) > 0 {
		sp.attrs = setAttrs(nil, kv)
	}
	t.mu.Lock()
	sp.id = t.spans.push(sp)
	t.mu.Unlock()
	return sp.id
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
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events.push(Event{Seq: t.events.last + 1, At: time.Now(), Category: category, Msg: msg})
}

// Events returns a copy of the retained event stream, oldest first.
func (t *Tracer) Events() []Event { return t.EventsSince(0) }

// EventsSince returns a copy of the retained events with Seq > afterSeq,
// oldest first. Streaming consumers (the daemon's SSE endpoint) tail the
// stream by passing the last sequence number they delivered, so each poll
// copies only the new suffix rather than the whole ring.
func (t *Tracer) EventsSince(afterSeq int) []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events.since(afterSeq)
}

// retained copies the retained spans with ID > afterID under the lock, in ID
// order; span fields are then read under each span's own mutex.
func (t *Tracer) retained(afterID int) []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans.since(afterID)
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
// order; only that suffix of the ring is touched. Pass 0 for all spans.
func (t *Tracer) SpansSince(afterID int) []SpanView {
	spans := t.retained(afterID)
	if len(spans) == 0 {
		return nil
	}
	out := make([]SpanView, len(spans))
	for i, sp := range spans {
		out[i] = sp.view()
	}
	return out
}

// SpanByID returns a copy of one span in O(1), or false when the ID was
// never allocated or the span has been evicted from the ring.
func (t *Tracer) SpanByID(id int) (SpanView, bool) {
	if t == nil {
		return SpanView{}, false
	}
	t.mu.Lock()
	sp, ok := t.spans.at(id)
	t.mu.Unlock()
	if !ok {
		return SpanView{}, false
	}
	return sp.view(), true
}

func (s *Span) view() SpanView {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SpanView{
		ID:       s.id,
		Parent:   s.parent,
		Kind:     s.kind,
		Name:     s.name,
		Attrs:    attrMap(s.attrs),
		Modelled: s.modelled,
		Wall:     s.wall,
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
	for _, sp := range t.retained(0) {
		sp.mu.Lock()
		sj := spanJSON{
			ID:         sp.id,
			Parent:     sp.parent,
			Kind:       string(sp.kind),
			Name:       sp.name,
			Attrs:      attrMap(sp.attrs),
			ModelledNS: int64(sp.modelled),
		}
		if opts.IncludeWall {
			sj.WallNS = int64(sp.wall)
		}
		sp.mu.Unlock()
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
	children := map[int][]*Span{}
	for _, sp := range spans {
		children[sp.parent] = append(children[sp.parent], sp)
	}
	var sb strings.Builder
	var walk func(parent, depth int)
	walk = func(parent, depth int) {
		for _, sp := range children[parent] {
			sp.mu.Lock()
			fmt.Fprintf(&sb, "%s%s", strings.Repeat("  ", depth), sp.kind)
			if sp.name != "" {
				fmt.Fprintf(&sb, " %s", sp.name)
			}
			sorted := append([]attr(nil), sp.attrs...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i].key < sorted[j].key })
			for _, a := range sorted {
				fmt.Fprintf(&sb, " %s=%v", a.key, a.val)
			}
			if sp.modelled > 0 {
				fmt.Fprintf(&sb, " [modelled %v]", sp.modelled)
			}
			sp.mu.Unlock()
			sb.WriteByte('\n')
			walk(sp.id, depth+1)
		}
	}
	walk(0, 0)
	return sb.String()
}
