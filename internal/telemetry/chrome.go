package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// chromeEvent is one Trace Event Format entry ("ph":"X" complete events for
// spans, "ph":"i" instants for the event stream). Timestamps and durations
// are microseconds, fractional where modelled time is sub-microsecond.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace exports the span forest in Chrome trace-event format, so
// a trace can be dropped straight into Perfetto / chrome://tracing. Each
// span becomes a complete ("X") event with cat = span kind and args = span
// attrs; each root span's tree is its own track (tid = root span ID).
//
// Without opts.IncludeWall the timeline is *modelled* time, laid out
// deterministically (children placed back to back inside their parent, a
// parent at least as long as its children) so exports are byte-stable for
// goldens. With opts.IncludeWall, real start offsets and wall durations are
// used, and with opts.IncludeEvents the event stream is added as instant
// events on the wall timeline (events carry no modelled time, so they are
// only exported in wall mode).
func (t *Tracer) WriteChromeTrace(w io.Writer, opts Options) error {
	type rec struct {
		id, parent int
		kind, name string
		attrs      map[string]any
		modelled   time.Duration
		wall       time.Duration
		started    time.Time
	}
	spans := t.retained(0)
	recs := make([]rec, 0, len(spans))
	index := map[int]int{} // span ID -> recs index
	children := map[int][]int{}
	for _, sd := range spans {
		r := rec{
			id: sd.id, parent: sd.parent,
			kind: string(sd.kind), name: sd.name,
			attrs:    attrMap(sd.attrs),
			modelled: sd.modelled, wall: sd.wall, started: sd.started,
		}
		index[r.id] = len(recs)
		recs = append(recs, r)
		children[r.parent] = append(children[r.parent], r.id)
	}

	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	ts := make(map[int]float64, len(recs))
	dur := make(map[int]float64, len(recs))

	if opts.IncludeWall {
		var earliest time.Time
		for _, r := range recs {
			if earliest.IsZero() || r.started.Before(earliest) {
				earliest = r.started
			}
		}
		for _, r := range recs {
			ts[r.id] = us(r.started.Sub(earliest))
			dur[r.id] = us(r.wall)
		}
	} else {
		// Modelled layout: a span lasts at least as long as its children,
		// children sit back to back from their parent's start, roots sit
		// back to back from zero. Purely a function of span IDs and
		// modelled durations, so the export is byte-stable.
		var need func(id int) float64
		need = func(id int) float64 {
			if d, ok := dur[id]; ok {
				return d
			}
			kids := 0.0
			for _, c := range children[id] {
				kids += need(c)
			}
			d := us(recs[index[id]].modelled)
			if kids > d {
				d = kids
			}
			dur[id] = d
			return d
		}
		var place func(id int, at float64)
		place = func(id int, at float64) {
			ts[id] = at
			cur := at
			for _, c := range children[id] {
				place(c, cur)
				cur += dur[c]
			}
		}
		cursor := 0.0
		for _, root := range children[0] {
			need(root)
			place(root, cursor)
			cursor += dur[root]
		}
	}

	// tid assignment. Spans attributed to a shard actor (a "shard" attr >= 0,
	// stamped by provenance-carrying distributions) or to the coordinator's
	// cross-shard commit path each get one stable lane, named via thread_name
	// metadata — so a sharded run renders as one swimlane per actor instead
	// of interleaving every operation's SMPs across per-root tracks. Spans
	// with no shard attribution keep the old layout (one track per root
	// tree), offset past the shard lanes. shard == -1 (ShardNone) marks a
	// single-actor operation and is deliberately not a lane.
	const coordinatorShard = -2 // mirrors ib.ShardCoordinator (no import: telemetry is dependency-free)
	shardAttr := func(attrs map[string]any) (int, bool) {
		if v, ok := attrs["shard"]; ok {
			switch n := v.(type) {
			case int:
				return n, true
			case int64:
				return int(n), true
			case float64:
				return int(n), true
			}
		}
		if _, ok := attrs["cross_shard"]; ok {
			return coordinatorShard, true
		}
		return 0, false
	}
	laneTID := func(shard int) int {
		if shard == coordinatorShard {
			return 1
		}
		return 2 + shard
	}
	lanes := map[int]string{} // lane tid -> thread name
	for _, r := range recs {
		if s, ok := shardAttr(r.attrs); ok && (s >= 0 || s == coordinatorShard) {
			if s == coordinatorShard {
				lanes[laneTID(s)] = "coordinator"
			} else {
				lanes[laneTID(s)] = fmt.Sprintf("shard %d", s)
			}
		}
	}
	offset := 0 // with no shard lanes the layout is unchanged
	for tid := range lanes {
		if tid > offset {
			offset = tid
		}
	}
	track := make(map[int]int, len(recs))
	for _, r := range recs {
		if s, ok := shardAttr(r.attrs); ok && (s >= 0 || s == coordinatorShard) {
			track[r.id] = laneTID(s)
		} else if r.parent == 0 {
			track[r.id] = offset + r.id
		} else {
			track[r.id] = track[r.parent] // snapshot is ID-ordered: parent first
		}
	}

	out := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	laneTIDs := make([]int, 0, len(lanes))
	for tid := range lanes {
		laneTIDs = append(laneTIDs, tid)
	}
	sort.Ints(laneTIDs)
	for _, tid := range laneTIDs {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: tid,
			Args: map[string]any{"name": lanes[tid]},
		})
	}
	for _, r := range recs {
		name := r.name
		if name == "" {
			name = r.kind
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: name, Cat: r.kind, Ph: "X",
			TS: ts[r.id], Dur: dur[r.id],
			PID: 1, TID: track[r.id],
			Args: r.attrs,
		})
	}
	if opts.IncludeEvents && opts.IncludeWall && len(recs) > 0 {
		var earliest time.Time
		for _, r := range recs {
			if earliest.IsZero() || r.started.Before(earliest) {
				earliest = r.started
			}
		}
		for _, e := range t.Events() {
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: e.Msg, Cat: e.Category, Ph: "i",
				TS: us(e.At.Sub(earliest)), PID: 1, TID: 0, S: "g",
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
