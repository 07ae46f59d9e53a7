package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// heapAfter returns the live heap after a collection.
func heapAfter() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// retainedPer returns how many heap bytes each of n records pushed by fill
// keeps alive, measured from outside: live heap after a collection, with the
// tracer reachable, minus the same before. Stats must agree with it.
func retainedPer(t *testing.T, n int, fill func(tr *Tracer, i int)) float64 {
	t.Helper()
	before := heapAfter()
	tr := NewTracer()
	for i := 0; i < n; i++ {
		fill(tr, i)
	}
	after := heapAfter()
	st := tr.Stats()
	runtime.KeepAlive(tr)
	per := float64(after-before) / float64(n)
	if own := float64(st.RetainedBytes) / float64(n); own > per*1.15+4 || own < per*0.85-4 {
		t.Errorf("Stats says %.1f B/record, the heap %.1f", own, per)
	}
	return per
}

// TestRetainedBytesPerSpan holds a retained span to its byte budget: the smp
// span the subnet manager emits per LFT block run, with its six attributes,
// at most 100 B (about 420 as a Go value); a span without attributes at most
// 32 B (152).
func TestRetainedBytesPerSpan(t *testing.T) {
	const n = 50_000
	root := NewTracer().Start(SpanLFTSwap, "swap") // a parent ID to refer to; its tracer is not the one measured
	smp := retainedPer(t, n, func(tr *Tracer, i int) {
		desc := fmt.Sprintf("sw-l1-%d", i%144)
		tr.Emit(SpanSMP, desc, root, 0, 1200*time.Nanosecond,
			"switch", desc, "block", i%27, "blocks", 1, "mode", "directed", "attempts", 1, "shard", i%4)
	})
	bare := retainedPer(t, n, func(tr *Tracer, i int) {
		tr.Start(SpanPhase, "worker-3").EndWithWall(37 * time.Microsecond)
	})
	t.Logf("retained: %.1f B per smp span with attributes, %.1f B per span without", smp, bare)
	if smp > 100 {
		t.Errorf("smp span with attributes retains %.1f B, budget 100", smp)
	}
	if bare > 32 {
		t.Errorf("attribute-less span retains %.1f B, budget 32", bare)
	}
}

// TestEventRetainedBytes: an event costs its message plus at most 24 B
// (about 137 B as a struct with two strings and a time.Time).
func TestEventRetainedBytes(t *testing.T) {
	const n = 50_000
	msg := func(i int) string {
		return fmt.Sprintf("port state change: sw-l1-%d port %d -> down (trap 128)", i%144, i%36)
	}
	total := 0
	for i := 0; i < n; i++ {
		total += len(msg(i))
	}
	per := retainedPer(t, n, func(tr *Tracer, i int) { tr.Eventf("trap", "%s", msg(i)) })
	over := per - float64(total)/n
	t.Logf("retained: %.1f B per event, %.1f beyond its message", per, over)
	if over > 24 {
		t.Errorf("an event retains %.1f B beyond its message, budget 24", over)
	}
}

// bracketed is a fmt.Stringer.
type bracketed string

func (b bracketed) String() string { return "<" + string(b) + ">" }

// viewOf is what a span with these fields must read back as.
func viewOf(id, parent int, kind SpanKind, name string, attrs map[string]any, wall, modelled time.Duration) SpanView {
	if len(attrs) == 0 {
		attrs = nil
	}
	return SpanView{ID: id, Parent: parent, Kind: kind, Name: name, Attrs: attrs, Wall: wall, Modelled: modelled}
}

// FuzzSpanRoundTrip: whatever kind, name and attribute values of the types
// the tree uses go into a span, the sealed record reads back equal — through
// Emit, through Start/Set/End, and while the span is still open.
func FuzzSpanRoundTrip(f *testing.F) {
	f.Add("smp", "sw-l1-3", "switch", "sw-l1-3", int64(5), uint64(7), 1.5, true, int64(1200), int64(0))
	f.Add("", "", "", "", int64(-1), uint64(0), math.Inf(1), false, int64(-5), int64(1)<<40)
	f.Add("a kind nobody declared", strings.Repeat("n", 300), "k\x00", "v\xff", int64(math.MinInt64), uint64(math.MaxUint64), -0.0, true, int64(1), int64(2))
	f.Fuzz(func(t *testing.T, kind, name, key, text string, i int64, u uint64, fl float64, b bool, wall, modelled int64) {
		if fl != fl {
			fl = 0 // NaN never equals itself; the record keeps its bits all the same
		}
		key = "k:" + key // apart from the fixed keys below
		tr := NewTracer()
		parent := tr.Start(SpanMigration, "parent")
		kv := []any{key, text, "i", i, "u", u, "f", fl, "b", b, "nil", nil,
			"int", int(i), "dur", time.Duration(i), "i32", int32(i), "u8", uint8(u), "stringer", bracketed(text), "other", []string{text},
			"i", i + 1, 42, "skipped: the key is not a string"}
		want := map[string]any{key: text, "i": i + 1, "u": u, "f": fl, "b": b, "nil": nil,
			"int": i, "dur": i, "i32": int64(int32(i)), "u8": uint64(uint8(u)), "stringer": "<" + text + ">", "other": fmt.Sprint([]string{text})}
		emitted := tr.Emit(SpanKind(kind), name, parent, time.Duration(wall), time.Duration(modelled), kv...)
		sp := parent.Child(SpanKind(kind), name)
		sp.SetAttrs(kv...)
		sp.SetModelled(time.Duration(modelled))
		open, _ := tr.SpanByID(sp.ID())
		if w := viewOf(sp.ID(), parent.ID(), SpanKind(kind), name, want, 0, time.Duration(modelled)); !reflect.DeepEqual(open, w) {
			t.Fatalf("open span reads\n %#v\nwant\n %#v", open, w)
		}
		sp.EndWithWall(time.Duration(wall))

		for _, id := range []int{emitted, sp.ID()} {
			got, ok := tr.SpanByID(id)
			if w := viewOf(id, parent.ID(), SpanKind(kind), name, want, time.Duration(wall), time.Duration(modelled)); !ok || !reflect.DeepEqual(got, w) {
				t.Fatalf("span %d reads\n %#v\nwant\n %#v", id, got, w)
			}
		}
		// And the exports decode every record without complaint.
		var sb strings.Builder
		if err := tr.WriteJSON(&sb, Options{IncludeWall: true}); err != nil && !strings.Contains(err.Error(), "unsupported value") {
			t.Fatal(err) // ±Inf is not JSON: that refusal is encoding/json's, as before
		}
		_ = tr.RenderTree()
	})
}

// TestLateAttributesAreDropped documents what End means: the span is sealed,
// and what is set on the handle afterwards goes nowhere. Every call site in
// the tree sets before it ends; this pins the contract for the next one.
func TestLateAttributesAreDropped(t *testing.T) {
	tr := NewTracer()
	sp := tr.Start(SpanSweep, "light")
	sp.SetAttr("smps", 12)
	sp.SetModelled(time.Microsecond)
	sp.End()
	sp.SetAttr("late", true)
	sp.SetAttrs("smps", 99)
	sp.SetModelled(time.Hour)
	sp.AddModelled(time.Hour)
	sp.EndWithWall(time.Hour) // ending twice is a no-op too
	got, ok := tr.SpanByID(sp.ID())
	if !ok || !reflect.DeepEqual(got.Attrs, map[string]any{"smps": int64(12)}) || got.Modelled != time.Microsecond || got.Wall >= time.Hour {
		t.Fatalf("sealed span changed after End: %+v", got)
	}
	if child := sp.Child(SpanPhase, "after"); child == nil || child.parent != sp.ID() {
		t.Fatal("an ended span must still parent children")
	}
}

// TestTraceStats: the store knows what it holds and what it let go of, open
// spans that fall out of the window are forgotten, and memory is freed a
// chunk at a time.
func TestTraceStats(t *testing.T) {
	tr := NewTracer()
	tr.SetSpanCap(1000)
	tr.SetEventCap(10)
	leaked := tr.Start(SpanMigration, "never ended")
	for i := 0; i < 5000; i++ {
		tr.Emit(SpanSMP, "x", nil, 0, 0, "block", i)
		tr.Eventf("note", "event %d", i)
	}
	st := tr.Stats()
	if st.RetainedSpans != 1000 || st.SpansEvicted != 4001 || st.RetainedEvents != 10 || st.EventsEvicted != 4990 {
		t.Fatalf("stats = %+v", st)
	}
	// 1000 retained spans straddle at most five chunks of 256.
	if max := 5 * (chunkOverhead + 256*16) * 2; st.RetainedBytes <= 0 || st.RetainedBytes > max {
		t.Errorf("retained bytes = %d, want within (0, %d]: eviction must free whole chunks", st.RetainedBytes, max)
	}
	tr.mu.Lock()
	open := len(tr.open)
	tr.mu.Unlock()
	if open != 0 {
		t.Errorf("%d open spans remembered after their IDs left the window", open)
	}
	leaked.End() // sealing an evicted span is a no-op, not a crash
	if _, ok := tr.SpanByID(leaked.ID()); ok {
		t.Error("an evicted span came back")
	}
}

// TestSymbolTableOverflow fills the symbol table past maxSymbols. The first
// 255 strings get a number and the rest are written inline in every record
// that uses them; every key reads back through SpansSince and WriteJSON
// whether the encoder is handed the very string the table learnt (answered
// by its address) or a copy that only spells it (answered by the map).
func TestSymbolTableOverflow(t *testing.T) {
	tr := NewTracer()
	const n = maxSymbols + 10
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprint("key-", i)
		tr.Emit(SpanSMP, "learn", nil, 0, 0, keys[i], i)
	}
	cur := tr.syms.cur.Load()
	if len(cur.names) != maxSymbols {
		t.Fatalf("table holds %d symbols, want %d", len(cur.names), maxSymbols)
	}
	numbered := 0
	for i, k := range keys {
		spelt := strings.Clone(k)
		id := tr.syms.id(k)
		if got := tr.syms.id(spelt); got != id {
			t.Fatalf("%q: id %d by address, %d by spelling", k, id, got)
		}
		if got := cur.byAddress(spelt); got != 0 {
			t.Fatalf("%q: a copy was answered by address (%d)", k, got)
		}
		if got := cur.byAddress(k); got != id {
			t.Fatalf("%q: address cache says %d, table %d", k, got, id)
		}
		if id != 0 {
			numbered++
			if cur.names[id-1] != k {
				t.Fatalf("%q: id %d names %q", k, id, cur.names[id-1])
			}
		} else if i < maxSymbols-1 {
			t.Fatalf("%q (key %d) has no symbol though the table had room", k, i)
		}
	}
	if numbered != maxSymbols-1 { // the span kind took one
		t.Fatalf("%d keys numbered, want %d", numbered, maxSymbols-1)
	}

	// One span with every key twice over: as learnt, then as a copy.
	var kv []any
	want := map[string]any{}
	for i, k := range keys {
		kv = append(kv, k, int64(i), strings.Clone(k), int64(i+n))
		want[k] = int64(i + n) // the later write wins
	}
	id := tr.Emit(SpanSMP, "all", nil, 0, 0, kv...)
	spans := tr.SpansSince(id - 1)
	if len(spans) != 1 || !reflect.DeepEqual(spans[0].Attrs, want) {
		t.Fatalf("SpansSince read back %d spans, attrs %v", len(spans), spans)
	}
	var sb strings.Builder
	if err := tr.WriteJSON(&sb, Options{}); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Spans []struct {
			ID    int            `json:"id"`
			Attrs map[string]any `json:"attrs"`
		} `json:"spans"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &out); err != nil {
		t.Fatal(err)
	}
	last := out.Spans[len(out.Spans)-1]
	if last.ID != id || len(last.Attrs) != n {
		t.Fatalf("export's last span is %d with %d attrs, want %d with %d", last.ID, len(last.Attrs), id, n)
	}
	for k, v := range want {
		if got, ok := last.Attrs[k].(float64); !ok || int64(got) != v.(int64) {
			t.Fatalf("export: %q = %v, want %v", k, last.Attrs[k], v)
		}
	}
}

// TestConcurrentWritersAndReaders: 16 goroutines Emit, Start/End and Eventf
// while readers take windows and full exports. Each writer also emits a key
// of its own, so the symbol table grows while the other writers hit its
// address cache and the readers decode. IDs must come out dense and every
// span a reader sees must decode to what its writer put in.
func TestConcurrentWritersAndReaders(t *testing.T) {
	const writers, perWriter = 16, 300
	tr := NewTracer()
	tr.SetSpanCap(4096) // smaller than what is written: eviction runs under the readers too
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				after := max(tr.LastSpanID()-200, 0)
				spans := tr.SpansSince(after)
				for i, sv := range spans {
					if sv.ID != spans[0].ID+i {
						t.Errorf("window not dense: %d after %d", sv.ID, spans[0].ID+i-1)
						return
					}
					// A span caught between Start and SetAttrs has no
					// attributes yet; any it has must be its writer's.
					w, ok := sv.Attrs["w"].(int64)
					if len(sv.Attrs) > 0 && (!ok || sv.Name != fmt.Sprint("w", w)) {
						t.Errorf("span %d decoded to %+v", sv.ID, sv)
						return
					}
					// An smp span also carries its writer's own key.
					if sv.Kind == SpanSMP && sv.Attrs[fmt.Sprint("k", w)] != sv.Attrs["i"] {
						t.Errorf("smp span %d decoded to %+v", sv.ID, sv)
						return
					}
				}
				if r == 0 {
					var sb strings.Builder
					if err := tr.WriteJSON(&sb, Options{IncludeWall: true, IncludeEvents: true}); err != nil {
						t.Error(err)
						return
					}
					if !json.Valid([]byte(sb.String())) {
						t.Error("export is not JSON")
						return
					}
				}
				tr.EventsSince(max(len(tr.Events())-50, 0))
			}
		}(r)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprint("w", w)
			own := fmt.Sprint("k", w) // grows the symbol table under the others
			for i := 0; i < perWriter; i++ {
				sp := tr.Start(SpanLFTSwap, name)
				sp.SetAttrs("w", w, "i", i)
				tr.Emit(SpanSMP, name, sp, 0, time.Microsecond, "w", w, "i", i, "switch", name, own, i)
				tr.Eventf("note", "w%d i%d", w, i)
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	if last := tr.LastSpanID(); last != writers*perWriter*2 {
		t.Fatalf("LastSpanID = %d, want %d", last, writers*perWriter*2)
	}
	spans := tr.SpansSince(0)
	if len(spans) != 4096 {
		t.Fatalf("retained %d spans, want the cap", len(spans))
	}
	seen := map[[2]int64]int{}
	for i, sv := range spans {
		if sv.ID != spans[0].ID+i {
			t.Fatalf("IDs not dense at %d", sv.ID)
		}
		seen[[2]int64{sv.Attrs["w"].(int64), sv.Attrs["i"].(int64)}]++
	}
	for k, n := range seen {
		if n > 2 {
			t.Fatalf("writer %d iteration %d appears %d times", k[0], k[1], n)
		}
	}
	if evs := tr.Events(); len(evs) != writers*perWriter || evs[len(evs)-1].Seq != writers*perWriter {
		t.Fatalf("events: %d retained, last seq %d", len(evs), evs[len(evs)-1].Seq)
	}
}
