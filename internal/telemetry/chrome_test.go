package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func decodeChrome(t *testing.T, b []byte) []chromeEvent {
	t.Helper()
	var out chromeTrace
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out.TraceEvents
}

// TestChromeTraceModelledLayout checks the wall-free export: complete
// events laid out from modelled durations only, children back to back
// inside a parent that is at least as long, one track per root.
func TestChromeTraceModelledLayout(t *testing.T) {
	tr := NewTracer()
	root := tr.Start(SpanMigration, "vm-1")
	root.SetAttr("dst", 42)
	c1 := root.Child(SpanLFTSwap, "")
	c1.SetModelled(3 * time.Microsecond)
	c1.End()
	c2 := root.Child(SpanGUIDMigrate, "")
	c2.SetModelled(2 * time.Microsecond)
	c2.End()
	root.SetModelled(1 * time.Microsecond) // less than its children: layout stretches it
	root.End()
	other := tr.Start(SpanSweep, "")
	other.SetModelled(5 * time.Microsecond)
	other.End()

	var b bytes.Buffer
	if err := tr.WriteChromeTrace(&b, Options{}); err != nil {
		t.Fatal(err)
	}
	evs := decodeChrome(t, b.Bytes())
	if len(evs) != 4 {
		t.Fatalf("want 4 events, got %d", len(evs))
	}
	byName := map[string]chromeEvent{}
	for _, e := range evs {
		if e.Ph != "X" {
			t.Fatalf("modelled export must only hold complete events, got %q", e.Ph)
		}
		byName[e.Name] = e
	}
	mig := byName["vm-1"]
	if mig.TS != 0 || mig.Dur != 5 { // stretched to its children's 3+2us
		t.Fatalf("migration layout: ts=%v dur=%v, want 0/5", mig.TS, mig.Dur)
	}
	if mig.Args["dst"] != float64(42) || mig.Cat != string(SpanMigration) {
		t.Fatalf("migration attrs/cat: %+v", mig)
	}
	swap, guid := byName[string(SpanLFTSwap)], byName[string(SpanGUIDMigrate)]
	if swap.TS != 0 || swap.Dur != 3 || guid.TS != 3 || guid.Dur != 2 {
		t.Fatalf("children not back to back: swap %v/%v guid %v/%v",
			swap.TS, swap.Dur, guid.TS, guid.Dur)
	}
	if swap.TID != mig.TID || guid.TID != mig.TID {
		t.Fatal("children must share their root's track")
	}
	sweep := byName[string(SpanSweep)]
	if sweep.TS != 5 || sweep.TID == mig.TID {
		t.Fatalf("second root must follow on its own track: ts=%v tid=%v", sweep.TS, sweep.TID)
	}

	// Byte-determinism: a second export is identical.
	var b2 bytes.Buffer
	if err := tr.WriteChromeTrace(&b2, Options{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), b2.Bytes()) {
		t.Fatal("modelled chrome export is not byte-stable")
	}
}

// TestChromeTraceWallMode checks that wall mode uses real offsets and emits
// the event stream as instants, which the modelled export must never do.
func TestChromeTraceWallMode(t *testing.T) {
	tr := NewTracer()
	sp := tr.Start(SpanSweep, "")
	time.Sleep(time.Millisecond)
	sp.End()
	tr.Eventf("test", "hello")

	var modelled bytes.Buffer
	if err := tr.WriteChromeTrace(&modelled, Options{IncludeEvents: true}); err != nil {
		t.Fatal(err)
	}
	for _, e := range decodeChrome(t, modelled.Bytes()) {
		if e.Ph == "i" {
			t.Fatal("instant event leaked into the modelled (wall-free) export")
		}
		if e.Dur != 0 {
			t.Fatalf("span with no modelled time must have dur 0, got %v", e.Dur)
		}
	}

	var wall bytes.Buffer
	if err := tr.WriteChromeTrace(&wall, Options{IncludeWall: true, IncludeEvents: true}); err != nil {
		t.Fatal(err)
	}
	var spans, instants int
	for _, e := range decodeChrome(t, wall.Bytes()) {
		switch e.Ph {
		case "X":
			spans++
			if e.Dur <= 0 {
				t.Fatalf("wall export must carry the measured duration, got %v", e.Dur)
			}
		case "i":
			instants++
			if e.Name != "hello" || e.Cat != "test" || e.S != "g" {
				t.Fatalf("bad instant event: %+v", e)
			}
		}
	}
	if spans != 1 || instants != 1 {
		t.Fatalf("wall export: %d spans, %d instants", spans, instants)
	}
}

// TestChromeTraceShardLanes checks the sharded-lane mapping: spans carrying
// a "shard" attr land on one stable tid per shard, cross_shard spans on the
// coordinator lane, each lane named by a thread_name metadata event, and
// shard-free trees keep the per-root layout offset past the lanes. shard=-1
// (single-actor ShardNone) must NOT claim a lane.
func TestChromeTraceShardLanes(t *testing.T) {
	tr := NewTracer()
	for _, shard := range []int{2, 0} {
		id := tr.Emit(SpanSMP, "sw", nil, 0, time.Microsecond, "shard", shard)
		if id == 0 {
			t.Fatal("emit failed")
		}
	}
	x := tr.Start(SpanMigration, "vm-x")
	x.SetAttr("cross_shard", "0->2")
	x.SetModelled(time.Microsecond)
	x.End()
	tr.Emit(SpanSMP, "sw", nil, 0, time.Microsecond, "shard", -1) // single-actor: no lane
	plain := tr.Start(SpanSweep, "")
	plain.SetModelled(time.Microsecond)
	plain.End()

	var b bytes.Buffer
	if err := tr.WriteChromeTrace(&b, Options{}); err != nil {
		t.Fatal(err)
	}
	evs := decodeChrome(t, b.Bytes())

	names := map[int]string{} // tid -> thread name from metadata
	for _, e := range evs {
		if e.Ph == "M" && e.Name == "thread_name" {
			names[e.TID] = e.Args["name"].(string)
		}
	}
	if len(names) != 3 {
		t.Fatalf("want 3 named lanes (coordinator, shard 0, shard 2), got %v", names)
	}

	laneOf := map[string]int{}
	var unlaned []int
	for _, e := range evs {
		if e.Ph != "X" {
			continue
		}
		switch {
		case e.Args["shard"] == float64(2):
			laneOf["shard 2"] = e.TID
		case e.Args["shard"] == float64(0):
			laneOf["shard 0"] = e.TID
		case e.Args["cross_shard"] != nil:
			laneOf["coordinator"] = e.TID
		default:
			unlaned = append(unlaned, e.TID)
		}
	}
	for want, tid := range laneOf {
		if names[tid] != want {
			t.Errorf("lane %q got tid %d named %q", want, tid, names[tid])
		}
	}
	if laneOf["coordinator"] != 1 || laneOf["shard 0"] != 2 || laneOf["shard 2"] != 4 {
		t.Errorf("lane tids drifted: %v", laneOf)
	}
	for _, tid := range unlaned {
		if tid <= 4 {
			t.Errorf("shard-free span landed on tid %d, inside the lane range", tid)
		}
	}
}
