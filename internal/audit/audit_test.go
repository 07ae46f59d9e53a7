package audit

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ibvsim/internal/ib"
	"ibvsim/internal/telemetry"
	"ibvsim/internal/topology"
)

// buildLine is the smallest auditable fabric: two switches in a line, one
// CA each. LIDs: s0=1 s1=2 c0=10 c1=11. The returned view routes everything
// correctly; tests corrupt it from there.
func buildLine(t *testing.T) (*View, [2]topology.NodeID, [2]topology.NodeID) {
	t.Helper()
	topo := topology.New("line")
	s0 := topo.AddSwitch(4, "s0")
	s1 := topo.AddSwitch(4, "s1")
	c0 := topo.AddCA("c0")
	c1 := topo.AddCA("c1")
	for _, err := range []error{
		topo.Connect(s0, 1, s1, 1),
		topo.Connect(c0, 1, s0, 2),
		topo.Connect(c1, 1, s1, 2),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	l0 := ib.NewLFT(16)
	l0.Set(2, 1)
	l0.Set(10, 2)
	l0.Set(11, 1)
	l1 := ib.NewLFT(16)
	l1.Set(1, 1)
	l1.Set(10, 1)
	l1.Set(11, 2)
	v := &View{
		Topo: topo,
		Gen:  7,
		LFTs: map[topology.NodeID]*ib.LFT{s0: l0, s1: l1},
		NodeOfLID: map[ib.LID]topology.NodeID{
			1: s0, 2: s1, 10: c0, 11: c1,
		},
		ActiveLIDs: []ib.LID{1, 2, 10, 11},
	}
	return v, [2]topology.NodeID{s0, s1}, [2]topology.NodeID{c0, c1}
}

func newAuditor(t *testing.T) (*Auditor, *telemetry.Hub) {
	t.Helper()
	hub := telemetry.NewHub()
	return New(hub, NewRecorder(hub.Trace, "", 0), Config{}), hub
}

func TestCleanFabricZeroViolations(t *testing.T) {
	v, _, _ := buildLine(t)
	a, hub := newAuditor(t)
	rep := a.Run(v, ScopeFull)
	if rep.Total != 0 {
		t.Fatalf("clean fabric: got %d violations: %+v", rep.Total, rep.Violations)
	}
	if rep.Gen != 7 || rep.Scope != "full" || rep.LIDsChecked != 4 || rep.SwitchesChecked != 2 {
		t.Fatalf("bad report header: %+v", rep)
	}
	if a.Runs() != 1 || a.ViolationsTotal() != 0 {
		t.Fatalf("counters: runs=%d violations=%d", a.Runs(), a.ViolationsTotal())
	}
	if a.Last() != rep {
		t.Fatal("Last() should return the report just produced")
	}
	if a.Recorder().Dumps() != 0 {
		t.Fatal("clean audit must not dump")
	}
	// The pass must have emitted exactly one audit span.
	n := 0
	for _, sp := range hub.Trace.SpansSince(0) {
		if sp.Kind == telemetry.SpanAudit {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("want 1 audit span, got %d", n)
	}
}

func TestBlackholeDetected(t *testing.T) {
	v, sw, _ := buildLine(t)
	v.LFTs[sw[1]].Set(11, ib.DropPort) // s1 drops its own CA's LID
	a, _ := newAuditor(t)
	rep := a.Run(v, ScopeFast)
	if rep.ByKind[string(KindBlackhole)] != 1 {
		t.Fatalf("want exactly 1 blackhole (deduped by origin), got %+v", rep)
	}
	if !strings.Contains(rep.Violations[0].Detail, "DropPort") {
		t.Fatalf("detail should name the drop: %+v", rep.Violations[0])
	}
	if a.Recorder().Dumps() != 1 {
		t.Fatalf("violation must trigger a dump, got %d", a.Recorder().Dumps())
	}
}

func TestDownPortAndMissingLFTAreBlackholes(t *testing.T) {
	v, sw, _ := buildLine(t)
	v.Topo.Node(sw[0]).Ports[1].Up = false // s0's inter-switch link goes down
	a, _ := newAuditor(t)
	rep := a.Run(v, ScopeFast)
	if rep.ByKind[string(KindBlackhole)] == 0 {
		t.Fatalf("down egress port must be a blackhole: %+v", rep)
	}

	v2, sw2, _ := buildLine(t)
	delete(v2.LFTs, sw2[1])
	a2, _ := newAuditor(t)
	rep2 := a2.Run(v2, ScopeFast)
	if rep2.ByKind[string(KindBlackhole)] == 0 {
		t.Fatalf("missing LFT must be a blackhole: %+v", rep2)
	}
}

func TestLoopDetected(t *testing.T) {
	v, sw, _ := buildLine(t)
	v.LFTs[sw[1]].Set(11, 1) // s1 bounces c1's LID back to s0 -> ping-pong
	a, _ := newAuditor(t)
	rep := a.Run(v, ScopeFast)
	if rep.ByKind[string(KindLoop)] == 0 {
		t.Fatalf("want a forwarding loop, got %+v", rep)
	}
}

func TestMisrouteDetected(t *testing.T) {
	v, sw, _ := buildLine(t)
	v.LFTs[sw[0]].Set(11, 2) // s0 sends c1's LID to c0 instead
	a, _ := newAuditor(t)
	rep := a.Run(v, ScopeFast)
	if rep.ByKind[string(KindMisroute)] == 0 {
		t.Fatalf("want a misroute, got %+v", rep)
	}
}

func TestStaleEntryDetected(t *testing.T) {
	v, sw, _ := buildLine(t)
	v.LFTs[sw[0]].Set(40, 1) // forwarding entry for a LID nobody owns
	a, _ := newAuditor(t)
	rep := a.Run(v, ScopeFast)
	if rep.ByKind[string(KindStaleEntry)] != 1 {
		t.Fatalf("want 1 stale entry, got %+v", rep)
	}
}

func TestLIDConflictsDetected(t *testing.T) {
	v, _, cas := buildLine(t)
	v.VMs = []VMBinding{
		{Name: "vm-a", LID: 10, Hyp: cas[1]}, // LID 10 belongs to c0, not c1
		{Name: "vm-b", LID: 11, Hyp: cas[1]}, // correct
		{Name: "vm-c", LID: 11, Hyp: cas[1]}, // duplicate claim on 11
	}
	a, _ := newAuditor(t)
	rep := a.Run(v, ScopeFast)
	if rep.ByKind[string(KindLIDConflict)] != 2 {
		t.Fatalf("want 2 lid conflicts (wrong owner + duplicate), got %+v", rep)
	}
}

// TestSharedPortLIDIsNoConflict: the VMs of a Shared Port hypervisor all use
// its base (PF) LID, so two of them on one host audit clean. Two VMs on one
// VF LID of one host, or on a base LID from different hosts, still conflict.
func TestSharedPortLIDIsNoConflict(t *testing.T) {
	v, _, cas := buildLine(t)
	v.BaseLIDs = make([]ib.LID, v.Topo.NumNodes())
	v.BaseLIDs[cas[0]], v.BaseLIDs[cas[1]] = 10, 11
	v.NodeOfLID[12] = cas[1] // a VF LID of c1
	a, _ := newAuditor(t)
	for _, tc := range []struct {
		name string
		vms  []VMBinding
		want int
	}{
		{"shared-port-pair", []VMBinding{{Name: "vm-a", LID: 11, Hyp: cas[1]}, {Name: "vm-b", LID: 11, Hyp: cas[1]}}, 0},
		{"vswitch-pair", []VMBinding{{Name: "vm-a", LID: 12, Hyp: cas[1]}, {Name: "vm-b", LID: 12, Hyp: cas[1]}}, 1},
		{"two-hosts", []VMBinding{{Name: "vm-a", LID: 11, Hyp: cas[1]}, {Name: "vm-b", LID: 11, Hyp: cas[0]}}, 2},
	} {
		v.VMs = tc.vms
		if rep := a.Run(v, ScopeFast); rep.ByKind[string(KindLIDConflict)] != tc.want {
			t.Errorf("%s: %d lid conflicts, want %d: %+v", tc.name, rep.ByKind[string(KindLIDConflict)], tc.want, rep)
		}
	}
}

func TestViolationCapKeepsExactCounts(t *testing.T) {
	v, sw, _ := buildLine(t)
	for l := ib.LID(100); l < 120; l++ {
		v.LFTs[sw[0]].Set(l, 1) // 20 stale entries
	}
	a := New(telemetry.NewHub(), nil, Config{MaxViolations: 5})
	rep := a.Run(v, ScopeFast)
	if rep.Total != 20 || len(rep.Violations) != 5 || !rep.Truncated {
		t.Fatalf("cap: total=%d kept=%d truncated=%v", rep.Total, len(rep.Violations), rep.Truncated)
	}
	if a.ViolationsTotal() != 20 {
		t.Fatalf("counter must count all violations, got %d", a.ViolationsTotal())
	}
}

// buildSquare wires the four-switch ring used by the transition test:
// s[i] port 1 -> s[i+1] port 2, CA i on port 3 of s[i], CA LIDs 10..13.
func buildSquare(t *testing.T) (*topology.Topology, [4]topology.NodeID, [4]topology.NodeID) {
	t.Helper()
	topo := topology.New("square")
	var sw, ca [4]topology.NodeID
	for i := 0; i < 4; i++ {
		sw[i] = topo.AddSwitch(4, "")
	}
	for i := 0; i < 4; i++ {
		ca[i] = topo.AddCA("")
		if err := topo.Connect(sw[i], 1, sw[(i+1)%4], 2); err != nil {
			t.Fatal(err)
		}
		if err := topo.Connect(ca[i], 1, sw[i], 3); err != nil {
			t.Fatal(err)
		}
	}
	return topo, sw, ca
}

// TestTransientCDGCycle reproduces section VI-C in miniature: Rold routes
// LID 12 clockwise s0->s1->s2 and LID 13 clockwise s1->s2->s3; Rnew routes
// LID 10 clockwise s2->s3->s0 and LID 11 clockwise s3->s0->s1. Each CDG is
// acyclic on its own, but the union closes the ring of clockwise channel
// dependencies and deadlocks.
func TestTransientCDGCycle(t *testing.T) {
	topo, sw, ca := buildSquare(t)
	nodeOf := func(l ib.LID) topology.NodeID {
		if l >= 10 && l <= 13 {
			return ca[l-10]
		}
		return topology.NoNode
	}
	dlids := []ib.LID{10, 11, 12, 13}

	lft := func(sets map[topology.NodeID][][2]int) map[topology.NodeID]*ib.LFT {
		out := map[topology.NodeID]*ib.LFT{}
		for n, entries := range sets {
			l := ib.NewLFT(16)
			for _, e := range entries {
				l.Set(ib.LID(e[0]), ib.PortNum(e[1]))
			}
			out[n] = l
		}
		return out
	}
	old := lft(map[topology.NodeID][][2]int{
		sw[0]: {{12, 1}},
		sw[1]: {{12, 1}, {13, 1}},
		sw[2]: {{12, 3}, {13, 1}},
		sw[3]: {{13, 3}},
	})
	target := lft(map[topology.NodeID][][2]int{
		sw[2]: {{10, 1}},
		sw[3]: {{10, 1}, {11, 1}},
		sw[0]: {{10, 3}, {11, 1}},
		sw[1]: {{11, 3}},
	})

	a, _ := newAuditor(t)
	rep := a.CheckTransition(topo, old, target, nodeOf, dlids)
	if rep.ByKind[string(KindTransientCDG)] != 1 {
		t.Fatalf("want a transient CDG cycle, got %+v", rep)
	}
	if !strings.Contains(rep.Violations[0].Detail, "old cyclic=false, new cyclic=false") {
		t.Fatalf("both constituent CDGs must be acyclic alone: %s", rep.Violations[0].Detail)
	}
	if a.Recorder().Dumps() != 1 {
		t.Fatal("transition violation must dump")
	}

	// Sanity: the same distribution with old == target is cycle free.
	a2, _ := newAuditor(t)
	rep2 := a2.CheckTransition(topo, old, old, nodeOf, []ib.LID{12, 13})
	if rep2.Total != 0 {
		t.Fatalf("self-transition must be clean, got %+v", rep2)
	}
}

func TestRecorderRingWraps(t *testing.T) {
	r := NewRecorder(nil, "", 4)
	for i := 1; i <= 6; i++ {
		r.RecordMutation(Mutation{Op: "op", Status: 200, Gen: uint64(i)})
	}
	got := r.Entries()
	if len(got) != 4 {
		t.Fatalf("ring cap: want 4 entries, got %d", len(got))
	}
	for i, e := range got {
		if want := i + 3; e.Seq != want || e.Gen != uint64(want) {
			t.Fatalf("entry %d: want seq/gen %d, got %+v", i, want, e)
		}
	}
}

func TestRecorderDumpCarriesWindow(t *testing.T) {
	hub := telemetry.NewHub()
	dir := t.TempDir()
	r := NewRecorder(hub.Trace, dir, 0)

	before := hub.Trace.LastSpanID()
	sp := hub.Trace.Start(telemetry.SpanMigration, "vm-1")
	sp.End()
	hub.Trace.Eventf("migrate", "vm-1 moved")
	r.RecordMutation(Mutation{
		Op: "migrate", Name: "vm-1", RequestID: "req-000001", Status: 200, Gen: 3,
		SpanFrom: before + 1, SpanTo: hub.Trace.LastSpanID(),
	})

	d, err := r.Dump(&Report{Gen: 3, Scope: "fast", Total: 1})
	if err != nil {
		t.Fatal(err)
	}
	var mutations, events int
	for _, e := range d.Entries {
		switch e.Kind {
		case "mutation":
			mutations++
			if e.RequestID != "req-000001" {
				t.Fatalf("mutation entry lost request id: %+v", e)
			}
		case "event":
			events++
		}
	}
	if mutations != 1 || events == 0 {
		t.Fatalf("dump window: mutations=%d events=%d", mutations, events)
	}
	if len(d.Spans) == 0 {
		t.Fatal("dump must carry the span window of its mutations")
	}
	found := false
	for _, s := range d.Spans {
		if s.Kind == telemetry.SpanMigration && s.Name == "vm-1" {
			found = true
		}
	}
	if !found {
		t.Fatal("dump spans must include the mutation's migration span")
	}

	files, err := filepath.Glob(filepath.Join(dir, "flight-*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("want one flight dump on disk, got %v (%v)", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(files[0]), "gen3") || !strings.Contains(string(data), "req-000001") {
		t.Fatalf("dump file must be gen-stamped and carry the request id: %s", files[0])
	}
	if r.Dumps() != 1 || r.LastDump() != d {
		t.Fatalf("dump bookkeeping: dumps=%d", r.Dumps())
	}
}

// TestInstalledCDGDeadlock routes every CA LID clockwise around the square,
// closing the ring of channel dependencies: the full-scope pass must report
// the deadlock even though every LID is perfectly reachable. Switch LIDs
// ride along in the active set to pin the VL15 exemption — they are
// excluded from the CDG, so only the CA routes can (and do) form the cycle.
func TestInstalledCDGDeadlock(t *testing.T) {
	topo, sw, ca := buildSquare(t)
	v := &View{
		Topo:      topo,
		LFTs:      map[topology.NodeID]*ib.LFT{},
		NodeOfLID: map[ib.LID]topology.NodeID{},
	}
	for i := 0; i < 4; i++ {
		v.NodeOfLID[ib.LID(1+i)] = sw[i]
		v.NodeOfLID[ib.LID(10+i)] = ca[i]
		v.ActiveLIDs = append(v.ActiveLIDs, ib.LID(1+i), ib.LID(10+i))
	}
	for i := 0; i < 4; i++ {
		l := ib.NewLFT(16)
		for j := 0; j < 4; j++ {
			if j == i {
				l.Set(ib.LID(10+j), 3) // local CA
				continue
			}
			l.Set(ib.LID(1+j), 1)  // other switches: clockwise
			l.Set(ib.LID(10+j), 1) // other CAs: clockwise
		}
		v.LFTs[sw[i]] = l
	}

	a, _ := newAuditor(t)
	if rep := a.Run(v, ScopeFast); rep.Total != 0 {
		t.Fatalf("fast scope must skip the CDG: %+v", rep.Violations)
	}
	rep := a.Run(v, ScopeFull)
	if rep.ByKind[string(KindDeadlock)] != 1 || rep.Total != 1 {
		t.Fatalf("want exactly 1 deadlock violation, got %+v", rep)
	}
	if !strings.Contains(rep.Violations[0].Detail, "cycle") {
		t.Fatalf("deadlock detail should describe the cycle: %s", rep.Violations[0].Detail)
	}
}
