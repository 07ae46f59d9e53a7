package sm

import (
	"strings"
	"testing"

	"ibvsim/internal/ib"
	"ibvsim/internal/routing"
	"ibvsim/internal/smp"
	"ibvsim/internal/topology"
)

func smallFT(t *testing.T) *topology.Topology {
	t.Helper()
	topo, err := topology.BuildXGFT(topology.XGFTSpec{M: []int{4, 4}, W: []int{1, 4}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func newSM(t *testing.T, topo *topology.Topology, engine routing.Engine) *SubnetManager {
	t.Helper()
	s, err := New(topo, topo.CAs()[0], engine)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewRejectsBadHost(t *testing.T) {
	topo := smallFT(t)
	if _, err := New(topo, topo.Switches()[0], routing.NewMinHop()); err == nil {
		t.Error("SM on a switch should be rejected")
	}
	if _, err := New(topo, topology.NodeID(9999), routing.NewMinHop()); err == nil {
		t.Error("SM on missing node should be rejected")
	}
}

func TestSweepFindsEverything(t *testing.T) {
	topo := smallFT(t)
	s := newSM(t, topo, routing.NewMinHop())
	st, err := s.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if st.Nodes != topo.NumNodes() || st.Switches != topo.NumSwitches() || st.CAs != topo.NumCAs() {
		t.Errorf("sweep stats %+v", st)
	}
	if st.SMPs == 0 {
		t.Error("sweep sent no SMPs")
	}
	if s.Log().Len() == 0 {
		t.Error("sweep should log")
	}
}

func TestSweepFailsOnDisconnected(t *testing.T) {
	topo := smallFT(t)
	// Cut one CA off.
	ca := topo.CAs()[5]
	if err := topo.SetLinkState(ca, 1, false); err != nil {
		t.Fatal(err)
	}
	s := newSM(t, topo, routing.NewMinHop())
	if _, err := s.Sweep(); err == nil {
		t.Error("sweep of disconnected fabric should fail")
	}
}

func TestAssignLIDsOrderAndCounts(t *testing.T) {
	topo := smallFT(t)
	s := newSM(t, topo, routing.NewMinHop())
	if err := s.AssignLIDs(); err == nil {
		t.Fatal("AssignLIDs before Sweep should fail")
	}
	if _, err := s.Sweep(); err != nil {
		t.Fatal(err)
	}
	if err := s.AssignLIDs(); err != nil {
		t.Fatal(err)
	}
	wantLIDs := topo.NumNodes()
	if s.LIDCount() != wantLIDs {
		t.Errorf("LIDCount = %d, want %d", s.LIDCount(), wantLIDs)
	}
	if s.TopLID() != ib.LID(wantLIDs) {
		t.Errorf("TopLID = %d, want %d (dense assignment)", s.TopLID(), wantLIDs)
	}
	// CAs get the low LIDs.
	for i, ca := range topo.CAs() {
		if got := s.LIDOf(ca); got != ib.LID(i+1) {
			t.Errorf("CA %d LID = %d, want %d", i, got, i+1)
		}
	}
	// Round trip.
	for _, sw := range topo.Switches() {
		if s.NodeOfLID(s.LIDOf(sw)) != sw {
			t.Errorf("NodeOfLID round-trip failed for switch %d", sw)
		}
	}
	if s.NodeOfLID(40000) != topology.NoNode {
		t.Error("unknown LID should map to NoNode")
	}
}

func TestBootstrapAndSMPAccounting(t *testing.T) {
	topo := smallFT(t)
	s := newSM(t, topo, routing.NewMinHop())
	_, _, ds, err := s.Bootstrap()
	if err != nil {
		t.Fatal(err)
	}
	// 16 CAs + 8 switches = 24 LIDs -> every switch's top block is 0, so
	// the initial distribution is exactly 1 SMP per switch.
	if ds.SMPs != topo.NumSwitches() {
		t.Errorf("initial distribution sent %d SMPs, want %d", ds.SMPs, topo.NumSwitches())
	}
	if ds.SwitchesUpdated != topo.NumSwitches() {
		t.Errorf("updated %d switches", ds.SwitchesUpdated)
	}
	if ds.ModelledTime <= 0 {
		t.Error("modelled time should be positive")
	}
	// Programmed state must now deliver LID-routed SMPs to any switch.
	for _, sw := range topo.Switches() {
		p := &smp.SMP{Attr: smp.AttrSwitchInfo, DLID: s.LIDOf(sw)}
		got, err := s.Transport.SendLIDRouted(s.SMNode, p, s.Programmed())
		if err != nil {
			t.Fatalf("LID-routed to switch %d: %v", sw, err)
		}
		if got != sw {
			t.Errorf("delivered to %d, want %d", got, sw)
		}
	}
}

func TestDistributeBeforeRouteFails(t *testing.T) {
	topo := smallFT(t)
	s := newSM(t, topo, routing.NewMinHop())
	if _, err := s.DistributeDiff(); err == nil {
		t.Error("distribute before routing should fail")
	}
	if _, err := s.ComputeRoutes(); err == nil {
		t.Error("ComputeRoutes before Sweep should fail")
	}
}

func TestDistributeDiffIsIncremental(t *testing.T) {
	topo := smallFT(t)
	s := newSM(t, topo, routing.NewMinHop())
	if _, _, _, err := s.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	// Recompute identical routes: diff distribution sends nothing.
	if _, err := s.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	ds, err := s.DistributeDiff()
	if err != nil {
		t.Fatal(err)
	}
	if ds.SMPs != 0 || ds.SwitchesUpdated != 0 {
		t.Errorf("identical redistribution sent %d SMPs to %d switches", ds.SMPs, ds.SwitchesUpdated)
	}
	// Full distribution always re-sends every populated block.
	fs, err := s.DistributeFull()
	if err != nil {
		t.Fatal(err)
	}
	if fs.SMPs != topo.NumSwitches() {
		t.Errorf("full redistribution sent %d SMPs, want %d", fs.SMPs, topo.NumSwitches())
	}
}

func TestExtraLIDLifecycle(t *testing.T) {
	topo := smallFT(t)
	s := newSM(t, topo, routing.NewMinHop())
	if _, _, _, err := s.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	hyp := topo.CAs()[3]
	lid, err := s.AllocExtraLID(hyp)
	if err != nil {
		t.Fatal(err)
	}
	if s.NodeOfLID(lid) != hyp {
		t.Error("extra LID not bound")
	}
	if got := s.ExtraLIDsOf(hyp); len(got) != 1 || got[0] != lid {
		t.Errorf("ExtraLIDsOf = %v", got)
	}
	// Reserve a specific one.
	if err := s.ReserveExtraLID(100, hyp); err != nil {
		t.Fatal(err)
	}
	if err := s.ReserveExtraLID(100, hyp); err == nil {
		t.Error("double reserve should fail")
	}
	if got := s.ExtraLIDsOf(hyp); len(got) != 2 || got[1] != 100 {
		t.Errorf("ExtraLIDsOf after reserve = %v", got)
	}
	// Rebind to another hypervisor (migration).
	dst := topo.CAs()[7]
	if err := s.RebindExtraLID(lid, dst); err != nil {
		t.Fatal(err)
	}
	if s.NodeOfLID(lid) != dst {
		t.Error("rebind did not move the LID")
	}
	if err := s.RebindExtraLID(999, dst); err == nil {
		t.Error("rebinding unknown LID should fail")
	}
	if err := s.RebindExtraLID(lid, topology.NodeID(9999)); err == nil {
		t.Error("rebinding to missing node should fail")
	}
	s.ReleaseExtraLID(lid)
	if s.NodeOfLID(lid) != topology.NoNode {
		t.Error("released LID should be unbound")
	}
	s.ReleaseExtraLID(lid) // no-op
	if _, err := s.AllocExtraLID(topology.NodeID(9999)); err == nil {
		t.Error("alloc on missing node should fail")
	}
	if err := s.ReserveExtraLID(200, topology.NodeID(9999)); err == nil {
		t.Error("reserve on missing node should fail")
	}
}

func TestTargetsIncludeExtras(t *testing.T) {
	topo := smallFT(t)
	s := newSM(t, topo, routing.NewMinHop())
	if _, _, _, err := s.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	hyp := topo.CAs()[0]
	lid, _ := s.AllocExtraLID(hyp)
	found := false
	for _, tg := range s.Targets() {
		if tg.LID == lid && tg.Node == hyp {
			found = true
		}
	}
	if !found {
		t.Error("Targets() missing extra LID")
	}
	// Targets are sorted by LID.
	ts := s.Targets()
	for i := 1; i < len(ts); i++ {
		if ts[i-1].LID >= ts[i].LID {
			t.Fatal("Targets not sorted")
		}
	}
}

func TestSetLFTEntriesSMPCounts(t *testing.T) {
	topo := smallFT(t)
	s := newSM(t, topo, routing.NewMinHop())
	if _, _, _, err := s.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	sw := topo.Switches()[0]
	lft := s.ProgrammedLFT(sw)
	l1, l2 := ib.LID(1), ib.LID(2)
	p1, p2 := lft.Get(l1), lft.Get(l2)
	// Swapping two same-block LIDs costs exactly 1 SMP.
	blocks, err := s.SetLFTEntriesProv(sw, []ib.LFTEntry{{LID: l1, Port: p2}, {LID: l2, Port: p1}}, smp.DestinationRouted, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 && blocks != 1 {
		t.Errorf("same-block swap cost %d SMPs, want 1", blocks)
	}
	if s.ProgrammedLFT(sw).Get(l1) != p2 || s.ProgrammedLFT(sw).Get(l2) != p1 {
		t.Error("entries not swapped")
	}
	// Target view stays coherent.
	if s.TargetLFT(sw).Get(l1) != p2 {
		t.Error("target LFT not updated")
	}
	// Writing an entry in a far block costs another SMP (block 2).
	blocks, err = s.SetLFTEntriesProv(sw, []ib.LFTEntry{{LID: 150, Port: 3}}, smp.DirectedRoute, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if blocks != 1 {
		t.Errorf("far-block write cost %d SMPs", blocks)
	}
	// No-op write costs nothing.
	blocks, err = s.SetLFTEntriesProv(sw, []ib.LFTEntry{{LID: 150, Port: 3}}, smp.DirectedRoute, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if blocks != 0 {
		t.Errorf("idempotent write cost %d SMPs", blocks)
	}
}

func TestSetVGUID(t *testing.T) {
	topo := smallFT(t)
	s := newSM(t, topo, routing.NewMinHop())
	if _, _, _, err := s.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	before := s.Transport.Counters.ByAttr[smp.AttrGUIDInfo]
	if err := s.SetVGUID(topo.CAs()[4], ib.GUID(0xabc)); err != nil {
		t.Fatal(err)
	}
	if got := s.Transport.Counters.ByAttr[smp.AttrGUIDInfo]; got != before+1 {
		t.Errorf("GUIDInfo SMPs = %d, want %d", got, before+1)
	}
	if err := s.SetVGUID(topo.Switches()[0], ib.GUID(1)); err == nil {
		t.Error("vGUID on a switch should fail")
	}
}

func TestFullReconfigure(t *testing.T) {
	topo := smallFT(t)
	s := newSM(t, topo, routing.NewMinHop())
	if _, _, _, err := s.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	rs, ds, err := s.FullReconfigure()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Duration <= 0 {
		t.Error("full reconfigure should measure PCt")
	}
	if ds.SMPs != topo.NumSwitches() {
		t.Errorf("full RC sent %d SMPs, want %d (1 block x %d switches)",
			ds.SMPs, topo.NumSwitches(), topo.NumSwitches())
	}
}

func TestEventLog(t *testing.T) {
	l := NewEventLog(3)
	for i := 0; i < 5; i++ {
		l.Addf(EvNote, "n%d", i)
	}
	if l.Len() != 3 {
		t.Errorf("Len = %d, want 3 (bounded)", l.Len())
	}
	if l.Events()[0].Msg != "n2" {
		t.Errorf("oldest retained = %q", l.Events()[0].Msg)
	}
	l.Addf(EvMigration, "m")
	if got := l.Filter(EvMigration); len(got) != 1 || got[0].Msg != "m" {
		t.Errorf("Filter = %v", got)
	}
	if NewEventLog(0).cap != 1 {
		t.Error("zero capacity should clamp to 1")
	}
	for _, k := range []EventKind{EvSweep, EvLIDs, EvRoute, EvDistribute, EvGUID, EvMigration, EvVM, EvNote} {
		if strings.HasPrefix(k.String(), "event(") {
			t.Errorf("missing name for kind %d", k)
		}
	}
	if EventKind(99).String() != "event(99)" {
		t.Error("unknown kind stringer")
	}
}

func TestTableISMPArithmetic(t *testing.T) {
	// Table I, first two rows, computed end to end on real fabrics: LIDs
	// consumed, min LFT blocks per switch, min SMPs for a full RC.
	if testing.Short() {
		t.Skip("builds the 324/648-node fabrics")
	}
	cases := []struct {
		nodes, switches, lids, blocks, fullRC int
	}{
		{324, 36, 360, 6, 216},
		{648, 54, 702, 11, 594},
	}
	for _, c := range cases {
		topo, err := topology.BuildPaperFatTree(c.nodes)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(topo, topo.CAs()[0], routing.NewMinHop())
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := s.Bootstrap(); err != nil {
			t.Fatal(err)
		}
		if got := s.LIDCount(); got != c.lids {
			t.Errorf("%d nodes: LIDs = %d, want %d", c.nodes, got, c.lids)
		}
		blocks := s.ProgrammedLFT(topo.Switches()[0]).TopPopulatedBlock() + 1
		if blocks != c.blocks {
			t.Errorf("%d nodes: blocks/switch = %d, want %d", c.nodes, blocks, c.blocks)
		}
		ds, err := s.DistributeFull()
		if err != nil {
			t.Fatal(err)
		}
		if ds.SMPs != c.fullRC {
			t.Errorf("%d nodes: full RC SMPs = %d, want %d", c.nodes, ds.SMPs, c.fullRC)
		}
	}
}
