package sm

import (
	"testing"

	"ibvsim/internal/ib"
	"ibvsim/internal/routing"
	"ibvsim/internal/smp"
	"ibvsim/internal/topology"
)

func TestLMCAssignsAlignedRanges(t *testing.T) {
	topo := smallFT(t)
	s := newSM(t, topo, routing.NewMinHop())
	s.LMC = 2
	if _, err := s.Sweep(); err != nil {
		t.Fatal(err)
	}
	if err := s.AssignLIDs(); err != nil {
		t.Fatal(err)
	}
	for _, ca := range topo.CAs() {
		base := s.LIDOf(ca)
		if base%4 != 0 {
			t.Errorf("CA base LID %d not 4-aligned", base)
		}
		for off := ib.LID(0); off < 4; off++ {
			if s.NodeOfLID(base+off) != ca {
				t.Errorf("LID %d not bound to its CA", base+off)
			}
		}
	}
	// Switches keep a single LID.
	swLID := s.LIDOf(topo.Switches()[0])
	if s.NodeOfLID(swLID+1) == topo.Switches()[0] {
		t.Error("switch must not own an LMC range")
	}
	// 16 CAs x 4 + 8 switches.
	if s.LIDCount() != 16*4+8 {
		t.Errorf("LIDCount = %d, want 72", s.LIDCount())
	}
}

func TestLMCPathDiversity(t *testing.T) {
	// The multipathing LMC provides: different LIDs of the same CA leave a
	// remote leaf through different up ports under ftree routing.
	topo := smallFT(t)
	s := newSM(t, topo, routing.NewFatTree())
	s.LMC = 2
	if _, _, _, err := s.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	ca := topo.CAs()[0]
	base := s.LIDOf(ca)
	otherLeaf := topo.LeafSwitchOf(topo.CAs()[15])
	if otherLeaf == topo.LeafSwitchOf(ca) {
		t.Fatal("test premise: CAs 0 and 15 must be on different leaves")
	}
	ports := map[ib.PortNum]bool{}
	for off := ib.LID(0); off < 4; off++ {
		ports[s.ProgrammedLFT(otherLeaf).Get(base+off)] = true
	}
	if len(ports) != 4 {
		t.Errorf("LMC LIDs share up ports: %v (want 4 distinct)", ports)
	}
	// Every LMC LID delivers.
	for off := ib.LID(0); off < 4; off++ {
		p := &smp.SMP{DLID: base + off}
		got, err := s.Transport.SendLIDRouted(topo.CAs()[15], p, s.Programmed())
		if err != nil {
			t.Fatal(err)
		}
		if got != ca {
			t.Errorf("LID %d delivered to %d, want %d", base+off, got, ca)
		}
	}
}

func TestLMCTooLarge(t *testing.T) {
	topo := smallFT(t)
	s := newSM(t, topo, routing.NewMinHop())
	s.LMC = 8
	if _, err := s.Sweep(); err != nil {
		t.Fatal(err)
	}
	if err := s.AssignLIDs(); err == nil {
		t.Error("LMC 8 should be rejected (3-bit field)")
	}
}

func TestResweepRoutesAroundTrunkFailure(t *testing.T) {
	// Kill one leaf-spine link on a fat-tree; a resweep plus full
	// reconfiguration must restore all-pairs delivery over the remaining
	// redundancy.
	topo := smallFT(t)
	s := newSM(t, topo, routing.NewMinHop())
	if _, _, _, err := s.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	leaf := topo.LeafSwitchOf(topo.CAs()[0])
	// Find an up port (peer is a switch) and kill it.
	var upPort ib.PortNum
	for i := 1; i < len(topo.Node(leaf).Ports); i++ {
		p := topo.Node(leaf).Ports[i]
		if p.Peer != topology.NoNode && topo.Node(p.Peer).IsSwitch() {
			upPort = ib.PortNum(i)
			break
		}
	}
	if err := topo.SetLinkState(leaf, upPort, false); err != nil {
		t.Fatal(err)
	}

	st, err := s.Resweep()
	if err != nil {
		t.Fatal(err)
	}
	if st.Nodes != topo.NumNodes() {
		t.Fatalf("trunk failure must not partition the fat-tree: %d nodes", st.Nodes)
	}
	if _, _, err := s.FullReconfigure(); err != nil {
		t.Fatal(err)
	}
	for _, ca := range topo.CAs() {
		p := &smp.SMP{DLID: s.LIDOf(ca)}
		got, err := s.Transport.SendLIDRouted(s.SMNode, p, s.Programmed())
		if err != nil {
			t.Fatalf("CA %d unreachable after reroute: %v", ca, err)
		}
		if got != ca {
			t.Fatalf("LID %d delivered to %d", s.LIDOf(ca), got)
		}
	}
}

func TestResweepDropsUnreachableCA(t *testing.T) {
	topo := smallFT(t)
	s := newSM(t, topo, routing.NewMinHop())
	if _, _, _, err := s.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	victim := topo.CAs()[5]
	victimLID := s.LIDOf(victim)
	if err := topo.SetLinkState(victim, 1, false); err != nil {
		t.Fatal(err)
	}
	st, err := s.Resweep()
	if err != nil {
		t.Fatal(err)
	}
	if st.Nodes != topo.NumNodes()-1 {
		t.Fatalf("resweep saw %d nodes, want %d", st.Nodes, topo.NumNodes()-1)
	}
	if s.Reachable(victim) {
		t.Error("victim should be unreachable")
	}
	// The victim keeps its LID but drops out of the routing targets.
	if s.LIDOf(victim) != victimLID {
		t.Error("victim lost its LID")
	}
	for _, tg := range s.Targets() {
		if tg.Node == victim {
			t.Error("unreachable CA still a routing target")
		}
	}
	if _, _, err := s.FullReconfigure(); err != nil {
		t.Fatal(err)
	}
	// Everyone else still works.
	for _, ca := range topo.CAs() {
		if ca == victim {
			continue
		}
		p := &smp.SMP{DLID: s.LIDOf(ca)}
		if got, err := s.Transport.SendLIDRouted(s.SMNode, p, s.Programmed()); err != nil || got != ca {
			t.Fatalf("CA %d broken after victim removal: %v", ca, err)
		}
	}
	// Bring the CA back: resweep + reconfigure restores it with the SAME LID.
	if err := topo.SetLinkState(victim, 1, true); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resweep(); err != nil {
		t.Fatal(err)
	}
	if !s.Reachable(victim) {
		t.Fatal("victim should be reachable again")
	}
	if _, _, err := s.FullReconfigure(); err != nil {
		t.Fatal(err)
	}
	p := &smp.SMP{DLID: victimLID}
	if got, err := s.Transport.SendLIDRouted(s.SMNode, p, s.Programmed()); err != nil || got != victim {
		t.Fatalf("victim not restored: got %d, %v", got, err)
	}
}

func TestResweepSwitchFailureOnRing(t *testing.T) {
	// A ring loses a switch: its CA becomes unreachable, the rest reroute
	// the long way around.
	topo, err := topology.BuildRing(5, 1)
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
	// Kill both ring links of a switch far from the SM.
	victim := topo.Switches()[2]
	if err := topo.SetLinkState(victim, 1, false); err != nil {
		t.Fatal(err)
	}
	if err := topo.SetLinkState(victim, 2, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resweep(); err != nil {
		t.Fatal(err)
	}
	if s.Reachable(victim) {
		t.Error("victim switch should be unreachable")
	}
	if _, _, err := s.FullReconfigure(); err != nil {
		t.Fatal(err)
	}
	for _, ca := range topo.CAs() {
		if !s.Reachable(ca) {
			continue
		}
		p := &smp.SMP{DLID: s.LIDOf(ca)}
		if got, err := s.Transport.SendLIDRouted(s.SMNode, p, s.Programmed()); err != nil || got != ca {
			t.Fatalf("CA %d broken after switch failure: %v", ca, err)
		}
	}
}
