package sm

import (
	"testing"

	"ibvsim/internal/routing"
	"ibvsim/internal/smp"
)

func TestNegotiateByPriorityAndGUID(t *testing.T) {
	topo := smallFT(t)
	a := newSM(t, topo, routing.NewMinHop())
	if _, _, _, err := a.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	b, err := New(topo, topo.CAs()[1], routing.NewMinHop())
	if err != nil {
		t.Fatal(err)
	}
	// The standby candidate shares the master's view of LIDs (it can run
	// its own sweep over the same fabric).
	if _, err := b.Sweep(); err != nil {
		t.Fatal(err)
	}
	b.lidOf = a.lidOf
	b.addr.Store(a.addr.Load())
	b.programmed = a.programmed

	// Higher priority wins.
	m, err := Negotiate(a, b, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if m != b || b.State() != SMMaster || a.State() != SMStandby {
		t.Error("priority 10 should win")
	}
	// Equal priority: lower GUID (CA 0 was added first) wins.
	m, err = Negotiate(a, b, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m != a {
		t.Error("GUID tie-break should favour the first CA")
	}
	if SMDiscovering.String() != "discovering" || SMMaster.String() != "master" || SMStandby.String() != "standby" {
		t.Error("SMState stringers")
	}
}

func TestNegotiateDifferentFabrics(t *testing.T) {
	t1, t2 := smallFT(t), smallFT(t)
	a := newSM(t, t1, routing.NewMinHop())
	b := newSM(t, t2, routing.NewMinHop())
	if _, err := Negotiate(a, b, 1, 2); err == nil {
		t.Error("cross-fabric negotiation should fail")
	}
}

func TestFailoverAdoptsStateWithZeroReconciliation(t *testing.T) {
	topo := smallFT(t)
	master := newSM(t, topo, routing.NewMinHop())
	if _, _, _, err := master.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	// Some live VM state: two extra LIDs.
	hyp := topo.CAs()[3]
	vmLID, err := master.AllocExtraLID(hyp)
	if err != nil {
		t.Fatal(err)
	}
	// The master routes the new LID before failing.
	if _, err := master.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	if _, err := master.DistributeDiff(); err != nil {
		t.Fatal(err)
	}

	standby, err := New(topo, topo.CAs()[1], routing.NewMinHop())
	if err != nil {
		t.Fatal(err)
	}
	st, err := standby.AdoptFabricState(master)
	if err != nil {
		t.Fatal(err)
	}
	if st.PortInfoReads != topo.NumNodes() {
		t.Errorf("PortInfo reads = %d, want %d", st.PortInfoReads, topo.NumNodes())
	}
	if st.LFTBlockReads != topo.NumSwitches() { // 1 block per switch here
		t.Errorf("LFT reads = %d, want %d", st.LFTBlockReads, topo.NumSwitches())
	}
	// The headline: deterministic engine -> takeover reprograms nothing.
	if st.DistributionSMPs != 0 {
		t.Errorf("reconciliation sent %d SMPs, want 0", st.DistributionSMPs)
	}
	if standby.State() != SMMaster {
		t.Error("adopter should be master")
	}
	// Adopted LIDs stayed put.
	for _, ca := range topo.CAs() {
		if standby.LIDOf(ca) != master.LIDOf(ca) {
			t.Errorf("CA %d LID changed across failover", ca)
		}
	}
	if standby.NodeOfLID(vmLID) != hyp {
		t.Error("extra LID lost across failover")
	}
	// The new master can deliver LID-routed SMPs immediately.
	p := &smp.SMP{DLID: vmLID}
	if got, err := standby.Transport.SendLIDRouted(standby.SMNode, p, standby.Programmed()); err != nil || got != hyp {
		t.Errorf("post-failover delivery: %d, %v", got, err)
	}
}

func TestAdoptFabricStateCrossFabric(t *testing.T) {
	t1, t2 := smallFT(t), smallFT(t)
	a := newSM(t, t1, routing.NewMinHop())
	if _, _, _, err := a.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	b := newSM(t, t2, routing.NewMinHop())
	if _, err := b.AdoptFabricState(a); err == nil {
		t.Error("cross-fabric adoption should fail")
	}
}
