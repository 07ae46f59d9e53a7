package core

import (
	"strings"
	"testing"

	"ibvsim/internal/ib"
	"ibvsim/internal/routing"
	"ibvsim/internal/sm"
	"ibvsim/internal/smp"
	"ibvsim/internal/topology"
)

// fig5Fabric builds a Fig. 3/5-style fabric: two leaf switches under two
// spines, three hypervisors with 3 VFs each, prepopulated VF LIDs.
// hyp1 and hyp2 share leaf 0; hyp3 hangs off leaf 1.
//
// Returned VF LIDs: vf[hyp][k] for hyp 0..2, k 0..2.
func fig5Fabric(t *testing.T, vfBase ib.LID) (*sm.SubnetManager, *Reconfigurator, []topology.NodeID, [][]ib.LID) {
	t.Helper()
	topo := topology.New("fig5")
	leaf0 := topo.AddSwitch(6, "leaf0")
	leaf1 := topo.AddSwitch(6, "leaf1")
	spine0 := topo.AddSwitch(4, "spine0")
	spine1 := topo.AddSwitch(4, "spine1")
	for _, l := range []topology.NodeID{leaf0, leaf1} {
		topo.Node(l).Level = 1
	}
	for _, s := range []topology.NodeID{spine0, spine1} {
		topo.Node(s).Level = 2
	}
	for _, l := range []topology.NodeID{leaf0, leaf1} {
		if _, _, err := topo.Link(l, spine0); err != nil {
			t.Fatal(err)
		}
		if _, _, err := topo.Link(l, spine1); err != nil {
			t.Fatal(err)
		}
	}
	hyps := []topology.NodeID{
		topo.AddCA("hyp1"), topo.AddCA("hyp2"), topo.AddCA("hyp3"),
	}
	leaves := []topology.NodeID{leaf0, leaf0, leaf1}
	for i, h := range hyps {
		topo.Node(h).Level = 0
		if _, _, err := topo.Link(h, leaves[i]); err != nil {
			t.Fatal(err)
		}
	}
	mgr, err := sm.New(topo, hyps[0], routing.NewMinHop())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Sweep(); err != nil {
		t.Fatal(err)
	}
	if err := mgr.AssignLIDs(); err != nil {
		t.Fatal(err)
	}
	// Prepopulate three VF LIDs per hypervisor starting at vfBase.
	vfs := make([][]ib.LID, len(hyps))
	next := vfBase
	for i, h := range hyps {
		for k := 0; k < 3; k++ {
			if err := mgr.ReserveExtraLID(next, h); err != nil {
				t.Fatal(err)
			}
			vfs[i] = append(vfs[i], next)
			next++
		}
	}
	if _, err := mgr.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.DistributeDiff(); err != nil {
		t.Fatal(err)
	}
	return mgr, NewReconfigurator(mgr), hyps, vfs
}

// deliver checks a LID-routed packet from src lands on want.
func deliver(t *testing.T, mgr *sm.SubnetManager, src topology.NodeID, dlid ib.LID, want topology.NodeID) {
	t.Helper()
	p := &smp.SMP{Attr: smp.AttrPortInfo, DLID: dlid}
	got, err := mgr.Transport.SendLIDRouted(src, p, mgr.Programmed())
	if err != nil {
		t.Fatalf("deliver LID %d from %d: %v", dlid, src, err)
	}
	if got != want {
		t.Fatalf("LID %d delivered to %d, want %d", dlid, got, want)
	}
}

func TestPlanSwapFig5SameBlock(t *testing.T) {
	mgr, rc, hyps, vfs := fig5Fabric(t, 20)
	// VM on hyp1's VF0 migrates to hyp3's VF2 — both LIDs in block 0.
	vmLID, destVF := vfs[0][0], vfs[2][2]
	deliver(t, mgr, hyps[2], vmLID, hyps[0])

	plan, err := rc.PlanSwap(vmLID, destVF)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Kind != PlanSwap || plan.Kind.String() != "swap" {
		t.Error("plan kind")
	}
	// Same LFT block: at most one SMP per touched switch.
	if plan.SMPs != plan.SwitchesTouched {
		t.Errorf("same-block swap: %d SMPs for %d switches (want equal)",
			plan.SMPs, plan.SwitchesTouched)
	}
	if plan.SwitchesTouched == 0 {
		t.Fatal("cross-leaf migration must touch switches")
	}
	st, err := rc.Apply(plan)
	if err != nil {
		t.Fatal(err)
	}
	if st.SMPs != plan.SMPs || st.SwitchesUpdated != plan.SwitchesTouched {
		t.Errorf("apply stats %+v disagree with plan (%d switches, %d SMPs)",
			st, plan.SwitchesTouched, plan.SMPs)
	}
	if st.ModelledTime <= 0 {
		t.Error("modelled time")
	}
	// The VM's LID now delivers to hyp3; the VF LID travels back to hyp1.
	deliver(t, mgr, hyps[1], vmLID, hyps[2])
	deliver(t, mgr, hyps[1], destVF, hyps[0])
	if mgr.NodeOfLID(vmLID) != hyps[2] || mgr.NodeOfLID(destVF) != hyps[0] {
		t.Error("SM address map not rebound")
	}
}

func TestPlanSwapCrossBlockCostsTwoSMPs(t *testing.T) {
	// V-C1: "If the LID ... was 64 or greater, then two SMPs would need to
	// be sent as two LFT blocks would have to be updated."
	mgr, rc, hyps, vfs := fig5Fabric(t, 60)
	_ = mgr
	// vfs[0][0] = 60 (block 0), vfs[2][2] = 68 (block 1).
	vmLID, destVF := vfs[0][0], vfs[2][2]
	if ib.BlockOf(vmLID) == ib.BlockOf(destVF) {
		t.Fatal("test premise: LIDs must live in different blocks")
	}
	plan, err := rc.PlanSwap(vmLID, destVF)
	if err != nil {
		t.Fatal(err)
	}
	// Every switch where both entries change needs two SMPs.
	for sw, changes := range updatesOf(plan) {
		if len(changes) == 2 {
			blocks := map[int]bool{}
			for l := range changes {
				blocks[ib.BlockOf(l)] = true
			}
			if len(blocks) != 2 {
				t.Errorf("switch %d: expected 2 blocks, got %d", sw, len(blocks))
			}
		}
	}
	if plan.SMPs <= plan.SwitchesTouched {
		t.Errorf("cross-block swap should need > 1 SMP on some switch (%d SMPs, %d switches)",
			plan.SMPs, plan.SwitchesTouched)
	}
	if _, err := rc.Apply(plan); err != nil {
		t.Fatal(err)
	}
	deliver(t, mgr, hyps[1], vmLID, hyps[2])
}

func TestSwapSharedEgressSkipsSwitches(t *testing.T) {
	// Section VI-B: a switch that already forwards both LIDs through the
	// same port needs no update (n' < n). Migrating between two
	// hypervisors on the SAME leaf: every spine reaches both via the same
	// down port, so only the leaf (plus possibly none) updates.
	mgr, rc, hyps, vfs := fig5Fabric(t, 20)
	_ = hyps
	vmLID, destVF := vfs[0][0], vfs[1][1] // hyp1 -> hyp2, both on leaf0
	plan, err := rc.PlanSwap(vmLID, destVF)
	if err != nil {
		t.Fatal(err)
	}
	if plan.SwitchesTouched != 1 {
		t.Errorf("intra-leaf swap touched %d switches, want 1 (only the shared leaf)",
			plan.SwitchesTouched)
	}
	if plan.SMPs != 1 {
		t.Errorf("intra-leaf swap cost %d SMPs, want 1 (best case of Table I)", plan.SMPs)
	}
	if _, err := rc.Apply(plan); err != nil {
		t.Fatal(err)
	}
	deliver(t, mgr, hyps[2], vmLID, hyps[1])
	deliver(t, mgr, hyps[2], destVF, hyps[0])
}

func TestPlanCopyDynamic(t *testing.T) {
	mgr, rc, hyps, _ := fig5Fabric(t, 20)
	// Dynamic model: boot a VM LID on hyp1, then migrate it to hyp3 by
	// copying hyp3's PF routes.
	boot, err := rc.BootVMLID(hyps[0])
	if err != nil {
		t.Fatal(err)
	}
	vmLID := boot.LID
	deliver(t, mgr, hyps[2], vmLID, hyps[0])

	plan, err := rc.PlanCopy(vmLID, mgr.LIDOf(hyps[2]))
	if err != nil {
		t.Fatal(err)
	}
	// Copy touches at most one LID per switch: SMPs == switches touched.
	if plan.SMPs != plan.SwitchesTouched {
		t.Errorf("copy: %d SMPs for %d switches", plan.SMPs, plan.SwitchesTouched)
	}
	for _, changes := range updatesOf(plan) {
		if len(changes) != 1 {
			t.Errorf("copy plan must edit exactly one LID per switch, got %v", changes)
		}
	}
	if _, err := rc.Apply(plan); err != nil {
		t.Fatal(err)
	}
	deliver(t, mgr, hyps[1], vmLID, hyps[2])
	// The VM LID now follows the same egress as hyp3's PF on every switch.
	pf := mgr.LIDOf(hyps[2])
	for _, sw := range mgr.Topo.Switches() {
		lft := mgr.ProgrammedLFT(sw)
		if lft.Get(vmLID) != lft.Get(pf) {
			t.Errorf("switch %d: VM LID egress %d != PF egress %d",
				sw, lft.Get(vmLID), lft.Get(pf))
		}
	}
}

func TestBootAndDestroyVMLID(t *testing.T) {
	mgr, rc, hyps, _ := fig5Fabric(t, 20)
	routesBefore := mgr.Transport.Counters.ByAttr[smp.AttrLinearFwdTbl]
	boot, err := rc.BootVMLID(hyps[1])
	if err != nil {
		t.Fatal(err)
	}
	if boot.SMPs > mgr.Topo.NumSwitches() {
		t.Errorf("VM boot cost %d SMPs, must be <= %d (one per switch)",
			boot.SMPs, mgr.Topo.NumSwitches())
	}
	if got := mgr.Transport.Counters.ByAttr[smp.AttrLinearFwdTbl] - routesBefore; got != boot.SMPs {
		t.Errorf("wire SMPs %d != reported %d", got, boot.SMPs)
	}
	deliver(t, mgr, hyps[2], boot.LID, hyps[1])

	// Destroy: LID dropped everywhere and reusable.
	if _, err := rc.DestroyVMLID(boot.LID); err != nil {
		t.Fatal(err)
	}
	if mgr.NodeOfLID(boot.LID) != topology.NoNode {
		t.Error("destroyed LID still bound")
	}
	p := &smp.SMP{DLID: boot.LID}
	if _, err := mgr.Transport.SendLIDRouted(hyps[2], p, mgr.Programmed()); err == nil {
		t.Error("destroyed LID should not be routable")
	}
	boot2, err := rc.BootVMLID(hyps[0])
	if err != nil {
		t.Fatal(err)
	}
	if boot2.LID != boot.LID {
		t.Errorf("freed LID %d not reused (got %d)", boot.LID, boot2.LID)
	}
	if _, err := rc.DestroyVMLID(9999); err == nil {
		t.Error("destroying unknown LID should fail")
	}
	if _, err := rc.BootVMLID(topology.NodeID(999)); err == nil {
		t.Error("boot on missing hypervisor should fail")
	}
}

func TestScopeMinimalIntraLeaf(t *testing.T) {
	// Section VI-D / Fig. 6: intra-leaf migration updates exactly one
	// switch under the minimal scope.
	mgr, rc, hyps, _ := fig5Fabric(t, 20)
	rc.Scope = ScopeMinimal
	boot, err := rc.BootVMLID(hyps[0])
	if err != nil {
		t.Fatal(err)
	}
	plan, err := rc.PlanCopy(boot.LID, mgr.LIDOf(hyps[1])) // hyp1 -> hyp2, same leaf
	if err != nil {
		t.Fatal(err)
	}
	if plan.SwitchesTouched != 1 || plan.SMPs != 1 {
		t.Errorf("minimal intra-leaf: %d switches, %d SMPs (want 1, 1)",
			plan.SwitchesTouched, plan.SMPs)
	}
	if _, err := rc.Apply(plan); err != nil {
		t.Fatal(err)
	}
	deliver(t, mgr, hyps[2], boot.LID, hyps[1])
}

func TestScopeMinimalSwapDropsPeerEdits(t *testing.T) {
	mgr, rc, hyps, vfs := fig5Fabric(t, 20)
	rc.Scope = ScopeMinimal
	plan, err := rc.PlanSwap(vfs[0][0], vfs[2][0])
	if err != nil {
		t.Fatal(err)
	}
	for sw, changes := range updatesOf(plan) {
		if len(changes) != 1 {
			t.Errorf("minimal swap on switch %d edits %d LIDs, want 1", sw, len(changes))
		}
		if _, ok := changes[plan.VMLID]; !ok {
			t.Errorf("minimal swap on switch %d does not edit the VM LID", sw)
		}
	}
	if _, err := rc.Apply(plan); err != nil {
		t.Fatal(err)
	}
	deliver(t, mgr, hyps[1], vfs[0][0], hyps[2])
}

func TestMitigationInvalidateAddsSMPs(t *testing.T) {
	mgr, rc, hyps, vfs := fig5Fabric(t, 20)
	_ = mgr
	rc.Mitigation = MitigationInvalidate
	plan, err := rc.PlanSwap(vfs[0][0], vfs[2][0])
	if err != nil {
		t.Fatal(err)
	}
	st, err := rc.Apply(plan)
	if err != nil {
		t.Fatal(err)
	}
	// Section VI-C: "another n' SMPs (1 SMP per switch that needs to be
	// updated, to invalidate the LID ... before the actual
	// reconfiguration)".
	if st.InvalidationSMPs != plan.SwitchesTouched {
		t.Errorf("invalidation SMPs = %d, want n' = %d", st.InvalidationSMPs, plan.SwitchesTouched)
	}
	deliver(t, mgr, hyps[1], vfs[0][0], hyps[2])
}

func TestMitigationDrainAddsTime(t *testing.T) {
	_, rc, _, vfs := fig5Fabric(t, 20)
	rc.Mitigation = MitigationDrain
	rc.DrainTime = 1000000 // 1ms
	plan, err := rc.PlanSwap(vfs[0][0], vfs[2][0])
	if err != nil {
		t.Fatal(err)
	}
	st, err := rc.Apply(plan)
	if err != nil {
		t.Fatal(err)
	}
	if st.ModelledTime < rc.DrainTime {
		t.Errorf("drain time not modelled: %v", st.ModelledTime)
	}
	if st.InvalidationSMPs != 0 {
		t.Error("drain must not send extra SMPs")
	}
}

func TestPlanErrors(t *testing.T) {
	_, rc, _, vfs := fig5Fabric(t, 20)
	if _, err := rc.PlanSwap(vfs[0][0], vfs[0][0]); err == nil {
		t.Error("swap with identical LIDs should fail")
	}
	if _, err := rc.PlanSwap(4000, vfs[0][0]); err == nil {
		t.Error("unassigned VM LID should fail")
	}
	if _, err := rc.PlanCopy(vfs[0][0], 4000); err == nil {
		t.Error("unassigned peer LID should fail")
	}
}

func TestWorstCaseHelpers(t *testing.T) {
	// Table I max columns: 2n for swap, n for copy, 1 minimum.
	if MaxSwapSMPs(36) != 72 || MaxSwapSMPs(1620) != 3240 {
		t.Error("MaxSwapSMPs")
	}
	if MaxCopySMPs(54) != 54 {
		t.Error("MaxCopySMPs")
	}
	if MinReconfigSMPs() != 1 {
		t.Error("MinReconfigSMPs")
	}
}

func TestStringers(t *testing.T) {
	if PlanSwap.String() != "swap" || PlanCopy.String() != "copy" ||
		!strings.Contains(PlanKind(9).String(), "9") {
		t.Error("PlanKind stringer")
	}
	if ScopeAllSwitches.String() != "all-switches" || ScopeMinimal.String() != "minimal" {
		t.Error("Scope stringer")
	}
	if MitigationNone.String() != "none" ||
		MitigationInvalidate.String() != "invalidate-port255" ||
		MitigationDrain.String() != "drain-peers" {
		t.Error("Mitigation stringer")
	}
}

func TestMergePlansSharesBlocks(t *testing.T) {
	mgr, rc, hyps, vfs := fig5Fabric(t, 20)
	// Two prepopulated migrations between the same hypervisor pair: their
	// four LIDs (20..28 range) share LFT block 0 on every switch, so the
	// merged plan costs one SMP per switch instead of two.
	p1, err := rc.PlanSwap(vfs[0][0], vfs[2][0])
	if err != nil {
		t.Fatal(err)
	}
	p2, err := rc.PlanSwap(vfs[0][1], vfs[2][1])
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergePlans(p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	if merged.SMPs >= p1.SMPs+p2.SMPs {
		t.Errorf("merged plan (%d SMPs) should beat separate application (%d + %d)",
			merged.SMPs, p1.SMPs, p2.SMPs)
	}
	st, err := rc.ApplyEdits(merged)
	if err != nil {
		t.Fatal(err)
	}
	if st.SMPs != merged.SMPs {
		t.Errorf("wire %d != merged plan %d", st.SMPs, merged.SMPs)
	}
	// Caller performs the rebinds for each constituent migration.
	for _, pair := range [][2]ib.LID{{vfs[0][0], vfs[2][0]}, {vfs[0][1], vfs[2][1]}} {
		if err := mgr.RebindExtraLID(pair[0], hyps[2]); err != nil {
			t.Fatal(err)
		}
		if err := mgr.RebindExtraLID(pair[1], hyps[0]); err != nil {
			t.Fatal(err)
		}
	}
	deliver(t, mgr, hyps[1], vfs[0][0], hyps[2])
	deliver(t, mgr, hyps[1], vfs[0][1], hyps[2])
	deliver(t, mgr, hyps[1], vfs[2][0], hyps[0])
}

func TestMergePlansConflicts(t *testing.T) {
	_, rc, _, vfs := fig5Fabric(t, 20)
	// Two plans moving the SAME VM LID to different destinations conflict.
	p1, err := rc.PlanSwap(vfs[0][0], vfs[2][0])
	if err != nil {
		t.Fatal(err)
	}
	p2, err := rc.PlanSwap(vfs[0][0], vfs[1][0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergePlans(p1, p2); err == nil {
		t.Error("conflicting merges should fail")
	}
	if _, err := MergePlans(); err == nil {
		t.Error("empty merge should fail")
	}
}

func TestPlanWithoutBootstrapFails(t *testing.T) {
	topo, err := topology.BuildRing(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := sm.New(topo, topo.CAs()[0], routing.NewMinHop())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Sweep(); err != nil {
		t.Fatal(err)
	}
	if err := mgr.AssignLIDs(); err != nil {
		t.Fatal(err)
	}
	rc := NewReconfigurator(mgr)
	if _, err := rc.PlanCopy(1, 2); err == nil {
		t.Error("planning against unprogrammed switches should fail")
	}
}
