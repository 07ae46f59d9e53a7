package cloud

import (
	"testing"

	"ibvsim/internal/core"
	"ibvsim/internal/smp"
	"ibvsim/internal/sriov"
	"ibvsim/internal/topology"
)

// TestMigrateWaveCoalesces: a wave's merged distribution must cost no more
// SMPs than applying each move's plan separately — and strictly fewer when
// the moves' LID edits share a 64-entry LFT block on a switch — while every
// VM still ends up reachable at its (prepopulated) stable LID.
func TestMigrateWaveCoalesces(t *testing.T) {
	c, _ := testCloud(t, sriov.VSwitchPrepopulated, FirstFit{})
	hyps := c.Hypervisors()
	if _, err := c.CreateVMOn("wv-a", hyps[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateVMOn("wv-b", hyps[1]); err != nil {
		t.Fatal(err)
	}

	// Plan both moves individually against the same pre-wave state to get
	// the uncoalesced cost.
	sum := 0
	for vm, to := range map[string]topology.NodeID{"wv-a": hyps[2], "wv-b": hyps[3]} {
		dstH := c.Hypervisor(to)
		vf := dstH.HCA.FreeVF()
		plan, err := c.RC.PlanSwap(c.VM(vm).Addr.LID, dstH.HCA.VFs[vf].LID)
		if err != nil {
			t.Fatal(err)
		}
		sum += plan.SMPs
	}

	rep, err := c.MigrateWaveProv([]Move{{VM: "wv-a", To: hyps[2]}, {VM: "wv-b", To: hyps[3]}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Reports) != 2 {
		t.Fatalf("got %d reports, want 2", len(rep.Reports))
	}
	if rep.Plan.SMPs == 0 || rep.Plan.SMPs > sum {
		t.Fatalf("wave SMPs = %d, want 0 < SMPs <= %d (individual sum)", rep.Plan.SMPs, sum)
	}
	if rep.Plan.SMPs == sum {
		t.Logf("no blocks shared between the two plans (SMPs = %d); coalescing had nothing to merge", sum)
	}
	if rep.HostSMPs != 4 {
		t.Fatalf("host SMPs = %d, want 2 per move", rep.HostSMPs)
	}

	// Both VMs must be LID-routable at their stable LIDs after the wave.
	for _, name := range []string{"wv-a", "wv-b"} {
		vm := c.VM(name)
		pkt := &smp.SMP{DLID: vm.Addr.LID}
		got, err := c.SM.Transport.SendLIDRouted(hyps[0], pkt, c.SM.Programmed())
		if err != nil {
			t.Fatalf("%s unreachable at LID %d after wave: %v", name, vm.Addr.LID, err)
		}
		if got != vm.Hyp {
			t.Errorf("%s's LID delivered to %d, want its host %d", name, got, vm.Hyp)
		}
	}
}

// TestMigrateWaveInvalidationGuard: the port-255 invalidation mitigation is
// incompatible with merged multi-move distributions; MigrateWaveProv must
// refuse them with nothing moved, and run a wave of one. (The reconcile
// planner makes every wave a single move under it.)
func TestMigrateWaveInvalidationGuard(t *testing.T) {
	c, _ := testCloud(t, sriov.VSwitchPrepopulated, FirstFit{})
	hyps := c.Hypervisors()
	if _, err := c.CreateVMOn("inv-a", hyps[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateVMOn("inv-b", hyps[1]); err != nil {
		t.Fatal(err)
	}
	c.RC.Mitigation = core.MitigationInvalidate

	moves := []Move{{VM: "inv-a", To: hyps[2]}, {VM: "inv-b", To: hyps[3]}}
	if _, err := c.MigrateWaveProv(moves, nil); err == nil {
		t.Fatal("multi-move wave under MitigationInvalidate must be rejected")
	}
	if c.VM("inv-a").Hyp != hyps[0] || c.VM("inv-b").Hyp != hyps[1] {
		t.Fatal("a refused wave moved a VM")
	}
	for _, mv := range moves {
		if rep, err := c.MigrateWaveProv([]Move{mv}, nil); err != nil || len(rep.Reports) != 1 {
			t.Fatalf("single-move wave %v: %+v, %v", mv, rep, err)
		}
	}
}
