package cloud

import (
	"testing"

	"ibvsim/internal/ib"
	"ibvsim/internal/smp"
	"ibvsim/internal/sriov"
	"ibvsim/internal/topology"
)

// testCloud builds a small fat-tree cloud: 16 CAs, CA 0 hosts the SM and is
// NOT a hypervisor; the other 15 are hypervisors with 3 VFs each.
func testCloud(t *testing.T, model sriov.Model, sched Scheduler) (*Cloud, BootstrapReport) {
	t.Helper()
	topo, err := topology.BuildXGFT(topology.XGFTSpec{M: []int{4, 4}, W: []int{1, 4}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	cas := topo.CAs()
	c, rep, err := New(topo, cas[0], cas[1:], Config{
		Model:            model,
		VFsPerHypervisor: 3,
		Scheduler:        sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, rep
}

func TestNewValidation(t *testing.T) {
	topo, _ := topology.BuildRing(3, 2)
	cas := topo.CAs()
	if _, _, err := New(topo, cas[0], cas[1:], Config{Model: sriov.SharedPort}); err == nil {
		t.Error("zero VFs should fail")
	}
	if _, _, err := New(topo, cas[0], []topology.NodeID{topo.Switches()[0]},
		Config{Model: sriov.SharedPort, VFsPerHypervisor: 1}); err == nil {
		t.Error("switch as hypervisor should fail")
	}
}

func TestBootstrapPrepopulatedCoversVFLIDs(t *testing.T) {
	c, rep := testCloud(t, sriov.VSwitchPrepopulated, nil)
	if rep.PrepopulatedLIDs != 15*3 {
		t.Errorf("prepopulated %d LIDs, want 45", rep.PrepopulatedLIDs)
	}
	// Section V-A: paths are computed for every VF LID at boot.
	wantLIDs := c.SM.Topo.NumNodes() + 45
	if got := c.SM.LIDCount(); got != wantLIDs {
		t.Errorf("LIDCount = %d, want %d", got, wantLIDs)
	}
	if rep.Routing.PathsComputed == 0 || rep.Distribution.SMPs == 0 {
		t.Error("bootstrap stats empty")
	}
}

func TestBootstrapDynamicIsSmaller(t *testing.T) {
	cPre, repPre := testCloud(t, sriov.VSwitchPrepopulated, nil)
	cDyn, repDyn := testCloud(t, sriov.VSwitchDynamic, nil)
	// Section V-B: the initial path computation covers far fewer LIDs
	// (only physical nodes; no VF LIDs until VMs boot).
	if repDyn.PrepopulatedLIDs != 0 {
		t.Error("dynamic model must not prepopulate")
	}
	if cDyn.SM.LIDCount() >= cPre.SM.LIDCount() {
		t.Errorf("dynamic boot routed %d LIDs, prepopulated %d — dynamic must be smaller",
			cDyn.SM.LIDCount(), cPre.SM.LIDCount())
	}
	if cPre.SM.LIDCount()-cDyn.SM.LIDCount() != repPre.PrepopulatedLIDs {
		t.Errorf("LID delta %d != prepopulated %d",
			cPre.SM.LIDCount()-cDyn.SM.LIDCount(), repPre.PrepopulatedLIDs)
	}
}

func TestCreateAndDestroyVM(t *testing.T) {
	for _, model := range []sriov.Model{sriov.SharedPort, sriov.VSwitchPrepopulated, sriov.VSwitchDynamic} {
		c, _ := testCloud(t, model, nil)
		vm, err := c.CreateVM("vm1")
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		if vm.Addr.LID == ib.LIDUnassigned {
			t.Errorf("%v: VM has no LID", model)
		}
		if model == sriov.SharedPort {
			if vm.Addr.LID != c.SM.LIDOf(vm.Hyp) {
				t.Errorf("shared port VM LID %d != PF LID", vm.Addr.LID)
			}
		} else if vm.Addr.LID == c.SM.LIDOf(vm.Hyp) {
			t.Errorf("%v: VM LID must differ from PF LID", model)
		}
		if _, err := c.CreateVM("vm1"); err == nil {
			t.Error("duplicate VM name should fail")
		}
		if got := c.VMs(); len(got) != 1 || got[0] != "vm1" {
			t.Errorf("VMs = %v", got)
		}
		if c.VM("vm1") == nil || c.VM("nope") != nil {
			t.Error("VM lookup")
		}
		if err := c.DestroyVM("vm1"); err != nil {
			t.Fatal(err)
		}
		if err := c.DestroyVM("vm1"); err == nil {
			t.Error("double destroy should fail")
		}
	}
}

func TestDynamicVMLIDRoutedImmediately(t *testing.T) {
	c, _ := testCloud(t, sriov.VSwitchDynamic, nil)
	vm, err := c.CreateVM("vm1")
	if err != nil {
		t.Fatal(err)
	}
	// The fresh LID must be deliverable from anywhere without any route
	// recomputation (section V-B).
	src := c.Hypervisors()[10]
	p := &smp.SMP{DLID: vm.Addr.LID}
	got, err := c.SM.Transport.SendLIDRouted(src, p, c.SM.Programmed())
	if err != nil {
		t.Fatal(err)
	}
	if got != vm.Hyp {
		t.Errorf("delivered to %d, want %d", got, vm.Hyp)
	}
}

func TestSchedulers(t *testing.T) {
	c, _ := testCloud(t, sriov.VSwitchDynamic, Spread{})
	// Spread: 4 VMs land on 4 different hypervisors.
	seen := map[topology.NodeID]bool{}
	for i := 0; i < 4; i++ {
		vm, err := c.CreateVM(string(rune('a' + i)))
		if err != nil {
			t.Fatal(err)
		}
		seen[vm.Hyp] = true
	}
	if len(seen) != 4 {
		t.Errorf("spread placed on %d hypervisors, want 4", len(seen))
	}

	cp, _ := testCloud(t, sriov.VSwitchDynamic, Pack{})
	// Pack: 3 VMs fill one hypervisor before the 4th spills.
	var hyps []topology.NodeID
	for i := 0; i < 4; i++ {
		vm, err := cp.CreateVM(string(rune('a' + i)))
		if err != nil {
			t.Fatal(err)
		}
		hyps = append(hyps, vm.Hyp)
	}
	if hyps[0] != hyps[1] || hyps[1] != hyps[2] {
		t.Errorf("pack scattered: %v", hyps)
	}
	if hyps[3] == hyps[0] {
		t.Error("pack overfilled a hypervisor")
	}

	// FirstFit exhaustion.
	cf, _ := testCloud(t, sriov.SharedPort, FirstFit{})
	for i := 0; i < 45; i++ {
		if _, err := cf.CreateVM(string(rune(1000 + i))); err != nil {
			t.Fatalf("VM %d: %v", i, err)
		}
	}
	if _, err := cf.CreateVM("overflow"); err == nil {
		t.Error("full cloud should refuse placement")
	}
}

func TestMigrateVSwitchPrepopulated(t *testing.T) {
	c, _ := testCloud(t, sriov.VSwitchPrepopulated, nil)
	vm, err := c.CreateVM("vm1")
	if err != nil {
		t.Fatal(err)
	}
	oldAddr := vm.Addr
	dst := c.Hypervisors()[10]
	rep, err := c.MigrateVM("vm1", dst)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AddressesChanged {
		t.Error("vSwitch migration must preserve all addresses")
	}
	if vm.Addr != oldAddr {
		t.Errorf("addresses changed: %+v -> %+v", oldAddr, vm.Addr)
	}
	if vm.Hyp != dst {
		t.Error("VM did not move")
	}
	if rep.Plan.SMPs == 0 || rep.Plan.SwitchesUpdated == 0 {
		t.Errorf("migration sent no SMPs: %+v", rep.Plan)
	}
	if rep.HostSMPs != 2 {
		t.Errorf("host SMPs = %d, want 2 (set + unset)", rep.HostSMPs)
	}
	if rep.Downtime <= 0 {
		t.Error("downtime not modelled")
	}
	// Peer cache stays valid (the [10] caching argument).
	rec, err := c.SA.Query(vm.Addr.GID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.DLID != oldAddr.LID {
		t.Errorf("SA record LID %d, want %d", rec.DLID, oldAddr.LID)
	}
	// LID-routed delivery reaches the new hypervisor.
	p := &smp.SMP{DLID: vm.Addr.LID}
	got, err := c.SM.Transport.SendLIDRouted(c.Hypervisors()[0], p, c.SM.Programmed())
	if err != nil {
		t.Fatal(err)
	}
	if got != dst {
		t.Errorf("delivered to %d, want %d", got, dst)
	}
	// Migrate back.
	if _, err := c.MigrateVM("vm1", rep.From); err != nil {
		t.Fatal(err)
	}
	if vm.Addr.LID != oldAddr.LID {
		t.Error("LID lost on return migration")
	}
}

func TestMigrateVSwitchDynamic(t *testing.T) {
	c, _ := testCloud(t, sriov.VSwitchDynamic, nil)
	vm, err := c.CreateVM("vm1")
	if err != nil {
		t.Fatal(err)
	}
	oldLID := vm.Addr.LID
	dst := c.Hypervisors()[12]
	rep, err := c.MigrateVM("vm1", dst)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AddressesChanged || vm.Addr.LID != oldLID {
		t.Error("dynamic vSwitch migration must carry the LID")
	}
	// Copy semantics: at most one SMP per switch.
	if rep.Plan.SMPs > c.SM.Topo.NumSwitches() {
		t.Errorf("copy migration sent %d SMPs > %d switches", rep.Plan.SMPs, c.SM.Topo.NumSwitches())
	}
	p := &smp.SMP{DLID: vm.Addr.LID}
	got, err := c.SM.Transport.SendLIDRouted(c.Hypervisors()[0], p, c.SM.Programmed())
	if err != nil {
		t.Fatal(err)
	}
	if got != dst {
		t.Errorf("delivered to %d, want %d", got, dst)
	}
}

func TestMigrateSharedPortChangesAddresses(t *testing.T) {
	c, _ := testCloud(t, sriov.SharedPort, nil)
	vm, err := c.CreateVM("vm1")
	if err != nil {
		t.Fatal(err)
	}
	oldLID := vm.Addr.LID
	dst := c.Hypervisors()[9]
	rep, err := c.MigrateVM("vm1", dst)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AddressesChanged {
		t.Error("shared-port migration must change the LID")
	}
	if vm.Addr.LID == oldLID {
		t.Error("LID should now be the destination PF's")
	}
	if vm.Addr.LID != c.SM.LIDOf(dst) {
		t.Errorf("VM LID %d != destination PF LID %d", vm.Addr.LID, c.SM.LIDOf(dst))
	}
	if rep.Plan.SMPs != 0 {
		t.Error("shared-port migration needs no LFT updates")
	}
	// The SA record was rebound (peers' caches are now stale).
	rec, err := c.SA.Query(vm.Addr.GID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.DLID != vm.Addr.LID {
		t.Errorf("SA rebind missing: %d != %d", rec.DLID, vm.Addr.LID)
	}
}

func TestMigrateErrors(t *testing.T) {
	c, _ := testCloud(t, sriov.VSwitchDynamic, nil)
	if _, err := c.MigrateVM("ghost", c.Hypervisors()[1]); err == nil {
		t.Error("migrating unknown VM should fail")
	}
	vm, _ := c.CreateVM("vm1")
	if _, err := c.MigrateVM("vm1", vm.Hyp); err == nil {
		t.Error("migrating to the same host should fail")
	}
	if _, err := c.MigrateVM("vm1", topology.NodeID(9999)); err == nil {
		t.Error("migrating to a non-hypervisor should fail")
	}
	// Fill the destination's VFs.
	dst := c.Hypervisors()[5]
	for i := 0; i < 3; i++ {
		if _, err := c.CreateVMOn(string(rune('x'+i)), dst); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.MigrateVM("vm1", dst); err == nil {
		t.Error("migrating to a full hypervisor should fail")
	}
}

func TestVMCountOn(t *testing.T) {
	c, _ := testCloud(t, sriov.SharedPort, nil)
	if c.VMCountOn(topology.NodeID(9999)) != 0 {
		t.Error("unknown node count should be 0")
	}
	vm, _ := c.CreateVM("v")
	if c.VMCountOn(vm.Hyp) != 1 {
		t.Error("count after create")
	}
	if c.Hypervisor(vm.Hyp) == nil {
		t.Error("Hypervisor lookup")
	}
}
