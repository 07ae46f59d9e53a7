package shard

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"ibvsim/internal/cloud"
	"ibvsim/internal/ib"
	"ibvsim/internal/smp"
	"ibvsim/internal/telemetry"
	"ibvsim/internal/topology"
)

// TestFailedMigrationHoldsSourceVF: a migration the transport abandons
// between detach and attach leaves the VM's record on its source VF. That VF
// must stay out of the free pool in every driver — the cloud's own
// MigrateVM ("classic"), a shard actor and the cross-shard commit — or the
// next create on the source hypervisor is handed the stranded VM's VF and
// LID.
func TestFailedMigrationHoldsSourceVF(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
		cross  bool
	}{
		{"classic", 0, false},
		{"zone-local", 2, false},
		{"cross-zone", 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCloud(t)
			ft := c.SM.InjectFaults(smp.FaultConfig{Seed: 1})
			hyps := c.Hypervisors()
			src, dst := hyps[0], hyps[1]
			create := func(name string, on topology.NodeID) error {
				_, err := c.CreateVMOn(name, on)
				return err
			}
			migrate := func(name string, to topology.NodeID) error {
				_, err := c.MigrateVM(name, to)
				return err
			}
			if tc.shards > 0 {
				co, err := New(c, tc.shards, Config{})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { shutdown(t, co) })
				if tc.cross {
					dst = co.Part.Zones[1].Hyps[0]
				}
				if same := co.Part.ZoneOfHyp(src) == co.Part.ZoneOfHyp(dst); same == tc.cross {
					t.Fatalf("nodes %d and %d: same zone = %v", src, dst, same)
				}
				create = func(name string, on topology.NodeID) error {
					_, err := co.CreateVM("t", name, on)
					return err
				}
				migrate = func(name string, to topology.NodeID) error {
					_, err := co.MigrateVM("t", name, to)
					return err
				}
			}

			if err := create("stranded", src); err != nil {
				t.Fatal(err)
			}
			ft.SetProfile(smp.FaultProfile{Drop: 1})
			if err := migrate("stranded", dst); err == nil {
				t.Fatal("migration with every SMP lost succeeded")
			}
			ft.SetProfile(smp.FaultProfile{})

			// Two VFs per hypervisor: one more VM fits beside the stranded
			// one, a second does not.
			if err := create("next", src); err != nil {
				t.Fatalf("create on the source's spare VF: %v", err)
			}
			if err := create("third", src); !errors.Is(err, cloud.ErrNoFreeVF) {
				t.Errorf("create on the stranded VM's VF: err = %v, want no free VF", err)
			}
			type slot struct {
				hyp topology.NodeID
				vf  int
			}
			slots, lids := map[slot]string{}, map[ib.LID]string{}
			for _, name := range c.VMs() {
				vm := c.VM(name)
				if other, dup := slots[slot{vm.Hyp, vm.VF}]; dup {
					t.Errorf("%q and %q both hold VF %d of node %d", other, name, vm.VF, vm.Hyp)
				}
				if other, dup := lids[vm.Addr.LID]; dup {
					t.Errorf("%q and %q both answer on LID %d", other, name, vm.Addr.LID)
				}
				slots[slot{vm.Hyp, vm.VF}], lids[vm.Addr.LID] = name, name
			}
		})
	}
}

// TestTraceParentTravelsPerCall: two shard actors migrating at once share one
// tracer. Everything a migration emits must hang under that migration's own
// span, so every smp span's nearest migration ancestor names a VM of the shard
// in the span's own shard attr — the parent travels with the call, not through
// a process-wide scope the other actor can push onto.
func TestTraceParentTravelsPerCall(t *testing.T) {
	c, co := newTestCoordinator(t, 2, Config{})
	const rounds = 100
	var wg sync.WaitGroup
	for z := 0; z < 2; z++ {
		name := fmt.Sprintf("z%d", z)
		hyps := co.Part.Zones[z].Hyps
		if _, err := co.CreateVM("t", name, hyps[0]); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= rounds; i++ {
				if _, err := co.MigrateVM("t", name, hyps[i%2]); err != nil {
					t.Errorf("%s round %d: %v", name, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	byID := map[int]telemetry.SpanView{}
	spans := c.SM.Telemetry().Tracer().SpansSince(0)
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	smps, astray := 0, 0
	for _, sp := range spans {
		if sp.Kind != telemetry.SpanSMP {
			continue
		}
		smps++
		anc := byID[sp.Parent]
		for anc.ID != 0 && anc.Kind != telemetry.SpanMigration {
			anc = byID[anc.Parent]
		}
		if want := fmt.Sprintf("z%d", sp.Attrs["shard"]); anc.Name != want {
			astray++
		}
	}
	if smps < 2*rounds {
		t.Fatalf("only %d smp spans for %d migrations", smps, 2*rounds)
	}
	if astray > 0 {
		t.Errorf("%d of %d smp spans hang under another shard's migration (or none)", astray, smps)
	}
}

// TestPartitionFoldsEvenly: n zones over g pod groups are contiguous, differ
// in size by at most one group, and number exactly min(n, g) — never fewer.
func TestPartitionFoldsEvenly(t *testing.T) {
	for _, tc := range []struct{ pods, n, zones int }{
		{36, 8, 8}, // was 5+5+5+5+5+5+5+1
		{9, 8, 8},  // was five zones
		{12, 4, 4}, // the benchmark's fabric and op rotation: 3+3+3+3
		{12, 0, 12},
		{3, 8, 3},
	} {
		t.Run(fmt.Sprintf("%d-pods-into-%d", tc.pods, tc.n), func(t *testing.T) {
			const leavesPerPod = 2
			topo, err := topology.BuildXGFT(topology.XGFTSpec{M: []int{2, leavesPerPod, tc.pods}, W: []int{1, 2, 2}}, 36)
			if err != nil {
				t.Fatal(err)
			}
			p, err := NewPartition(topo, topo.CAs(), tc.n)
			if err != nil {
				t.Fatal(err)
			}
			var sizes []int
			hyps := 0
			for _, z := range p.Zones {
				sizes = append(sizes, len(z.Leaves)/leavesPerPod)
				hyps += len(z.Hyps)
				// Groups are numbered by their lowest leaf and folded in order.
				if z.ID > 0 && slices.Min(z.Leaves) < slices.Min(p.Zones[z.ID-1].Leaves) {
					t.Errorf("zone %d starts before zone %d", z.ID, z.ID-1)
				}
			}
			if len(sizes) != tc.zones || slices.Max(sizes)-slices.Min(sizes) > 1 || slices.Min(sizes) != tc.pods/tc.zones {
				t.Errorf("pods per zone = %v, want %d zones of %d or %d", sizes, tc.zones, tc.pods/tc.zones, tc.pods/tc.zones+1)
			}
			if hyps != len(topo.CAs()) {
				t.Errorf("zones cover %d of %d hypervisors", hyps, len(topo.CAs()))
			}
		})
	}
}
