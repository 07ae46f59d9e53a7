package shard

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ibvsim/internal/cloud"
	"ibvsim/internal/routing"
	"ibvsim/internal/sriov"
	"ibvsim/internal/topology"
)

// newTestCloud boots a 324-node paper fat tree under the prepopulated model
// (2 VFs per hypervisor).
func newTestCloud(t *testing.T) *cloud.Cloud {
	t.Helper()
	topo, err := topology.BuildPaperFatTree(324)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := routing.New("minhop")
	if err != nil {
		t.Fatal(err)
	}
	cas := topo.CAs()
	c, _, err := cloud.New(topo, cas[0], cas[1:], cloud.Config{
		Model:            sriov.VSwitchPrepopulated,
		VFsPerHypervisor: 2,
		Engine:           eng,
		Scheduler:        cloud.Spread{},
		RouteWorkers:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// newTestCoordinator shards a fresh test cloud n ways.
func newTestCoordinator(t *testing.T, n int, cfg Config) (*cloud.Cloud, *Coordinator) {
	t.Helper()
	c := newTestCloud(t)
	co, err := New(c, n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdown(t, co) })
	return c, co
}

func shutdown(t *testing.T, co *Coordinator) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := co.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// checkBinding asserts the cloud's VM record agrees with the HCA: the VF is
// attached and carries the VM's addresses.
func checkBinding(t *testing.T, c *cloud.Cloud, name string) {
	t.Helper()
	vm := c.VM(name)
	if vm == nil {
		t.Fatalf("VM %q: no record", name)
	}
	h := c.Hypervisor(vm.Hyp)
	if !h.HCA.VFs[vm.VF].Attached {
		t.Fatalf("VM %q: VF %d on node %d not attached", name, vm.VF, vm.Hyp)
	}
	addr, err := h.HCA.VFAddresses(vm.VF)
	if err != nil {
		t.Fatalf("VM %q: VF addresses: %v", name, err)
	}
	if addr != vm.Addr {
		t.Fatalf("VM %q: record addr %+v != HCA addr %+v", name, vm.Addr, addr)
	}
}

func TestCrossShardCommit(t *testing.T) {
	c, co := newTestCoordinator(t, 2, Config{})
	if co.Shards() != 2 {
		t.Fatalf("shards = %d, want 2", co.Shards())
	}
	src, dst := co.Part.Zones[0].Hyps[0], co.Part.Zones[1].Hyps[0]

	res, err := co.CreateVM("r1", "a", src)
	if err != nil {
		t.Fatal(err)
	}
	oldLID := res.VM.Addr.LID
	oldVF := res.VM.VF

	mres, err := co.MigrateVM("r2", "a", dst)
	if err != nil {
		t.Fatal(err)
	}
	vm := c.VM("a")
	if vm.Hyp != dst {
		t.Fatalf("VM on node %d after commit, want %d", vm.Hyp, dst)
	}
	checkBinding(t, c, "a")
	// Prepopulated model: the LID columns swap, so the VM keeps its LID.
	if vm.Addr.LID != oldLID {
		t.Fatalf("VM LID changed %d -> %d; prepopulated migration must keep it", oldLID, vm.Addr.LID)
	}
	if mres.Rep.AddressesChanged {
		t.Fatal("AddressesChanged = true under the prepopulated model")
	}
	if att := c.Hypervisor(src).HCA.VFs[oldVF].Attached; att {
		t.Fatal("source VF still attached after commit")
	}

	// Ownership moved: the VM shows up in (only) the destination snapshot,
	// and a follow-up zone-local migration inside the new zone succeeds.
	snaps := co.Snaps()
	for _, sn := range snaps {
		has := sn.VM("a") != nil
		if want := sn.Shard == 1; has != want {
			t.Fatalf("shard %d snapshot has VM = %v, want %v", sn.Shard, has, want)
		}
	}
	if _, err := co.MigrateVM("r3", "a", co.Part.Zones[1].Hyps[1]); err != nil {
		t.Fatalf("zone-local migrate after adoption: %v", err)
	}
	checkBinding(t, c, "a")
}

func TestCrossShardAbortReleasesReservation(t *testing.T) {
	c, co := newTestCoordinator(t, 2, Config{})
	src, dst := co.Part.Zones[0].Hyps[0], co.Part.Zones[1].Hyps[0]
	if _, err := co.CreateVM("r1", "a", src); err != nil {
		t.Fatal(err)
	}
	before := *c.VM("a")

	gateErr := errors.New("destination exploded")
	co.SetCommitGate(func(x XMigration) error {
		if x.VM != "a" || x.From != src || x.To != dst {
			t.Errorf("gate saw %+v", x)
		}
		return gateErr
	})
	_, err := co.MigrateVM("r2", "a", dst)
	if err == nil || !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("migrate error = %v, want abort", err)
	}
	co.SetCommitGate(nil)

	// The source VM is intact and re-attached.
	after := *c.VM("a")
	if after != before {
		t.Fatalf("VM record changed across abort: %+v -> %+v", before, after)
	}
	checkBinding(t, c, "a")

	// The staged reservations are released: both destination VFs are
	// creatable, and the source hypervisor's spare VF still is too.
	if _, err := co.CreateVM("r3", "d0", dst); err != nil {
		t.Fatalf("create on destination after abort: %v", err)
	}
	if _, err := co.CreateVM("r4", "d1", dst); err != nil {
		t.Fatalf("create on destination's second VF after abort: %v", err)
	}
	if _, err := co.CreateVM("r5", "s1", src); err != nil {
		t.Fatalf("create on source's spare VF after abort: %v", err)
	}

	// With the gate cleared the same migration commits (to the other
	// destination VF-holder's zone sibling, since dst is now full).
	dst2 := co.Part.Zones[1].Hyps[1]
	if _, err := co.MigrateVM("r6", "a", dst2); err != nil {
		t.Fatalf("migrate after abort: %v", err)
	}
	checkBinding(t, c, "a")
}

// TestCrossShardMidCommitHoldsSourceVF pins the regression where the source
// VF — detached in phase 1b, handed back in phase 2a — was not reserved in
// between, letting concurrent zone-local placement on the source shard
// double-book it mid-commit.
func TestCrossShardMidCommitHoldsSourceVF(t *testing.T) {
	c, co := newTestCoordinator(t, 2, Config{})
	src, dst := co.Part.Zones[0].Hyps[0], co.Part.Zones[1].Hyps[0]
	if _, err := co.CreateVM("r1", "a", src); err != nil {
		t.Fatal(err)
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	co.SetCommitGate(func(XMigration) error {
		close(entered)
		<-release
		return nil
	})
	migDone := make(chan error, 1)
	go func() {
		_, err := co.MigrateVM("r2", "a", dst)
		migDone <- err
	}()
	<-entered

	// Mid-commit: the source hypervisor's spare VF is placeable, but the
	// in-flight VM's detached VF must not be.
	if _, err := co.CreateVM("r3", "b", src); err != nil {
		t.Fatalf("create on spare source VF mid-commit: %v", err)
	}
	if _, err := co.CreateVM("r4", "c", src); err == nil || !strings.Contains(err.Error(), "no free VF") {
		t.Fatalf("create on in-flight source VF: err = %v, want no free VF", err)
	}

	close(release)
	co.SetCommitGate(nil)
	if err := <-migDone; err != nil {
		t.Fatalf("migrate: %v", err)
	}
	checkBinding(t, c, "a")
	checkBinding(t, c, "b")

	// Phase 2a handed the VF back: it is placeable again.
	if _, err := co.CreateVM("r5", "c", src); err != nil {
		t.Fatalf("create on handed-back VF: %v", err)
	}
	checkBinding(t, c, "c")
}

// TestCrossShardConcurrentMutators races cross-shard ping-pong migrations
// against zone-local create/migrate/destroy churn on both shards, then checks
// every surviving binding and that teardown drains every VF — double-booked
// VFs (the corruption mode of the unreserved-source-VF bug) leave attached
// VFs behind after the last destroy.
func TestCrossShardConcurrentMutators(t *testing.T) {
	c, co := newTestCoordinator(t, 2, Config{})
	z0, z1 := co.Part.Zones[0].Hyps, co.Part.Zones[1].Hyps

	const iters = 40
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	// Two cross-shard ping-pong migrators.
	for g := 0; g < 2; g++ {
		name := fmt.Sprintf("x-%d", g)
		if _, err := co.CreateVM("seed", name, z0[g]); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int, name string) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				dst := z1[(g*11+i)%len(z1)]
				if i%2 == 1 {
					dst = z0[(g*7+i)%len(z0)]
				}
				if _, err := co.MigrateVM("x", name, dst); err != nil &&
					!strings.Contains(err.Error(), "no free VF") &&
					!strings.Contains(err.Error(), "already on node") {
					errc <- fmt.Errorf("cross migrate %s -> %d: %w", name, dst, err)
					return
				}
			}
		}(g, name)
	}
	// Two zone-local mutators per shard.
	for _, hyps := range [][]topology.NodeID{z0, z1} {
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(hyps []topology.NodeID, g int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					name := fmt.Sprintf("l-%d-%d-%d", hyps[0], g, i)
					a := hyps[(g*13+i)%len(hyps)]
					b := hyps[(g*13+i+3)%len(hyps)]
					if _, err := co.CreateVM("l", name, a); err != nil {
						if strings.Contains(err.Error(), "no free VF") {
							continue
						}
						errc <- fmt.Errorf("create %s on %d: %w", name, a, err)
						return
					}
					if a != b {
						if _, err := co.MigrateVM("l", name, b); err != nil &&
							!strings.Contains(err.Error(), "no free VF") {
							errc <- fmt.Errorf("local migrate %s -> %d: %w", name, b, err)
							return
						}
					}
					if _, err := co.DestroyVM("l", name); err != nil {
						errc <- fmt.Errorf("destroy %s: %w", name, err)
						return
					}
				}
			}(hyps, g)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	for _, name := range c.VMs() {
		checkBinding(t, c, name)
	}
	for _, name := range c.VMs() {
		if _, err := co.DestroyVM("drain", name); err != nil {
			t.Errorf("final destroy %s: %v", name, err)
		}
	}
	for _, hn := range c.Hypervisors() {
		if att := c.Hypervisor(hn).HCA.AttachedCount(); att != 0 {
			t.Errorf("node %d: %d VFs still attached after teardown", hn, att)
		}
	}
}

func TestBackpressure(t *testing.T) {
	_, co := newTestCoordinator(t, 2, Config{QueueDepth: 1})
	hyp := co.Part.Zones[0].Hyps[0]

	frozen := make(chan struct{})
	thaw := make(chan struct{})
	go co.Freeze(func() { close(frozen); <-thaw }) //nolint:errcheck
	<-frozen

	// One operation fills the parked shard's single queue slot...
	first := make(chan error, 1)
	go func() {
		_, err := co.CreateVM("r1", "a", hyp)
		first <- err
	}()
	deadline := time.After(5 * time.Second)
	for co.QueueLen() == 0 {
		select {
		case <-deadline:
			t.Fatal("first create never queued")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	// ...and the next bounces with backpressure instead of blocking.
	if _, err := co.CreateVM("r2", "b", hyp); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("err = %v, want ErrBackpressure", err)
	}
	close(thaw)
	if err := <-first; err != nil {
		t.Fatalf("queued create after thaw: %v", err)
	}
}

func TestPartitionAuto(t *testing.T) {
	topo, err := topology.BuildPaperFatTree(324)
	if err != nil {
		t.Fatal(err)
	}
	var hyps []topology.NodeID
	cas := topo.CAs()
	for _, n := range cas[1:] {
		hyps = append(hyps, n)
	}
	p, err := NewPartition(topo, hyps, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Zones) < 2 {
		t.Fatalf("auto partition built %d zones, want >= 2", len(p.Zones))
	}
	seen := map[topology.NodeID]int{}
	total := 0
	for _, z := range p.Zones {
		if len(z.Hyps) == 0 {
			t.Fatalf("zone %d owns no hypervisors", z.ID)
		}
		for _, h := range z.Hyps {
			if prev, dup := seen[h]; dup {
				t.Fatalf("hypervisor %d in zones %d and %d", h, prev, z.ID)
			}
			seen[h] = z.ID
			if p.ZoneOfHyp(h) != z.ID {
				t.Fatalf("ZoneOfHyp(%d) = %d, want %d", h, p.ZoneOfHyp(h), z.ID)
			}
		}
		total += len(z.Hyps)
	}
	if total != len(hyps) {
		t.Fatalf("partition covers %d hypervisors, want %d", total, len(hyps))
	}
}
