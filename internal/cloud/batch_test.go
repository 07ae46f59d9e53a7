package cloud_test

import (
	"errors"
	"testing"

	"ibvsim/internal/cloud"
	"ibvsim/internal/core"
	"ibvsim/internal/reconcile"
	"ibvsim/internal/smp"
	"ibvsim/internal/sriov"
	"ibvsim/internal/topology"
)

// A batch of migrations has one planner, reconcile.Planner: it picks the
// moves for a goal, packs them into waves by destination-VF capacity, and
// the cloud runs each wave with MigrateWaveProv. These tests drive that path
// end to end on the small fat tree of the package's other tests: 16 CAs, CA 0
// hosts the SM, the other 15 are hypervisors with 3 VFs each.

func batchCloud(t *testing.T, model sriov.Model, sched cloud.Scheduler) *cloud.Cloud {
	t.Helper()
	topo, err := topology.BuildXGFT(topology.XGFTSpec{M: []int{4, 4}, W: []int{1, 4}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	cas := topo.CAs()
	c, _, err := cloud.New(topo, cas[0], cas[1:], cloud.Config{Model: model, VFsPerHypervisor: 3, Scheduler: sched})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// fill creates VMs on the hypervisor at index hypIdx until it holds want.
func fill(t *testing.T, c *cloud.Cloud, hypIdx, want int, prefix string) {
	t.Helper()
	hyp := c.Hypervisors()[hypIdx]
	for i := c.VMCountOn(hyp); i < want; i++ {
		if _, err := c.CreateVMOn(prefix+string(rune('a'+hypIdx))+"-"+string(rune('0'+i)), hyp); err != nil {
			t.Fatal(err)
		}
	}
}

func occupied(c *cloud.Cloud) int {
	n := 0
	for _, hn := range c.Hypervisors() {
		if c.VMCountOn(hn) > 0 {
			n++
		}
	}
	return n
}

func plan(t *testing.T, c *cloud.Cloud, spec reconcile.Spec) *reconcile.Plan {
	t.Helper()
	p, err := (&reconcile.Planner{C: c}).Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// run executes a plan wave by wave and returns every migration report.
func run(t *testing.T, c *cloud.Cloud, p *reconcile.Plan) []cloud.WaveReport {
	t.Helper()
	var reps []cloud.WaveReport
	for i, wave := range p.Waves {
		wr, err := c.MigrateWaveProv(wave, nil)
		if err != nil {
			t.Fatalf("wave %d: %v", i, err)
		}
		reps = append(reps, wr)
	}
	return reps
}

func placement(moves map[string]topology.NodeID) reconcile.Spec {
	return reconcile.Spec{Goal: reconcile.GoalPlacement, Placement: moves}
}

// TestDefragPlanNoPointlessMoves pins the first defrag-planner bugfix: the
// old planner never enforced its own "receiver must end up strictly fuller
// than the donor" rule, so at minimal occupancy it still emitted moves
// between equally-loaded hosts — pure SMP cost with nothing consolidated,
// and oscillation when re-planned. A fragmentation state that already
// occupies the minimal host count must plan zero moves.
func TestDefragPlanNoPointlessMoves(t *testing.T) {
	t.Run("two-equal-hosts", func(t *testing.T) {
		c := batchCloud(t, sriov.VSwitchDynamic, cloud.FirstFit{})
		fill(t, c, 0, 2, "eq")
		fill(t, c, 1, 2, "eq")
		// 4 VMs, 3 VFs per host: minimal occupancy is 2 hosts — achieved.
		if p := plan(t, c, reconcile.Spec{Goal: reconcile.GoalDefrag}); !p.Converged {
			t.Fatalf("plan at minimal occupancy must be empty, got %+v", p.Moves)
		}
	})
	t.Run("partial-drain", func(t *testing.T) {
		c := batchCloud(t, sriov.VSwitchDynamic, cloud.FirstFit{})
		fill(t, c, 0, 3, "pd")
		fill(t, c, 1, 2, "pd")
		fill(t, c, 2, 2, "pd")
		// 7 VMs across 3 hosts of 3 VFs: 3 hosts is already minimal. The
		// old planner moved one VM off the emptiest host anyway and then
		// stopped with the donor still occupied.
		if p := plan(t, c, reconcile.Spec{Goal: reconcile.GoalDefrag}); !p.Converged {
			t.Fatalf("plan at minimal occupancy must be empty, got %+v", p.Moves)
		}
	})
}

// TestDefragPlanMonotonicAndConvergent asserts the defrag planner's contract
// on a genuinely fragmented cloud: every move lands on a receiver that ends
// strictly fuller than the donor, donors drain completely, executing the
// plan reaches the minimal host count, and re-planning the achieved state is
// a fixpoint (no moves).
func TestDefragPlanMonotonicAndConvergent(t *testing.T) {
	c := batchCloud(t, sriov.VSwitchDynamic, cloud.FirstFit{})
	for i, n := range []int{2, 1, 1, 2} {
		fill(t, c, i, n, "frag")
	}
	p := plan(t, c, reconcile.Spec{Goal: reconcile.GoalDefrag})
	if len(p.Moves) == 0 {
		t.Fatal("fragmented cloud must plan moves")
	}

	// Replay the plan: monotonicity per move, full drains at the end.
	load := map[topology.NodeID]int{}
	for _, hn := range c.Hypervisors() {
		load[hn] = c.VMCountOn(hn)
	}
	donors := map[topology.NodeID]bool{}
	for _, mv := range p.Moves {
		load[mv.From]--
		load[mv.To]++
		donors[mv.From] = true
		if load[mv.To] <= load[mv.From] {
			t.Errorf("move %q %d->%d leaves receiver load %d <= donor load %d",
				mv.VM, mv.From, mv.To, load[mv.To], load[mv.From])
		}
	}
	for hn := range donors {
		if load[hn] != 0 {
			t.Errorf("donor %d not fully drained: %d VMs left", hn, load[hn])
		}
	}

	run(t, c, p)
	if got := occupied(c); got != 2 { // ceil(6 VMs / 3 VFs)
		t.Fatalf("occupied hosts after defrag = %d, want 2", got)
	}
	if again := plan(t, c, reconcile.Spec{Goal: reconcile.GoalDefrag}); !again.Converged {
		t.Fatalf("re-planning the achieved state must be empty, got %+v", again.Moves)
	}
}

// TestDefragPlanPrefersLeafLocalReceiver: when a donor's VM can land on two
// equally-loaded keepers, the planner must pick the one under the donor's
// own leaf switch (the cheapest migration, section VI-D), even when the
// remote keeper has a lower node ID.
func TestDefragPlanPrefersLeafLocalReceiver(t *testing.T) {
	c := batchCloud(t, sriov.VSwitchDynamic, cloud.FirstFit{})
	hyps := c.Hypervisors()
	leaf := func(n topology.NodeID) topology.NodeID { return c.SM.Topo.LeafSwitchOf(n) }

	// Remote keeper: the lowest-numbered hypervisor. Donor + local keeper:
	// two hypervisors sharing a leaf that is not the remote keeper's.
	remote := hyps[0]
	var donor, local topology.NodeID = topology.NoNode, topology.NoNode
	for i := 1; i < len(hyps) && local == topology.NoNode; i++ {
		if leaf(hyps[i]) == leaf(remote) {
			continue
		}
		for j := i + 1; j < len(hyps); j++ {
			if leaf(hyps[j]) == leaf(hyps[i]) {
				donor, local = hyps[i], hyps[j]
				break
			}
		}
	}
	if local == topology.NoNode {
		t.Fatal("topology has no two co-leaf hypervisors off the first leaf")
	}

	mk := func(name string, on topology.NodeID) {
		t.Helper()
		if _, err := c.CreateVMOn(name, on); err != nil {
			t.Fatal(err)
		}
	}
	mk("rk-0", remote)
	mk("rk-1", remote)
	mk("lk-0", local)
	mk("lk-1", local)
	mk("dn-0", donor)

	moves := plan(t, c, reconcile.Spec{Goal: reconcile.GoalDefrag}).Moves
	if len(moves) != 1 || moves[0].VM != "dn-0" {
		t.Fatalf("want exactly one move for dn-0, got %+v", moves)
	}
	if moves[0].To != local {
		t.Fatalf("move went to %d, want the leaf-local keeper %d (remote was %d)",
			moves[0].To, local, remote)
	}
}

// TestDefragAndConcurrentExecution defragments a cloud a spread scheduler
// fragmented: every planned move is executed, fewer hypervisors stay
// occupied, and every VM is still reachable at its LID.
func TestDefragAndConcurrentExecution(t *testing.T) {
	c := batchCloud(t, sriov.VSwitchDynamic, cloud.Spread{})
	// Spread 6 VMs across 6 hypervisors, then defragment.
	for i := 0; i < 6; i++ {
		if _, err := c.CreateVM(string(rune('a' + i))); err != nil {
			t.Fatal(err)
		}
	}
	p := plan(t, c, reconcile.Spec{Goal: reconcile.GoalDefrag})
	if len(p.Moves) == 0 {
		t.Fatal("defrag of a spread cloud should propose moves")
	}
	reports := 0
	for _, wr := range run(t, c, p) {
		reports += len(wr.Reports)
		if wr.Plan.ModelledTime <= 0 {
			t.Errorf("wave report %+v has no modelled time", wr.Plan)
		}
	}
	if reports != len(p.Moves) {
		t.Errorf("executed %d of %d moves", reports, len(p.Moves))
	}
	if got := occupied(c); got >= 6 {
		t.Errorf("defrag left %d hypervisors occupied", got)
	}
	// All VMs still addressable.
	for _, name := range c.VMs() {
		vm := c.VM(name)
		got, err := c.SM.Transport.SendLIDRouted(c.Hypervisors()[0], &smp.SMP{DLID: vm.Addr.LID}, c.SM.Programmed())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != vm.Hyp {
			t.Errorf("%s delivered to %d, want %d", name, got, vm.Hyp)
		}
	}
}

// TestBatchReservesLastVF: two moves into the same destination must not
// both claim its last free VF. With nothing leaving that host the batch is
// refused up front, typed, and nothing moves; once a third move frees a slot
// there, the first arrival takes the last VF and the second waits for the
// wave after the departure.
func TestBatchReservesLastVF(t *testing.T) {
	c := batchCloud(t, sriov.VSwitchPrepopulated, cloud.FirstFit{})
	hyps := c.Hypervisors()
	fill(t, c, 0, 2, "occ") // one VF left on hyps[0]
	if _, err := c.CreateVMOn("mv-x", hyps[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateVMOn("mv-y", hyps[2]); err != nil {
		t.Fatal(err)
	}

	both := map[string]topology.NodeID{"mv-x": hyps[0], "mv-y": hyps[0]}
	if _, err := (&reconcile.Planner{C: c}).Plan(placement(both)); !errors.Is(err, cloud.ErrNoFreeVF) {
		t.Fatalf("two arrivals for one free VF: err = %v, want ErrNoFreeVF", err)
	}
	if c.VM("mv-x").Hyp != hyps[1] || c.VM("mv-y").Hyp != hyps[2] {
		t.Fatal("a refused batch moved a VM")
	}

	// occa-0 leaving hyps[0] makes room for the second arrival, but only
	// once it has gone; it is not leaf-local, so it is ordered after both.
	both["occa-0"] = hyps[5]
	p := plan(t, c, placement(both))
	for i, wave := range p.Waves {
		into := 0
		for _, mv := range wave {
			if mv.To == hyps[0] {
				into++
			}
		}
		if into > 1 {
			t.Errorf("wave %d sends %d VMs into hyps[0], which has one free VF", i, into)
		}
	}
	if len(p.Waves) != 2 || p.Moves[len(p.Moves)-1].VM != "mv-y" {
		t.Fatalf("want mv-y deferred to a second wave, got %+v", p.Moves)
	}
	run(t, c, p)
	for name, hn := range both {
		if got := c.VM(name).Hyp; got != hn {
			t.Errorf("%s on %d, want %d", name, got, hn)
		}
	}
}

// TestBatchDefersToFreedCapacity: a move into a currently-full host waits
// for the same batch's departures instead of failing.
func TestBatchDefersToFreedCapacity(t *testing.T) {
	c := batchCloud(t, sriov.VSwitchPrepopulated, cloud.FirstFit{})
	hyps := c.Hypervisors()
	fill(t, c, 1, 3, "full") // hyps[1] completely full
	if _, err := c.CreateVMOn("mv-z", hyps[3]); err != nil {
		t.Fatal(err)
	}
	leaver := "fullb-0"
	p := plan(t, c, placement(map[string]topology.NodeID{
		leaver: hyps[2], // frees a VF on hyps[1]
		"mv-z": hyps[1], // needs that VF
	}))
	if len(p.Moves) != 2 || len(p.Waves) != 2 {
		t.Fatalf("got %d moves in %d waves, want 2 in 2", len(p.Moves), len(p.Waves))
	}
	run(t, c, p)
	if c.VM("mv-z").Hyp != hyps[1] {
		t.Errorf("mv-z on %d, want %d", c.VM("mv-z").Hyp, hyps[1])
	}
}

// TestBatchCapacityFailureSymmetry: both vSwitch models must refuse a move
// to a full destination identically — up front, typed, and without mutating
// anything.
func TestBatchCapacityFailureSymmetry(t *testing.T) {
	for _, model := range []sriov.Model{sriov.VSwitchPrepopulated, sriov.VSwitchDynamic} {
		t.Run(model.String(), func(t *testing.T) {
			c := batchCloud(t, model, cloud.FirstFit{})
			hyps := c.Hypervisors()
			fill(t, c, 0, 3, "cap")
			if _, err := c.CreateVMOn("mv-solo", hyps[1]); err != nil {
				t.Fatal(err)
			}

			_, err := (&reconcile.Planner{C: c}).Plan(placement(map[string]topology.NodeID{"mv-solo": hyps[0]}))
			if !errors.Is(err, cloud.ErrNoFreeVF) {
				t.Fatalf("want ErrNoFreeVF for a full destination, got %v", err)
			}
			if _, err := c.MigrateWaveProv([]cloud.Move{{VM: "mv-solo", To: hyps[0]}}, nil); !errors.Is(err, cloud.ErrNoFreeVF) {
				t.Fatalf("wave into a full destination: want ErrNoFreeVF, got %v", err)
			}
			if got := c.VM("mv-solo").Hyp; got != hyps[1] {
				t.Errorf("VM moved to %d despite the error", got)
			}
			if got := c.VMCountOn(hyps[0]); got != 3 {
				t.Errorf("destination load changed to %d", got)
			}
		})
	}
}

// TestBatchValidation: a batch naming an unknown VM, or one VM twice, is
// refused before anything moves; an empty batch is a no-op.
func TestBatchValidation(t *testing.T) {
	c := batchCloud(t, sriov.VSwitchDynamic, nil)
	hyps := c.Hypervisors()
	if _, err := (&reconcile.Planner{C: c}).Plan(placement(map[string]topology.NodeID{"ghost": hyps[0]})); !errors.Is(err, cloud.ErrNoVM) {
		t.Errorf("unknown VM in a placement: err = %v, want ErrNoVM", err)
	}
	if _, err := c.MigrateWaveProv([]cloud.Move{{VM: "ghost", To: hyps[0]}}, nil); !errors.Is(err, cloud.ErrNoVM) {
		t.Errorf("unknown VM in a wave: err = %v, want ErrNoVM", err)
	}
	if _, err := c.CreateVMOn("twice", hyps[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.MigrateWaveProv([]cloud.Move{{VM: "twice", To: hyps[2]}, {VM: "twice", To: hyps[3]}}, nil); err == nil {
		t.Error("a wave moving one VM twice must fail")
	}
	if got := c.VM("twice").Hyp; got != hyps[1] {
		t.Errorf("refused wave moved the VM to %d", got)
	}
	if rep, err := c.MigrateWaveProv(nil, nil); err != nil || len(rep.Reports) != 0 {
		t.Errorf("empty wave: %+v, %v", rep, err)
	}
}

// TestBatchSingleMoveWavesUnderInvalidation: the port-255 pre-pass cannot
// ride a merged distribution, so under it the planner makes every wave a
// single move, and the batch still completes.
func TestBatchSingleMoveWavesUnderInvalidation(t *testing.T) {
	c := batchCloud(t, sriov.VSwitchPrepopulated, cloud.FirstFit{})
	hyps := c.Hypervisors()
	for i, name := range []string{"inv-a", "inv-b"} {
		if _, err := c.CreateVMOn(name, hyps[i]); err != nil {
			t.Fatal(err)
		}
	}
	c.RC.Mitigation = core.MitigationInvalidate
	p := plan(t, c, placement(map[string]topology.NodeID{"inv-a": hyps[2], "inv-b": hyps[3]}))
	if len(p.Waves) != 2 || len(p.Waves[0]) != 1 || len(p.Waves[1]) != 1 {
		t.Fatalf("want 2 single-move waves, got %v", p.Waves)
	}
	if reps := run(t, c, p); len(reps[0].Reports)+len(reps[1].Reports) != 2 {
		t.Fatalf("want 2 reports, got %+v", reps)
	}
}
