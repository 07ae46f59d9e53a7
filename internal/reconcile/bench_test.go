package reconcile

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"ibvsim/internal/cloud"
	"ibvsim/internal/sriov"
	"ibvsim/internal/topology"
)

// benchCloud is the benchmark module's reconcile-waves fabric: the 1000-host
// 3-level fat tree (300 switches), dynamic LIDs, two VFs a hypervisor, and
// 256 VMs scattered one to a host by a seed-21 shuffle.
func benchCloud(b testing.TB) *cloud.Cloud {
	topo, err := topology.BuildXGFT(topology.XGFTSpec{M: []int{10, 10, 10}, W: []int{1, 10, 10}}, 20)
	if err != nil {
		b.Fatal(err)
	}
	cas := topo.CAs()
	c, _, err := cloud.New(topo, cas[0], cas[1:], cloud.Config{
		Model: sriov.VSwitchDynamic, VFsPerHypervisor: 2, Scheduler: cloud.Spread{},
	})
	if err != nil {
		b.Fatal(err)
	}
	hyps := slices.Clone(c.Hypervisors())
	rand.New(rand.NewSource(21)).Shuffle(len(hyps), func(i, j int) { hyps[i], hyps[j] = hyps[j], hyps[i] })
	for i, hn := range hyps[:256] {
		if _, err := c.CreateVMOn(fmt.Sprintf("vm-%03d", i), hn); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

// BenchmarkReconcilePlan is the benchmark module's reconcile-waves defrag,
// planning only: some 130 moves staged against the shadow, each wave planned
// as one table and costed.
func BenchmarkReconcilePlan(b *testing.B) {
	p := &Planner{C: benchCloud(b)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := p.Plan(Spec{Goal: GoalDefrag})
		if err != nil || len(plan.Moves) < 100 {
			b.Fatalf("defrag plan: %d moves, err %v", len(plan.Moves), err)
		}
	}
}

// TestReconcilePlanBytes gates what planning BenchmarkReconcilePlan's defrag
// allocates at 666 000 bytes: 60 % of the 1.11 MB it took while every member
// of a wave carried a plan of its own, sized to every switch, and the wave's
// plan was merged from them. Planning is deterministic, so its cost is gated
// hard, without a timing.
func TestReconcilePlanBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	p := &Planner{C: benchCloud(t)}
	plan := func() {
		if plan, err := p.Plan(Spec{Goal: GoalDefrag}); err != nil || len(plan.Moves) < 100 {
			t.Fatalf("defrag plan: %+v, err %v", plan, err)
		}
	}
	plan()
	const runs, budget = 20, 666_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		plan()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("a defrag plan of the benchmark fabric allocates %d bytes", bytes)
	if bytes > budget {
		t.Errorf("a defrag plan allocates %d bytes, budget %d", bytes, budget)
	}
}

// BenchmarkReconcileApply is one reconcile-waves cycle, planned and applied
// as the control plane applies it: a seeded scatter of the 256 VMs (an
// explicit placement on seeded hosts, at most two to one), then a defrag.
// Each wave runs as the planner staged and planned it; the apply stages
// nothing and plans nothing.
func BenchmarkReconcileApply(b *testing.B) {
	c := benchCloud(b)
	p := &Planner{C: c}
	rng := rand.New(rand.NewSource(22))
	hyps := c.Hypervisors()
	names := c.VMs()
	reconcile := func(spec Spec) int {
		plan, err := p.Plan(spec)
		if err != nil {
			b.Fatal(err)
		}
		for i, w := range plan.Staged {
			if err := c.BindWave(w); err != nil {
				b.Fatalf("%s wave %d: %v", spec.Goal, i, err)
			}
			if _, err := c.RunWave(w, nil); err != nil {
				b.Fatalf("%s wave %d: %v", spec.Goal, i, err)
			}
		}
		return len(plan.Moves)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		want := make(map[string]topology.NodeID, len(names))
		used := map[topology.NodeID]int{}
		for _, name := range names {
			h := hyps[rng.Intn(len(hyps))]
			for used[h] >= 2 {
				h = hyps[rng.Intn(len(hyps))]
			}
			used[h]++
			want[name] = h
		}
		reconcile(Spec{Goal: GoalPlacement, Placement: want})
		if n := reconcile(Spec{Goal: GoalDefrag}); n == 0 {
			b.Fatal("defrag of a scatter moved no VM")
		}
	}
}
