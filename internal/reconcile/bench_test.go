package reconcile

import (
	"fmt"
	"math/rand"
	"testing"

	"ibvsim/internal/cloud"
	"ibvsim/internal/sriov"
	"ibvsim/internal/topology"
)

// BenchmarkReconcilePlan is the benchmark module's reconcile-waves defrag,
// planning only: 256 VMs scattered one to a host over the 1000-host 3-level
// fat tree (300 switches), dynamic LIDs, two VFs a hypervisor — some 190
// moves staged against the shadow, merged and costed per wave.
func BenchmarkReconcilePlan(b *testing.B) {
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
	hyps := c.Hypervisors()
	rand.New(rand.NewSource(21)).Shuffle(len(hyps), func(i, j int) { hyps[i], hyps[j] = hyps[j], hyps[i] })
	for i, hn := range hyps[:256] {
		if _, err := c.CreateVMOn(fmt.Sprintf("vm-%03d", i), hn); err != nil {
			b.Fatal(err)
		}
	}
	p := &Planner{C: c}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := p.Plan(Spec{Goal: GoalDefrag})
		if err != nil || len(plan.Moves) < 100 {
			b.Fatalf("defrag plan: %d moves, err %v", len(plan.Moves), err)
		}
	}
}
