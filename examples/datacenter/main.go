// Datacenter shows the defragmentation scenario that motivates cheap
// migrations (sections I and V-B): VMs scattered by a spread scheduler are
// consolidated onto as few hypervisors as possible. The reconcile planner
// packs the migrations into waves, and each wave's LFT edits ride one merged
// distribution (section VI-D).
package main

import (
	"fmt"
	"log"
	"time"

	"ibvsim/internal/cloud"
	"ibvsim/internal/reconcile"
	"ibvsim/internal/sriov"
	"ibvsim/internal/topology"
)

func main() {
	topo, err := topology.BuildPaperFatTree(324)
	if err != nil {
		log.Fatal(err)
	}
	cas := topo.CAs()
	c, _, err := cloud.New(topo, cas[0], cas[1:], cloud.Config{
		Model:            sriov.VSwitchDynamic,
		VFsPerHypervisor: 8,
		Scheduler:        cloud.Spread{},
	})
	if err != nil {
		log.Fatal(err)
	}

	// A spread scheduler fragments 64 VMs across 64 hypervisors.
	for i := 0; i < 64; i++ {
		if _, err := c.CreateVM(fmt.Sprintf("vm%03d", i)); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("created 64 VMs; occupied hypervisors: %d\n", occupied(c))

	plan, err := (&reconcile.Planner{C: c}).Plan(reconcile.Spec{Goal: reconcile.GoalDefrag})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("defrag plan: %d migrations in %d waves, %d LFT SMPs predicted\n",
		len(plan.Moves), len(plan.Waves), plan.Total.LFTSMPs)

	var modelled time.Duration
	smps := 0
	preserved := true
	for _, wave := range plan.Waves {
		rep, err := c.MigrateWaveProv(wave, nil)
		if err != nil {
			log.Fatal(err)
		}
		modelled += rep.Plan.ModelledTime
		smps += rep.Plan.SMPs
		for _, r := range rep.Reports {
			preserved = preserved && !r.AddressesChanged
		}
	}
	fmt.Printf("executed in %d waves (each one merged distribution), modelled wall time %v, %d LFT SMPs total\n",
		len(plan.Waves), modelled, smps)
	fmt.Printf("occupied hypervisors after defrag: %d\n", occupied(c))
	fmt.Printf("every VM kept its addresses: %v\n", preserved)
}

func occupied(c *cloud.Cloud) int {
	n := 0
	for _, h := range c.Hypervisors() {
		if c.VMCountOn(h) > 0 {
			n++
		}
	}
	return n
}
