package experiments

import (
	"fmt"

	"ibvsim/internal/cloud"
	"ibvsim/internal/core"
	"ibvsim/internal/fabric"
	"ibvsim/internal/sriov"
	"ibvsim/internal/topology"
)

// TransitionRow measures what in-flight traffic experiences while a
// migration's LFT updates are applied, per deadlock-mitigation strategy
// (section VI-C).
type TransitionRow struct {
	Mitigation core.Mitigation
	Injected   int
	Delivered  int
	Dropped    int
	Deadlocked bool
	ExtraSMPs  int // invalidation pre-pass SMPs
}

// TransitionUnderLoad runs a migration on a fat-tree cloud while heavy
// all-to-all traffic is in flight, under each mitigation. On a fat-tree
// the transition stays deadlock free (the up-down structure admits no
// cycles); port-255 invalidation additionally drops packets addressed to
// the migrating VM during the window, which the row's Dropped column
// surfaces.
func TransitionUnderLoad() ([]TransitionRow, error) {
	var rows []TransitionRow
	for _, mit := range []core.Mitigation{core.MitigationNone, core.MitigationDrain, core.MitigationInvalidate} {
		topo, err := topology.BuildXGFT(topology.XGFTSpec{M: []int{4, 4}, W: []int{1, 4}}, 8)
		if err != nil {
			return nil, err
		}
		cas := topo.CAs()
		c, _, err := cloud.New(topo, cas[0], cas[1:], cloud.Config{
			Model:            sriov.VSwitchPrepopulated,
			VFsPerHypervisor: 2,
		})
		if err != nil {
			return nil, err
		}
		c.RC.Mitigation = mit
		c.RC.DrainTime = 0

		vm, err := c.CreateVMOn("load-vm", c.Hypervisors()[0])
		if err != nil {
			return nil, err
		}

		sim, err := fabric.New(topo, c.SM.Programmed(), fabric.Config{BufferCredits: 2, NumVLs: 1, TimeoutRounds: 64})
		if err != nil {
			return nil, err
		}
		row := TransitionRow{Mitigation: mit}
		// Cross traffic between other hypervisors plus flows toward the VM.
		for i := 2; i < 10; i++ {
			src := c.Hypervisors()[i]
			if err := sim.Inject(src, c.SM.LIDOf(c.Hypervisors()[i+2]), 4); err != nil {
				return nil, err
			}
			if err := sim.Inject(src, vm.Addr.LID, 4); err != nil {
				return nil, err
			}
			row.Injected += 8
		}
		// Let some packets enter, then reconfigure mid-flight. Each SMP
		// the reconfigurator sends advances the fabric one round, so the
		// traffic rides through the Rold/Rnew mixture (and, under the
		// invalidation mitigation, through the drop window).
		for i := 0; i < 2; i++ {
			sim.Step()
		}
		c.RC.AfterUpdate = func() { sim.Step() }
		rep, err := c.MigrateVM("load-vm", c.Hypervisors()[11])
		if err != nil {
			return nil, err
		}
		c.RC.AfterUpdate = nil
		row.ExtraSMPs = rep.Plan.InvalidationSMPs
		run := sim.Run(10000)
		row.Delivered = sim.Delivered
		row.Dropped = sim.Dropped
		row.Deadlocked = run.Deadlocked
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderTransition formats the rows.
func RenderTransition(rows []TransitionRow) string {
	t := &table{header: []string{"Mitigation", "Injected", "Delivered", "Dropped", "Deadlocked", "ExtraSMPs"}}
	for _, r := range rows {
		t.add(r.Mitigation.String(), fmt.Sprintf("%d", r.Injected),
			fmt.Sprintf("%d", r.Delivered), fmt.Sprintf("%d", r.Dropped),
			fmt.Sprintf("%v", r.Deadlocked), fmt.Sprintf("%d", r.ExtraSMPs))
	}
	return "Section VI-C — traffic during a mid-flight reconfiguration, per mitigation\n" + t.String()
}
