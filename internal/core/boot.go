package core

import (
	"fmt"
	"time"

	"ibvsim/internal/ib"
	"ibvsim/internal/sm"
	"ibvsim/internal/topology"
)

// BootStats reports the cost of bringing a dynamically assigned VM LID into
// the fabric.
type BootStats struct {
	LID             ib.LID
	SwitchesUpdated int
	SMPs            int
	ModelledTime    time.Duration
}

// BootVMLID implements the section V-B fast path for VM creation under
// dynamic LID assignment: allocate a fresh LID for a VM on the given
// hypervisor and program it into every switch by copying the forwarding
// entry of the hypervisor's PF — no path computation, at most one SMP per
// switch ("It is only needed to iterate through the LFTs of all the
// physical switches ... copy the forwarding port from the LID entry that
// belongs to the PF ... and send a single SMP").
func (r *Reconfigurator) BootVMLID(hypervisor topology.NodeID) (BootStats, error) {
	return r.BootVMLIDProv(hypervisor, nil)
}

// BootVMLIDProv is BootVMLID with a provenance stamp attributed to every
// LFT block the boot writes. Its SMPs' spans are roots.
func (r *Reconfigurator) BootVMLIDProv(hypervisor topology.NodeID, prov *ib.Provenance) (BootStats, error) {
	var st BootStats
	pfLID := r.SM.LIDOf(hypervisor)
	if pfLID == ib.LIDUnassigned {
		return st, fmt.Errorf("core: hypervisor %d has no PF LID", hypervisor)
	}
	lid, err := r.SM.AllocExtraLID(hypervisor)
	if err != nil {
		return st, err
	}
	st.LID = lid
	topo := r.SM.Topo
	leaf := topo.LeafSwitchOf(hypervisor)
	n := topo.NumSwitches()
	plan := &MigrationPlan{Switches: make([]topology.NodeID, 0, n), Entries: make([]ib.LFTEntry, 0, n), offs: make([]int32, 1, n+1)}
	for _, sw := range topo.Switches() {
		lft := r.SM.ProgrammedLFT(sw)
		if lft == nil {
			return st, fmt.Errorf("core: switch %q not programmed", topo.Node(sw).Desc)
		}
		egress := lft.Get(pfLID) // DropPort: sw cannot reach the hypervisor; keep dropping
		if sw == leaf {
			egress = topo.PortToward(sw, hypervisor)
		}
		if egress != ib.DropPort {
			plan.Entries = append(plan.Entries, ib.LFTEntry{LID: lid, Port: egress})
			plan.closeRun(sw)
		}
	}
	if st.SwitchesUpdated, st.SMPs, err = r.write(r.SM, plan, prov, nil, nil, ""); err != nil {
		return st, err
	}
	st.ModelledTime = r.SM.Cost.DistributionTime(st.SMPs, r.Mode)
	r.SM.Log().Addf(sm.EvVM, "boot VM LID %d on node %d: %d SMPs", lid, hypervisor, st.SMPs)
	return st, nil
}

// DestroyVMLID removes a dynamically assigned VM LID: every switch that
// still forwards it gets the entry invalidated (port 255) and the LID
// returns to the pool.
func (r *Reconfigurator) DestroyVMLID(lid ib.LID) (BootStats, error) {
	return r.DestroyVMLIDProv(lid, nil)
}

// DestroyVMLIDProv is DestroyVMLID with a provenance stamp attributed to
// every invalidated LFT block. Its SMPs' spans are roots.
func (r *Reconfigurator) DestroyVMLIDProv(lid ib.LID, prov *ib.Provenance) (BootStats, error) {
	st := BootStats{LID: lid}
	if r.SM.NodeOfLID(lid) == topology.NoNode {
		return st, fmt.Errorf("core: LID %d is not assigned", lid)
	}
	forwarding := make([]topology.NodeID, 0, r.SM.Topo.NumSwitches())
	for _, sw := range r.SM.Topo.Switches() {
		if lft := r.SM.ProgrammedLFT(sw); lft != nil && lft.Get(lid) != ib.DropPort {
			forwarding = append(forwarding, sw)
		}
	}
	var err error
	if st.SwitchesUpdated, st.SMPs, err = r.write(r.SM, dropPlan(lid, forwarding), prov, nil, nil, ""); err != nil {
		return st, err
	}
	r.SM.ReleaseExtraLID(lid)
	st.ModelledTime = r.SM.Cost.DistributionTime(st.SMPs, r.Mode)
	r.SM.Log().Addf(sm.EvVM, "destroy VM LID %d: %d SMPs", lid, st.SMPs)
	return st, nil
}
