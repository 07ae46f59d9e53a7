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
// LFT block the boot writes.
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
	for _, sw := range r.SM.Topo.Switches() {
		lft := r.SM.ProgrammedLFT(sw)
		if lft == nil {
			return st, fmt.Errorf("core: switch %q not programmed", r.SM.Topo.Node(sw).Desc)
		}
		var egress ib.PortNum
		if r.SM.NodeOfLID(pfLID) != topology.NoNode && r.SM.LIDOf(sw) == pfLID {
			egress = 0 // degenerate: never happens for CAs, kept for safety
		} else if sw == r.SM.Topo.LeafSwitchOf(hypervisor) {
			egress = r.SM.Topo.PortToward(sw, hypervisor)
		} else {
			egress = lft.Get(pfLID)
		}
		if egress == ib.DropPort {
			continue // switch cannot reach the hypervisor; keep dropping
		}
		n, err := r.SM.SetLFTEntriesProv(sw, []ib.LFTEntry{{LID: lid, Port: egress}}, r.Mode, prov, nil)
		if err != nil {
			return st, err
		}
		if n > 0 {
			st.SwitchesUpdated++
			st.SMPs += n
		}
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
// every invalidated LFT block.
func (r *Reconfigurator) DestroyVMLIDProv(lid ib.LID, prov *ib.Provenance) (BootStats, error) {
	var st BootStats
	st.LID = lid
	if r.SM.NodeOfLID(lid) == topology.NoNode {
		return st, fmt.Errorf("core: LID %d is not assigned", lid)
	}
	for _, sw := range r.SM.Topo.Switches() {
		lft := r.SM.ProgrammedLFT(sw)
		if lft == nil || lft.Get(lid) == ib.DropPort {
			continue
		}
		n, err := r.SM.SetLFTEntriesProv(sw, []ib.LFTEntry{{LID: lid, Port: ib.DropPort}}, r.Mode, prov, nil)
		if err != nil {
			return st, err
		}
		if n > 0 {
			st.SwitchesUpdated++
			st.SMPs += n
		}
	}
	r.SM.ReleaseExtraLID(lid)
	st.ModelledTime = r.SM.Cost.DistributionTime(st.SMPs, r.Mode)
	r.SM.Log().Addf(sm.EvVM, "destroy VM LID %d: %d SMPs", lid, st.SMPs)
	return st, nil
}
