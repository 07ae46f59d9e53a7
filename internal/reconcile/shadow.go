package reconcile

import (
	"fmt"
	"slices"

	"ibvsim/internal/cloud"
	"ibvsim/internal/core"
	"ibvsim/internal/ib"
	"ibvsim/internal/sm"
	"ibvsim/internal/sriov"
	"ibvsim/internal/topology"
)

// shadow is a copy-on-write overlay of the fabric state a migration wave
// reads and writes: programmed LFTs, LID ownership, every hypervisor's VF
// table and per-VM placement. It is a cdg.Routes, so wave N+1's
// plans are computed on the exact state wave N's merged distribution will
// leave behind — the prediction a dry run reports is byte-for-byte the cost
// an apply pays.
type shadow struct {
	c     *cloud.Cloud
	lfts  []*ib.LFT                      // by node ID; written switches only
	owner map[ib.LID]topology.NodeID     // rebound LIDs only
	hcas  map[topology.NodeID]*sriov.HCA // every hypervisor: a private copy
	vm    map[string]*vmShadow           // every VM
	edits int                            // LFT entries written so far
}

type vmShadow struct {
	hyp topology.NodeID
	vf  int
}

func newShadow(c *cloud.Cloud) *shadow {
	sh := &shadow{
		c:     c,
		lfts:  make([]*ib.LFT, c.SM.Topo.NumNodes()),
		owner: map[ib.LID]topology.NodeID{},
		hcas:  map[topology.NodeID]*sriov.HCA{},
		vm:    map[string]*vmShadow{},
	}
	for _, hn := range c.Hypervisors() {
		hca := *c.Hypervisor(hn).HCA
		hca.VFs = slices.Clone(hca.VFs)
		sh.hcas[hn] = &hca
	}
	for _, name := range c.VMs() {
		v := c.VM(name)
		sh.vm[name] = &vmShadow{v.Hyp, v.VF}
	}
	return sh
}

// LFT implements cdg.Routes: the overlay's table, else the programmed one.
func (s *shadow) LFT(sw topology.NodeID) *ib.LFT {
	if l := s.lfts[sw]; l != nil {
		return l
	}
	return s.c.SM.ProgrammedLFT(sw)
}

// NodeOf implements cdg.Routes: the overlay's owner, else the SM's.
func (s *shadow) NodeOf(l ib.LID) topology.NodeID {
	if n, ok := s.owner[l]; ok {
		return n
	}
	return s.c.SM.NodeOfLID(l)
}

// writableLFT returns the switch's overlay table, cloning the live one on
// first write.
func (s *shadow) writableLFT(sw topology.NodeID) *ib.LFT {
	if l := s.lfts[sw]; l != nil {
		return l
	}
	base := s.c.SM.ProgrammedLFT(sw)
	if base == nil {
		return nil
	}
	cl := base.Clone()
	s.lfts[sw] = cl
	return cl
}

// simulateWave stages every move of the wave against the shadow state —
// the same cloud.Stage an apply runs against the live fabric — merges the
// plans, predicts the merged distribution's cost exactly as
// ApplyEdits+SetLFTEntriesProv would account it, and then applies the wave's
// declared effects to the shadow: LFT edits, LID rebinds, both VFs' states.
func (p *Planner) simulateWave(sh *shadow, wave []cloud.Move) (StepCost, error) {
	rc := p.C.RC
	var ms []*cloud.Migration
	var plans []*core.MigrationPlan
	for _, mv := range wave {
		st := sh.vm[mv.VM]
		if st == nil {
			return StepCost{}, fmt.Errorf("reconcile: %w %q", cloud.ErrNoVM, mv.VM)
		}
		dst := sh.hcas[mv.To]
		dstVF := dst.FreeVF()
		if dstVF < 0 {
			return StepCost{}, fmt.Errorf("reconcile: destination %d has no %w for %q", mv.To, cloud.ErrNoFreeVF, mv.VM)
		}
		m, err := cloud.Stage(rc, sh, mv.VM, sh.hcas[st.hyp], st.vf, dst, dstVF)
		if err != nil {
			return StepCost{}, err
		}
		dst.Hold(dstVF) // the wave's next member must pick another
		if m.Plan != nil {
			plans = append(plans, m.Plan)
		}
		ms = append(ms, m)
	}

	cost := StepCost{HostSMPs: 2 * len(wave)}
	if len(plans) > 0 {
		merged, err := core.MergePlans(plans...)
		if err != nil {
			return StepCost{}, err
		}
		// Cost each switch's run as the SM will send it — its ascending blocks,
		// coalesced by the SM's own rule — and commit it to the shadow table.
		sh.edits += len(merged.Entries)
		var blocks []int
		for i, sw := range merged.Switches {
			lft := sh.writableLFT(sw)
			if lft == nil {
				return StepCost{}, fmt.Errorf("reconcile: switch %d not programmed", sw)
			}
			if rc.Mitigation == core.MitigationInvalidate && lft.Get(merged.VMLID) != ib.DropPort {
				cost.InvalidationSMPs++
			}
			blocks = blocks[:0]
			for _, e := range merged.Run(i) {
				if b := ib.BlockOf(e.LID); len(blocks) == 0 || blocks[len(blocks)-1] != b {
					blocks = append(blocks, b)
				}
				lft.Set(e.LID, e.Port)
			}
			cost.SwitchesUpdated++
			cost.LFTSMPs += sm.CoalescedSMPs(blocks, p.C.SM.Dist.MaxBlocksPerSMP)
		}
		cost.Modelled = p.C.SM.Cost.DistributionTime(cost.LFTSMPs+cost.InvalidationSMPs, rc.Mode)
		if rc.Mitigation == core.MitigationDrain {
			cost.Modelled += rc.DrainTime
		}
	}

	for _, m := range ms {
		sh.hcas[m.From].VFs[m.SrcAfter.Index] = m.SrcAfter
		sh.hcas[m.To].VFs[m.DstAfter.Index] = m.DstAfter
		for _, rb := range m.Rebinds {
			sh.owner[rb.LID] = rb.Node
		}
		*sh.vm[m.VM] = vmShadow{m.To, m.DstAfter.Index}
	}
	return cost, nil
}
