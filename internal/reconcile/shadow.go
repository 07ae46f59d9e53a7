package reconcile

import (
	"fmt"
	"slices"

	"ibvsim/internal/cloud"
	"ibvsim/internal/ib"
	"ibvsim/internal/sm"
	"ibvsim/internal/smp"
	"ibvsim/internal/sriov"
	"ibvsim/internal/telemetry"
	"ibvsim/internal/topology"
)

// shadow is a copy-on-write overlay of the fabric state a migration wave
// reads and writes: programmed LFTs, LID ownership, hypervisors' VF tables
// and per-VM placement. It is a cdg.Routes, so wave N+1's plans are computed
// on the exact state wave N's merged distribution will leave behind, and a
// core.LFTWriter, so a wave is costed by the very loop that applies it — the
// prediction a dry run reports is byte-for-byte the cost an apply pays.
// Nothing is copied up front: a table, HCA or VM record is copied on its
// first write, and every read of one not yet written falls through to the
// live state.
type shadow struct {
	c     *cloud.Cloud
	lfts  []*ib.LFT                      // by node ID; written switches only
	owner map[ib.LID]topology.NodeID     // rebound LIDs only
	hcas  map[topology.NodeID]*sriov.HCA // written hypervisors only: a private copy
	vms   map[string]vmShadow            // moved VMs only
	edits int                            // LFT entries written so far

	blocks []int // SetLFTEntriesProv's scratch: the blocks a run changed
}

type vmShadow struct {
	hyp topology.NodeID
	vf  int
}

func newShadow(c *cloud.Cloud) *shadow {
	return &shadow{
		c:     c,
		lfts:  make([]*ib.LFT, c.SM.Topo.NumNodes()),
		owner: map[ib.LID]topology.NodeID{},
		hcas:  map[topology.NodeID]*sriov.HCA{},
		vms:   map[string]vmShadow{},
	}
}

// hca is the hypervisor's HCA as the shadow sees it: its copy, else the live
// one — to read only.
func (s *shadow) hca(hn topology.NodeID) *sriov.HCA {
	if h := s.hcas[hn]; h != nil {
		return h
	}
	return s.c.Hypervisor(hn).HCA
}

// writableHCA returns the hypervisor's private HCA, copying the live one on
// first write.
func (s *shadow) writableHCA(hn topology.NodeID) *sriov.HCA {
	if h := s.hcas[hn]; h != nil {
		return h
	}
	h := *s.c.Hypervisor(hn).HCA
	h.VFs = slices.Clone(h.VFs)
	s.hcas[hn] = &h
	return &h
}

// vm is the VM's placement as the shadow sees it.
func (s *shadow) vm(name string) (vmShadow, bool) {
	if v, ok := s.vms[name]; ok {
		return v, true
	}
	v := s.c.VM(name)
	if v == nil {
		return vmShadow{}, false
	}
	return vmShadow{v.Hyp, v.VF}, true
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

// SetLFTEntriesProv implements core.LFTWriter: it writes the run to the
// switch's overlay table, cloned on first write, and returns the SMPs the
// SM's write would send for the blocks that changed.
func (s *shadow) SetLFTEntriesProv(sw topology.NodeID, run []ib.LFTEntry, _ smp.Mode, _ *ib.Provenance, _ *telemetry.Span) (int, error) {
	lft := s.lfts[sw]
	if lft == nil {
		base := s.c.SM.ProgrammedLFT(sw)
		if base == nil {
			return 0, fmt.Errorf("reconcile: switch %d not programmed", sw)
		}
		lft = base.Clone()
		s.lfts[sw] = lft
	}
	s.blocks = lft.SetRun(run, s.blocks[:0])
	return sm.CoalescedSMPs(s.blocks, s.c.SM.Dist.MaxBlocksPerSMP), nil
}

// simulateWave stages every move of the wave against the shadow state —
// the same cloud.Stage an apply would run against the live fabric — plans
// the wave as one table (cloud.PlanWave), writes it to the shadow through
// the loop ApplyEdits runs (core.CostEdits), which costs it as the apply
// will, and then applies the wave's other effects to the shadow: LID
// rebinds, both VFs' states. The staged wave is returned for the apply to
// bind and run as it is.
func (p *Planner) simulateWave(sh *shadow, wave []cloud.Move) (cloud.Wave, StepCost, error) {
	rc := p.C.RC
	ms := make([]*cloud.Migration, 0, len(wave))
	for _, mv := range wave {
		st, ok := sh.vm(mv.VM)
		if !ok {
			return cloud.Wave{}, StepCost{}, fmt.Errorf("reconcile: %w %q", cloud.ErrNoVM, mv.VM)
		}
		dst := sh.writableHCA(mv.To)
		dstVF := dst.FreeVF()
		if dstVF < 0 {
			return cloud.Wave{}, StepCost{}, fmt.Errorf("reconcile: destination %d has no %w for %q", mv.To, cloud.ErrNoFreeVF, mv.VM)
		}
		m, err := cloud.Stage(mv.VM, sh.hca(st.hyp), st.vf, dst, dstVF)
		if err != nil {
			return cloud.Wave{}, StepCost{}, err
		}
		dst.Hold(dstVF) // the wave's next member must pick another
		ms = append(ms, m)
	}
	w, err := cloud.PlanWave(rc, sh, ms)
	if err != nil {
		return cloud.Wave{}, StepCost{}, err
	}

	cost := StepCost{HostSMPs: 2 * len(wave)}
	if w.Plan != nil {
		sh.edits += len(w.Plan.Entries)
		st, err := rc.CostEdits(sh, w.Plan)
		if err != nil {
			return cloud.Wave{}, StepCost{}, err
		}
		cost.SwitchesUpdated, cost.LFTSMPs, cost.InvalidationSMPs, cost.Modelled = st.SwitchesUpdated, st.SMPs, st.InvalidationSMPs, st.ModelledTime
	}

	for _, m := range ms {
		sh.writableHCA(m.From).VFs[m.SrcAfter.Index] = m.SrcAfter
		sh.writableHCA(m.To).VFs[m.DstAfter.Index] = m.DstAfter
		for _, rb := range m.Rebinds {
			sh.owner[rb.LID] = rb.Node
		}
		sh.vms[m.VM] = vmShadow{m.To, m.DstAfter.Index}
	}
	return w, cost, nil
}
