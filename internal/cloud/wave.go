package cloud

import (
	"fmt"

	"ibvsim/internal/core"
	"ibvsim/internal/ib"
	"ibvsim/internal/sm"
	"ibvsim/internal/sriov"
	"ibvsim/internal/telemetry"
	"ibvsim/internal/topology"
)

// WaveReport summarises one coalesced migration wave.
type WaveReport struct {
	Reports []MigrationReport
	// Plan is what the single merged LFT distribution did: the edits of
	// every move in the wave ride one distribution, so 64-LID blocks shared
	// between moves cost one SMP instead of one each.
	Plan core.PlanStats
	// HostSMPs totals the per-hypervisor address SMPs across the wave.
	HostSMPs int
	// LIDs are the LID columns the wave rewrites (MovedLIDs of every member),
	// set before the first edit: a wave that fails mid-distribution still
	// names what it may have stranded.
	LIDs []ib.LID
}

// wavePlanned is one validated wave member with its reserved destination VF.
type wavePlanned struct {
	mv    Move
	vm    *VM
	dstVF int
	plan  *core.MigrationPlan // nil under Shared Port
}

// planWave validates the wave as a set and computes each move's plan against
// the current fabric, reserving destination VFs so no two moves can claim
// the same slot. Nothing is mutated: a validation failure anywhere leaves
// the cloud untouched, under every SR-IOV model.
func (c *Cloud) planWave(moves []Move) ([]wavePlanned, error) {
	seen := map[string]bool{}
	reserved := map[topology.NodeID]map[int]bool{}
	planned := make([]wavePlanned, 0, len(moves))
	for _, mv := range moves {
		vm := c.vms[mv.VM]
		if vm == nil {
			return nil, fmt.Errorf("cloud: %w %q", ErrNoVM, mv.VM)
		}
		if seen[mv.VM] {
			return nil, fmt.Errorf("cloud: VM %q appears twice in one wave", mv.VM)
		}
		seen[mv.VM] = true
		dstH := c.hyps[mv.To]
		if dstH == nil {
			return nil, fmt.Errorf("cloud: destination %d %w", mv.To, ErrNotHypervisor)
		}
		if mv.To == vm.Hyp {
			return nil, fmt.Errorf("cloud: VM %q %w %d", mv.VM, ErrSameNode, mv.To)
		}
		if reserved[mv.To] == nil {
			reserved[mv.To] = map[int]bool{}
		}
		dstVF := -1
		for i := range dstH.HCA.VFs {
			if !dstH.HCA.VFs[i].Attached && !reserved[mv.To][i] {
				dstVF = i
				break
			}
		}
		if dstVF < 0 {
			return nil, fmt.Errorf("cloud: destination %d has no %w", mv.To, ErrNoFreeVF)
		}
		reserved[mv.To][dstVF] = true
		var plan *core.MigrationPlan
		var err error
		switch c.Model {
		case sriov.VSwitchPrepopulated:
			plan, err = c.RC.PlanSwap(vm.Addr.LID, dstH.HCA.VFs[dstVF].LID)
		case sriov.VSwitchDynamic:
			plan, err = c.RC.PlanCopy(vm.Addr.LID, c.SM.LIDOf(mv.To))
		case sriov.SharedPort:
			// No LFT updates: the VM adopts the destination PF's LID.
		default:
			err = fmt.Errorf("cloud: unknown SR-IOV model %v", c.Model)
		}
		if err != nil {
			return nil, err
		}
		planned = append(planned, wavePlanned{mv, vm, dstVF, plan})
	}
	return planned, nil
}

// MigrateWave migrates several VMs as one wave: every move's LFT edits are
// computed against the same fabric state, merged via MergePlans and applied
// as a single distribution. The per-wave LID sets are disjoint (each move
// edits only its own VM LID and reserved destination-VF LID), so the merge
// never conflicts, and edits landing in the same 64-LID block of a switch
// cost one SMP instead of one per migration.
//
// Validation and destination-VF reservation happen before anything is
// mutated; the per-move bookkeeping (VF detach/attach, vGUID travel, SA
// rebinds) then follows MigrateVM's four-step workflow for every member.
// Each MigrationReport carries its own plan's predicted switch/SMP counts;
// the merged distribution's applied stats — the SMPs that actually hit the
// wire — are in WaveReport.Plan. Every report's Downtime is the wave's
// distribution time: the wave completes as a unit.
func (c *Cloud) MigrateWave(moves []Move) (WaveReport, error) {
	return c.MigrateWaveProv(moves, nil)
}

// MigrateWaveProv is MigrateWave with an explicit provenance epoch for the
// wave's merged LFT distribution (the reconciler passes one naming the wave
// index and goal). nil builds a generic wave stamp, so wave writes are never
// unattributed.
func (c *Cloud) MigrateWaveProv(moves []Move, prov *ib.Provenance) (WaveReport, error) {
	var rep WaveReport
	if len(moves) == 0 {
		return rep, nil
	}
	if prov == nil {
		prov = &ib.Provenance{
			Mutation: ib.NextMutationID(),
			Engine:   "migrate",
			Reason:   fmt.Sprintf("wave (%d moves)", len(moves)),
			Shard:    ib.ShardNone,
		}
	}
	if c.RC.Mitigation == core.MitigationInvalidate && len(moves) > 1 {
		// The invalidation pre-pass points each plan's VM LID at port 255
		// on every merged switch, but only that VM's own edits restore it —
		// a multi-move merge would strand LIDs invalidated on the other
		// moves' switches.
		return rep, fmt.Errorf("cloud: multi-move waves cannot run under %v; split into single-move waves",
			core.MitigationInvalidate)
	}
	planned, err := c.planWave(moves)
	if err != nil {
		return rep, err
	}
	for _, p := range planned {
		rep.LIDs = append(rep.LIDs, c.MovedLIDs(p.vm.Addr.LID, p.mv.To, p.dstVF)...)
	}

	// Step 1 for every member: detach the source VFs; the (modelled)
	// memory copies begin.
	for _, p := range planned {
		if err := c.hyps[p.vm.Hyp].HCA.Detach(p.vm.VF); err != nil {
			return rep, err
		}
	}
	// Step 2: one signal per move (the OpenStack -> OpenSM side channel).
	for _, p := range planned {
		c.SM.Log().Addf(sm.EvMigration, "signal: migrate %q from %d to %d",
			p.mv.VM, p.vm.Hyp, p.mv.To)
	}

	// Step 3: reconfigure the fabric once for the whole wave.
	var plans []*core.MigrationPlan
	for _, p := range planned {
		if p.plan != nil {
			plans = append(plans, p.plan)
		}
	}
	if len(plans) > 0 {
		merged, err := core.MergePlans(plans...)
		if err != nil {
			return rep, err
		}
		merged.Prov = prov
		st, err := c.RC.ApplyEdits(merged)
		if err != nil {
			return rep, err
		}
		rep.Plan = st
	}

	// Step 4 per member: rebind the moved LIDs, transfer addresses, attach.
	tr := c.SM.Telemetry().Tracer()
	for _, p := range planned {
		mr := MigrationReport{VM: p.mv.VM, From: p.vm.Hyp, To: p.mv.To}
		span := tr.Start(telemetry.SpanMigration, p.mv.VM)
		tr.PushScope(span)
		ferr := c.finishWaveMove(p, &mr, rep.Plan, len(planned))
		tr.PopScope()
		span.SetAttr("vm", p.mv.VM)
		span.SetAttr("from", int64(mr.From))
		span.SetAttr("to", int64(mr.To))
		span.SetAttr("model", c.Model)
		span.SetAttr("switches", mr.Plan.SwitchesUpdated)
		span.SetAttr("smps", mr.Plan.SMPs)
		span.SetAttr("host_smps", mr.HostSMPs)
		span.SetAttr("addresses_changed", mr.AddressesChanged)
		span.SetModelled(mr.Downtime)
		span.End()
		if ferr != nil {
			return rep, ferr
		}
		rep.Reports = append(rep.Reports, mr)
		rep.HostSMPs += mr.HostSMPs
	}
	return rep, nil
}

// finishWaveMove performs one member's post-distribution bookkeeping: the
// LID rebinds Apply would have done for its plan, the HCA VF LID/GUID
// updates, the vGUID transfer, and the destination attach.
func (c *Cloud) finishWaveMove(p wavePlanned, mr *MigrationReport, waveStats core.PlanStats, waveSize int) error {
	vm, dst := p.vm, p.mv.To
	src := vm.Hyp
	srcH, dstH := c.hyps[src], c.hyps[dst]
	waveTime := waveStats.ModelledTime
	c.SM.Telemetry().Registry().Counter("cloud.migrations").Inc()

	switch c.Model {
	case sriov.VSwitchPrepopulated:
		destLID := dstH.HCA.VFs[p.dstVF].LID
		if err := c.SM.RebindExtraLID(vm.Addr.LID, dst); err != nil {
			return err
		}
		if err := c.SM.RebindExtraLID(destLID, src); err != nil {
			return err
		}
		// The LIDs physically swap between the two VFs.
		if err := srcH.HCA.SetVFLID(vm.VF, destLID); err != nil {
			return err
		}
		if err := dstH.HCA.SetVFLID(p.dstVF, vm.Addr.LID); err != nil {
			return err
		}
	case sriov.VSwitchDynamic:
		if err := c.SM.RebindExtraLID(vm.Addr.LID, dst); err != nil {
			return err
		}
		if err := srcH.HCA.SetVFLID(vm.VF, ib.LIDUnassigned); err != nil {
			return err
		}
		if err := dstH.HCA.SetVFLID(p.dstVF, vm.Addr.LID); err != nil {
			return err
		}
	case sriov.SharedPort:
		mr.AddressesChanged = true
	}
	if p.plan != nil {
		if waveSize == 1 {
			mr.Plan = waveStats // applied == own plan for a lone move
		} else {
			mr.Plan = core.PlanStats{
				SwitchesUpdated: p.plan.SwitchesTouched,
				SMPs:            p.plan.SMPs,
				ModelledTime:    waveTime,
			}
		}
	}

	// The vGUID travels with the VM in every model.
	hostSMPs, err := c.RC.MigrateAddresses(src, dst, vm.Addr.GUID)
	if err != nil {
		return err
	}
	mr.HostSMPs = hostSMPs
	if err := srcH.HCA.SetVFGUID(vm.VF, srcH.HCA.PFGUID+ib.GUID(vm.VF+1)); err != nil {
		return err
	}
	if err := dstH.HCA.SetVFGUID(p.dstVF, vm.Addr.GUID); err != nil {
		return err
	}
	if err := dstH.HCA.Attach(p.dstVF); err != nil {
		return err
	}
	vm.Hyp, vm.VF = dst, p.dstVF
	newAddr, err := dstH.HCA.VFAddresses(p.dstVF)
	if err != nil {
		return err
	}
	if newAddr.LID != vm.Addr.LID {
		mr.AddressesChanged = true
		if err := c.SA.Rebind(vm.Addr.GID, newAddr.LID); err != nil {
			return err
		}
	}
	vm.Addr = newAddr
	mr.Downtime = waveTime
	c.SM.Log().Addf(sm.EvMigration, "migrated %q to node %d (LID %d, addresses changed: %v)",
		p.mv.VM, dst, vm.Addr.LID, mr.AddressesChanged)
	return nil
}
