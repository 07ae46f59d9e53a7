package cloud

import (
	"fmt"

	"ibvsim/internal/cdg"
	"ibvsim/internal/core"
	"ibvsim/internal/ib"
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
	// LIDs are the LID columns the wave rewrites (Migration.LIDs of every member),
	// set before the first edit: a wave that fails mid-distribution still
	// names what it may have stranded.
	LIDs []ib.LID
}

// Wave is a staged migration wave: its members, staged against one fabric
// state, and the one plan all their LFT edits ride — nil when no member
// edits a table (Shared Port). A member carries its predicted counts, not
// its edits; a lone member's plan is the wave's. A planner stages and plans
// a wave once, to cost it; RunWave commits that very plan.
type Wave struct {
	Members []*Migration
	Plan    *core.MigrationPlan
}

// PlanWave plans the LFT edits of staged members as one wave against the
// routing v (core.Reconfigurator.PlanWaveOn): one walk over the switches
// builds the wave's merged plan and each member's Predicted counts. A lone
// member's Plan is the wave's; members of a larger wave get none.
func PlanWave(rc *core.Reconfigurator, v cdg.Routes, ms []*Migration) (Wave, error) {
	w := Wave{Members: ms}
	if len(ms) == 0 || ms[0].kind == 0 { // Shared Port moves no column
		return w, nil
	}
	pairs := make([]core.LIDPair, len(ms))
	for i, m := range ms {
		pairs[i] = m.pair
	}
	plan, counts, err := rc.PlanWaveOn(v, ms[0].kind, pairs) // one cloud, one SR-IOV model
	if err != nil {
		return Wave{}, err
	}
	w.Plan = plan
	for i, m := range ms {
		m.Predicted = counts[i]
	}
	if len(ms) == 1 {
		ms[0].Plan = plan
	}
	return w, nil
}

// MigrateWaveProv migrates several VMs as one wave: every move is staged
// against the live fabric, PlanWave plans their edits as one table and
// RunWave applies it as a single distribution. The per-wave LID sets are
// disjoint (each move edits only its own VM LID and reserved destination-VF
// LID), so the plan never conflicts, and edits landing in the same 64-LID
// block of a switch cost one SMP instead of one per migration. Which moves
// share a wave is the reconcile planner's decision; this runs the wave it is
// given, and refuses a multi-move wave under the invalidation pre-pass.
//
// All members are staged (destination VFs held) before anything is mutated:
// each holds its own destination VF, so no two can claim the same slot, and
// a validation failure anywhere leaves the cloud untouched, under every
// SR-IOV model.
//
// prov is the provenance epoch of the wave's merged LFT distribution; nil
// builds a generic wave stamp, so wave writes are never unattributed.
func (c *Cloud) MigrateWaveProv(moves []Move, prov *ib.Provenance) (rep WaveReport, err error) {
	if len(moves) == 0 {
		return rep, nil
	}
	ms := make([]*Migration, 0, len(moves))
	release := func() {
		for _, m := range ms {
			m.Release()
		}
	}
	seen := map[string]bool{}
	for _, mv := range moves {
		if seen[mv.VM] {
			release()
			return rep, fmt.Errorf("cloud: VM %q appears twice in one wave", mv.VM)
		}
		seen[mv.VM] = true
		m, err := c.stage(mv.VM, mv.To, -1)
		if err != nil {
			release()
			return rep, err
		}
		ms = append(ms, m)
	}
	w, err := PlanWave(c.RC, c.SM.Programmed(), ms)
	if err != nil {
		release()
		return rep, err
	}
	return c.RunWave(w, prov)
}

// BindWave adopts a wave staged against a planner's shadow of this cloud
// onto the live VFs, holding each member's destination VF as Stage would
// have. The plans stay as staged: the shadow started from this fabric and
// carries every effect of the waves before this one, so they are the plans
// a live Stage would compute now. A member whose VM is gone, moved or on a
// changed source VF, or whose destination VF is taken, held or re-addressed,
// refuses the wave with the live state untouched: nothing is held, nothing
// sent.
func (c *Cloud) BindWave(w Wave) error {
	for i, m := range w.Members {
		if err := c.bind(m); err != nil {
			for _, b := range w.Members[:i] {
				b.Release()
			}
			return err
		}
	}
	return nil
}

// bind is BindWave for one member. The hypervisors are the staged ones:
// a cloud's hypervisor set is fixed at New.
func (c *Cloud) bind(m *Migration) error {
	vm := c.VM(m.VM)
	if vm == nil {
		return fmt.Errorf("cloud: %w %q", ErrNoVM, m.VM)
	}
	src, dst := c.hyps[m.From].HCA, c.hyps[m.To].HCA
	if vm.Hyp != m.From || vm.VF != m.srcWas.Index {
		return fmt.Errorf("cloud: VM %q %w: staged on node %d VF %d, now on node %d VF %d",
			m.VM, ErrStale, m.From, m.srcWas.Index, vm.Hyp, vm.VF)
	}
	if src.VFs[vm.VF] != m.srcWas {
		return fmt.Errorf("cloud: VM %q %w: its VF is %+v, staged %+v", m.VM, ErrStale, src.VFs[vm.VF], m.srcWas)
	}
	to := dst.VFs[m.dstWas.Index]
	if !to.Free() {
		return fmt.Errorf("cloud: destination %d VF %d is no longer a %w", m.To, to.Index, ErrNoFreeVF)
	}
	if to.LID != m.dstWas.LID {
		return fmt.Errorf("cloud: destination %d VF %d %w: LID %d, staged %d", m.To, to.Index, ErrStale, to.LID, m.dstWas.LID)
	}
	dst.Hold(to.Index)
	m.c, m.vm, m.src, m.dst = c, vm, src, dst
	return nil
}

// RunWave runs a staged wave — staged live by MigrateWaveProv or bound by
// BindWave — round one Commit of the plan it carries; nothing is re-staged
// or re-planned. Every member is one Migration, run through the same steps as
// MigrateVM: a member that cannot detach aborts the wave with the fabric
// untouched, then one distribution carries the wave's edits, then each
// member settles under a span of its own. Each MigrationReport of a larger
// wave carries the member's predicted switch/SMP counts; the merged
// distribution's applied stats — the SMPs that actually hit the wire — are in
// WaveReport.Plan.
// Every report's Downtime is the wave's distribution time: the wave
// completes as a unit. On error every member's destination VF is released.
//
// prov is the provenance epoch of the wave's distribution (the reconciler
// passes one naming the wave index and goal); nil builds a generic stamp.
func (c *Cloud) RunWave(w Wave, prov *ib.Provenance) (rep WaveReport, err error) {
	ms := w.Members
	defer func() {
		if err != nil {
			for _, m := range ms {
				m.Release()
			}
		}
	}()
	if len(ms) == 0 {
		return rep, nil
	}
	if c.RC.Mitigation == core.MitigationInvalidate && len(ms) > 1 {
		// The invalidation pre-pass points each plan's VM LID at port 255
		// on every merged switch, but only that VM's own edits restore it —
		// a multi-move merge would strand LIDs invalidated on the other
		// moves' switches.
		return rep, fmt.Errorf("cloud: multi-move waves cannot run under %v; split into single-move waves",
			core.MitigationInvalidate)
	}
	if prov == nil {
		prov = &ib.Provenance{
			Mutation: ib.NextMutationID(),
			Engine:   "migrate",
			Reason:   fmt.Sprintf("wave (%d moves)", len(ms)),
			Shard:    ib.ShardNone,
		}
	}
	for i, m := range ms {
		if err = m.Detach(); err != nil {
			for _, d := range ms[:i] {
				d.Reattach()
			}
			return rep, err
		}
	}
	for _, m := range ms {
		rep.LIDs = append(rep.LIDs, m.LIDs...)
	}
	// Step 3: reconfigure the fabric once for the whole wave; then each
	// member settles under a span of its own.
	if rep.Plan, err = c.commit(prov, w); err != nil {
		return rep, err
	}
	for _, m := range ms {
		m.Begin()
		err = m.settle()
		m.End()
		if err != nil {
			return rep, err
		}
		rep.Reports = append(rep.Reports, m.Report())
		rep.HostSMPs += m.hostSMPs
	}
	return rep, nil
}
