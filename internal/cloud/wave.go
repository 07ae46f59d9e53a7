package cloud

import (
	"fmt"

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

// MigrateWaveProv migrates several VMs as one wave: every move's LFT edits
// are computed against the same fabric state, merged via MergePlans and
// applied as a single distribution. The per-wave LID sets are disjoint (each
// move edits only its own VM LID and reserved destination-VF LID), so the
// merge never conflicts, and edits landing in the same 64-LID block of a
// switch cost one SMP instead of one per migration. Which moves share a wave
// is the reconcile planner's decision; this runs the wave it is given, and
// refuses a multi-move wave under the invalidation pre-pass.
//
// Every member is one Migration, run through the same steps as MigrateVM
// round one shared Commit: all are staged (destination VFs held) before
// anything is mutated, and a member that cannot detach aborts the wave with
// the fabric untouched.
// Each MigrationReport carries its own plan's predicted switch/SMP counts;
// the merged distribution's applied stats — the SMPs that actually hit the
// wire — are in WaveReport.Plan. Every report's Downtime is the wave's
// distribution time: the wave completes as a unit.
//
// prov is the provenance epoch of the wave's merged LFT distribution (the
// reconciler passes one naming the wave index and goal); nil builds a
// generic wave stamp, so wave writes are never unattributed.
func (c *Cloud) MigrateWaveProv(moves []Move, prov *ib.Provenance) (rep WaveReport, err error) {
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
	// Stage every member before anything else changes: each holds its own
	// destination VF, so no two can claim the same slot, and a validation
	// failure anywhere leaves the cloud untouched, under every SR-IOV model.
	ms := make([]*Migration, 0, len(moves))
	defer func() {
		if err != nil {
			for _, m := range ms {
				m.Release()
			}
		}
	}()
	seen := map[string]bool{}
	for _, mv := range moves {
		if seen[mv.VM] {
			return rep, fmt.Errorf("cloud: VM %q appears twice in one wave", mv.VM)
		}
		seen[mv.VM] = true
		var m *Migration
		if m, err = c.Stage(mv.VM, mv.To, -1); err != nil {
			return rep, err
		}
		ms = append(ms, m)
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
	if rep.Plan, err = c.Commit(prov, ms...); err != nil {
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
