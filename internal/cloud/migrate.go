package cloud

import (
	"fmt"
	"time"

	"ibvsim/internal/core"
	"ibvsim/internal/ib"
	"ibvsim/internal/sm"
	"ibvsim/internal/sriov"
	"ibvsim/internal/telemetry"
	"ibvsim/internal/topology"
)

// MigrationReport describes one live migration.
type MigrationReport struct {
	VM       string
	From, To topology.NodeID
	Plan     core.PlanStats
	HostSMPs int
	// AddressesChanged is true when the VM's LID differs after migration
	// (always the case under Shared Port, never under vSwitch).
	AddressesChanged bool
	// Downtime is the modelled network downtime: the reconfiguration time
	// (the VM memory copy overlaps it and is not modelled here).
	Downtime time.Duration
	// Span is the root migration span's trace ID, so a client can audit the
	// report against the telemetry trace without scanning span windows.
	Span int
	// LIDs are the LID columns the migration rewrites. A failed migration's
	// report carries them too: a reconfiguration that died half-way strands
	// exactly these.
	LIDs []ib.LID
}

// Rebind is one effect of a migration on the SM's address map: LID answers at
// Node afterwards.
type Rebind struct {
	LID  ib.LID
	Node topology.NodeID
}

// Migration is one section VII-B move as a value. Stage computes it once —
// the columns it rewrites and its declared effects — PlanWave plans its LFT
// edits with the rest of its wave, and the steps then drive it without
// looking at the SR-IOV model again:
//
//	Stage    validate, pick and hold the destination VF; nothing else changes
//	Detach   steps 1–2: detach and hold the source VF, signal the SM
//	Commit   step 3: the LFT edits — once for every member of a group — and
//	         the SM rebinds; Transfer then carries each member's vGUID
//	Vacate   the source VF takes its after-state and returns to the pool
//	Adopt    step 4: the destination VF takes its after-state, attached; the
//	         VM record and the SA follow
//
// MigrateVMVF runs them inline, RunWave for N members round one Commit of
// their wave's plan, and shard.Coordinator with each step on the actor that
// owns what it touches. The reconciler stages and plans each wave against its
// shadow once: the planner costs that wave and applies its effects to the
// shadow, and the apply binds the same values to the live VFs (BindWave,
// which refuses a member whose VM or VFs changed since) and runs them —
// what was costed is what is sent. A step that fails after Detach leaves the
// source VF held: the stranded VM still names it, and re-advertising it
// would hand the next VM a half-moved LID. Release and Reattach undo Stage
// (or BindWave) and Detach while the fabric is still untouched.
type Migration struct {
	VM       string
	From, To topology.NodeID
	// Addr is the VM's address triple before the move, NewAddr after it.
	Addr, NewAddr sriov.Addresses
	// Plan is the LFT reconfiguration of a migration planned alone, a wave
	// of one (nil under Shared Port). A member of a larger wave has no plan
	// of its own — the wave's plan is the one table of every member's edits
	// — and carries only Predicted: the switches its own edits touch and the
	// SMPs they take, what its plan alone would count. LIDs are the columns
	// it rewrites — what an op-scoped audit must re-prove afterwards.
	Plan      *core.MigrationPlan
	Predicted core.PlanCounts
	LIDs      []ib.LID
	// SrcAfter and DstAfter are the two VFs as the move leaves them; Rebinds
	// the SM address-map effects.
	SrcAfter, DstAfter sriov.VF
	Rebinds            []Rebind
	// Via, when set, qualifies the SM event-log lines ("cross-shard 0 -> 1").
	Via string

	c        *Cloud
	vm       *VM
	src, dst *sriov.HCA
	span     *telemetry.Span
	stats    core.PlanStats
	downtime time.Duration
	hostSMPs int
	// srcWas and dstWas are the two VFs as Stage found them: what BindWave
	// holds the live VFs to.
	srcWas, dstWas sriov.VF
	// kind and pair are what PlanWave plans: no kind under Shared Port.
	kind core.PlanKind
	pair core.LIDPair
}

// Stage computes a migration from VF srcVF of src to VF dstVF of dst: what it
// does, not yet its LFT edits, which PlanWave plans for its whole wave. It is
// a pure function of the SR-IOV model and the two VFs, and the only place
// migration semantics depend on the model: under the prepopulated swap the
// VM's column and the destination VF's exchange, and so do the two VFs'
// LIDs; under dynamic assignment only the VM's column moves; under Shared
// Port no column moves and the VM answers on dst's PF LID. The vGUID travels
// with the VM in every model.
func Stage(name string, src *sriov.HCA, srcVF int, dst *sriov.HCA, dstVF int) (*Migration, error) {
	from, to := src.VFs[srcVF], dst.VFs[dstVF]
	m := &Migration{
		VM: name, From: src.Node, To: dst.Node, Addr: src.Addresses(from), src: src, dst: dst,
		srcWas: from, dstWas: to,
		SrcAfter: sriov.VF{Index: srcVF, GUID: src.PFGUID + ib.GUID(srcVF+1)},
		DstAfter: sriov.VF{Index: dstVF, GUID: from.GUID, Attached: true},
	}
	switch src.Model {
	case sriov.VSwitchPrepopulated:
		m.kind, m.pair = core.PlanSwap, core.LIDPair{VM: from.LID, Peer: to.LID}
		m.LIDs = []ib.LID{from.LID, to.LID}
		m.SrcAfter.LID, m.DstAfter.LID = to.LID, from.LID
		m.Rebinds = []Rebind{{from.LID, dst.Node}, {to.LID, src.Node}}
	case sriov.VSwitchDynamic:
		m.kind, m.pair = core.PlanCopy, core.LIDPair{VM: from.LID, Peer: dst.PFLID}
		m.LIDs = []ib.LID{from.LID}
		m.DstAfter.LID = from.LID
		m.Rebinds = []Rebind{{from.LID, dst.Node}}
	case sriov.SharedPort:
		m.LIDs = []ib.LID{dst.PFLID}
	default:
		return nil, fmt.Errorf("cloud: unknown SR-IOV model %v", src.Model)
	}
	m.NewAddr = dst.Addresses(m.DstAfter)
	return m, nil
}

// Stage validates a move of the named VM to dst and stages and plans it
// against the live fabric as a wave of one, picking (dstVF < 0: the first
// free) and holding the destination VF. Nothing else is mutated.
func (c *Cloud) Stage(name string, dst topology.NodeID, dstVF int) (*Migration, error) {
	m, err := c.stage(name, dst, dstVF)
	if err != nil {
		return nil, err
	}
	if _, err := PlanWave(c.RC, c.SM.Programmed(), []*Migration{m}); err != nil {
		m.Release()
		return nil, err
	}
	return m, nil
}

// stage is Stage without the plan: a member of a wave PlanWave plans whole.
func (c *Cloud) stage(name string, dst topology.NodeID, dstVF int) (*Migration, error) {
	vm := c.VM(name)
	if vm == nil {
		return nil, fmt.Errorf("cloud: %w %q", ErrNoVM, name)
	}
	dstH := c.hyps[dst]
	if dstH == nil {
		return nil, fmt.Errorf("cloud: destination %d %w", dst, ErrNotHypervisor)
	}
	if dst == vm.Hyp {
		return nil, fmt.Errorf("cloud: VM %q %w %d", name, ErrSameNode, dst)
	}
	if dstVF < 0 {
		dstVF = dstH.HCA.FreeVF()
	}
	if dstVF < 0 || dstVF >= dstH.HCA.NumVFs() || !dstH.HCA.VFs[dstVF].Free() {
		return nil, fmt.Errorf("cloud: destination %d has no %w", dst, ErrNoFreeVF)
	}
	m, err := Stage(name, c.hyps[vm.Hyp].HCA, vm.VF, dstH.HCA, dstVF)
	if err != nil {
		return nil, err
	}
	dstH.HCA.Hold(dstVF)
	m.c, m.vm = c, vm
	return m, nil
}

// Release undoes Stage: the destination VF returns to the pool.
func (m *Migration) Release() { m.dst.Release(m.DstAfter.Index) }

// Begin opens the migration's span; everything the later steps emit hangs
// under it.
func (m *Migration) Begin() {
	m.span = m.c.SM.Telemetry().Tracer().Start(telemetry.SpanMigration, m.VM)
}

// Span returns the migration's span (nil before Begin).
func (m *Migration) Span() *telemetry.Span { return m.span }

// End closes the span with what the migration did, as far as it got.
func (m *Migration) End() {
	m.span.SetAttrs("vm", m.VM, "from", int64(m.From), "to", int64(m.To), "model", m.c.Model,
		"switches", m.stats.SwitchesUpdated, "smps", m.stats.SMPs, "host_smps", m.hostSMPs,
		"addresses_changed", m.NewAddr.LID != m.Addr.LID)
	m.span.SetModelled(m.downtime)
	m.span.End()
}

// Detach is steps 1–2: the source VF is detached — and held, so nothing is
// placed on it while the VM is in flight — the (modelled) memory copy begins,
// and the orchestrator signals the SM (the OpenStack -> OpenSM side channel).
func (m *Migration) Detach() error {
	if err := m.src.Detach(m.SrcAfter.Index); err != nil {
		return err
	}
	m.src.Hold(m.SrcAfter.Index)
	via := ""
	if m.Via != "" {
		via = " (" + m.Via + ")"
	}
	m.c.SM.Log().Addf(sm.EvMigration, "signal: migrate %q from %d to %d%s", m.VM, m.From, m.To, via)
	return nil
}

// Reattach undoes Detach.
func (m *Migration) Reattach() {
	m.src.Release(m.SrcAfter.Index)
	m.src.Attach(m.SrcAfter.Index) //nolint:errcheck // VF state untouched since Detach
}

// Commit is step 3 for a migration staged alone: its plan rides one
// distribution stamped with prov, exactly as Reconfigurator.Apply does, and
// the SM's address map follows. A failure here is transport-level: it is
// surfaced without rolling back the edits already sent.
func (c *Cloud) Commit(prov *ib.Provenance, m *Migration) (core.PlanStats, error) {
	return c.commit(prov, Wave{Members: []*Migration{m}, Plan: m.Plan})
}

// commit is step 3 for a planned wave: the wave's plan rides one
// distribution, then the members' rebinds follow. Its members' LID sets are
// disjoint — each holds its own destination VF — so edits landing in the
// same 64-LID block of a switch cost one SMP instead of one per member.
func (c *Cloud) commit(prov *ib.Provenance, w Wave) (core.PlanStats, error) {
	ms := w.Members
	c.SM.Telemetry().Registry().Counter("cloud.migrations").Add(int64(len(ms)))
	var st core.PlanStats
	var err error
	switch {
	case w.Plan == nil:
	case len(ms) == 1:
		// The lone member's span, when it has begun, owns the distribution.
		w.Plan.Prov, w.Plan.Under = prov, ms[0].span
		st, err = c.RC.Apply(w.Plan)
	default:
		w.Plan.Prov = prov
		if st, err = c.RC.ApplyEdits(w.Plan); err != nil {
			return st, err
		}
		for _, m := range ms {
			for _, rb := range m.Rebinds {
				if err := c.SM.RebindExtraLID(rb.LID, rb.Node); err != nil {
					return st, err
				}
			}
		}
	}
	for _, m := range ms {
		// The group completes as a unit: its distribution time is every
		// member's downtime. A lone member's applied figures are its own;
		// in a merged distribution each reports its predicted counts.
		m.downtime = st.ModelledTime
		if len(ms) == 1 {
			m.stats = st
		} else {
			m.stats = core.PlanStats{SwitchesUpdated: m.Predicted.SwitchesTouched, SMPs: m.Predicted.SMPs, ModelledTime: st.ModelledTime}
		}
	}
	return st, err
}

// Transfer completes step 3 for one member: the vGUID travels with the VM.
func (m *Migration) Transfer() (err error) {
	m.hostSMPs, err = m.c.RC.MigrateAddresses(m.From, m.To, m.Addr.GUID, m.span)
	return err
}

// Vacate hands the source VF back: it takes its after-state, unheld.
func (m *Migration) Vacate() { m.src.VFs[m.SrcAfter.Index] = m.SrcAfter }

// Adopt is step 4: the destination VF takes its after-state — attached,
// carrying the VM's addresses — and the VM record and the SA follow.
func (m *Migration) Adopt() error {
	m.dst.VFs[m.DstAfter.Index] = m.DstAfter
	m.vm.Hyp, m.vm.VF = m.To, m.DstAfter.Index
	changed := m.NewAddr.LID != m.Addr.LID
	if changed {
		if err := m.c.SA.Rebind(m.Addr.GID, m.NewAddr.LID); err != nil {
			return err
		}
	}
	m.vm.Addr = m.NewAddr
	via := ""
	if m.Via != "" {
		via = m.Via + ", "
	}
	m.c.SM.Log().Addf(sm.EvMigration, "migrated %q to node %d (LID %d, %saddresses changed: %v)",
		m.VM, m.To, m.NewAddr.LID, via, changed)
	return nil
}

// settle runs a member's remaining steps once the group's edits are in.
func (m *Migration) settle() error {
	if err := m.Transfer(); err != nil {
		return err
	}
	m.Vacate()
	return m.Adopt()
}

// Report describes the migration as far as it got.
func (m *Migration) Report() MigrationReport {
	return MigrationReport{
		VM: m.VM, From: m.From, To: m.To, Plan: m.stats, HostSMPs: m.hostSMPs,
		AddressesChanged: m.NewAddr.LID != m.Addr.LID, Downtime: m.downtime,
		Span: m.span.ID(), LIDs: m.LIDs,
	}
}

// MigrateVM performs the four-step workflow of section VII-B.
func (c *Cloud) MigrateVM(name string, dst topology.NodeID) (MigrationReport, error) {
	return c.MigrateVMVF(name, dst, -1)
}

// MigrateVMVF is MigrateVM with an explicit destination VF (dstVF < 0 picks
// the first free one): the five steps inline, under one span.
func (c *Cloud) MigrateVMVF(name string, dst topology.NodeID, dstVF int) (MigrationReport, error) {
	m, err := c.Stage(name, dst, dstVF)
	if err != nil {
		return MigrationReport{}, err
	}
	m.Begin()
	if err = m.Detach(); err == nil {
		_, err = c.Commit(&ib.Provenance{
			Mutation: ib.NextMutationID(),
			Span:     m.span.ID(),
			Engine:   "migrate",
			Reason:   fmt.Sprintf("migrate_vm %s %d->%d", name, m.From, dst),
			Shard:    c.shardOf(m.From),
		}, m)
	}
	if err == nil {
		err = m.settle()
	}
	if err != nil {
		m.Release()
	}
	m.End()
	return m.Report(), err
}
