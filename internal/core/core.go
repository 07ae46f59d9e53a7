// Package core implements the paper's primary contribution: topology
// agnostic dynamic network reconfiguration for live migration of VMs in
// vSwitch-enabled InfiniBand subnets (sections V-C, VI).
//
// Instead of recomputing paths (minutes on large subnets) and redistributing
// complete LFTs (n*m SMPs, equation 3), a migration is reconfigured by
// editing at most two LID entries per switch:
//
//   - Prepopulated LIDs (V-C1): the VM's LID and the LID of the destination
//     VF are *swapped* in every switch's LFT — one SMP per switch when both
//     LIDs share a 64-entry block, two otherwise, and zero when the switch
//     already routes both LIDs through the same port (n' < n, section VI-B).
//   - Dynamic LID assignment (V-C2): the VM's LID entry is *copied* from the
//     destination hypervisor's PF entry — at most one SMP per switch.
//
// The reconfigurator also implements the section VI-D scope reduction
// (update only the switches whose forwarding actually has to change — a
// single leaf switch for intra-leaf migrations), the destination-routed SMP
// optimisation of equation 5, and the section VI-C deadlock mitigations
// (port-255 invalidation pre-pass and peer draining).
package core

import (
	"fmt"
	"sort"
	"time"

	"ibvsim/internal/ib"
	"ibvsim/internal/sm"
	"ibvsim/internal/smp"
	"ibvsim/internal/telemetry"
	"ibvsim/internal/topology"
)

// PlanKind distinguishes the two reconfiguration flavours.
type PlanKind uint8

const (
	// PlanSwap is the prepopulated-LID reconfiguration (section V-C1).
	PlanSwap PlanKind = iota + 1
	// PlanCopy is the dynamic-LID reconfiguration (section V-C2).
	PlanCopy
)

// String implements fmt.Stringer.
func (k PlanKind) String() string {
	switch k {
	case PlanSwap:
		return "swap"
	case PlanCopy:
		return "copy"
	default:
		return fmt.Sprintf("PlanKind(%d)", uint8(k))
	}
}

// Scope selects how many switches a plan touches.
type Scope uint8

const (
	// ScopeAllSwitches is the deterministic Algorithm 1 behaviour: iterate
	// every switch and update whichever LFT blocks changed. Guarantees the
	// initial load balancing is preserved.
	ScopeAllSwitches Scope = iota
	// ScopeMinimal updates only the switches whose forwarding for the VM's
	// LID must change for correctness (section VI-D). Intra-leaf
	// migrations touch exactly one switch; balancing of the initial
	// routing may degrade for far migrations.
	ScopeMinimal
)

// String implements fmt.Stringer.
func (s Scope) String() string {
	if s == ScopeMinimal {
		return "minimal"
	}
	return "all-switches"
}

// Mitigation selects the section VI-C transition-deadlock handling.
type Mitigation uint8

const (
	// MitigationNone relies on IB timeouts if the Rold/Rnew transition
	// deadlocks (the paper's current implementation).
	MitigationNone Mitigation = iota
	// MitigationInvalidate first points the migrating LID at port 255 on
	// every switch in the plan (packets toward the VM are dropped during
	// the transition), then applies the new routes: n' extra SMPs.
	MitigationInvalidate
	// MitigationDrain models signalling the VM's peers to drain their send
	// queues before reconfiguring: no extra SMPs, added latency.
	MitigationDrain
)

// String implements fmt.Stringer.
func (m Mitigation) String() string {
	switch m {
	case MitigationInvalidate:
		return "invalidate-port255"
	case MitigationDrain:
		return "drain-peers"
	default:
		return "none"
	}
}

// Reconfigurator plans and applies vSwitch migrations against a subnet
// manager.
type Reconfigurator struct {
	SM *sm.SubnetManager
	// Mode is the SMP routing mode for LFT updates. DestinationRouted is
	// the paper's equation-5 optimisation: switch LIDs are not affected by
	// VM migration, so LID-routed SMPs are deliverable mid-transition.
	Mode smp.Mode
	// Scope selects deterministic (Algorithm 1) or minimal updates.
	Scope Scope
	// Mitigation selects the deadlock strategy; DrainTime is the modelled
	// peer-drain latency when MitigationDrain is chosen.
	Mitigation Mitigation
	DrainTime  time.Duration
	// AfterUpdate, when set, is invoked after each switch's LFT update
	// (and after each invalidation pre-pass SMP). Co-simulations hook the
	// fabric simulator here so in-flight traffic observes the Rold/Rnew
	// mixture switch by switch, exactly the transition state of section
	// VI-C.
	AfterUpdate func()
}

// NewReconfigurator returns a reconfigurator with the paper's recommended
// settings: destination-routed SMPs, deterministic scope, timeouts-only.
func NewReconfigurator(mgr *sm.SubnetManager) *Reconfigurator {
	return &Reconfigurator{SM: mgr, Mode: smp.DestinationRouted, Scope: ScopeAllSwitches}
}

// PlanView is the fabric state a migration plan is computed against: the
// programmed LFT of every switch plus LID ownership. *sm.SubnetManager
// satisfies it directly (the live fabric); planners that look several
// migration waves ahead satisfy it with a shadow overlay, so wave N+1's
// plan sees the LFT edits wave N will have applied.
type PlanView interface {
	ProgrammedLFT(sw topology.NodeID) *ib.LFT
	NodeOfLID(l ib.LID) topology.NodeID
}

// MigrationPlan is the exact set of LFT edits one migration needs.
type MigrationPlan struct {
	Kind    PlanKind
	VMLID   ib.LID
	PeerLID ib.LID // destination VF LID (swap) or destination PF LID (copy)

	// Updates lists the entries to program, per switch. Only switches with
	// at least one change appear.
	Updates map[topology.NodeID]map[ib.LID]ib.PortNum

	// SwitchesTouched and SMPs are the plan-time predictions (SMPs counts
	// distinct 64-LID blocks across all updates); Apply reports the same
	// numbers from the wire.
	SwitchesTouched int
	SMPs            int

	// Prov, when set, is the provenance epoch Apply/ApplyEdits stamps onto
	// every LFT block the plan rewrites. The invalidation pre-pass stamps a
	// derived epoch with Phase="invalidate" so a flight dump can tell a
	// deliberately dropped entry from the final routes.
	Prov *ib.Provenance
	// Under, when set, is the span ApplyEdits hangs its lft-swap span (and
	// through it every smp span) under. It travels with the plan like Prov
	// does, because shard actors apply plans side by side; nil leaves the
	// lft-swap span to the tracer's scope (a root, or a reconcile command's
	// child under the freeze).
	Under *telemetry.Span
}

// planEntries builds a plan from a per-switch editing rule, reading fabric
// state through v.
func (r *Reconfigurator) planEntries(v PlanView, kind PlanKind, vmLID, peerLID ib.LID,
	edit func(lft *ib.LFT) map[ib.LID]ib.PortNum) (*MigrationPlan, error) {

	if vmLID == peerLID {
		return nil, fmt.Errorf("core: VM LID and peer LID are both %d", vmLID)
	}
	plan := &MigrationPlan{
		Kind:    kind,
		VMLID:   vmLID,
		PeerLID: peerLID,
		Updates: map[topology.NodeID]map[ib.LID]ib.PortNum{},
	}
	for _, sw := range r.SM.Topo.Switches() {
		lft := v.ProgrammedLFT(sw)
		if lft == nil {
			return nil, fmt.Errorf("core: switch %q not programmed; bootstrap the SM first",
				r.SM.Topo.Node(sw).Desc)
		}
		changes := edit(lft)
		for l, p := range changes {
			if lft.Get(l) == p {
				delete(changes, l)
			}
		}
		if len(changes) == 0 {
			continue
		}
		plan.Updates[sw] = changes
		plan.SwitchesTouched++
		blocks := map[int]bool{}
		for l := range changes {
			blocks[ib.BlockOf(l)] = true
		}
		plan.SMPs += len(blocks)
	}
	return plan, nil
}

// PlanSwap builds the prepopulated-LID reconfiguration: on every switch,
// exchange the entries of the VM's LID and the destination VF's LID
// (section V-C1, Fig. 5). Entries equal on a switch produce no update there
// (the n' < n case of section VI-B). With ScopeMinimal only switches whose
// VM-LID forwarding must change for correctness are touched.
func (r *Reconfigurator) PlanSwap(vmLID, destVFLID ib.LID) (*MigrationPlan, error) {
	return r.PlanSwapOn(r.SM, vmLID, destVFLID)
}

// PlanSwapOn is PlanSwap computed against an arbitrary fabric view instead
// of the live SM state. Batch planners use it to plan wave N+1 against the
// shadow state wave N leaves behind.
func (r *Reconfigurator) PlanSwapOn(v PlanView, vmLID, destVFLID ib.LID) (*MigrationPlan, error) {
	if err := r.checkLIDs(v, vmLID, destVFLID); err != nil {
		return nil, err
	}
	plan, err := r.planEntries(v, PlanSwap, vmLID, destVFLID, func(lft *ib.LFT) map[ib.LID]ib.PortNum {
		pv, pd := lft.Get(vmLID), lft.Get(destVFLID)
		return map[ib.LID]ib.PortNum{vmLID: pd, destVFLID: pv}
	})
	if err != nil {
		return nil, err
	}
	if r.Scope == ScopeMinimal {
		r.restrictToCorrectness(v, plan)
	}
	return plan, nil
}

// PlanCopy builds the dynamic-assignment reconfiguration: on every switch,
// the VM's LID entry becomes a copy of the destination hypervisor PF's
// entry (section V-C2). At most one LID changes per switch, so at most one
// SMP per switch is ever needed.
func (r *Reconfigurator) PlanCopy(vmLID, destPFLID ib.LID) (*MigrationPlan, error) {
	return r.PlanCopyOn(r.SM, vmLID, destPFLID)
}

// PlanCopyOn is PlanCopy computed against an arbitrary fabric view instead
// of the live SM state.
func (r *Reconfigurator) PlanCopyOn(v PlanView, vmLID, destPFLID ib.LID) (*MigrationPlan, error) {
	if err := r.checkLIDs(v, vmLID, destPFLID); err != nil {
		return nil, err
	}
	plan, err := r.planEntries(v, PlanCopy, vmLID, destPFLID, func(lft *ib.LFT) map[ib.LID]ib.PortNum {
		return map[ib.LID]ib.PortNum{vmLID: lft.Get(destPFLID)}
	})
	if err != nil {
		return nil, err
	}
	if r.Scope == ScopeMinimal {
		r.restrictToCorrectness(v, plan)
	}
	return plan, nil
}

func (r *Reconfigurator) checkLIDs(v PlanView, vmLID, peerLID ib.LID) error {
	if v.NodeOfLID(vmLID) == topology.NoNode {
		return fmt.Errorf("core: VM LID %d is not assigned", vmLID)
	}
	if v.NodeOfLID(peerLID) == topology.NoNode {
		return fmt.Errorf("core: peer LID %d is not assigned", peerLID)
	}
	return nil
}

// restrictToCorrectness prunes the plan to the switches whose forwarding of
// the VM's LID actually has to change (section VI-D). A switch is dropped
// when the VM LID's *old* forwarding chain already passes through the
// destination's leaf switch — once that leaf is reprogrammed, traffic
// arriving there is delivered, so upstream switches can keep their entries.
// For an intra-leaf migration every old chain terminates at that very leaf,
// so exactly one switch is updated, regardless of topology. For a swap the
// paired VF-LID edit is also dropped (the freed VF has no VM to reach),
// trading the balance of the initial routing for fewer SMPs.
func (r *Reconfigurator) restrictToCorrectness(v PlanView, plan *MigrationPlan) {
	dstNode := v.NodeOfLID(plan.PeerLID)
	destLeaf := r.SM.Topo.LeafSwitchOf(dstNode)

	// oldChainReachesLeaf follows the programmed (pre-plan) forwarding of
	// the VM LID from sw and reports whether it crosses destLeaf.
	reach := map[topology.NodeID]int8{} // 0 unknown, 1 yes, -1 no
	var chase func(sw topology.NodeID, depth int) bool
	chase = func(sw topology.NodeID, depth int) bool {
		if sw == destLeaf {
			return true
		}
		if v := reach[sw]; v != 0 {
			return v > 0
		}
		if depth > 64 {
			return false
		}
		reach[sw] = -1 // cycle guard; confirmed below
		ok := false
		lft := v.ProgrammedLFT(sw)
		if lft != nil {
			out := lft.Get(plan.VMLID)
			n := r.SM.Topo.Node(sw)
			if out != ib.DropPort && out != 0 && int(out) < len(n.Ports) {
				peer := n.Ports[out].Peer
				if peer != topology.NoNode && r.SM.Topo.Node(peer).IsSwitch() {
					ok = chase(peer, depth+1)
				}
			}
		}
		if ok {
			reach[sw] = 1
		}
		return ok
	}

	plan.SwitchesTouched = 0
	plan.SMPs = 0
	for sw, changes := range plan.Updates {
		newVM, hasVM := changes[plan.VMLID]
		if !hasVM {
			delete(plan.Updates, sw)
			continue
		}
		if sw != destLeaf && chase(sw, 0) {
			delete(plan.Updates, sw)
			continue
		}
		// Keep only the VM LID edit: the peer LID (a free VF after the
		// migration) does not need correct routing immediately.
		if plan.Kind == PlanSwap {
			plan.Updates[sw] = map[ib.LID]ib.PortNum{plan.VMLID: newVM}
		}
		plan.SwitchesTouched++
		blocks := map[int]bool{}
		for l := range plan.Updates[sw] {
			blocks[ib.BlockOf(l)] = true
		}
		plan.SMPs += len(blocks)
	}
}

// PlanStats reports what Apply did.
type PlanStats struct {
	SwitchesUpdated  int
	SMPs             int // LFT-update SMPs actually sent
	InvalidationSMPs int // extra port-255 pre-pass SMPs (MitigationInvalidate)
	HostSMPs         int // per-hypervisor address SMPs (section V-C step a)
	ModelledTime     time.Duration
	Duration         time.Duration
}

// Apply programs the plan into the fabric: optional invalidation pre-pass,
// then the LFT edits (one SMP per touched block, in the reconfigurator's
// SMP mode), and finally rebinds the moved LIDs inside the subnet manager
// so its address map matches the new fabric state.
func (r *Reconfigurator) Apply(plan *MigrationPlan) (PlanStats, error) {
	st, err := r.ApplyEdits(plan)
	if err != nil {
		return st, err
	}
	// Rebind the moved LIDs (the SM-side view of "the addresses follow the
	// VM"). For a swap the two LIDs exchange owners; for a copy the VM LID
	// moves to the destination PF's node.
	srcNode := r.SM.NodeOfLID(plan.VMLID)
	dstNode := r.SM.NodeOfLID(plan.PeerLID)
	if err := r.SM.RebindExtraLID(plan.VMLID, dstNode); err != nil {
		return st, err
	}
	if plan.Kind == PlanSwap {
		if err := r.SM.RebindExtraLID(plan.PeerLID, srcNode); err != nil {
			return st, err
		}
	}
	r.SM.Log().Addf(sm.EvMigration,
		"reconfig %s lid %d <-> %d: %d switches, %d SMPs (+%d invalidation), modelled %v",
		plan.Kind, plan.VMLID, plan.PeerLID, st.SwitchesUpdated, st.SMPs,
		st.InvalidationSMPs, st.ModelledTime)
	return st, nil
}

// ApplyEdits programs a plan's LFT edits without touching the SM's LID
// ownership map. Use it for merged plans (MergePlans), where the caller
// performs each constituent migration's rebinds itself.
func (r *Reconfigurator) ApplyEdits(plan *MigrationPlan) (PlanStats, error) {
	start := time.Now()
	var st PlanStats

	span := r.spanUnder(plan.Under, telemetry.SpanLFTSwap, plan.Kind.String())
	defer func() {
		span.SetAttr("mode", r.Mode)
		span.SetAttr("switches", st.SwitchesUpdated)
		span.SetAttr("smps", st.SMPs)
		span.SetAttr("invalidation_smps", st.InvalidationSMPs)
		span.SetModelled(st.ModelledTime)
		span.EndWithWall(st.Duration)
	}()

	switches := make([]topology.NodeID, 0, len(plan.Updates))
	for sw := range plan.Updates {
		switches = append(switches, sw)
	}
	sort.Slice(switches, func(i, j int) bool { return switches[i] < switches[j] })

	if r.Mitigation == MitigationInvalidate {
		invProv := plan.Prov.WithPhase("invalidate")
		for _, sw := range switches {
			n, err := r.SM.SetLFTEntriesProv(sw, map[ib.LID]ib.PortNum{plan.VMLID: ib.DropPort}, r.Mode, invProv, span)
			if err != nil {
				return st, fmt.Errorf("core: invalidation pre-pass on %q: %w",
					r.SM.Topo.Node(sw).Desc, err)
			}
			st.InvalidationSMPs += n
			if r.AfterUpdate != nil {
				r.AfterUpdate()
			}
		}
	}

	for _, sw := range switches {
		n, err := r.SM.SetLFTEntriesProv(sw, plan.Updates[sw], r.Mode, plan.Prov, span)
		if err != nil {
			return st, fmt.Errorf("core: applying plan on %q: %w", r.SM.Topo.Node(sw).Desc, err)
		}
		if n > 0 {
			st.SwitchesUpdated++
			st.SMPs += n
		}
		if r.AfterUpdate != nil {
			r.AfterUpdate()
		}
	}

	st.ModelledTime = r.SM.Cost.DistributionTime(st.SMPs+st.InvalidationSMPs, r.Mode)
	if r.Mitigation == MitigationDrain {
		st.ModelledTime += r.DrainTime
	}
	st.Duration = time.Since(start)
	return st, nil
}

// spanUnder starts a span under an explicit parent, or, without one, under
// the tracer's scope.
func (r *Reconfigurator) spanUnder(parent *telemetry.Span, kind telemetry.SpanKind, name string) *telemetry.Span {
	if parent != nil {
		return parent.Child(kind, name)
	}
	return r.SM.Telemetry().Tracer().Start(kind, name)
}

// MigrateAddresses performs step (a) of Algorithm 1: one SMP to each
// participating hypervisor to set/unset the VF LID, plus the vGUID transfer
// to the destination (section V-C). Returns the number of host SMPs sent.
// The guid-migrate span hangs under the given span (the migration's).
func (r *Reconfigurator) MigrateAddresses(srcHyp, dstHyp topology.NodeID, vguid ib.GUID, under *telemetry.Span) (int, error) {
	n := 0
	span := r.spanUnder(under, telemetry.SpanGUIDMigrate, "")
	defer func() {
		span.SetAttr("host_smps", n)
		span.SetModelled(r.SM.Cost.SMPTime(smp.DestinationRouted) * time.Duration(n))
		span.End()
	}()
	// Unset on the source hypervisor.
	if err := r.SM.SetVGUID(srcHyp, 0); err != nil {
		return n, err
	}
	n++
	// Set the vGUID (and with it the LID binding) on the destination.
	if err := r.SM.SetVGUID(dstHyp, vguid); err != nil {
		return n, err
	}
	n++
	return n, nil
}

// MergePlans combines several migration plans into one set of per-switch
// edits, so that concurrent migrations whose LID entries share a 64-LID
// block cost a single SMP for that block instead of one each. Merging is
// only valid for plans computed against the same fabric state and applied
// together; conflicting edits to the same LID are rejected.
func MergePlans(plans ...*MigrationPlan) (*MigrationPlan, error) {
	if len(plans) == 0 {
		return nil, fmt.Errorf("core: nothing to merge")
	}
	merged := &MigrationPlan{
		Kind:    plans[0].Kind,
		VMLID:   plans[0].VMLID,
		PeerLID: plans[0].PeerLID,
		Prov:    plans[0].Prov,
		Updates: map[topology.NodeID]map[ib.LID]ib.PortNum{},
	}
	for _, p := range plans {
		for sw, changes := range p.Updates {
			dst := merged.Updates[sw]
			if dst == nil {
				dst = map[ib.LID]ib.PortNum{}
				merged.Updates[sw] = dst
			}
			for l, port := range changes {
				if prev, ok := dst[l]; ok && prev != port {
					return nil, fmt.Errorf("core: conflicting edits for LID %d on switch %d (%d vs %d)",
						l, sw, prev, port)
				}
				dst[l] = port
			}
		}
	}
	for _, changes := range merged.Updates {
		blocks := map[int]bool{}
		for l := range changes {
			blocks[ib.BlockOf(l)] = true
		}
		merged.SwitchesTouched++
		merged.SMPs += len(blocks)
	}
	return merged, nil
}

// Interferes reports whether two plans touch a common switch. Disjoint
// plans can run concurrently (section VI-D: as many concurrent migrations
// as leaf switches when they are all intra-leaf).
func Interferes(a, b *MigrationPlan) bool {
	if len(a.Updates) > len(b.Updates) {
		a, b = b, a
	}
	for sw := range a.Updates {
		if _, ok := b.Updates[sw]; ok {
			return true
		}
	}
	return false
}

// MaxSwapSMPs is the worst case of the prepopulated method: two blocks per
// switch (Table I, "Max SMPs LID Swap").
func MaxSwapSMPs(switches int) int { return 2 * switches }

// MaxCopySMPs is the worst case of the dynamic method: one block per switch.
func MaxCopySMPs(switches int) int { return switches }

// MinReconfigSMPs is the best case of either method, independent of subnet
// size: a single SMP (Table I, "Min SMPs LID Swap/Copy").
func MinReconfigSMPs() int { return 1 }
