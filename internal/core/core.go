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
	"slices"
	"sync"
	"time"

	"ibvsim/internal/cdg"
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

// MigrationPlan is the exact set of LFT edits one migration — or one wave of
// them, merged — needs, held as the paper counts them: a table of (switch,
// LID) -> port, sorted. A plan is three slices filled in one walk over the
// switches (PlanWaveOn), its counts taken as it is filled, and Apply hands
// each switch's run to the SM as it lies.
type MigrationPlan struct {
	Kind    PlanKind
	VMLID   ib.LID
	PeerLID ib.LID // destination VF LID (swap) or destination PF LID (copy)

	// Switches lists the switches with an edit, ascending; Entries holds
	// their runs back to back, each ascending by LID (Run). Read-only.
	Switches []topology.NodeID
	Entries  []ib.LFTEntry
	offs     []int32 // Switches[i]'s run is Entries[offs[i]:offs[i+1]]; offs[0] is 0

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

// Run returns the edits for Switches[i], ascending by LID.
func (p *MigrationPlan) Run(i int) []ib.LFTEntry { return p.Entries[p.offs[i]:p.offs[i+1]] }

// closeRun records the entries appended since the last run as sw's.
func (p *MigrationPlan) closeRun(sw topology.NodeID) {
	p.Switches = append(p.Switches, sw)
	p.offs = append(p.offs, int32(len(p.Entries)))
}

// LIDPair is one migration as the planner sees it: the VM's LID and its
// peer — the destination VF's LID (swap) or the destination PF's (copy).
type LIDPair struct{ VM, Peer ib.LID }

// PlanCounts is what one migration's own edits cost: the switches they touch
// and the distinct 64-LID blocks among them, one SMP each — the
// SwitchesTouched and SMPs its plan alone would predict.
type PlanCounts struct{ SwitchesTouched, SMPs int }

// PlanWaveOn plans a wave of migrations of one kind against the routing v —
// the SM's Programmed(), or a batch planner's overlay of it, so that wave
// N+1's plan sees the edits wave N will have applied — as one table: the
// merged plan of every member's edits, in (switch, LID) order, and each
// member's own counts. It is one walk over the switches: each switch's table
// is fetched once, each member's two entries are read off it, and the
// members' edits are appended in the order of their LIDs, sorted once before
// the walk. A swap exchanges the member's two entries, a copy gives the VM
// LID the peer's entry; a switch whose two entries agree needs no edit under
// either method (the n' < n case of section VI-B). Under ScopeMinimal a
// switch whose old forwarding of the VM LID already reaches the
// destination's leaf is skipped for that member, and a swap keeps only the
// VM LID's edit: the peer LID, a free VF afterwards, can wait — the balance
// of the initial routing traded for fewer SMPs (section VI-D).
//
// The merged plan is what MergePlans makes of the members' plans, headed by
// the first member's LIDs; a lone member's is its own plan. Members must
// edit disjoint LIDs — each holds its own destination VF — and two that
// edit one LID are refused before the walk.
func (r *Reconfigurator) PlanWaveOn(v cdg.Routes, kind PlanKind, pairs []LIDPair) (*MigrationPlan, []PlanCounts, error) {
	if len(pairs) == 0 {
		return nil, nil, fmt.Errorf("core: no migration to plan")
	}
	for _, p := range pairs {
		switch {
		case v.NodeOf(p.VM) == topology.NoNode:
			return nil, nil, fmt.Errorf("core: VM LID %d is not assigned", p.VM)
		case v.NodeOf(p.Peer) == topology.NoNode:
			return nil, nil, fmt.Errorf("core: peer LID %d is not assigned", p.Peer)
		case p.VM == p.Peer:
			return nil, nil, fmt.Errorf("core: VM LID and peer LID are both %d", p.VM)
		}
	}
	topo, minimal := r.SM.Topo, r.Scope == ScopeMinimal
	both := kind == PlanSwap && !minimal // the peer LID is edited too

	// The edited LIDs, ascending, as keys LID | member | 1 for a peer LID:
	// walking them emits a switch's run in LID order.
	var keyBuf [8]uint64
	keys := keyBuf[:0]
	for i, p := range pairs {
		keys = append(keys, uint64(p.VM)<<32|uint64(i)<<1)
		if both {
			keys = append(keys, uint64(p.Peer)<<32|uint64(i)<<1|1)
		}
	}
	slices.Sort(keys)
	for j := 1; j < len(keys); j++ {
		if l := keys[j] >> 32; l == keys[j-1]>>32 {
			return nil, nil, fmt.Errorf("core: members %d and %d both edit LID %d",
				uint32(keys[j-1])>>1, uint32(keys[j])>>1, l)
		}
	}

	// Each member's state at the switch being walked.
	type member struct {
		leaf   topology.NodeID // the destination's leaf (ScopeMinimal)
		smps   int             // blocks its edits take on a switch it touches
		pv, pp ib.PortNum      // its VM and peer LIDs' entries here
		on     bool            // whether it edits here
	}
	var memberBuf [4]member
	ms := memberBuf[:0]
	if len(pairs) > len(memberBuf) {
		ms = make([]member, 0, len(pairs))
	}
	for _, p := range pairs {
		m := member{smps: 1}
		if minimal {
			m.leaf = topo.LeafSwitchOf(v.NodeOf(p.Peer))
		}
		if both && ib.BlockOf(p.VM) != ib.BlockOf(p.Peer) {
			m.smps = 2
		}
		ms = append(ms, m)
	}

	n := topo.NumSwitches()
	// The table is filled in a scratch buffer and copied out at its size: a
	// plan can outlive its command (a dry run's is kept for the apply), so
	// it holds no slack.
	scratch := planScratch.Get().(*[]ib.LFTEntry)
	defer planScratch.Put(scratch)
	plan := &MigrationPlan{
		Kind: kind, VMLID: pairs[0].VM, PeerLID: pairs[0].Peer,
		Switches: make([]topology.NodeID, 0, n),
		Entries:  (*scratch)[:0],
		offs:     make([]int32, 1, n+1),
	}
	counts := make([]PlanCounts, len(pairs))
	for _, sw := range topo.Switches() {
		lft := v.LFT(sw)
		if lft == nil {
			return nil, nil, fmt.Errorf("core: switch %q not programmed; bootstrap the SM first", topo.Node(sw).Desc)
		}
		edits := false
		for i, p := range pairs {
			m := &ms[i]
			m.pv, m.pp = lft.Get(p.VM), lft.Get(p.Peer)
			m.on = m.pv != m.pp && !(minimal && sw != m.leaf && r.reaches(v, sw, m.leaf, p.VM))
			if m.on {
				edits = true
				counts[i].SwitchesTouched++
				counts[i].SMPs += m.smps
			}
		}
		if !edits {
			continue
		}
		last := -1
		for _, k := range keys {
			m := &ms[uint32(k)>>1]
			if !m.on {
				continue
			}
			e := ib.LFTEntry{LID: ib.LID(k >> 32), Port: m.pp}
			if k&1 != 0 {
				e.Port = m.pv
			}
			plan.Entries = append(plan.Entries, e)
			if b := ib.BlockOf(e.LID); b != last {
				plan.SMPs++
				last = b
			}
		}
		plan.closeRun(sw)
	}
	*scratch = plan.Entries[:0]
	plan.Entries = append(make([]ib.LFTEntry, 0, len(plan.Entries)), plan.Entries...)
	plan.SwitchesTouched = len(plan.Switches)
	return plan, counts, nil
}

// planScratch holds the buffers PlanWaveOn fills a table in, one per
// concurrent planner: a buffer grows to the largest table planned on it.
var planScratch = sync.Pool{New: func() any { return new([]ib.LFTEntry) }}

// planOne is a wave of one: the lone member's plan is the merged plan.
func (r *Reconfigurator) planOne(v cdg.Routes, kind PlanKind, vmLID, peerLID ib.LID) (*MigrationPlan, error) {
	plan, _, err := r.PlanWaveOn(v, kind, []LIDPair{{VM: vmLID, Peer: peerLID}})
	return plan, err
}

// reaches reports whether the programmed forwarding of lid from switch sw
// crosses leaf. Once the destination's leaf is reprogrammed, traffic arriving
// there is delivered, so a switch upstream of it can keep its entry; for an
// intra-leaf migration every old chain ends at that very leaf, so exactly one
// switch is updated, whatever the topology. The walk is cdg.Trace, stopped
// on arrival at leaf: it ends there, forwarded or not, exactly when it
// crosses it.
func (r *Reconfigurator) reaches(v cdg.Routes, sw, leaf topology.NodeID, lid ib.LID) bool {
	end := cdg.Trace(r.SM.Topo, v, sw, lid, func(at topology.NodeID, _ ib.PortNum) bool { return at != leaf })
	return end.At == leaf
}

// PlanSwap builds the prepopulated-LID reconfiguration: on every switch,
// exchange the entries of the VM's LID and the destination VF's LID
// (section V-C1, Fig. 5). Entries equal on a switch produce no update there
// (the n' < n case of section VI-B). With ScopeMinimal only switches whose
// VM-LID forwarding must change for correctness are touched.
func (r *Reconfigurator) PlanSwap(vmLID, destVFLID ib.LID) (*MigrationPlan, error) {
	return r.planOne(r.SM.Programmed(), PlanSwap, vmLID, destVFLID)
}

// PlanCopy builds the dynamic-assignment reconfiguration: on every switch,
// the VM's LID entry becomes a copy of the destination hypervisor PF's
// entry (section V-C2). At most one LID changes per switch, so at most one
// SMP per switch is ever needed.
func (r *Reconfigurator) PlanCopy(vmLID, destPFLID ib.LID) (*MigrationPlan, error) {
	return r.planOne(r.SM.Programmed(), PlanCopy, vmLID, destPFLID)
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
// ownership map. Use it for a wave's merged plan (PlanWaveOn, MergePlans),
// where the caller performs each member's rebinds itself.
func (r *Reconfigurator) ApplyEdits(plan *MigrationPlan) (PlanStats, error) {
	start := time.Now()
	span := r.spanUnder(plan.Under, telemetry.SpanLFTSwap, plan.Kind.String())
	st, err := r.edit(r.SM, plan, span, r.AfterUpdate)
	if err == nil {
		st.Duration = time.Since(start)
	}
	span.SetAttrs("mode", r.Mode, "switches", st.SwitchesUpdated, "smps", st.SMPs, "invalidation_smps", st.InvalidationSMPs)
	span.SetModelled(st.ModelledTime)
	span.EndWithWall(st.Duration)
	return st, err
}

// CostEdits is ApplyEdits written to w instead of the SM, with no hook fired
// and no span emitted: a planner runs it against its shadow of the fabric,
// so the cost it predicts is the cost ApplyEdits pays, by construction.
func (r *Reconfigurator) CostEdits(w LFTWriter, plan *MigrationPlan) (PlanStats, error) {
	return r.edit(w, plan, nil, nil)
}

// edit is ApplyEdits' accounting: the invalidation pre-pass (a DropPort run
// for the VM LID on the plan's switches), the plan's runs, and the modelled
// time of every SMP sent, plus the peer drain.
func (r *Reconfigurator) edit(w LFTWriter, plan *MigrationPlan, under *telemetry.Span, after func()) (st PlanStats, err error) {
	if r.Mitigation == MitigationInvalidate {
		inv, prov := dropPlan(plan.VMLID, plan.Switches), plan.Prov.WithPhase("invalidate")
		if _, st.InvalidationSMPs, err = r.write(w, inv, prov, under, after, "invalidation pre-pass"); err != nil {
			return st, err
		}
	}
	if st.SwitchesUpdated, st.SMPs, err = r.write(w, plan, plan.Prov, under, after, "applying plan"); err != nil {
		return st, err
	}
	st.ModelledTime = r.SM.Cost.DistributionTime(st.SMPs+st.InvalidationSMPs, r.Mode)
	if r.Mitigation == MitigationDrain {
		st.ModelledTime += r.DrainTime
	}
	return st, nil
}

// LFTWriter takes one switch's run of LFT edits, ascending by LID, and
// returns the SMPs it took: the SM sends them, a planner's shadow costs them.
type LFTWriter interface {
	SetLFTEntriesProv(sw topology.NodeID, entries []ib.LFTEntry, mode smp.Mode, prov *ib.Provenance, under *telemetry.Span) (int, error)
}

// write is the one loop that writes LFT entries: each switch's run, in
// switch order, to w, then after (when set). It counts the switches whose
// run took an SMP and the SMPs, and stops at the first failed write, its
// error naming the pass what (when set) and the switch.
func (r *Reconfigurator) write(w LFTWriter, p *MigrationPlan, prov *ib.Provenance, under *telemetry.Span, after func(), what string) (switches, smps int, err error) {
	for i, sw := range p.Switches {
		n, err := w.SetLFTEntriesProv(sw, p.Run(i), r.Mode, prov, under)
		if err != nil {
			if what != "" {
				err = fmt.Errorf("core: %s on %q: %w", what, r.SM.Topo.Node(sw).Desc, err)
			}
			return switches, smps, err
		}
		if n > 0 {
			switches++
			smps += n
		}
		if after != nil {
			after()
		}
	}
	return switches, smps, nil
}

// dropPlan points lid at DropPort on each of the switches, ascending: the
// invalidation pre-pass of section VI-C, and a destroyed VM LID's removal.
func dropPlan(lid ib.LID, switches []topology.NodeID) *MigrationPlan {
	p := &MigrationPlan{VMLID: lid, Switches: switches, Entries: make([]ib.LFTEntry, len(switches)), offs: make([]int32, len(switches)+1)}
	for i := range switches {
		p.Entries[i] = ib.LFTEntry{LID: lid, Port: ib.DropPort}
		p.offs[i+1] = int32(i + 1)
	}
	return p
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
// block cost a single SMP for that block instead of one each. A wave planned
// as one (PlanWaveOn) comes out merged; MergePlans is for plans made apart,
// and the oracle the wave planner is tested against. Merging is
// only valid for plans computed against the same fabric state and applied
// together; conflicting edits to the same LID are rejected (the first in
// (switch, LID) order is reported), agreeing ones kept once. Every input
// ascends by switch: a counting sort by switch, then each switch's few edits
// sorted as packed integers.
func MergePlans(plans ...*MigrationPlan) (*MigrationPlan, error) {
	if len(plans) == 0 {
		return nil, fmt.Errorf("core: nothing to merge")
	}
	top := topology.NodeID(-1)
	for _, p := range plans {
		if n := len(p.Switches); n > 0 {
			top = max(top, p.Switches[n-1])
		}
	}
	// at[sw+1] counts sw's edits; prefix sums make at[sw] the start of sw's
	// run; writing each input edit there and advancing leaves it the run's end.
	at := make([]int32, int(top)+2)
	for _, p := range plans {
		for i, sw := range p.Switches {
			at[sw+1] += int32(len(p.Run(i)))
		}
	}
	touched, longest := 0, int32(0)
	for k := 1; k < len(at); k++ {
		if at[k] > 0 {
			touched++
		}
		longest = max(longest, at[k])
		at[k] += at[k-1]
	}
	entries := make([]ib.LFTEntry, at[top+1])
	for _, p := range plans {
		for i, sw := range p.Switches {
			for _, e := range p.Run(i) {
				entries[at[sw]] = e
				at[sw]++
			}
		}
	}
	merged := &MigrationPlan{
		Kind: plans[0].Kind, VMLID: plans[0].VMLID, PeerLID: plans[0].PeerLID, Prov: plans[0].Prov,
		Switches: make([]topology.NodeID, 0, touched),
		Entries:  entries[:0], // deduplicated in place, behind the read cursor
		offs:     make([]int32, 1, touched+1),
	}
	// A run sorts as keys LID | position | port: by LID and, of two edits to
	// one LID, by position in the run — the earlier plan's first.
	keys := make([]uint64, longest)
	start := int32(0)
	for sw := topology.NodeID(0); sw <= top; sw++ {
		run := entries[start:at[sw]]
		start = at[sw]
		if len(run) == 0 {
			continue
		}
		ks := keys[:len(run)]
		for j, e := range run {
			ks[j] = uint64(e.LID)<<48 | uint64(j)<<8 | uint64(e.Port)
		}
		slices.Sort(ks)
		last := -1
		for j, k := range ks {
			e := ib.LFTEntry{LID: ib.LID(k >> 48), Port: ib.PortNum(k)}
			if j > 0 && ib.LID(ks[j-1]>>48) == e.LID {
				if prev := ib.PortNum(ks[j-1]); prev != e.Port {
					return nil, fmt.Errorf("core: conflicting edits for LID %d on switch %d (%d vs %d)",
						e.LID, sw, prev, e.Port)
				}
				continue
			}
			merged.Entries = append(merged.Entries, e)
			if b := ib.BlockOf(e.LID); b != last {
				merged.SMPs++ // one per distinct (switch, block)
				last = b
			}
		}
		merged.closeRun(sw)
	}
	merged.SwitchesTouched = len(merged.Switches)
	return merged, nil
}

// MaxSwapSMPs is the worst case of the prepopulated method: two blocks per
// switch (Table I, "Max SMPs LID Swap").
func MaxSwapSMPs(switches int) int { return 2 * switches }

// MaxCopySMPs is the worst case of the dynamic method: one block per switch.
func MaxCopySMPs(switches int) int { return switches }

// MinReconfigSMPs is the best case of either method, independent of subnet
// size: a single SMP (Table I, "Min SMPs LID Swap/Copy").
func MinReconfigSMPs() int { return 1 }
