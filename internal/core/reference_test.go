package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ibvsim/internal/cdg"
	"ibvsim/internal/ib"
	"ibvsim/internal/routing"
	"ibvsim/internal/sm"
	"ibvsim/internal/telemetry"
	"ibvsim/internal/topology"
)

// The planner as it stood before plans became sorted runs, kept verbatim as
// the oracle: a plan is a map of per-switch maps, every count is a set of
// blocks. It is slow and allocates per switch, which is why it lives here.

type refPlan struct {
	Kind    PlanKind
	VMLID   ib.LID
	PeerLID ib.LID
	Updates map[topology.NodeID]map[ib.LID]ib.PortNum

	SwitchesTouched int
	SMPs            int
}

func (r *Reconfigurator) refPlanEntries(v cdg.Routes, kind PlanKind, vmLID, peerLID ib.LID,
	edit func(lft *ib.LFT) map[ib.LID]ib.PortNum) (*refPlan, error) {

	if vmLID == peerLID {
		return nil, fmt.Errorf("core: VM LID and peer LID are both %d", vmLID)
	}
	plan := &refPlan{
		Kind:    kind,
		VMLID:   vmLID,
		PeerLID: peerLID,
		Updates: map[topology.NodeID]map[ib.LID]ib.PortNum{},
	}
	for _, sw := range r.SM.Topo.Switches() {
		lft := v.LFT(sw)
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

func (r *Reconfigurator) refPlanOn(v cdg.Routes, kind PlanKind, vmLID, peerLID ib.LID) (*refPlan, error) {
	if v.NodeOf(vmLID) == topology.NoNode || v.NodeOf(peerLID) == topology.NoNode {
		return nil, fmt.Errorf("core: LID %d or %d is not assigned", vmLID, peerLID)
	}
	edit := func(lft *ib.LFT) map[ib.LID]ib.PortNum {
		return map[ib.LID]ib.PortNum{vmLID: lft.Get(peerLID)}
	}
	if kind == PlanSwap {
		edit = func(lft *ib.LFT) map[ib.LID]ib.PortNum {
			pv, pd := lft.Get(vmLID), lft.Get(peerLID)
			return map[ib.LID]ib.PortNum{vmLID: pd, peerLID: pv}
		}
	}
	plan, err := r.refPlanEntries(v, kind, vmLID, peerLID, edit)
	if err != nil {
		return nil, err
	}
	if r.Scope == ScopeMinimal {
		r.refRestrictToCorrectness(v, plan)
	}
	return plan, nil
}

func (r *Reconfigurator) refRestrictToCorrectness(v cdg.Routes, plan *refPlan) {
	dstNode := v.NodeOf(plan.PeerLID)
	destLeaf := r.SM.Topo.LeafSwitchOf(dstNode)

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
		lft := v.LFT(sw)
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

func refMergePlans(plans ...*refPlan) (*refPlan, error) {
	if len(plans) == 0 {
		return nil, fmt.Errorf("core: nothing to merge")
	}
	merged := &refPlan{
		Kind:    plans[0].Kind,
		VMLID:   plans[0].VMLID,
		PeerLID: plans[0].PeerLID,
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

// updatesOf spells a plan's runs as the map of maps the reference (and the
// older tests) speak.
func updatesOf(p *MigrationPlan) map[topology.NodeID]map[ib.LID]ib.PortNum {
	out := map[topology.NodeID]map[ib.LID]ib.PortNum{}
	for i, sw := range p.Switches {
		m := map[ib.LID]ib.PortNum{}
		for _, e := range p.Run(i) {
			m[e.LID] = e.Port
		}
		out[sw] = m
	}
	return out
}

// planOf is updatesOf's inverse: a plan holding exactly the given edits.
func planOf(kind PlanKind, vmLID, peerLID ib.LID, updates map[topology.NodeID]map[ib.LID]ib.PortNum) *MigrationPlan {
	p := &MigrationPlan{Kind: kind, VMLID: vmLID, PeerLID: peerLID, offs: []int32{0}}
	switches := make([]topology.NodeID, 0, len(updates))
	for sw := range updates {
		switches = append(switches, sw)
	}
	slices.Sort(switches)
	for _, sw := range switches {
		lids := make([]ib.LID, 0, len(updates[sw]))
		for l := range updates[sw] {
			lids = append(lids, l)
		}
		slices.Sort(lids)
		for _, l := range lids {
			p.Entries = append(p.Entries, ib.LFTEntry{LID: l, Port: updates[sw][l]})
		}
		p.closeRun(sw)
	}
	p.SwitchesTouched = len(p.Switches)
	for i := range p.Switches {
		last := -1
		for _, e := range p.Run(i) {
			if b := ib.BlockOf(e.LID); b != last {
				p.SMPs++
				last = b
			}
		}
	}
	return p
}

// checkSorted is the representation invariant every constructor must leave:
// switches strictly ascending, no empty run, each run strictly ascending by
// LID, the runs tiling Entries, and the counts those of the runs.
func checkSorted(t testing.TB, p *MigrationPlan) {
	t.Helper()
	if len(p.offs) != len(p.Switches)+1 || p.offs[0] != 0 {
		t.Fatalf("plan has %d switches but run offsets %v", len(p.Switches), p.offs)
	}
	smps, edits := 0, 0
	for i, sw := range p.Switches {
		if i > 0 && p.Switches[i-1] >= sw {
			t.Fatalf("switches not strictly ascending at %d: %v", i, p.Switches)
		}
		run := p.Run(i)
		if len(run) == 0 {
			t.Fatalf("switch %d has an empty run", sw)
		}
		blocks := map[int]bool{}
		for j, e := range run {
			if j > 0 && run[j-1].LID >= e.LID {
				t.Fatalf("switch %d: run not strictly ascending by LID: %v", sw, run)
			}
			blocks[ib.BlockOf(e.LID)] = true
		}
		smps += len(blocks)
		edits += len(run)
	}
	if edits != len(p.Entries) {
		t.Fatalf("runs cover %d entries of %d", edits, len(p.Entries))
	}
	if p.SwitchesTouched != len(p.Switches) || p.SMPs != smps {
		t.Fatalf("counts %d switches / %d SMPs, runs say %d / %d", p.SwitchesTouched, p.SMPs, len(p.Switches), smps)
	}
}

// samePlan fails unless got holds the reference's edits and counts.
func samePlan(t testing.TB, what string, got *MigrationPlan, want *refPlan) {
	t.Helper()
	checkSorted(t, got)
	if got.Kind != want.Kind || got.VMLID != want.VMLID || got.PeerLID != want.PeerLID {
		t.Fatalf("%s: header %v %d/%d, reference %v %d/%d", what, got.Kind, got.VMLID, got.PeerLID, want.Kind, want.VMLID, want.PeerLID)
	}
	if got.SwitchesTouched != want.SwitchesTouched || got.SMPs != want.SMPs {
		t.Fatalf("%s: %d switches / %d SMPs, reference %d / %d", what, got.SwitchesTouched, got.SMPs, want.SwitchesTouched, want.SMPs)
	}
	if g := updatesOf(got); !equalUpdates(g, want.Updates) {
		t.Fatalf("%s: edits %v, reference %v", what, g, want.Updates)
	}
}

func equalUpdates(a, b map[topology.NodeID]map[ib.LID]ib.PortNum) bool {
	if len(a) != len(b) {
		return false
	}
	for sw, am := range a {
		bm, ok := b[sw]
		if !ok || len(am) != len(bm) {
			return false
		}
		for l, p := range am {
			if q, ok := bm[l]; !ok || q != p {
				return false
			}
		}
	}
	return true
}

// overlayView is a fabric view some edits ahead of the live SM — the shape of
// the reconciler's shadow: written switches hold a private table, rebound
// LIDs a private owner.
type overlayView struct {
	base  cdg.Routes
	lfts  map[topology.NodeID]*ib.LFT
	owner map[ib.LID]topology.NodeID
}

func (o *overlayView) LFT(sw topology.NodeID) *ib.LFT {
	if l := o.lfts[sw]; l != nil {
		return l
	}
	return o.base.LFT(sw)
}

func (o *overlayView) NodeOf(l ib.LID) topology.NodeID {
	if n, ok := o.owner[l]; ok {
		return n
	}
	return o.base.NodeOf(l)
}

// apply writes a plan's edits and its rebinds into the overlay, as a wave's
// merged distribution would leave them.
func (o *overlayView) apply(p *MigrationPlan) {
	vmNode, peerNode := o.NodeOf(p.VMLID), o.NodeOf(p.PeerLID)
	for i, sw := range p.Switches {
		lft := o.lfts[sw]
		if lft == nil {
			lft = o.base.LFT(sw).Clone()
			o.lfts[sw] = lft
		}
		for _, e := range p.Run(i) {
			lft.Set(e.LID, e.Port)
		}
	}
	o.owner[p.VMLID] = peerNode
	if p.Kind == PlanSwap {
		o.owner[p.PeerLID] = vmNode
	}
}

// refFabric boots an SM on topo and gives every CA vfs extra LIDs, the way a
// prepopulated vSwitch subnet is brought up. It returns the extra LIDs per CA.
func refFabric(t testing.TB, topo *topology.Topology, vfs int) (*Reconfigurator, [][]ib.LID) {
	t.Helper()
	cas := topo.CAs()
	mgr, err := sm.New(topo, cas[0], routing.NewMinHop())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Sweep(); err != nil {
		t.Fatal(err)
	}
	if err := mgr.AssignLIDs(); err != nil {
		t.Fatal(err)
	}
	lids := make([][]ib.LID, len(cas))
	for i, ca := range cas {
		for k := 0; k < vfs; k++ {
			l, err := mgr.AllocExtraLID(ca)
			if err != nil {
				t.Fatal(err)
			}
			lids[i] = append(lids[i], l)
		}
	}
	if _, err := mgr.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.DistributeDiff(); err != nil {
		t.Fatal(err)
	}
	return NewReconfigurator(mgr), lids
}

// cube builds the 3-level XGFT with k^3 hosts the benchmark runs on (k = 12
// and 10 there).
func cube(t testing.TB, k int) *topology.Topology {
	t.Helper()
	topo, err := topology.BuildXGFT(topology.XGFTSpec{M: []int{k, k, k}, W: []int{1, k, k}}, 2*k)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func refTopologies(t testing.TB) map[string]*topology.Topology {
	t.Helper()
	ft, err := topology.BuildPaperFatTree(324)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*topology.Topology{"fattree324": ft, "xgft-3-level": cube(t, 4)}
}

// TestPlanEqualsReference pins the planner to the map-of-maps oracle: seeded
// LID pairs, swap and copy, both scopes, on the live SM and on an overlay a
// simulated wave ahead of it — same edits, same SwitchesTouched, same SMPs.
func TestPlanEqualsReference(t *testing.T) {
	for name, topo := range refTopologies(t) {
		t.Run(name, func(t *testing.T) {
			rc, lids := refFabric(t, topo, 2)
			cas := topo.CAs()
			rng := rand.New(rand.NewSource(23))
			pair := func() (vm, vf, pf ib.LID) {
				a, b := rng.Intn(len(cas)), rng.Intn(len(cas)-1)
				if b >= a {
					b++
				}
				return lids[a][rng.Intn(2)], lids[b][rng.Intn(2)], rc.SM.LIDOf(cas[b])
			}
			check := func(v cdg.Routes, where string) {
				for i := 0; i < 40; i++ {
					vm, vf, pf := pair()
					for _, scope := range []Scope{ScopeAllSwitches, ScopeMinimal} {
						rc.Scope = scope
						for _, c := range []struct {
							kind PlanKind
							peer ib.LID
						}{{PlanSwap, vf}, {PlanCopy, pf}} {
							what := fmt.Sprintf("%s %v %v %d->%d", where, c.kind, scope, vm, c.peer)
							want, werr := rc.refPlanOn(v, c.kind, vm, c.peer)
							got, gerr := rc.planOne(v, c.kind, vm, c.peer)
							if (gerr == nil) != (werr == nil) {
								t.Fatalf("%s: err %v, reference %v", what, gerr, werr)
							}
							if gerr == nil {
								samePlan(t, what, got, want)
							}
						}
					}
				}
			}
			check(rc.SM.Programmed(), "live")

			// A wave of swaps between disjoint LID pairs, applied to the
			// overlay only: the next plans see tables and owners the SM
			// does not hold.
			rc.Scope = ScopeAllSwitches
			ov := &overlayView{base: rc.SM.Programmed(), lfts: map[topology.NodeID]*ib.LFT{}, owner: map[ib.LID]topology.NodeID{}}
			for i := 0; i+1 < len(cas) && i < 24; i += 2 {
				p, err := rc.planOne(ov, PlanSwap, lids[i][0], lids[i+1][0])
				if err != nil {
					t.Fatal(err)
				}
				ov.apply(p)
			}
			check(ov, "after wave")
		})
	}
}

// refOf spells a plan as the reference's type.
func refOf(p *MigrationPlan) *refPlan {
	return &refPlan{Kind: p.Kind, VMLID: p.VMLID, PeerLID: p.PeerLID, Updates: updatesOf(p),
		SwitchesTouched: p.SwitchesTouched, SMPs: p.SMPs}
}

// mergeBoth merges on both sides and fails unless they agree: both refuse,
// or both produce the same edits and counts.
func mergeBoth(t testing.TB, what string, plans ...*MigrationPlan) (*MigrationPlan, error) {
	t.Helper()
	refs := make([]*refPlan, len(plans))
	for i, p := range plans {
		refs[i] = refOf(p)
	}
	want, werr := refMergePlans(refs...)
	got, gerr := MergePlans(plans...)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%s: err %v, reference %v", what, gerr, werr)
	}
	if gerr == nil {
		samePlan(t, what, got, want)
	}
	return got, gerr
}

func TestMergeEqualsReference(t *testing.T) {
	type up = map[topology.NodeID]map[ib.LID]ib.PortNum
	type ed = map[ib.LID]ib.PortNum
	a := planOf(PlanCopy, 10, 1, up{3: ed{10: 1}, 5: ed{10: 2}})
	disjoint := planOf(PlanCopy, 200, 1, up{4: ed{200: 1}, 9: ed{200: 3}})
	sharing := planOf(PlanSwap, 11, 70, up{3: ed{11: 4, 70: 5}, 5: ed{11: 1}, 7: ed{70: 2}})
	agreeing := planOf(PlanCopy, 10, 1, up{5: ed{10: 2}, 6: ed{10: 7}})
	conflicting := planOf(PlanCopy, 10, 1, up{5: ed{10: 9}})

	if m, err := mergeBoth(t, "disjoint", a, disjoint); err != nil || m.SwitchesTouched != 4 || m.SMPs != 4 {
		t.Fatalf("disjoint merge: %+v, %v", m, err)
	}
	// LIDs 10 and 11 share block 0 on switches 3 and 5; 70 is block 1.
	if m, err := mergeBoth(t, "sharing blocks", a, sharing); err != nil || m.SwitchesTouched != 3 || m.SMPs != 4 {
		t.Fatalf("block-sharing merge: %+v, %v", m, err)
	}
	if m, err := mergeBoth(t, "agreeing duplicate", a, agreeing); err != nil || len(m.Entries) != 3 {
		t.Fatalf("agreeing duplicate must be kept once: %+v, %v", m, err)
	}
	if _, err := mergeBoth(t, "conflict", a, sharing, conflicting); err == nil {
		t.Fatal("conflicting edit merged")
	}
	if _, err := mergeBoth(t, "one plan", sharing); err != nil {
		t.Fatal(err)
	}
}

// TestMergeConflictIsDeterministic: which of several conflicts a merge
// reports was Go's map iteration order; on sorted runs it is the first in
// (switch, LID) order, every time.
func TestMergeConflictIsDeterministic(t *testing.T) {
	type up = map[topology.NodeID]map[ib.LID]ib.PortNum
	type ed = map[ib.LID]ib.PortNum
	p1 := planOf(PlanSwap, 20, 30, up{8: ed{20: 1, 30: 1}, 4: ed{20: 1, 40: 1}})
	p2 := planOf(PlanSwap, 20, 30, up{8: ed{20: 2, 30: 2}, 4: ed{20: 3, 40: 2}, 2: ed{20: 5}})
	const want = "core: conflicting edits for LID 20 on switch 4 (1 vs 3)"
	for i := 0; i < 20; i++ {
		_, err := MergePlans(p1, p2)
		if err == nil || err.Error() != want {
			t.Fatalf("run %d: error %v, want %q", i, err, want)
		}
	}
}

// TestMergeConflictNamesEarlierPlanFirst: of two edits to one LID the
// earlier plan's comes first, so a conflict reads "(earlier vs later)"
// whichever port is lower.
func TestMergeConflictNamesEarlierPlanFirst(t *testing.T) {
	type up = map[topology.NodeID]map[ib.LID]ib.PortNum
	type ed = map[ib.LID]ib.PortNum
	hi := planOf(PlanCopy, 20, 1, up{4: ed{20: 3}})
	lo := planOf(PlanCopy, 20, 1, up{4: ed{20: 1}})
	for _, c := range []struct {
		plans []*MigrationPlan
		want  string
	}{
		{[]*MigrationPlan{hi, lo}, "core: conflicting edits for LID 20 on switch 4 (3 vs 1)"},
		{[]*MigrationPlan{lo, hi}, "core: conflicting edits for LID 20 on switch 4 (1 vs 3)"},
		{[]*MigrationPlan{hi, hi, lo}, "core: conflicting edits for LID 20 on switch 4 (3 vs 1)"},
	} {
		if _, err := MergePlans(c.plans...); err == nil || err.Error() != c.want {
			t.Errorf("error %v, want %q", err, c.want)
		}
	}
}

// randomPlans decodes fuzz bytes into small plans over a few switches and
// LIDs, so duplicates, shared blocks and conflicts are all common.
func randomPlans(data []byte) []*MigrationPlan {
	var plans []*MigrationPlan
	updates := map[topology.NodeID]map[ib.LID]ib.PortNum{}
	flush := func() {
		if len(updates) > 0 {
			plans = append(plans, planOf(PlanCopy, 1, 2, updates))
			updates = map[topology.NodeID]map[ib.LID]ib.PortNum{}
		}
	}
	for i := 0; i+2 < len(data); i += 3 {
		if data[i]&0x80 != 0 {
			flush()
		}
		sw := topology.NodeID(data[i] & 0x07)
		lid := ib.LID(data[i+1]&0x0f) * 16 // four LIDs to a block
		if updates[sw] == nil {
			updates[sw] = map[ib.LID]ib.PortNum{}
		}
		updates[sw][lid] = ib.PortNum(data[i+2] & 0x03)
	}
	flush()
	return plans
}

func FuzzMergePlans(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0x81, 2, 3, 2, 2, 1})
	f.Add([]byte{0, 0, 0, 0x80, 0, 1, 0x80, 4, 1, 0x85, 4, 1})
	f.Add([]byte{7, 15, 3, 7, 14, 3, 0x87, 15, 3, 0x87, 15, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		plans := randomPlans(data)
		if len(plans) == 0 {
			return
		}
		mergeBoth(t, "fuzz", plans...) //nolint:errcheck // agreement is the check
	})
}

// Allocation gates: a plan is a handful of slices sized once, whatever the
// fabric, and a merge is a counting sort into one more. A plan's table is
// held at its size: a dry run's plan is kept until the next command.

func TestPlanSwapAllocs(t *testing.T) {
	ft324, err := topology.BuildPaperFatTree(324)
	if err != nil {
		t.Fatal(err)
	}
	for nodes, topo := range map[int]*topology.Topology{324: ft324, 1728: cube(t, 12)} {
		rc, lids := refFabric(t, topo, 1)
		vm, peer := lids[1][0], lids[len(lids)-1][0]
		var plan *MigrationPlan
		allocs := testing.AllocsPerRun(20, func() {
			if plan, err = rc.PlanSwap(vm, peer); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d hosts: PlanSwap allocates %.0f times for %d edits on %d switches", nodes, allocs, len(plan.Entries), plan.SwitchesTouched)
		if allocs > 8 {
			t.Errorf("%d hosts: PlanSwap allocates %.0f times, want <= 8", nodes, allocs)
		}
		if cap(plan.Entries) != len(plan.Entries) {
			t.Errorf("%d hosts: PlanSwap's table holds %d entries in room for %d", nodes, len(plan.Entries), cap(plan.Entries))
		}

		// A wave of 128 copies, each VM LID toward another host's PF: its
		// table outgrows one member's and is sized by projection as it fills.
		cas := topo.CAs()
		pairs := make([]LIDPair, 128)
		for i := range pairs {
			pairs[i] = LIDPair{VM: lids[1+i][0], Peer: rc.SM.LIDOf(cas[len(cas)-1-i])}
		}
		allocs = testing.AllocsPerRun(5, func() {
			if plan, _, err = rc.PlanWaveOn(rc.SM.Programmed(), PlanCopy, pairs); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d hosts: a 128-member wave allocates %.0f times for %d edits on %d switches", nodes, allocs, len(plan.Entries), plan.SwitchesTouched)
		if cap(plan.Entries) != len(plan.Entries) {
			t.Errorf("%d hosts: a 128-member wave's table holds %d entries in room for %d", nodes, len(plan.Entries), cap(plan.Entries))
		}
	}
}

// copyPlans plans n copies of distinct VM LIDs toward distinct PFs.
func copyPlans(t testing.TB, rc *Reconfigurator, lids [][]ib.LID, n int) []*MigrationPlan {
	t.Helper()
	cas := rc.SM.Topo.CAs()
	plans := make([]*MigrationPlan, 0, n)
	for i := 0; i < n; i++ {
		p, err := rc.PlanCopy(lids[1+i][0], rc.SM.LIDOf(cas[len(cas)-1-i]))
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, p)
	}
	return plans
}

func TestMergePlansAllocs(t *testing.T) {
	rc, lids := refFabric(t, cube(t, 10), 1)
	plans := copyPlans(t, rc, lids, 60)
	var merged *MigrationPlan
	var err error
	allocs := testing.AllocsPerRun(20, func() {
		if merged, err = MergePlans(plans...); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("merging 60 copy plans allocates %.0f times for %d edits on %d switches", allocs, len(merged.Entries), merged.SwitchesTouched)
	if allocs > 8 {
		t.Errorf("a 60-plan merge allocates %.0f times, want <= 8", allocs)
	}
}

// planSink keeps the benchmarked calls' results alive.
var planSink *MigrationPlan

func BenchmarkPlanSwap(b *testing.B) {
	rc, lids := refFabric(b, cube(b, 12), 1)
	vm, peer := lids[1][0], lids[len(lids)-1][0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if planSink, err = rc.PlanSwap(vm, peer); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMergePlans(b *testing.B) {
	rc, lids := refFabric(b, cube(b, 10), 1)
	plans := copyPlans(b, rc, lids, 60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if planSink, err = MergePlans(plans...); err != nil {
			b.Fatal(err)
		}
	}
}

// A VM LID's boot and destroy as they stood before every LFT write went
// through one loop, kept verbatim as the oracle.

func (r *Reconfigurator) refBootVMLIDProv(hypervisor topology.NodeID, prov *ib.Provenance) (BootStats, error) {
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
			return st, r.refGiveBack(lid, prov, err)
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

// refGiveBack is the undo a boot makes since a failed write stopped leaking
// its LID: the destroy's loop without its log line.
func (r *Reconfigurator) refGiveBack(lid ib.LID, prov *ib.Provenance, cause error) error {
	for _, sw := range r.SM.Topo.Switches() {
		lft := r.SM.ProgrammedLFT(sw)
		if lft == nil || lft.Get(lid) == ib.DropPort {
			continue
		}
		if _, err := r.SM.SetLFTEntriesProv(sw, []ib.LFTEntry{{LID: lid, Port: ib.DropPort}}, r.Mode, prov, nil); err != nil {
			return errors.Join(cause, err)
		}
	}
	r.SM.ReleaseExtraLID(lid)
	return cause
}

func (r *Reconfigurator) refDestroyVMLIDProv(lid ib.LID, prov *ib.Provenance) (BootStats, error) {
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

// fabricState is what one boot or destroy leaves behind for the oracle
// comparison: every switch's programmed table, and the spans and log lines
// the call emitted.
type fabricState struct {
	lfts  []byte
	spans []telemetry.SpanView
	log   []string
}

func stateOf(rc *Reconfigurator, spansFrom, logFrom int) fabricState {
	var st fabricState
	for _, sw := range rc.SM.Topo.Switches() {
		st.lfts = append(st.lfts, fmt.Sprintf("switch %d\n", sw)...)
		if lft := rc.SM.ProgrammedLFT(sw); lft != nil {
			st.lfts = append(st.lfts, lft.Bytes()...)
		}
	}
	for _, s := range rc.SM.Telemetry().Tracer().SpansSince(spansFrom) {
		s.Wall = 0
		st.spans = append(st.spans, s)
	}
	for _, e := range rc.SM.Log().Events()[logFrom:] {
		st.log = append(st.log, e.Msg)
	}
	return st
}

// cutOff takes down every link of node n that leads to a switch, then
// reroutes and redistributes: the switches left behind drop n's LIDs, or
// those of the CAs under it.
func cutOff(t *testing.T, rc *Reconfigurator, n topology.NodeID) {
	t.Helper()
	topo := rc.SM.Topo
	for p := 1; p < len(topo.Node(n).Ports); p++ {
		if peer := topo.Node(n).Ports[p].Peer; peer != topology.NoNode && topo.Node(peer).IsSwitch() {
			if err := topo.SetLinkState(n, ib.PortNum(p), false); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The sweep reports the fabric disconnected, which it now is.
	_, _ = rc.SM.Sweep()
	if _, err := rc.SM.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.SM.DistributeDiff(); err != nil {
		t.Fatal(err)
	}
}

// TestBootDestroyEqualsReference pins a VM LID's boot and destroy to the
// loops they replaced: the same tables, BootStats, errors, smp spans (all
// roots) and log lines, op for op, on a healthy fabric, after a host loses
// its link (every switch drops its PF LID, so a boot writes nothing) and
// after a leaf loses its trunk links (the switches left behind drop the PF
// LIDs under it, and a write to the leaf itself is lost).
func TestBootDestroyEqualsReference(t *testing.T) {
	for _, scope := range []Scope{ScopeAllSwitches, ScopeMinimal} {
		for name := range refTopologies(t) {
			t.Run(fmt.Sprintf("%s/%s", name, scope), func(t *testing.T) {
				got, _ := refFabric(t, refTopologies(t)[name], 0)
				want, _ := refFabric(t, refTopologies(t)[name], 0)
				got.Scope, want.Scope = scope, scope
				cas := got.SM.Topo.CAs()
				rng := rand.New(rand.NewSource(39))
				var booted []ib.LID
				var last BootStats // what the latest call reported
				var lastErr error
				step := 0
				check := func(what string, op func(rc *Reconfigurator, ref bool) (BootStats, error)) {
					t.Helper()
					step++
					spans := [2]int{got.SM.Telemetry().Tracer().LastSpanID(), want.SM.Telemetry().Tracer().LastSpanID()}
					logs := [2]int{got.SM.Log().Len(), want.SM.Log().Len()}
					gst, gerr := op(got, false)
					wst, werr := op(want, true)
					if fmt.Sprint(gerr) != fmt.Sprint(werr) {
						t.Fatalf("step %d %s: error %v, reference %v", step, what, gerr, werr)
					}
					if gst != wst {
						t.Fatalf("step %d %s: %+v, reference %+v", step, what, gst, wst)
					}
					g, w := stateOf(got, spans[0], logs[0]), stateOf(want, spans[1], logs[1])
					if !slices.Equal(g.lfts, w.lfts) {
						t.Fatalf("step %d %s: programmed tables differ from the reference", step, what)
					}
					if !slices.Equal(g.log, w.log) {
						t.Fatalf("step %d %s: log %q, reference %q", step, what, g.log, w.log)
					}
					if len(g.spans) != len(w.spans) {
						t.Fatalf("step %d %s: %d spans, reference %d", step, what, len(g.spans), len(w.spans))
					}
					for i := range g.spans {
						if fmt.Sprint(g.spans[i]) != fmt.Sprint(w.spans[i]) {
							t.Fatalf("step %d %s: span %+v, reference %+v", step, what, g.spans[i], w.spans[i])
						}
						if g.spans[i].Kind != telemetry.SpanSMP || g.spans[i].Parent != 0 {
							t.Fatalf("step %d %s: span %+v is not a root smp span", step, what, g.spans[i])
						}
					}
					if gerr == nil && what == "boot" {
						booted = append(booted, gst.LID)
					}
					last, lastErr = gst, gerr
				}
				boot := func(hyp topology.NodeID, prov *ib.Provenance) {
					check("boot", func(rc *Reconfigurator, ref bool) (BootStats, error) {
						if ref {
							return rc.refBootVMLIDProv(hyp, prov)
						}
						return rc.BootVMLIDProv(hyp, prov)
					})
				}
				destroy := func(lid ib.LID) {
					check("destroy", func(rc *Reconfigurator, ref bool) (BootStats, error) {
						if ref {
							return rc.refDestroyVMLIDProv(lid, nil)
						}
						return rc.DestroyVMLIDProv(lid, nil)
					})
				}
				churn := func(n int) {
					for i := 0; i < n; i++ {
						var prov *ib.Provenance
						if i%2 == 1 {
							prov = &ib.Provenance{Engine: "boot", Reason: "oracle", Shard: i % 3}
						}
						boot(cas[1+rng.Intn(len(cas)-1)], prov)
						if i%3 == 2 {
							k := rng.Intn(len(booted))
							destroy(booted[k])
							booted = slices.Delete(booted, k, k+1)
						}
					}
				}

				churn(12)
				destroy(9999)                        // never assigned
				boot(topology.NodeID(1<<20), nil)    // no such node
				boot(got.SM.Topo.Switches()[0], nil) // a switch is no hypervisor

				// A host that lost its link: no switch forwards its PF LID.
				lone := cas[len(cas)/2]
				cutOff(t, got, lone)
				cutOff(t, want, lone)
				boot(lone, nil)
				if lastErr != nil || last.SMPs != 0 {
					t.Fatalf("boot on a host without a link: %+v, %v; want no SMP and no error", last, lastErr)
				}
				destroy(booted[len(booted)-1])
				churn(6)

				// A leaf that lost its trunk links: its hosts are dropped by
				// every other switch, and the leaf takes no write.
				leaf := got.SM.Topo.LeafSwitchOf(cas[len(cas)-1])
				cutOff(t, got, leaf)
				cutOff(t, want, leaf)
				boot(cas[len(cas)-1], nil)
				if lastErr == nil || last.SMPs != 0 {
					t.Fatalf("boot under a cut-off leaf: %+v, %v; want every other switch skipped and the leaf's write lost", last, lastErr)
				}
				boot(cas[1], nil)
				if lastErr == nil || last.SMPs == 0 {
					t.Fatalf("boot beside a cut-off leaf: %+v, %v; want some writes, then the leaf's lost", last, lastErr)
				}
				destroy(booted[0])
			})
		}
	}
}
