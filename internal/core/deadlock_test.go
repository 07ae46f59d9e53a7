package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ibvsim/internal/audit"
	"ibvsim/internal/cdg"
	"ibvsim/internal/ib"
	"ibvsim/internal/routing"
	"ibvsim/internal/sm"
	"ibvsim/internal/topology"
)

// stubRoutes implements cdg.Routes from explicit maps.
type stubRoutes struct {
	routes map[topology.NodeID]map[ib.LID]ib.PortNum
	owner  map[ib.LID]topology.NodeID
}

func (s *stubRoutes) LFT(sw topology.NodeID) *ib.LFT {
	m, ok := s.routes[sw]
	if !ok {
		return nil
	}
	lft := ib.NewLFT(8)
	for l, p := range m {
		lft.Set(l, p)
	}
	return lft
}

func (s *stubRoutes) NodeOf(l ib.LID) topology.NodeID {
	if n, ok := s.owner[l]; ok {
		return n
	}
	return topology.NoNode
}

// overlaid is the routing after plan: its edits and rebinds written over
// base, as the reconciler's shadow holds them.
func overlaid(base cdg.Routes, plan *MigrationPlan) cdg.Routes {
	ov := &overlayView{base: base, lfts: map[topology.NodeID]*ib.LFT{}, owner: map[ib.LID]topology.NodeID{}}
	ov.apply(plan)
	return ov
}

// TestTransitionDeadlockOnRing reproduces the section VI-C hazard: two
// routing functions that are each deadlock free, whose coexistence during
// a migration closes a channel-dependency cycle.
//
// Ring s0 -> s1 -> s2 -> s3 -> s0 (port 1 = clockwise, port 2 =
// counter-clockwise). CAs: ca1 on s2 (LID 1, the migrating VM), ca2 on s3
// (LID 2), ca3 on s1 (LID 3), ca4 on s0 (LID 4, the destination
// hypervisor).
//
// Old routing deps: LID1 (s0->s1->s2) gives c01->c12; LID2 (s1->s2->s3)
// gives c12->c23; LID3 (s3->s0->s1) gives c30->c01. Acyclic chain.
// The migration moves LID1 to ca4 on s0 and reroutes it clockwise
// s2->s3->s0, adding c23->c30. New routing alone is the acyclic chain
// c12->c23->c30->c01; the union closes the four-cycle.
func TestTransitionDeadlockOnRing(t *testing.T) {
	topo, err := topology.BuildRing(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	sw := topo.Switches() // s0..s3; port 1 -> next, port 2 -> previous
	cas := topo.CAs()     // ringnode-i-0 attached to sw[i] port 3
	ca := func(i int) topology.NodeID {
		for _, c := range cas {
			if topo.LeafSwitchOf(c) == sw[i] {
				return c
			}
		}
		t.Fatalf("no CA on switch %d", i)
		return topology.NoNode
	}
	ca1, ca2, ca3, ca4 := ca(2), ca(3), ca(1), ca(0)

	caPort := func(i int) ib.PortNum { return topo.PortToward(sw[i], ca(i)) }

	routes := &stubRoutes{
		routes: map[topology.NodeID]map[ib.LID]ib.PortNum{
			sw[0]: {1: 1, 2: 2, 3: 1, 4: caPort(0)}, // LID1 clockwise to s1; LID3 clockwise to s1
			sw[1]: {1: 1, 2: 1, 3: caPort(1), 4: 2},
			sw[2]: {1: caPort(2), 2: 1, 3: 2, 4: 1}, // LID4 via s3 (clockwise)
			sw[3]: {1: 2, 2: caPort(3), 3: 1, 4: 1}, // LID3 clockwise to s0
		},
		owner: map[ib.LID]topology.NodeID{1: ca1, 2: ca2, 3: ca3, 4: ca4},
	}

	// The copy-style plan: LID1 follows LID4's routes to ca4 on s0.
	plan := planOf(PlanCopy, 1, 4, map[topology.NodeID]map[ib.LID]ib.PortNum{
		sw[2]: {1: 1},         // s2 -> s3 (clockwise)
		sw[3]: {1: 1},         // s3 -> s0 (clockwise)
		sw[1]: {1: 2},         // s1 -> s0 (counter-clockwise, harmless)
		sw[0]: {1: caPort(0)}, // deliver to ca4
	})

	rep := transition(t, topo, routes, plan, []ib.LID{1, 2, 3})
	if !rep.OldAcyclic {
		t.Error("old routing should be deadlock free")
	}
	if !rep.NewAcyclic {
		t.Error("new routing should be deadlock free")
	}
	if rep.UnionAcyclic {
		t.Error("the transition union must contain a cycle")
	}
	if !rep.Deadlocks() {
		t.Error("Deadlocks() should report the VI-C hazard")
	}
	if len(rep.Cycle) < 4 {
		t.Errorf("expected a cycle of >= 4 channels, got %v", rep.Cycle)
	}
}

// TestTransitionSafeOnFatTree checks the complementary case: swap
// reconfiguration on a fat-tree keeps the union acyclic (up-down routes
// cannot close cycles).
func TestTransitionSafeOnFatTree(t *testing.T) {
	mgr, rc, _, vfs := fig5Fabric(t, 20)
	plan, err := rc.PlanSwap(vfs[0][0], vfs[2][0])
	if err != nil {
		t.Fatal(err)
	}
	rep := transition(t, mgr.Topo, mgr.Programmed(), plan, caLIDs(mgr))
	if !rep.OldAcyclic || !rep.NewAcyclic || !rep.UnionAcyclic {
		t.Errorf("fat-tree swap transition should be fully safe: %+v", rep)
	}
	if rep.Deadlocks() {
		t.Error("no deadlock expected")
	}
}

// caLIDs lists the CA-owned LIDs — the data destinations the auditor's
// transition check restricts itself to.
func caLIDs(mgr *sm.SubnetManager) []ib.LID {
	var out []ib.LID
	for _, tg := range mgr.Targets() {
		if !mgr.Topo.Node(tg.Node).IsSwitch() {
			out = append(out, tg.LID)
		}
	}
	return out
}

// transition runs the section VI-C check on a plan — the auditor's
// Transition from view to the plan overlaid on it — and returns the verdicts
// of cdg.CheckTransition on the same pair, failing unless the auditor's
// report agrees with them and the map-taking audit.CheckTransition, given
// the same tables as maps, returns the same report. dlids must be CA-owned:
// the auditor drops switch-owned LIDs itself, cdg.CheckTransition takes what
// it is given.
func transition(t *testing.T, topo *topology.Topology, view cdg.Routes, plan *MigrationPlan, dlids []ib.LID) cdg.Transition {
	t.Helper()
	next := overlaid(view, plan)
	rep := audit.New(nil, nil, audit.Config{}).Transition(topo, view, next, dlids)
	tr := cdg.CheckTransition(topo, view, next, dlids)
	if cyclic := rep.ByKind[string(audit.KindTransientCDG)] == 1; cyclic == tr.UnionAcyclic {
		t.Fatalf("auditor says union cyclic=%v, cdg.CheckTransition %+v", cyclic, tr)
	}
	if !tr.UnionAcyclic {
		want := fmt.Sprintf("old cyclic=%v, new cyclic=%v", !tr.OldAcyclic, !tr.NewAcyclic)
		if !strings.Contains(rep.Violations[0].Detail, want) {
			t.Fatalf("auditor: %s; cdg.CheckTransition: %s", rep.Violations[0].Detail, want)
		}
	}

	old, target := map[topology.NodeID]*ib.LFT{}, map[topology.NodeID]*ib.LFT{}
	for _, sw := range topo.Switches() {
		old[sw], target[sw] = view.LFT(sw), next.LFT(sw)
	}
	viaMaps := audit.New(nil, nil, audit.Config{}).CheckTransition(topo, old, target, view.NodeOf, dlids)
	rep.WallUS, viaMaps.WallUS = 0, 0
	if !reflect.DeepEqual(rep, viaMaps) {
		t.Fatalf("Transition reports %+v, the map adapter %+v", rep, viaMaps)
	}
	return tr
}

// TestTransitionChecksAgree holds the auditor's Transition, its map adapter
// and cdg.CheckTransition to one verdict: on the auditor's own section VI-C
// fixture (the square of audit.TestTransientCDGCycle: Rold routes LIDs 12
// and 13 clockwise, Rnew LIDs 10 and 11, each acyclic, the union a ring)
// recast as a plan, and on 50 seeded swap and copy plans against a routed
// fat tree, where up/down routing admits no cycle at all.
func TestTransitionChecksAgree(t *testing.T) {
	square := topology.New("square")
	var sw, ca [4]topology.NodeID
	for i := range sw {
		sw[i] = square.AddSwitch(4, "")
	}
	owner := map[ib.LID]topology.NodeID{}
	for i := range sw {
		ca[i] = square.AddCA("")
		owner[ib.LID(10+i)] = ca[i]
		if err := square.Connect(sw[i], 1, sw[(i+1)%4], 2); err != nil {
			t.Fatal(err)
		}
		if err := square.Connect(ca[i], 1, sw[i], 3); err != nil {
			t.Fatal(err)
		}
	}
	drop := ib.DropPort
	view := &stubRoutes{owner: owner, routes: map[topology.NodeID]map[ib.LID]ib.PortNum{
		sw[0]: {12: 1}, sw[1]: {12: 1, 13: 1}, sw[2]: {12: 3, 13: 1}, sw[3]: {13: 3},
	}}
	plan := planOf(PlanCopy, 1, 2, // no LID of the scenario moves
		map[topology.NodeID]map[ib.LID]ib.PortNum{
			sw[0]: {10: 3, 11: 1, 12: drop}, sw[1]: {11: 3, 12: drop, 13: drop},
			sw[2]: {10: 1, 12: drop, 13: drop}, sw[3]: {10: 1, 11: 1, 13: drop},
		})
	tr := transition(t, square, view, plan, []ib.LID{10, 11, 12, 13})
	if !tr.Deadlocks() || len(tr.Cycle) != 5 {
		t.Fatalf("square: want the four-channel ring as a transition-only cycle, got %+v", tr)
	}

	topo, err := topology.BuildXGFT(topology.XGFTSpec{M: []int{4, 4}, W: []int{1, 4}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	hyps := topo.CAs()
	mgr, err := sm.New(topo, hyps[0], routing.NewMinHop())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Sweep(); err != nil {
		t.Fatal(err)
	}
	if err := mgr.AssignLIDs(); err != nil {
		t.Fatal(err)
	}
	var vfs []ib.LID
	for i, h := range hyps {
		for k := 0; k < 2; k++ {
			vfs = append(vfs, ib.LID(100+2*i+k))
			if err := mgr.ReserveExtraLID(vfs[len(vfs)-1], h); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := mgr.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.DistributeDiff(); err != nil {
		t.Fatal(err)
	}
	dlids := caLIDs(mgr)
	rc := NewReconfigurator(mgr)
	rng := rand.New(rand.NewSource(3))
	checked := 0
	for i := 0; i < 50; i++ {
		vm := vfs[rng.Intn(len(vfs))]
		var plan *MigrationPlan
		if i%2 == 0 {
			plan, err = rc.PlanSwap(vm, vfs[rng.Intn(len(vfs))])
		} else {
			plan, err = rc.PlanCopy(vm, mgr.LIDOf(hyps[rng.Intn(len(hyps))]))
		}
		if err != nil {
			continue // the pair named one LID twice
		}
		if tr := transition(t, topo, mgr.Programmed(), plan, dlids); !tr.UnionAcyclic {
			t.Fatalf("plan %d (%v %d->%d): fat-tree transition has a cycle: %v", i, plan.Kind, plan.VMLID, plan.PeerLID, tr.Cycle)
		}
		checked++
	}
	if checked < 45 {
		t.Fatalf("only %d of 50 plans were checkable", checked)
	}
}
