package core

import (
	"math/rand"
	"testing"

	"ibvsim/internal/ib"
	"ibvsim/internal/topology"
)

// snapshotLFTs clones every programmed table.
func snapshotLFTs(t *testing.T, mgrLFTs func(topology.NodeID) *ib.LFT, switches []topology.NodeID) map[topology.NodeID]*ib.LFT {
	t.Helper()
	out := map[topology.NodeID]*ib.LFT{}
	for _, sw := range switches {
		out[sw] = mgrLFTs(sw).Clone()
	}
	return out
}

// TestSwapRoundTripRestoresLFTsProperty: migrating a VM away and back with
// the swap planner must restore every forwarding table exactly — the swap
// is an involution at the fabric level, which is what preserves the
// initial balancing (section V-C1).
func TestSwapRoundTripRestoresLFTsProperty(t *testing.T) {
	mgr, rc, _, vfs := fig5Fabric(t, 20)
	switches := mgr.Topo.Switches()
	before := snapshotLFTs(t, mgr.ProgrammedLFT, switches)

	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 25; iter++ {
		// Pick any two VF LIDs on different hypervisors.
		a := vfs[rng.Intn(3)][rng.Intn(3)]
		b := vfs[rng.Intn(3)][rng.Intn(3)]
		if a == b {
			continue
		}
		plan, err := rc.PlanSwap(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rc.Apply(plan); err != nil {
			t.Fatal(err)
		}
		back, err := rc.PlanSwap(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rc.Apply(back); err != nil {
			t.Fatal(err)
		}
		for _, sw := range switches {
			if d := before[sw].Diff(mgr.ProgrammedLFT(sw)); len(d) != 0 {
				t.Fatalf("iter %d: swap round trip changed switch %d blocks %v", iter, sw, d)
			}
		}
	}
}

// TestPlanPredictionsMatchWireProperty: the SMP and switch counts a plan
// predicts must equal what Apply sends, across random migrations in both
// flavours.
func TestPlanPredictionsMatchWireProperty(t *testing.T) {
	mgr, rc, hyps, vfs := fig5Fabric(t, 40)
	rng := rand.New(rand.NewSource(5))
	// Swap flavour.
	for iter := 0; iter < 20; iter++ {
		a := vfs[rng.Intn(3)][rng.Intn(3)]
		b := vfs[rng.Intn(3)][rng.Intn(3)]
		if a == b {
			continue
		}
		plan, err := rc.PlanSwap(a, b)
		if err != nil {
			t.Fatal(err)
		}
		st, err := rc.Apply(plan)
		if err != nil {
			t.Fatal(err)
		}
		if st.SMPs != plan.SMPs || st.SwitchesUpdated != plan.SwitchesTouched {
			t.Fatalf("iter %d: wire (%d SMPs, %d sw) != plan (%d, %d)",
				iter, st.SMPs, st.SwitchesUpdated, plan.SMPs, plan.SwitchesTouched)
		}
	}
	// Copy flavour with dynamically booted LIDs.
	boot, err := rc.BootVMLID(hyps[0])
	if err != nil {
		t.Fatal(err)
	}
	cur := 0
	for iter := 0; iter < 10; iter++ {
		next := (cur + 1 + rng.Intn(2)) % 3
		plan, err := rc.PlanCopy(boot.LID, mgr.LIDOf(hyps[next]))
		if err != nil {
			t.Fatal(err)
		}
		st, err := rc.Apply(plan)
		if err != nil {
			t.Fatal(err)
		}
		if st.SMPs != plan.SMPs || st.SwitchesUpdated != plan.SwitchesTouched {
			t.Fatalf("copy iter %d: wire (%d, %d) != plan (%d, %d)",
				iter, st.SMPs, st.SwitchesUpdated, plan.SMPs, plan.SwitchesTouched)
		}
		cur = next
	}
}

// TestSwapBoundsProperty: every swap plan respects the Table I bounds
// (1 <= SMPs <= 2n, switches <= n) and block arithmetic (SMPs per switch
// is 1 when the LIDs share a block, at most 2 otherwise).
func TestSwapBoundsProperty(t *testing.T) {
	_, rc, _, vfs := fig5Fabric(t, 20)
	n := len(rc.SM.Topo.Switches())
	for _, pair := range [][2]ib.LID{
		{vfs[0][0], vfs[2][0]},
		{vfs[0][1], vfs[1][1]},
		{vfs[1][2], vfs[2][2]},
	} {
		plan, err := rc.PlanSwap(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if plan.SMPs < 1 || plan.SMPs > MaxSwapSMPs(n) {
			t.Errorf("SMPs %d outside [1, %d]", plan.SMPs, MaxSwapSMPs(n))
		}
		if plan.SwitchesTouched > n {
			t.Errorf("switches %d > n %d", plan.SwitchesTouched, n)
		}
		sameBlock := ib.BlockOf(pair[0]) == ib.BlockOf(pair[1])
		for sw, changes := range updatesOf(plan) {
			blocks := map[int]bool{}
			for l := range changes {
				blocks[ib.BlockOf(l)] = true
			}
			if sameBlock && len(blocks) != 1 {
				t.Errorf("switch %d: same-block swap touched %d blocks", sw, len(blocks))
			}
			if len(blocks) > 2 {
				t.Errorf("switch %d: %d blocks touched", sw, len(blocks))
			}
		}
	}
}
