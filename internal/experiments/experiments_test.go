package experiments

import (
	"strings"
	"testing"
	"time"

	"ibvsim/internal/core"
)

func TestTable1ClosedFormMatchesPaperExactly(t *testing.T) {
	rows, err := Table1(Table1Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		want := PaperTable1[r.Nodes]
		if r.Switches != want.Switches || r.LIDs != want.LIDs ||
			r.MinBlocksSwitch != want.MinBlocksSwitch ||
			r.MinSMPsFullRC != want.MinSMPsFullRC ||
			r.MinSMPsSwapCopy != want.MinSMPsSwapCopy ||
			r.MaxSMPsSwapCopy != want.MaxSMPsSwapCopy {
			t.Errorf("%d nodes: got %+v, paper %+v", r.Nodes, r, want)
		}
	}
	out := RenderTable1(rows)
	if !strings.Contains(out, "336960") {
		t.Error("render missing the 11664-node full-RC count")
	}
}

func TestTable1WireVerification(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstraps the 324-node fabric")
	}
	rows, err := Table1(Table1Options{Sizes: []int{324}, MeasureUpTo: 324})
	if err != nil {
		t.Fatal(err)
	}
	if !rows[0].MeasuredVerified {
		t.Fatal("expected wire verification")
	}
	if rows[0].MeasuredFullRC != rows[0].MinSMPsFullRC {
		t.Errorf("wire %d != closed form %d", rows[0].MeasuredFullRC, rows[0].MinSMPsFullRC)
	}
}

func TestTable1UnknownSize(t *testing.T) {
	if _, err := Table1(Table1Options{Sizes: []int{100}}); err == nil {
		t.Error("unknown size should fail")
	}
}

func TestFig7SmallSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("routes the 324-node fabric with four engines")
	}
	// The shape check below compares wall clocks: each engine's fastest of
	// a few runs, so that one descheduled run on a busy box does not decide.
	var rows []Fig7Row
	fastest := map[string]time.Duration{}
	for range 3 {
		var err error
		if rows, err = Fig7(Fig7Options{Sizes: []int{324}}); err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if d, ok := fastest[r.Engine]; !ok || r.PCt < d {
				fastest[r.Engine] = r.PCt
			}
		}
	}
	// 4 engines + the lid-swap/copy zero row.
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	for _, r := range rows {
		if r.Engine != "lid-swap/copy" && r.PCt <= 0 {
			t.Errorf("%s: no PCt measured", r.Engine)
		}
	}
	if fastest["lid-swap/copy"] != 0 {
		t.Error("lid-swap/copy must be zero")
	}
	// Shape: ftree is the fastest engine on its home topology.
	if fastest["ftree"] > fastest["dfsssp"] {
		t.Errorf("ftree (%v) should beat dfsssp (%v), the fastest of 3 runs each", fastest["ftree"], fastest["dfsssp"])
	}
	out := RenderFig7(rows)
	if !strings.Contains(out, "lid-swap/copy") || !strings.Contains(out, "0.012") {
		t.Errorf("render missing content:\n%s", out)
	}
}

func TestFig7GatesExpensiveRuns(t *testing.T) {
	if gated("dfsssp", 324) || gated("lash", 648) {
		t.Error("small sizes must not be gated")
	}
	if !gated("dfsssp", 5832) || !gated("lash", 11664) {
		t.Error("big dfsssp/lash must be gated")
	}
	if gated("ftree", 11664) || gated("minhop", 5832) {
		t.Error("ftree/minhop are never gated")
	}
}

func TestLeafLocalLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstraps a 64-node cloud eight times")
	}
	rows, err := LeafLocal(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 { // 2 kinds x 2 scopes x 3 distances
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	find := func(kind core.PlanKind, scope core.Scope, dist string) LeafLocalRow {
		for _, r := range rows {
			if r.Kind == kind && r.Scope == scope && r.Distance == dist {
				return r
			}
		}
		t.Fatalf("missing row %v/%v/%s", kind, scope, dist)
		return LeafLocalRow{}
	}
	for _, kind := range []core.PlanKind{core.PlanSwap, core.PlanCopy} {
		// Section VI-D: minimal scope, same-leaf -> exactly one switch.
		r := find(kind, core.ScopeMinimal, "same-leaf")
		if r.SwitchesUpdated != 1 || r.SMPs != 1 {
			t.Errorf("%v minimal same-leaf: %d switches %d SMPs, want 1/1", kind, r.SwitchesUpdated, r.SMPs)
		}
		// Footprint grows with distance under minimal scope.
		pod := find(kind, core.ScopeMinimal, "same-pod")
		cross := find(kind, core.ScopeMinimal, "cross-pod")
		if pod.SwitchesUpdated < r.SwitchesUpdated || cross.SwitchesUpdated < pod.SwitchesUpdated {
			t.Errorf("%v minimal footprint not monotone: %d, %d, %d",
				kind, r.SwitchesUpdated, pod.SwitchesUpdated, cross.SwitchesUpdated)
		}
		// Minimal never exceeds deterministic.
		for _, dist := range []string{"same-leaf", "same-pod", "cross-pod"} {
			det := find(kind, core.ScopeAllSwitches, dist)
			min := find(kind, core.ScopeMinimal, dist)
			if min.SwitchesUpdated > det.SwitchesUpdated {
				t.Errorf("%v %s: minimal %d > deterministic %d",
					kind, dist, min.SwitchesUpdated, det.SwitchesUpdated)
			}
			if !det.AddressesOK || !min.AddressesOK {
				t.Errorf("%v %s: addresses not preserved", kind, dist)
			}
		}
	}
	if !strings.Contains(RenderLeafLocal(rows), "same-leaf") {
		t.Error("render missing content")
	}
}

func TestDeadlockScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four fabric simulations")
	}
	rows, err := Deadlock()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]DeadlockRow{}
	for _, r := range rows {
		byName[r.Scenario] = r
	}
	ml := byName["minhop lossless"]
	if !ml.CDGCyclic || !ml.Deadlocked {
		t.Errorf("minhop lossless should deadlock: %+v", ml)
	}
	to := byName["minhop + IB timeouts"]
	if to.Deadlocked || to.Dropped == 0 {
		t.Errorf("timeouts should recover by dropping: %+v", to)
	}
	df := byName["dfsssp (VLs)"]
	if df.Deadlocked || df.Delivered != df.Injected {
		t.Errorf("dfsssp should deliver everything: %+v", df)
	}
	ud := byName["updn"]
	if ud.CDGCyclic || ud.Deadlocked || ud.Delivered != ud.Injected {
		t.Errorf("updn should be cycle-free and deliver everything: %+v", ud)
	}
	if !strings.Contains(RenderDeadlock(rows), "minhop") {
		t.Error("render missing content")
	}
}

func TestCapacityMatchesPaper(t *testing.T) {
	rows := Capacity()
	var sixteen *CapacityRow
	for i := range rows {
		if rows[i].VFs == 16 {
			sixteen = &rows[i]
		}
	}
	if sixteen == nil {
		t.Fatal("16-VF row missing")
	}
	if sixteen.LIDsPerHyp != 17 || sixteen.MaxHypervisors != 2891 || sixteen.MaxVMs != 46256 {
		t.Errorf("16-VF row = %+v, want 17/2891/46256", sixteen)
	}
	if !strings.Contains(RenderCapacity(rows), "46256") {
		t.Error("render missing content")
	}
}

func TestCostModelSpeedupGrows(t *testing.T) {
	rows := CostModel()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Speedup <= rows[i-1].Speedup {
			t.Errorf("speedup must grow with subnet size: %v then %v",
				rows[i-1].Speedup, rows[i].Speedup)
		}
	}
	for _, r := range rows {
		if r.VSwitchWorst >= r.TraditionalRC {
			t.Errorf("%d nodes: vSwitch worst (%v) must beat traditional (%v)",
				r.Nodes, r.VSwitchWorst, r.TraditionalRC)
		}
		if r.VSwitchWorstDR <= r.VSwitchWorst {
			t.Errorf("%d nodes: directed routing must cost more than destination routing", r.Nodes)
		}
		if r.VSwitchBest >= r.VSwitchWorst {
			t.Errorf("%d nodes: best case must beat worst case", r.Nodes)
		}
	}
	if !strings.Contains(RenderCostModel(rows), "Speedup") {
		t.Error("render missing content")
	}
}
