package reconcile

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"ibvsim/internal/cloud"
	"ibvsim/internal/core"
	"ibvsim/internal/sriov"
	"ibvsim/internal/topology"
)

// testCloud builds the small fat-tree cloud the cloud package tests use:
// 16 CAs, CA 0 hosts the SM, the other 15 are hypervisors with 3 VFs each.
func testCloud(t *testing.T, model sriov.Model) *cloud.Cloud {
	t.Helper()
	topo, err := topology.BuildXGFT(topology.XGFTSpec{M: []int{4, 4}, W: []int{1, 4}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	cas := topo.CAs()
	c, _, err := cloud.New(topo, cas[0], cas[1:], cloud.Config{
		Model:            model,
		VFsPerHypervisor: 3,
		Scheduler:        cloud.Spread{},
		RouteWorkers:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func applyPlan(t *testing.T, c *cloud.Cloud, plan *Plan) []cloud.WaveReport {
	t.Helper()
	reps := make([]cloud.WaveReport, 0, len(plan.Waves))
	for i, wave := range plan.Waves {
		wr, err := c.MigrateWaveProv(wave, nil)
		if err != nil {
			t.Fatalf("wave %d: %v", i, err)
		}
		reps = append(reps, wr)
	}
	return reps
}

func occupied(c *cloud.Cloud) int {
	n := 0
	for _, hn := range c.Hypervisors() {
		if c.VMCountOn(hn) > 0 {
			n++
		}
	}
	return n
}

func TestParseGoal(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
		err  bool
	}{
		{in: "defrag", want: Spec{Goal: GoalDefrag}},
		{in: "spread", want: Spec{Goal: GoalSpread}},
		{in: "drain:7", want: Spec{Goal: GoalDrain, Host: 7}},
		{in: "drain(7)", want: Spec{Goal: GoalDrain, Host: 7}},
		{in: "drain:007", want: Spec{Goal: GoalDrain, Host: 7}},
		{in: "drain:2147483647", want: Spec{Goal: GoalDrain, Host: 2147483647}},
		{in: "drain:x", err: true},
		{in: "drain", err: true},
		{in: "", err: true},
		{in: "consolidate", err: true},
		// Malformed or out-of-range hosts: each of these used to parse, the
		// first to another host (int32 truncation: node 2).
		{in: "drain:4294967298", err: true},
		{in: "drain:2147483648", err: true},
		{in: "drain:5)", err: true},
		{in: "drain:drain(5)", err: true},
		{in: "drain:+5", err: true},
		{in: "drain:-3", err: true},
		{in: "drain(-3)", err: true},
		{in: "drain(5", err: true},
		{in: "drain()", err: true},
		{in: "drain:", err: true},
		{in: "drain: 5", err: true},
	}
	for _, tc := range cases {
		got, err := ParseGoal(tc.in)
		if tc.err != (err != nil) {
			t.Errorf("ParseGoal(%q) error = %v, want error %v", tc.in, err, tc.err)
			continue
		}
		if !tc.err && (got.Goal != tc.want.Goal || got.Host != tc.want.Host) {
			t.Errorf("ParseGoal(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

// canonical renders an accepted goal as ParseGoal's canonical form.
func canonical(s Spec) string {
	if s.Goal == GoalDrain {
		return fmt.Sprintf("drain:%d", s.Host)
	}
	return string(s.Goal)
}

// FuzzParseGoal: any goal ParseGoal accepts names a host in NodeID range
// and re-renders to a canonical form that parses back to the same Spec.
func FuzzParseGoal(f *testing.F) {
	for _, s := range []string{"defrag", "spread", "drain:7", "drain(7)", "drain:007", "drain:4294967298",
		"drain:5)", "drain:drain(5)", "drain:+5", "drain:-3", "drain(2147483647)", "drain(5"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := ParseGoal(in)
		if err != nil {
			return
		}
		if spec.Goal == GoalDrain && spec.Host < 0 {
			t.Fatalf("%q drains node %d", in, spec.Host)
		}
		again, err := ParseGoal(canonical(spec))
		if err != nil || !reflect.DeepEqual(again, spec) {
			t.Fatalf("%q parsed to %+v, its canonical form %q to %+v (%v)", in, spec, canonical(spec), again, err)
		}
	})
}

// TestDryRunMatchesApplied is the fidelity contract: the shadow-simulated
// per-wave costs of a plan must equal, field for field, what actually hits
// the wire when the same waves are applied — switches updated, LFT SMPs
// (including block-run coalescing), invalidation SMPs, host SMPs and
// modelled time — for every SR-IOV model, for one merged wave and (under the
// port-255 pre-pass, where every move is a wave of its own) for a multi-wave
// defrag whose later waves are planned on the shadow the earlier ones left.
func TestDryRunMatchesApplied(t *testing.T) {
	for _, model := range []sriov.Model{sriov.VSwitchPrepopulated, sriov.VSwitchDynamic, sriov.SharedPort} {
		t.Run(model.String(), func(t *testing.T) {
			for _, mit := range []core.Mitigation{core.MitigationNone, core.MitigationInvalidate, core.MitigationDrain} {
				t.Run(mit.String(), func(t *testing.T) { dryRunMatchesApplied(t, model, mit) })
			}
		})
	}
}

func dryRunMatchesApplied(t *testing.T, model sriov.Model, mit core.Mitigation) {
	c := testCloud(t, model)
	c.RC.Mitigation, c.RC.DrainTime = mit, 2*time.Millisecond
	hyps := c.Hypervisors()
	// Fragment: 2 VMs on each of 6 hosts = 12 VMs, minimal is 4.
	for i := 0; i < 6; i++ {
		for j := 0; j < 2; j++ {
			name := "fr-" + string(rune('a'+i)) + string(rune('0'+j))
			if _, err := c.CreateVMOn(name, hyps[i*2]); err != nil {
				t.Fatal(err)
			}
		}
	}
	p := &Planner{C: c}
	plan, err := p.Plan(Spec{Goal: GoalDefrag})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Converged || len(plan.Waves) == 0 {
		t.Fatalf("fragmented cloud must plan waves, got %+v", plan)
	}
	if mit == core.MitigationInvalidate && len(plan.Waves) < 2 {
		t.Fatalf("single-move waves expected under %v, got %d waves", mit, len(plan.Waves))
	}
	var total StepCost
	for i, wr := range applyPlan(t, c, plan) {
		applied := StepCost{
			SwitchesUpdated:  wr.Plan.SwitchesUpdated,
			LFTSMPs:          wr.Plan.SMPs,
			InvalidationSMPs: wr.Plan.InvalidationSMPs,
			HostSMPs:         wr.HostSMPs,
			Modelled:         wr.Plan.ModelledTime,
		}
		if applied != plan.Predicted[i] {
			t.Errorf("wave %d: applied %+v != predicted %+v", i, applied, plan.Predicted[i])
		}
		total.add(applied)
	}
	if total != plan.Total {
		t.Errorf("applied total %+v != predicted total %+v", total, plan.Total)
	}
}

// TestPlanIdempotent: re-planning an achieved placement must converge with
// zero moves, for every goal.
func TestPlanIdempotent(t *testing.T) {
	c := testCloud(t, sriov.VSwitchPrepopulated)
	hyps := c.Hypervisors()
	for i := 0; i < 8; i++ {
		if _, err := c.CreateVMOn("vm-"+string(rune('a'+i)), hyps[i]); err != nil {
			t.Fatal(err)
		}
	}
	p := &Planner{C: c}

	for _, spec := range []Spec{
		{Goal: GoalDefrag},
		{Goal: GoalDrain, Host: hyps[0]},
		{Goal: GoalSpread},
	} {
		plan, err := p.Plan(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Goal, err)
		}
		applyPlan(t, c, plan)
		again, err := p.Plan(spec)
		if err != nil {
			t.Fatalf("%s re-plan: %v", spec.Goal, err)
		}
		if !again.Converged || len(again.Moves) != 0 {
			t.Fatalf("%s: re-planning the achieved state must converge, got %d moves", spec.Goal, len(again.Moves))
		}
	}
}

// TestConvergenceUnderChurn interleaves seeded create/destroy churn with
// reconciliation rounds and asserts every round converges: after apply, the
// plan is a fixpoint and occupancy is minimal. Runs under -race in CI.
func TestConvergenceUnderChurn(t *testing.T) {
	c := testCloud(t, sriov.VSwitchDynamic)
	hyps := c.Hypervisors()
	rng := rand.New(rand.NewSource(42))
	p := &Planner{C: c}
	next := 0
	live := []string{}

	for round := 0; round < 8; round++ {
		// Churn: a burst of random creations on random hosts plus some
		// destructions, leaving a fragmented layout.
		for i := 0; i < 6; i++ {
			hn := hyps[rng.Intn(len(hyps))]
			if c.VMCountOn(hn) >= 3 {
				continue
			}
			name := "churn-" + string(rune('a'+next%26)) + string(rune('0'+(next/26)%10))
			next++
			if _, err := c.CreateVMOn(name, hn); err != nil {
				t.Fatal(err)
			}
			live = append(live, name)
		}
		for i := 0; i < 3 && len(live) > 1; i++ {
			k := rng.Intn(len(live))
			if err := c.DestroyVM(live[k]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:k], live[k+1:]...)
		}

		plan, err := p.Plan(Spec{Goal: GoalDefrag})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		applyPlan(t, c, plan)

		again, err := p.Plan(Spec{Goal: GoalDefrag})
		if err != nil {
			t.Fatalf("round %d re-plan: %v", round, err)
		}
		if !again.Converged {
			t.Fatalf("round %d: reconcile did not converge (%d moves left)", round, len(again.Moves))
		}
		want := (len(live) + 2) / 3 // ceil(VMs / VFs-per-host)
		if got := occupied(c); got != want {
			t.Fatalf("round %d: occupied hosts = %d, want minimal %d (%d VMs)", round, got, want, len(live))
		}
	}
}

// TestDrainGoal empties the host and reports infeasibility honestly.
func TestDrainGoal(t *testing.T) {
	c := testCloud(t, sriov.VSwitchPrepopulated)
	hyps := c.Hypervisors()
	for i := 0; i < 3; i++ {
		if _, err := c.CreateVMOn("dr-"+string(rune('0'+i)), hyps[0]); err != nil {
			t.Fatal(err)
		}
	}
	p := &Planner{C: c}
	plan, err := p.Plan(Spec{Goal: GoalDrain, Host: hyps[0]})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) != 3 {
		t.Fatalf("want 3 drain moves, got %d", len(plan.Moves))
	}
	applyPlan(t, c, plan)
	if got := c.VMCountOn(hyps[0]); got != 0 {
		t.Fatalf("host still has %d VMs after drain", got)
	}

	if _, err := p.Plan(Spec{Goal: GoalDrain, Host: topology.NodeID(99999)}); err == nil {
		t.Error("draining a non-hypervisor must fail")
	}
}

// TestSpreadGoal levels loads to within one VM.
func TestSpreadGoal(t *testing.T) {
	c := testCloud(t, sriov.VSwitchDynamic)
	hyps := c.Hypervisors()
	for i := 0; i < 3; i++ {
		if _, err := c.CreateVMOn("sp-a"+string(rune('0'+i)), hyps[0]); err != nil {
			t.Fatal(err)
		}
		if _, err := c.CreateVMOn("sp-b"+string(rune('0'+i)), hyps[1]); err != nil {
			t.Fatal(err)
		}
	}
	p := &Planner{C: c}
	plan, err := p.Plan(Spec{Goal: GoalSpread})
	if err != nil {
		t.Fatal(err)
	}
	applyPlan(t, c, plan)
	min, max := 1<<30, 0
	for _, hn := range hyps {
		n := c.VMCountOn(hn)
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if max-min > 1 {
		t.Fatalf("spread left load range [%d,%d]", min, max)
	}
}

// TestPlacementGoal applies an explicit map and validates it.
func TestPlacementGoal(t *testing.T) {
	c := testCloud(t, sriov.VSwitchPrepopulated)
	hyps := c.Hypervisors()
	if _, err := c.CreateVMOn("pl-a", hyps[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateVMOn("pl-b", hyps[1]); err != nil {
		t.Fatal(err)
	}
	p := &Planner{C: c}

	plan, err := p.Plan(Spec{Goal: GoalPlacement, Placement: map[string]topology.NodeID{
		"pl-a": hyps[5],
		"pl-b": hyps[1], // already there: no move
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) != 1 || plan.Moves[0].VM != "pl-a" {
		t.Fatalf("want one move for pl-a, got %+v", plan.Moves)
	}
	applyPlan(t, c, plan)
	if got := c.VM("pl-a").Hyp; got != hyps[5] {
		t.Fatalf("pl-a on %d, want %d", got, hyps[5])
	}

	if _, err := p.Plan(Spec{Goal: GoalPlacement, Placement: map[string]topology.NodeID{"ghost": hyps[0]}}); err == nil {
		t.Error("placement of unknown VM must fail")
	}
	over := map[string]topology.NodeID{}
	for i := 0; i < 2; i++ {
		name := "ov-" + string(rune('0'+i))
		if _, err := c.CreateVMOn(name, hyps[6+i]); err != nil {
			t.Fatal(err)
		}
		over[name] = hyps[5]
	}
	over["pl-b"] = hyps[5]
	// hyps[5] already hosts pl-a; 3 more arrivals overflow its 3 VFs.
	if _, err := p.Plan(Spec{Goal: GoalPlacement, Placement: over}); err == nil {
		t.Error("overfilling placement must fail")
	}
}

// TestPlacementSwapCycle: two full hosts exchange one VM each, so every
// move's destination is full and only the other move can free it. The
// planner used to refuse ("placement infeasible ... moves stuck"); it must
// park one VM per cycle on a spare VF, predict every wave exactly, and
// converge — here for a 2-cycle and a 3-cycle at once. With no spare VF
// anywhere the refusal stands.
func TestPlacementSwapCycle(t *testing.T) {
	for _, model := range []sriov.Model{sriov.VSwitchPrepopulated, sriov.VSwitchDynamic} {
		c := testCloud(t, model)
		hyps := c.Hypervisors()
		// Fill hosts 0..3 (3 VFs each); every other host is empty.
		for h := 0; h < 4; h++ {
			for i := 0; i < 3; i++ {
				if _, err := c.CreateVMOn(string(rune('a'+h))+string(rune('0'+i)), hyps[h]); err != nil {
					t.Fatal(err)
				}
			}
		}
		want := map[string]topology.NodeID{
			"a0": hyps[1], "b0": hyps[0], // 2-cycle between hosts 0 and 1
			"b1": hyps[2], "c0": hyps[3], "d0": hyps[1], // 3-cycle 1 -> 2 -> 3 -> 1
		}
		p := &Planner{C: c}
		plan, err := p.Plan(Spec{Goal: GoalPlacement, Placement: want})
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		if len(plan.Moves) != len(want)+2 {
			t.Fatalf("%v: %d moves for %d placements in two cycles, want one parking move per cycle: %+v", model, len(plan.Moves), len(want), plan.Moves)
		}
		for i, wr := range applyPlan(t, c, plan) {
			if pr := plan.Predicted[i]; pr.SwitchesUpdated != wr.Plan.SwitchesUpdated || pr.LFTSMPs != wr.Plan.SMPs || pr.HostSMPs != wr.HostSMPs {
				t.Errorf("%v wave %d: predicted %+v, applied %+v host %d", model, i, pr, wr.Plan, wr.HostSMPs)
			}
		}
		for name, hn := range want {
			if got := c.VM(name).Hyp; got != hn {
				t.Errorf("%v: %s on %d, want %d", model, name, got, hn)
			}
		}
		if again, err := p.Plan(Spec{Goal: GoalPlacement, Placement: want}); err != nil || !again.Converged {
			t.Errorf("%v: achieved placement must be a fixpoint: %+v, %v", model, again, err)
		}

		// Fill every remaining VF: the same kind of swap now has nowhere to park.
		n := 0
		for _, hn := range hyps {
			for c.VMCountOn(hn) < 3 {
				if _, err := c.CreateVMOn("fill-"+string(rune('A'+n/26))+string(rune('a'+n%26)), hn); err != nil {
					t.Fatal(err)
				}
				n++
			}
		}
		_, err = p.Plan(Spec{Goal: GoalPlacement, Placement: map[string]topology.NodeID{"a1": hyps[1], "b2": hyps[0]}})
		if !errors.Is(err, cloud.ErrNoFreeVF) {
			t.Errorf("%v: swap on a full cloud: err = %v, want ErrNoFreeVF", model, err)
		}
	}
}

// TestPlannerKeepsHypervisorsAscending: Hypervisors() is the cloud's own
// slice, ascending, and spareVF's "lowest-numbered" spare and every goal's
// ties rest on that order. Planning and applying each goal leaves it as it
// was.
func TestPlannerKeepsHypervisorsAscending(t *testing.T) {
	for _, gc := range goalCases {
		t.Run(gc.name, func(t *testing.T) {
			c := testCloud(t, sriov.VSwitchDynamic)
			want := slices.Clone(c.Hypervisors())
			if !slices.IsSorted(want) {
				t.Fatalf("a new cloud's hypervisors are not ascending: %v", want)
			}
			spec := gc.setup(t, c)
			p := &Planner{C: c}
			plan, err := p.Plan(spec)
			if err != nil {
				t.Fatal(err)
			}
			applyPlan(t, c, plan)
			if _, err := p.Plan(spec); err != nil {
				t.Fatal(err)
			}
			if got := c.Hypervisors(); !slices.Equal(got, want) {
				t.Fatalf("after planning %s: Hypervisors() = %v, want %v", gc.name, got, want)
			}
		})
	}
}

// TestDefragIgnoresHeldVFs: a VF an abandoned migration left held is not
// capacity. Sized by NumVFs, defrag kept such hosts as receivers with room
// they do not have; the planner then parked VMs on spares wave after wave
// and never converged — hence the deadline.
func TestDefragIgnoresHeldVFs(t *testing.T) {
	c := testCloud(t, sriov.VSwitchDynamic)
	hyps := slices.Clone(c.Hypervisors()) // the cloud's own slice is read-only
	rng := rand.New(rand.NewSource(23))
	rng.Shuffle(len(hyps), func(i, j int) { hyps[i], hyps[j] = hyps[j], hyps[i] })
	// Two hosts with two VMs and their third VF held — the fullest, so defrag
	// keeps them — and six singles to consolidate.
	held := hyps[:2]
	n := 0
	create := func(hn topology.NodeID) {
		t.Helper()
		if _, err := c.CreateVMOn("vm-"+string(rune('a'+n)), hn); err != nil {
			t.Fatal(err)
		}
		n++
	}
	for _, hn := range held {
		create(hn)
		create(hn)
		hca := c.Hypervisor(hn).HCA
		hca.Hold(hca.FreeVF())
	}
	for _, hn := range hyps[2:8] {
		create(hn)
	}

	p := &Planner{C: c}
	type result struct {
		plan *Plan
		err  error
	}
	done := make(chan result, 1)
	go func() {
		plan, err := p.Plan(Spec{Goal: GoalDefrag})
		done <- result{plan, err}
	}()
	var plan *Plan
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("defrag with held VFs: %v", r.err)
		}
		plan = r.plan
	case <-time.After(20 * time.Second):
		t.Fatal("defrag with held VFs did not return: the planner is waiting for a held slot")
	}
	if len(plan.Moves) == 0 || len(plan.Waves) > len(plan.Moves)+1 {
		t.Fatalf("defrag: %d moves in %d waves", len(plan.Moves), len(plan.Waves))
	}
	for _, mv := range plan.Moves {
		for _, hn := range held {
			if mv.To == hn {
				t.Errorf("%s is sent to %d, whose only unattached VF is held", mv.VM, hn)
			}
		}
	}
	applyPlan(t, c, plan)
	for _, hn := range held {
		if hca := c.Hypervisor(hn).HCA; hca.FreeCount() != 0 || hca.AttachedCount() != 2 {
			t.Errorf("host %d: %d attached, %d free; its held VF was planned on", hn, hca.AttachedCount(), hca.FreeCount())
		}
	}
	again, err := p.Plan(Spec{Goal: GoalDefrag})
	if err != nil {
		t.Fatalf("re-planning the end state: %v", err)
	}
	if !again.Converged {
		t.Fatalf("re-planning the end state yields %d moves, want none", len(again.Moves))
	}
}
