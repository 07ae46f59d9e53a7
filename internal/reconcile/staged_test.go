package reconcile

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"ibvsim/internal/cloud"
	"ibvsim/internal/core"
	"ibvsim/internal/ib"
	"ibvsim/internal/sriov"
	"ibvsim/internal/topology"
)

// goalCase sets a fresh test cloud up for one goal and returns its spec.
type goalCase struct {
	name  string
	setup func(t *testing.T, c *cloud.Cloud) Spec
}

func create(t *testing.T, c *cloud.Cloud, name string, hn topology.NodeID) {
	t.Helper()
	if _, err := c.CreateVMOn(name, hn); err != nil {
		t.Fatal(err)
	}
}

var goalCases = []goalCase{
	{"defrag", func(t *testing.T, c *cloud.Cloud) Spec {
		hyps := c.Hypervisors()
		for i := 0; i < 6; i++ { // 2 VMs on each of 6 hosts, minimal is 4
			create(t, c, fmt.Sprintf("fr-%d-a", i), hyps[i*2])
			create(t, c, fmt.Sprintf("fr-%d-b", i), hyps[i*2])
		}
		return Spec{Goal: GoalDefrag}
	}},
	{"spread", func(t *testing.T, c *cloud.Cloud) Spec {
		hyps := c.Hypervisors()
		for i := 0; i < 3; i++ {
			create(t, c, fmt.Sprintf("sp-a%d", i), hyps[0])
			create(t, c, fmt.Sprintf("sp-b%d", i), hyps[1])
		}
		return Spec{Goal: GoalSpread}
	}},
	{"drain", func(t *testing.T, c *cloud.Cloud) Spec {
		hyps := c.Hypervisors()
		for i := 0; i < 3; i++ {
			create(t, c, fmt.Sprintf("dr-%d", i), hyps[0])
		}
		create(t, c, "dr-peer", hyps[4])
		return Spec{Goal: GoalDrain, Host: hyps[0]}
	}},
	{"placement-cycle", func(t *testing.T, c *cloud.Cloud) Spec {
		hyps := c.Hypervisors()
		for h := 0; h < 4; h++ { // hosts 0..3 full: every move waits on another
			for i := 0; i < 3; i++ {
				create(t, c, fmt.Sprintf("%c%d", 'a'+h, i), hyps[h])
			}
		}
		return Spec{Goal: GoalPlacement, Placement: map[string]topology.NodeID{
			"a0": hyps[1], "b0": hyps[0], // a 2-cycle
			"b1": hyps[2], "c0": hyps[3], "d0": hyps[1], // a 3-cycle
		}}
	}},
}

// samePlan fails unless two member or wave plans are the same edits, run
// for run.
func samePlan(t *testing.T, what string, got, want *core.MigrationPlan) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: plan %v, planner's %v", what, got, want)
	}
	if got == nil {
		return
	}
	if got.Kind != want.Kind || got.VMLID != want.VMLID || got.PeerLID != want.PeerLID ||
		got.SwitchesTouched != want.SwitchesTouched || got.SMPs != want.SMPs ||
		!reflect.DeepEqual(got.Switches, want.Switches) || !reflect.DeepEqual(got.Entries, want.Entries) {
		t.Fatalf("%s: live plan %+v\n planner's %+v", what, got, want)
	}
	for i := range got.Switches {
		if !reflect.DeepEqual(got.Run(i), want.Run(i)) {
			t.Fatalf("%s: switch %d's run is %v, planner's %v", what, got.Switches[i], got.Run(i), want.Run(i))
		}
	}
}

// project is the part of a wave's plan that edits the member's columns: the
// plan the member's edits make alone, were the table of the whole wave cut
// down to its LIDs.
func project(w *core.MigrationPlan, m *cloud.Migration) (switches []topology.NodeID, runs [][]ib.LFTEntry) {
	for i, sw := range w.Switches {
		var run []ib.LFTEntry
		for _, e := range w.Run(i) {
			if slices.Contains(m.LIDs, e.LID) {
				run = append(run, e)
			}
		}
		if run != nil {
			switches, runs = append(switches, sw), append(runs, run)
		}
	}
	return switches, runs
}

// sameProjection fails unless a member's live plan is the wave's plan cut
// down to the member's columns, and the member's counts are its live plan's.
func sameProjection(t *testing.T, what string, live *cloud.Migration, w *core.MigrationPlan, m *cloud.Migration) {
	t.Helper()
	if live.Plan == nil {
		if w != nil || m.Predicted != (core.PlanCounts{}) {
			t.Fatalf("%s: no live plan, but the wave's plan is %v and the member predicts %+v", what, w, m.Predicted)
		}
		return
	}
	if w == nil {
		t.Fatalf("%s: live plan %+v, but the wave has none", what, live.Plan)
	}
	switches, runs := project(w, m)
	if !slices.Equal(switches, live.Plan.Switches) {
		t.Fatalf("%s: the wave edits its columns on switches %v, live plan on %v", what, switches, live.Plan.Switches)
	}
	for i := range runs {
		if !slices.Equal(runs[i], live.Plan.Run(i)) {
			t.Fatalf("%s: switch %d: the wave's run for its columns is %v, live %v", what, switches[i], runs[i], live.Plan.Run(i))
		}
	}
	if got := (core.PlanCounts{SwitchesTouched: live.Plan.SwitchesTouched, SMPs: live.Plan.SMPs}); got != m.Predicted {
		t.Fatalf("%s: live plan counts %+v, member predicts %+v", what, got, m.Predicted)
	}
}

// effects is what a member declares it will do, without its plan.
func effects(m *cloud.Migration) string {
	return fmt.Sprintf("%s %d->%d %+v->%+v lids %v src %+v dst %+v rebinds %v via %q",
		m.VM, m.From, m.To, m.Addr, m.NewAddr, m.LIDs, m.SrcAfter, m.DstAfter, m.Rebinds, m.Via)
}

// TestStagedWavesMatchLiveStaging pins what the apply relies on now that it
// no longer re-stages: before each wave, staging every member alone against
// the live fabric (cloud.Stage, holding destination VFs in turn) gives the
// planner's shadow-staged member byte for byte — the same destination VF
// and effects, its predicted counts those of its live plan, and that plan
// the wave's plan cut down to the member's columns — and merging the live
// plans (MergePlans) gives the wave's plan. The staged wave is then bound and
// run, and the fabric pays what was predicted. Every SR-IOV model ×
// mitigation, for each goal, a parked cycle included.
func TestStagedWavesMatchLiveStaging(t *testing.T) {
	for _, model := range []sriov.Model{sriov.VSwitchPrepopulated, sriov.VSwitchDynamic, sriov.SharedPort} {
		for _, mit := range []core.Mitigation{core.MitigationNone, core.MitigationInvalidate, core.MitigationDrain} {
			for _, gc := range goalCases {
				t.Run(model.String()+"/"+mit.String()+"/"+gc.name, func(t *testing.T) {
					c := testCloud(t, model)
					c.RC.Mitigation, c.RC.DrainTime = mit, 2*time.Millisecond
					spec := gc.setup(t, c)
					p := &Planner{C: c}
					plan, err := p.Plan(spec)
					if err != nil {
						t.Fatal(err)
					}
					if len(plan.Staged) != len(plan.Waves) || len(plan.Waves) == 0 {
						t.Fatalf("%d staged waves for %d waves", len(plan.Staged), len(plan.Waves))
					}
					if gc.name == "placement-cycle" && len(plan.Moves) != len(spec.Placement)+2 {
						t.Fatalf("%d moves, want one parking move per cycle", len(plan.Moves))
					}
					for wi, w := range plan.Staged {
						what := fmt.Sprintf("wave %d", wi)
						if len(w.Members) != len(plan.Waves[wi]) {
							t.Fatalf("%s: %d staged members for %d moves", what, len(w.Members), len(plan.Waves[wi]))
						}
						live := make([]*cloud.Migration, len(w.Members))
						for i, m := range w.Members {
							if mv := plan.Waves[wi][i]; m.VM != mv.VM || m.To != mv.To {
								t.Fatalf("%s member %d: staged %s->%d, move %+v", what, i, m.VM, m.To, mv)
							}
							if live[i], err = c.Stage(m.VM, m.To, -1); err != nil {
								t.Fatalf("%s: live Stage of %s: %v", what, m.VM, err)
							}
							sameProjection(t, what+" "+m.VM, live[i], w.Plan, m)
							if got, want := effects(live[i]), effects(m); got != want {
								t.Fatalf("%s: live effects %s\n planner's %s", what, got, want)
							}
						}
						if len(w.Members) == 1 {
							samePlan(t, what+" lone member", w.Members[0].Plan, w.Plan)
						} else if w.Members[0].Plan != nil {
							t.Fatalf("%s: a member of a %d-member wave holds a plan of its own", what, len(w.Members))
						}
						var plans []*core.MigrationPlan
						for _, m := range live {
							if m.Plan != nil {
								plans = append(plans, m.Plan)
							}
						}
						if len(plans) > 0 {
							merged, err := core.MergePlans(plans...)
							if err != nil {
								t.Fatal(err)
							}
							samePlan(t, what+" merged", merged, w.Plan)
						}
						for _, m := range live {
							m.Release()
						}
						if err := c.BindWave(w); err != nil {
							t.Fatalf("%s: bind: %v", what, err)
						}
						wr, err := c.RunWave(w, nil)
						if err != nil {
							t.Fatalf("%s: run: %v", what, err)
						}
						applied := StepCost{
							SwitchesUpdated:  wr.Plan.SwitchesUpdated,
							LFTSMPs:          wr.Plan.SMPs,
							InvalidationSMPs: wr.Plan.InvalidationSMPs,
							HostSMPs:         wr.HostSMPs,
							Modelled:         wr.Plan.ModelledTime,
						}
						if applied != plan.Predicted[wi] {
							t.Errorf("%s: applied %+v, predicted %+v", what, applied, plan.Predicted[wi])
						}
					}
					if again, err := p.Plan(spec); err != nil || !again.Converged {
						t.Fatalf("re-planning the achieved state: %+v, %v", again, err)
					}
				})
			}
		}
	}
}

// fabricState is what a refused wave must leave as it was: every switch's
// table, every VF, the SMPs sent and the SM's event log.
type fabricState struct {
	lfts []*ib.LFT
	vfs  [][]sriov.VF
	smps int64
	log  int
}

func stateOf(c *cloud.Cloud) fabricState {
	var s fabricState
	for _, n := range c.SM.Topo.Nodes() {
		if n.IsSwitch() {
			s.lfts = append(s.lfts, c.SM.ProgrammedLFT(n.ID).Clone())
		}
	}
	for _, hn := range c.Hypervisors() {
		s.vfs = append(s.vfs, append([]sriov.VF(nil), c.Hypervisor(hn).HCA.VFs...))
	}
	s.smps = c.SM.Telemetry().Registry().Counter("smp.sent").Value()
	s.log = c.SM.Log().Len()
	return s
}

// TestStagedWaveRefusesDrift: a staged wave runs on the fabric it was
// planned on. When its last member's VM or VFs changed between plan and run,
// binding refuses the wave before the first SMP, the members bound before it
// give their destination VFs back, and the tables are untouched.
func TestStagedWaveRefusesDrift(t *testing.T) {
	drifts := []struct {
		name  string
		drift func(t *testing.T, c *cloud.Cloud, m *cloud.Migration)
		want  error
	}{
		{"vm destroyed", func(t *testing.T, c *cloud.Cloud, m *cloud.Migration) {
			if err := c.DestroyVM(m.VM); err != nil {
				t.Fatal(err)
			}
		}, cloud.ErrNoVM},
		{"vm moved", func(t *testing.T, c *cloud.Cloud, m *cloud.Migration) {
			hyps := c.Hypervisors()
			for i := len(hyps) - 1; i >= 0; i-- { // the emptiest hosts: no wave's destination
				if hn := hyps[i]; hn != m.From && hn != m.To && c.Hypervisor(hn).HCA.FreeCount() > 0 {
					if _, err := c.MigrateVM(m.VM, hn); err != nil {
						t.Fatal(err)
					}
					return
				}
			}
			t.Fatal("no host to move to")
		}, cloud.ErrStale},
		{"destination taken", func(t *testing.T, c *cloud.Cloud, m *cloud.Migration) {
			if _, _, err := c.CreateVMOnVF("squatter", m.To, m.DstAfter.Index); err != nil {
				t.Fatal(err)
			}
		}, cloud.ErrNoFreeVF},
		{"destination held", func(t *testing.T, c *cloud.Cloud, m *cloud.Migration) {
			c.Hypervisor(m.To).HCA.Hold(m.DstAfter.Index)
		}, cloud.ErrNoFreeVF},
		{"destination re-addressed", func(t *testing.T, c *cloud.Cloud, m *cloud.Migration) {
			// A VM that swaps onto the staged VF and away again leaves it
			// free under another LID — and the plan's peer column moved.
			if c.Model != sriov.VSwitchPrepopulated {
				t.Skip("only a prepopulated VF's LID moves")
			}
			hyps := c.Hypervisors()
			create(t, c, "visitor", hyps[len(hyps)-1])
			if _, err := c.MigrateVMVF("visitor", m.To, m.DstAfter.Index); err != nil {
				t.Fatal(err)
			}
			if _, err := c.MigrateVM("visitor", hyps[len(hyps)-2]); err != nil {
				t.Fatal(err)
			}
		}, cloud.ErrStale},
		{"source VF changed", func(t *testing.T, c *cloud.Cloud, m *cloud.Migration) {
			// The same name on the same VF of the same host: a new VM, with a
			// new vGUID (and, under dynamic LIDs, a new LID).
			if err := c.DestroyVM(m.VM); err != nil {
				t.Fatal(err)
			}
			if _, _, err := c.CreateVMOnVF(m.VM, m.From, m.SrcAfter.Index); err != nil {
				t.Fatal(err)
			}
		}, cloud.ErrStale},
	}
	for _, model := range []sriov.Model{sriov.VSwitchPrepopulated, sriov.VSwitchDynamic, sriov.SharedPort} {
		for _, d := range drifts {
			t.Run(model.String()+"/"+d.name, func(t *testing.T) {
				c := testCloud(t, model)
				goalCases[0].setup(t, c)
				plan, err := (&Planner{C: c}).Plan(Spec{Goal: GoalDefrag})
				if err != nil {
					t.Fatal(err)
				}
				w := plan.Staged[0]
				if len(w.Members) < 2 {
					t.Fatalf("wave 0 has %d members; the refusal would bind nothing first", len(w.Members))
				}
				d.drift(t, c, w.Members[len(w.Members)-1])
				before := stateOf(c)
				err = c.BindWave(w)
				if err == nil {
					_, err = c.RunWave(w, nil)
				}
				if !errors.Is(err, d.want) {
					t.Fatalf("drifted wave: err %v, want %v", err, d.want)
				}
				after := stateOf(c)
				if after.smps != before.smps || after.log != before.log {
					t.Errorf("refused wave sent %d SMPs and logged %d lines", after.smps-before.smps, after.log-before.log)
				}
				if !reflect.DeepEqual(after.vfs, before.vfs) {
					t.Errorf("refused wave left VFs changed (held): %v, was %v", after.vfs, before.vfs)
				}
				for i := range after.lfts {
					if !after.lfts[i].Equal(before.lfts[i]) {
						t.Fatalf("refused wave changed switch table %d", i)
					}
				}
			})
		}
	}
}
