package sm

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"ibvsim/internal/ib"
	"ibvsim/internal/routing"
	"ibvsim/internal/smp"
	"ibvsim/internal/topology"
)

func lftEqual(a, b *ib.LFT) bool {
	if a == nil || b == nil {
		return a == b
	}
	return len(a.Diff(b)) == 0
}

// bootstrappedSM builds a fresh small fat-tree with a bootstrapped SM wired
// through a zero-or-more-fault transport, returning both.
func bootstrappedSM(t *testing.T, workers int, cfg smp.FaultConfig) (*SubnetManager, *smp.FaultyTransport) {
	t.Helper()
	topo := smallFT(t)
	s := newSM(t, topo, routing.NewMinHop())
	s.Dist.Workers = workers
	ft := s.InjectFaults(cfg)
	if _, _, _, err := s.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	return s, ft
}

// mutateTargets makes deterministic random edits to a clone of every
// switch's target LFT, hands the clones over as the targets, and returns
// the number of unique blocks a diff distribution must push.
func mutateTargets(s *SubnetManager, rng *rand.Rand, edits int) int {
	top := s.TopLID()
	for _, sw := range s.Topo.Switches() {
		if !s.Reachable(sw) {
			continue
		}
		tgt := s.TargetLFT(sw).Clone()
		nports := len(s.Topo.Node(sw).Ports)
		for e := 0; e < edits; e++ {
			l := ib.LID(1 + rng.Intn(int(top)))
			tgt.Set(l, ib.PortNum(1+rng.Intn(nports-1)))
		}
		s.SetTargetLFT(sw, tgt)
	}
	want := 0
	for _, sw := range s.Topo.Switches() {
		if !s.Reachable(sw) {
			continue
		}
		want += len(s.ProgrammedLFT(sw).Diff(s.TargetLFT(sw)))
	}
	return want
}

// TestConcurrentMatchesSequentialSMPCounts is the acceptance parity check:
// with drop probability 0 the concurrent engine delivers exactly the same
// SMP count to each switch as the fully serial (Workers=1) distribution,
// for the bootstrap diff, an incremental diff, and a full redistribution.
func TestConcurrentMatchesSequentialSMPCounts(t *testing.T) {
	serial, serialFT := bootstrappedSM(t, 1, smp.FaultConfig{Seed: 1})
	conc, concFT := bootstrappedSM(t, 8, smp.FaultConfig{Seed: 2})

	perSwitch := func(s *SubnetManager, ft *smp.FaultyTransport) map[string]int {
		out := map[string]int{}
		for _, sw := range s.Topo.Switches() {
			out[s.Topo.Node(sw).Desc] = ft.DeliveredTo(sw)
		}
		return out
	}
	compare := func(stage string) {
		t.Helper()
		a, b := perSwitch(serial, serialFT), perSwitch(conc, concFT)
		for desc, n := range a {
			if b[desc] != n {
				t.Errorf("%s: switch %s got %d SMPs concurrent vs %d serial", stage, desc, b[desc], n)
			}
		}
	}
	compare("bootstrap")

	// Identical target edits on both fabrics, then an incremental diff.
	mutateTargets(serial, rand.New(rand.NewSource(7)), 5)
	mutateTargets(conc, rand.New(rand.NewSource(7)), 5)
	ds, err := serial.DistributeDiff()
	if err != nil {
		t.Fatal(err)
	}
	dc, err := conc.DistributeDiff()
	if err != nil {
		t.Fatal(err)
	}
	if ds.SMPs != dc.SMPs {
		t.Errorf("diff: serial %d SMPs, concurrent %d", ds.SMPs, dc.SMPs)
	}
	compare("diff")

	fs, err := serial.DistributeFull()
	if err != nil {
		t.Fatal(err)
	}
	fc, err := conc.DistributeFull()
	if err != nil {
		t.Fatal(err)
	}
	if fs.SMPs != fc.SMPs {
		t.Errorf("full: serial %d SMPs, concurrent %d", fs.SMPs, fc.SMPs)
	}
	if fs.SMPsRetried != 0 || fc.SMPsRetried != 0 || fs.SMPsAbandoned != 0 || fc.SMPsAbandoned != 0 {
		t.Errorf("no faults were injected, yet retries/abandons are nonzero: %+v %+v", fs, fc)
	}
	compare("full")

	// Pipelining shows up in the modelled time: the concurrent makespan
	// must not exceed the serial sum for the same SMP footprint.
	if fc.ModelledTime > fs.ModelledTime {
		t.Errorf("concurrent modelled %v exceeds serial %v", fc.ModelledTime, fs.ModelledTime)
	}
}

// TestDistributeConvergesUnderFaults is the central property test: under any
// injected fault schedule that eventually succeeds, every reachable switch's
// programmed LFT equals its target LFT, retried blocks are never
// double-counted in DistributionStats.SMPs, and the retry accounting matches
// the fault transport's verdicts exactly.
func TestDistributeConvergesUnderFaults(t *testing.T) {
	totalRetried := 0
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cfg := smp.FaultConfig{
				Drop:      rng.Float64() * 0.35,
				Delay:     rng.Float64() * 0.2,
				Duplicate: rng.Float64() * 0.15,
				Seed:      seed,
			}
			s, ft := func() (*SubnetManager, *smp.FaultyTransport) {
				topo := smallFT(t)
				sm := newSM(t, topo, routing.NewMinHop())
				sm.Dist.Workers = 1 + rng.Intn(12)
				sm.Dist.Retry.MaxAttempts = 40 // enough that abandonment is astronomically unlikely
				ftr := sm.InjectFaults(cfg)
				if _, _, _, err := sm.Bootstrap(); err != nil {
					t.Fatal(err)
				}
				return sm, ftr
			}()

			check := func(stage string, st DistributionStats, wantBlocks int) {
				t.Helper()
				if st.SMPsAbandoned != 0 || st.SwitchesFailed != 0 {
					t.Fatalf("%s: schedule did not eventually succeed: %+v", stage, st)
				}
				if st.SMPs != wantBlocks {
					t.Errorf("%s: SMPs = %d, want %d unique blocks (retried %d must not double-count)",
						stage, st.SMPs, wantBlocks, st.SMPsRetried)
				}
				for _, sw := range s.Topo.Switches() {
					if !s.Reachable(sw) {
						continue
					}
					if !lftEqual(s.ProgrammedLFT(sw), s.TargetLFT(sw)) {
						t.Errorf("%s: switch %q programmed LFT diverges from target",
							stage, s.Topo.Node(sw).Desc)
					}
				}
				totalRetried += st.SMPsRetried
			}

			// Three rounds of random target churn, each reconciled by the
			// concurrent engine under the running fault schedule.
			for round := 0; round < 3; round++ {
				want := mutateTargets(s, rng, 4)
				st, err := s.DistributeDiff()
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("round %d", round), st, want)
			}

			// Every timeout verdict was retried (nothing was abandoned), so
			// the transport's loss count bounds the attempts from below.
			fst := ft.Stats()
			if lost := fst.Dropped + fst.Delayed; fst.Attempts < lost {
				t.Errorf("transport accounting impossible: %d attempts < %d losses", fst.Attempts, lost)
			}
		})
	}
	if totalRetried == 0 {
		t.Error("fault schedules never forced a retry; the property test is vacuous")
	}
}

// TestRetryAccountingMatchesTransport pins SMPsRetried to the transport's
// timeout verdicts for a single distribution with no abandonment.
func TestRetryAccountingMatchesTransport(t *testing.T) {
	topo := smallFT(t)
	s := newSM(t, topo, routing.NewMinHop())
	s.Dist.Workers = 6
	s.Dist.Retry.MaxAttempts = 50
	if _, _, _, err := s.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	// Inject faults only now, so the transport verdicts cover exactly one
	// distribution.
	ft := s.InjectFaults(smp.FaultConfig{Drop: 0.25, Delay: 0.15, Seed: 99})
	want := mutateTargets(s, rand.New(rand.NewSource(3)), 6)
	st, err := s.DistributeDiff()
	if err != nil {
		t.Fatal(err)
	}
	if st.SMPsAbandoned != 0 {
		t.Fatalf("abandonment with 50 attempts: %+v", st)
	}
	if st.SMPs != want {
		t.Errorf("SMPs = %d, want %d", st.SMPs, want)
	}
	fst := ft.Stats()
	if st.SMPsRetried != fst.Dropped+fst.Delayed {
		t.Errorf("SMPsRetried = %d, transport lost %d (drop %d + delay %d)",
			st.SMPsRetried, fst.Dropped+fst.Delayed, fst.Dropped, fst.Delayed)
	}
	if st.SMPsRetried == 0 {
		t.Error("no retries at drop 0.25; test is vacuous")
	}
	// Retries cost modelled time: timeouts and backoffs make the modelled
	// duration strictly larger than the fault-free cost of the same blocks.
	faultFree := time.Duration(st.SMPs) * s.Cost.SMPTime(st.Mode) / time.Duration(st.Workers)
	if st.ModelledTime <= faultFree {
		t.Errorf("modelled %v does not reflect %d retries (fault-free floor %v)",
			st.ModelledTime, st.SMPsRetried, faultFree)
	}
}

// TestDistributeAbandonsWhenBudgetExhausted verifies the failure path: with
// delivery impossible the engine abandons every block, reports the switches
// as failed, leaves programmed state untouched, and recovers cleanly once
// faults clear.
func TestDistributeAbandonsWhenBudgetExhausted(t *testing.T) {
	topo := smallFT(t)
	s := newSM(t, topo, routing.NewMinHop())
	s.Dist.Workers = 4
	if _, _, _, err := s.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	before := map[topology.NodeID]*ib.LFT{}
	for _, sw := range topo.Switches() {
		before[sw] = s.ProgrammedLFT(sw).Clone()
	}
	s.InjectFaults(smp.FaultConfig{Drop: 1, Seed: 5})
	s.Dist.Retry.MaxAttempts = 3
	want := mutateTargets(s, rand.New(rand.NewSource(11)), 3)
	if want == 0 {
		t.Fatal("mutation produced no work")
	}
	st, err := s.DistributeDiff()
	if err != nil {
		t.Fatalf("timeout exhaustion is not a hard error: %v", err)
	}
	if st.SMPs != 0 || st.SMPsAbandoned != want || st.SwitchesUpdated != 0 {
		t.Errorf("stats = %+v, want 0 delivered / %d abandoned", st, want)
	}
	if st.SwitchesFailed == 0 {
		t.Error("no switches reported failed")
	}
	if st.SMPsRetried != want*2 {
		t.Errorf("retried = %d, want %d (2 retries per block at 3 attempts)", st.SMPsRetried, want*2)
	}
	for sw, lft := range before {
		if !lftEqual(s.ProgrammedLFT(sw), lft) {
			t.Errorf("switch %q programmed state changed despite total loss", topo.Node(sw).Desc)
		}
	}
	if len(s.Log().Filter(EvFailure)) == 0 {
		t.Error("abandonment did not log EvFailure events")
	}
	if len(s.Log().Filter(EvRetry)) == 0 {
		t.Error("retries did not log EvRetry events")
	}

	// Recovery: clear faults and reconcile.
	s.ClearFaults()
	st, err = s.DistributeDiff()
	if err != nil {
		t.Fatal(err)
	}
	if st.SMPs != want || st.SwitchesFailed != 0 {
		t.Errorf("recovery stats = %+v, want %d blocks", st, want)
	}
	for _, sw := range topo.Switches() {
		if !lftEqual(s.ProgrammedLFT(sw), s.TargetLFT(sw)) {
			t.Errorf("switch %q not reconciled after recovery", topo.Node(sw).Desc)
		}
	}
}

// TestDistributeReportsSkippedSwitches is the regression test for the seed's
// silent skip of unreachable switches: stats must count them and an
// EvDistribute log line must name them.
func TestDistributeReportsSkippedSwitches(t *testing.T) {
	topo, err := topology.BuildRing(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(topo, topo.CAs()[0], routing.NewMinHop())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	victim := topo.Switches()[2]
	victimDesc := topo.Node(victim).Desc
	if err := topo.SetLinkState(victim, 1, false); err != nil {
		t.Fatal(err)
	}
	if err := topo.SetLinkState(victim, 2, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resweep(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	st, err := s.DistributeFull()
	if err != nil {
		t.Fatal(err)
	}
	if st.SwitchesSkipped != 1 {
		t.Errorf("SwitchesSkipped = %d, want 1", st.SwitchesSkipped)
	}
	var mentioned bool
	for _, e := range s.Log().Filter(EvDistribute) {
		if strings.Contains(e.Msg, "skipped") && strings.Contains(e.Msg, victimDesc) {
			mentioned = true
		}
	}
	if !mentioned {
		t.Errorf("no EvDistribute line names skipped switch %q; events: %v",
			victimDesc, s.Log().Filter(EvDistribute))
	}
}

// TestLossyDistributionIndependentOfWorkers: a lossy distribution replays
// from its fault seed whatever the worker count. Each destination draws
// its own fault stream, and each switch's SMPs are sent in order, so the
// order in which the workers claim switches changes nothing: the same
// blocks are lost, at 1 worker and at 8.
func TestLossyDistributionIndependentOfWorkers(t *testing.T) {
	run := func(seed int64, workers int) (DistributionStats, []*ib.LFT) {
		topo, err := topology.BuildPaperFatTree(324)
		if err != nil {
			t.Fatal(err)
		}
		s := newSM(t, topo, routing.NewMinHop())
		if _, _, _, err := s.Bootstrap(); err != nil {
			t.Fatal(err)
		}
		mutateTargets(s, rand.New(rand.NewSource(seed)), 20)
		s.InjectFaults(smp.FaultConfig{Drop: 0.3, Seed: seed})
		s.Dist.Workers = workers
		s.Dist.Retry.MaxAttempts = 1
		st, err := s.DistributeDiff()
		if err != nil {
			t.Fatal(err)
		}
		// What the worker count may change: the pool's size, its makespan
		// and the wall time.
		st.Workers, st.ModelledTime, st.Duration = 0, 0, 0
		var lfts []*ib.LFT
		for _, sw := range topo.Switches() {
			lfts = append(lfts, s.ProgrammedLFT(sw))
		}
		return st, lfts
	}
	for seed := int64(1); seed <= 6; seed++ {
		one, oneLFTs := run(seed, 1)
		eight, eightLFTs := run(seed, 8)
		if one.SMPsAbandoned == 0 || one.SMPs == 0 {
			t.Fatalf("seed %d: %+v; want some SMPs lost and some delivered", seed, one)
		}
		if one != eight {
			t.Errorf("seed %d: 1 worker %+v, 8 workers %+v", seed, one, eight)
		}
		for i := range oneLFTs {
			if !lftEqual(oneLFTs[i], eightLFTs[i]) {
				t.Errorf("seed %d: switch %d programmed differently at 1 and 8 workers", seed, i)
			}
		}
	}
}
