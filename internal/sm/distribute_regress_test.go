package sm

import (
	"strings"
	"testing"

	"ibvsim/internal/ib"
	"ibvsim/internal/routing"
	"ibvsim/internal/smp"
)

// TestDistributeReportsConfiguredWorkers is the regression test for the
// worker-accounting bug: distribute() used to clamp Workers to the job
// count, so an up-to-date fabric reported Workers:0 and logged a misleading
// "workers=0" event. The stats must carry the configured pool size and the
// empty-job case must short-circuit with an explicit up-to-date event.
func TestDistributeReportsConfiguredWorkers(t *testing.T) {
	s, _ := bootstrappedSM(t, 6, smp.FaultConfig{Seed: 1})

	// Nothing changed since bootstrap: zero jobs, configured pool size.
	st, err := s.DistributeDiff()
	if err != nil {
		t.Fatal(err)
	}
	if st.SMPs != 0 || st.SwitchesUpdated != 0 {
		t.Fatalf("up-to-date fabric still sent SMPs: %+v", st)
	}
	if st.Workers != 6 {
		t.Errorf("Workers = %d, want the configured 6 (not the job-count clamp)", st.Workers)
	}
	var upToDate bool
	for _, e := range s.Log().Filter(EvDistribute) {
		if strings.Contains(e.Msg, "workers=0") {
			t.Errorf("misleading event survived: %q", e.Msg)
		}
		if strings.Contains(e.Msg, "up to date") {
			upToDate = true
		}
	}
	if !upToDate {
		t.Error("empty-job distribution logged no up-to-date event")
	}

	// One job only: fan-out is 1 but the stats still report the pool size.
	sw := s.Topo.Switches()[0]
	tgt := s.TargetLFT(sw).Clone()
	nports := len(s.Topo.Node(sw).Ports)
	tgt.Set(1, ib.PortNum(nports-1))
	if s.ProgrammedLFT(sw).Get(1) == tgt.Get(1) {
		tgt.Set(1, ib.PortNum(nports-2))
	}
	s.SetTargetLFT(sw, tgt)
	st, err = s.DistributeDiff()
	if err != nil {
		t.Fatal(err)
	}
	if st.SMPs != 1 {
		t.Fatalf("single-block edit sent %d SMPs", st.SMPs)
	}
	if st.Workers != 6 {
		t.Errorf("Workers = %d after a one-job run, want 6", st.Workers)
	}
}

// TestPartialFailureFallbackMatchesTargetGeometry is the regression test for
// the fallback LFT sizing: when a switch's very first distribution is only
// partially delivered, the shadow table must be derived from the target's
// block geometry (NewLFTBlocks), not from a reconstructed top LID — and it
// must hold exactly the acknowledged blocks, so the next reconciliation
// resends only what was abandoned.
func TestPartialFailureFallbackMatchesTargetGeometry(t *testing.T) {
	topo := smallFT(t)
	s := newSM(t, topo, routing.NewMinHop())
	s.Dist.Workers = 4
	if _, err := s.Sweep(); err != nil {
		t.Fatal(err)
	}
	if err := s.AssignLIDs(); err != nil {
		t.Fatal(err)
	}
	// Push the LID space past a block boundary so switches carry multiple
	// blocks and can end up genuinely half-programmed.
	cas := topo.CAs()
	for i := 0; s.TopLID() < ib.LID(2*ib.LFTBlockSize+5); i++ {
		if _, err := s.AllocExtraLID(cas[1+i%(len(cas)-1)]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}

	// First-ever distribution (no programmed state) under heavy loss with no
	// retry budget: some blocks land, others are abandoned.
	s.InjectFaults(smp.FaultConfig{Drop: 0.5, Seed: 17})
	s.Dist.Retry.MaxAttempts = 1
	st, err := s.DistributeDiff()
	if err != nil {
		t.Fatal(err)
	}
	if st.SwitchesFailed == 0 || st.SMPs == 0 || st.SMPsAbandoned == 0 {
		t.Fatalf("fault schedule produced no partial failure (stats %+v); pick another seed", st)
	}

	for _, sw := range topo.Switches() {
		prog := s.ProgrammedLFT(sw)
		if prog == nil {
			continue // every block abandoned before any landed is legal
		}
		tgt := s.TargetLFT(sw)
		if prog.NumBlocks() != tgt.NumBlocks() {
			t.Errorf("switch %q: fallback shadow has %d blocks, target has %d",
				topo.Node(sw).Desc, prog.NumBlocks(), tgt.NumBlocks())
		}
	}

	// Content check: with faults cleared, reconciliation must resend exactly
	// the abandoned blocks — proof the delivered ones were recorded block
	// for block in the right positions.
	s.ClearFaults()
	st2, err := s.DistributeDiff()
	if err != nil {
		t.Fatal(err)
	}
	if st2.SMPs != st.SMPsAbandoned {
		t.Errorf("reconciliation sent %d SMPs, want exactly the %d abandoned blocks",
			st2.SMPs, st.SMPsAbandoned)
	}
	for _, sw := range topo.Switches() {
		if !lftEqual(s.ProgrammedLFT(sw), s.TargetLFT(sw)) {
			t.Errorf("switch %q not converged after reconciliation", topo.Node(sw).Desc)
		}
	}
}
