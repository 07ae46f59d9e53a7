package experiments

import (
	"fmt"
	"time"

	"ibvsim/internal/ib"
	"ibvsim/internal/routing"
	"ibvsim/internal/sm"
	"ibvsim/internal/smp"
	"ibvsim/internal/timemodel"
	"ibvsim/internal/topology"
)

// FaultRow is one cell of the drop-rate sweep: the cost of distributing a
// vSwitch reconfiguration's LFT updates when each SMP is independently lost
// with the given probability and the SM retransmits on timeout. Scheme
// "prepopulated" reconfigures by swapping two LFT entries on every switch
// (section V-C1, <=2 blocks each); "dynamic" copies the hypervisor's entry
// for a freshly assigned LID (section V-C2, 1 block each).
type FaultRow struct {
	Scheme    string
	DropProb  float64
	Switches  int
	SMPs      int // unique LFT blocks acknowledged
	Retried   int // retransmissions beyond each block's first attempt
	Abandoned int // blocks that exhausted the retry budget
	Attempts  int // transport-level send attempts, losses included
	// AvgAttempts is the measured attempts per block; ExpAttempts the
	// closed-form truncated-geometric expectation (1-p^max)/(1-p).
	AvgAttempts float64
	ExpAttempts float64
	// ModelledTime is the engine's pipelined makespan including timeout
	// and backoff costs.
	ModelledTime time.Duration
}

// FaultSweepOptions parameterises FaultSweep.
type FaultSweepOptions struct {
	// Nodes selects the paper fabric (default 324).
	Nodes int
	// Drops are the per-SMP loss probabilities to sweep (default
	// 0, 0.01, 0.05, 0.1, 0.2).
	Drops []float64
	// Seed drives the fault schedules (default 1).
	Seed int64
}

// FaultSweep measures reconfiguration distribution cost vs. SMP drop rate
// for both vSwitch schemes. Each scheme bootstraps one fabric, then replays
// one reconfiguration per drop rate through the concurrent distribution
// engine with fault injection enabled.
func FaultSweep(opt FaultSweepOptions) ([]FaultRow, error) {
	if opt.Nodes == 0 {
		opt.Nodes = 324
	}
	if opt.Drops == nil {
		opt.Drops = []float64{0, 0.01, 0.05, 0.1, 0.2}
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	var rows []FaultRow
	for _, scheme := range []string{"prepopulated", "dynamic"} {
		r, err := faultSweepScheme(scheme, opt)
		if err != nil {
			return nil, fmt.Errorf("fault sweep %s: %w", scheme, err)
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

func faultSweepScheme(scheme string, opt FaultSweepOptions) ([]FaultRow, error) {
	topo, err := topology.BuildPaperFatTree(opt.Nodes)
	if err != nil {
		return nil, err
	}
	cas := topo.CAs()
	mgr, err := sm.New(topo, cas[0], routing.NewFatTree())
	if err != nil {
		return nil, err
	}
	// A generous budget so even the 0.2 sweep point converges; abandonment
	// would surface in the row.
	mgr.Dist.Retry.MaxAttempts = 8
	if _, _, _, err := mgr.Bootstrap(); err != nil {
		return nil, err
	}

	// The two VF LIDs whose fabric-wide swap models a prepopulated-LID
	// migration, and the hypervisor whose entry the dynamic scheme copies.
	lidA, lidB := mgr.LIDOf(cas[1]), mgr.LIDOf(cas[len(cas)-1])
	hyp := cas[2]
	hypLID := mgr.LIDOf(hyp)

	var rows []FaultRow
	for i, drop := range opt.Drops {
		ft := mgr.InjectFaults(smp.FaultConfig{Drop: drop, Seed: opt.Seed + int64(i)})
		// Apply the scheme's reconfiguration to clones of the target tables
		// and hand them back; the engine then pushes exactly the touched
		// blocks.
		var lid ib.LID
		if scheme == "dynamic" {
			if lid, err = mgr.AllocExtraLID(hyp); err != nil {
				return nil, err
			}
		}
		for _, sw := range topo.Switches() {
			tgt := mgr.TargetLFT(sw).Clone()
			if scheme == "prepopulated" {
				tgt.Swap(lidA, lidB)
			} else {
				tgt.Set(lid, tgt.Get(hypLID))
			}
			mgr.SetTargetLFT(sw, tgt)
		}
		st, err := mgr.DistributeDiff()
		if err != nil {
			return nil, err
		}
		mgr.ClearFaults()
		row := FaultRow{
			Scheme:       scheme,
			DropProb:     drop,
			Switches:     st.SwitchesUpdated,
			SMPs:         st.SMPs,
			Retried:      st.SMPsRetried,
			Abandoned:    st.SMPsAbandoned,
			Attempts:     ft.Stats().Attempts,
			ExpAttempts:  timemodel.ExpectedAttempts(drop, mgr.Dist.Retry.MaxAttempts),
			ModelledTime: st.ModelledTime,
		}
		if blocks := st.SMPs + st.SMPsAbandoned; blocks > 0 {
			row.AvgAttempts = float64(row.Attempts) / float64(blocks)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFaultSweep formats the sweep.
func RenderFaultSweep(rows []FaultRow) string {
	t := &table{header: []string{"Scheme", "Drop", "Switches", "SMPs", "Retried",
		"Abandoned", "Attempts", "Avg-att", "Exp-att", "Modelled"}}
	for _, r := range rows {
		t.add(r.Scheme,
			fmt.Sprintf("%.2f", r.DropProb),
			fmt.Sprintf("%d", r.Switches),
			fmt.Sprintf("%d", r.SMPs),
			fmt.Sprintf("%d", r.Retried),
			fmt.Sprintf("%d", r.Abandoned),
			fmt.Sprintf("%d", r.Attempts),
			fmt.Sprintf("%.3f", r.AvgAttempts),
			fmt.Sprintf("%.3f", r.ExpAttempts),
			r.ModelledTime.String())
	}
	return "Faulty distribution — vSwitch reconfiguration cost vs. SMP drop rate\n" + t.String()
}
