package experiments

import (
	"fmt"

	"ibvsim/internal/cdg"
	"ibvsim/internal/fabric"
	"ibvsim/internal/ib"
	"ibvsim/internal/routing"
	"ibvsim/internal/sm"
	"ibvsim/internal/topology"
)

// DeadlockRow is one scenario of the section VI-C demonstration.
type DeadlockRow struct {
	Scenario   string
	CDGCyclic  bool
	Deadlocked bool
	Delivered  int
	Dropped    int
	Injected   int
}

// Deadlock runs four scenarios on an 8-switch ring (2 CAs per switch),
// injecting all-to-(i+half) traffic:
//
//  1. minhop, lossless        -> cyclic CDG, hard deadlock
//  2. minhop + IB timeouts    -> recovers by dropping (the paper's fallback)
//  3. dfsssp (VL layering)    -> no deadlock, full delivery
//  4. updn (cycle-free CDG)   -> no deadlock, full delivery
func Deadlock() ([]DeadlockRow, error) {
	type scenario struct {
		name    string
		engine  routing.Engine
		timeout int
		useVLs  bool
	}
	scenarios := []scenario{
		{"minhop lossless", routing.NewMinHop(), 0, false},
		{"minhop + IB timeouts", routing.NewMinHop(), 12, false},
		{"dfsssp (VLs)", routing.NewDFSSSP(), 0, true},
		{"updn", routing.NewUpDown(), 0, false},
	}
	var rows []DeadlockRow
	for _, sc := range scenarios {
		topo, err := topology.BuildRing(8, 2)
		if err != nil {
			return nil, err
		}
		mgr, err := sm.New(topo, topo.CAs()[0], sc.engine)
		if err != nil {
			return nil, err
		}
		if _, err := mgr.Sweep(); err != nil {
			return nil, err
		}
		if err := mgr.AssignLIDs(); err != nil {
			return nil, err
		}
		req := &routing.Request{Topo: topo, Targets: mgr.Targets()}
		res, err := sc.engine.Compute(req)
		if err != nil {
			return nil, err
		}
		// Install the engine result through the SM's normal path.
		if _, err := mgr.ComputeRoutes(); err != nil {
			return nil, err
		}
		if _, err := mgr.DistributeDiff(); err != nil {
			return nil, err
		}

		var dlids []ib.LID
		for _, tg := range req.Targets {
			dlids = append(dlids, tg.LID)
		}
		g := cdg.BuildSwitchCDG(topo, mgr.Programmed(), dlids)

		cfg := fabric.Config{BufferCredits: 1, NumVLs: 1, TimeoutRounds: sc.timeout}
		if sc.useVLs {
			vls := res.Stats.VLsUsed
			if vls < 1 {
				vls = 1
			}
			cfg.NumVLs = vls
			destVL := res.DestVL
			cfg.VL = func(_ topology.NodeID, dst ib.LID) uint8 { return destVL[dst] }
		}
		sim, err := fabric.New(topo, mgr.Programmed(), cfg)
		if err != nil {
			return nil, err
		}
		cas := topo.CAs()
		injected := 0
		for i, src := range cas {
			dst := cas[(i+len(cas)/2)%len(cas)]
			if err := sim.Inject(src, mgr.LIDOf(dst), 6); err != nil {
				return nil, err
			}
			injected += 6
		}
		run := sim.Run(20000)
		rows = append(rows, DeadlockRow{
			Scenario:   sc.name,
			CDGCyclic:  g.HasCycle(),
			Deadlocked: run.Deadlocked,
			Delivered:  run.Delivered,
			Dropped:    run.Dropped,
			Injected:   injected,
		})
	}
	return rows, nil
}

// RenderDeadlock formats the scenarios.
func RenderDeadlock(rows []DeadlockRow) string {
	t := &table{header: []string{"Scenario", "CDG-cyclic", "Deadlocked", "Delivered", "Dropped", "Injected"}}
	for _, r := range rows {
		t.add(r.Scenario, fmt.Sprintf("%v", r.CDGCyclic), fmt.Sprintf("%v", r.Deadlocked),
			fmt.Sprintf("%d", r.Delivered), fmt.Sprintf("%d", r.Dropped), fmt.Sprintf("%d", r.Injected))
	}
	return "Section VI-C — deadlock on an 8-switch ring under all-to-all shifted traffic\n" + t.String()
}
