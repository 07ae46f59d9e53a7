package sm

import (
	"fmt"
	"time"

	"ibvsim/internal/ib"
	"ibvsim/internal/smp"
	"ibvsim/internal/telemetry"
	"ibvsim/internal/topology"
)

// LinkChange records one port whose state flipped since the previous
// (light or full) sweep.
type LinkChange struct {
	Node topology.NodeID
	Port ib.PortNum
	Up   bool // the new state
}

// LightSweepStats reports a light sweep's cost and findings.
type LightSweepStats struct {
	SMPs     int
	Changes  []LinkChange
	Duration time.Duration
}

// snapshotPortState captures Up per port for every reachable node, reusing
// the rows of the last snapshot.
func (s *SubnetManager) snapshotPortState() {
	if grow := len(s.reachable) - len(s.portState); grow > 0 {
		s.portState = append(s.portState, make([][]bool, grow)...)
	}
	for id, reached := range s.reachable {
		row := s.portState[id][:0]
		if reached {
			ports := s.Topo.Node(topology.NodeID(id)).Ports
			row = append(row, false) // port 0
			for p := 1; p < len(ports); p++ {
				row = append(row, ports[p].Peer != topology.NoNode && ports[p].Up)
			}
		}
		s.portState[id] = row
	}
}

// LightSweep is the cheap periodic check OpenSM performs between full
// sweeps: one PortInfo Get per reachable *switch* (CAs are observed from
// the switch side), comparing port states against the previous snapshot.
// It does not rebuild paths or reachability — when it reports changes the
// caller escalates to Resweep plus a reconfiguration.
func (s *SubnetManager) LightSweep() (LightSweepStats, error) {
	start := time.Now()
	var st LightSweepStats
	if !s.swept {
		return st, fmt.Errorf("sm: LightSweep before Sweep")
	}
	span := s.tel.Tracer().Start(telemetry.SpanSweep, "light")
	defer func() {
		span.SetAttr("smps", st.SMPs)
		span.SetAttr("changes", len(st.Changes))
		span.SetModelled(s.Cost.SMPTime(smp.DirectedRoute) * time.Duration(st.SMPs))
		span.EndWithWall(st.Duration)
	}()
	s.tel.Registry().Counter("sm.light_sweeps").Inc()
	var tally smp.Tally
	for _, sw := range s.Topo.Switches() {
		if !s.Reachable(sw) {
			continue
		}
		p := smp.SMP{Attr: smp.AttrPortInfo, Path: s.pathTo(sw)}
		if _, err := s.Transport.SendDirectedTally(s.SMNode, &p, &tally); err != nil {
			// The path to the switch itself broke: that is a change too.
			st.Changes = append(st.Changes, LinkChange{Node: sw, Port: 0, Up: false})
			continue
		}
		st.SMPs++
		n := s.Topo.Node(sw)
		prev := s.portState[sw]
		for pi := 1; pi < len(n.Ports); pi++ {
			now := n.Ports[pi].Peer != topology.NoNode && n.Ports[pi].Up
			was := pi < len(prev) && prev[pi]
			if now != was {
				st.Changes = append(st.Changes, LinkChange{Node: sw, Port: ib.PortNum(pi), Up: now})
			}
		}
	}
	s.Transport.Counters.Add(&tally)
	s.snapshotPortState()
	st.Duration = time.Since(start)
	if len(st.Changes) > 0 {
		s.log.Addf(EvSweep, "light sweep: %d SMPs, %d changes", st.SMPs, len(st.Changes))
	}
	return st, nil
}
