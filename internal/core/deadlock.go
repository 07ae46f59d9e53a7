package core

import (
	"ibvsim/internal/cdg"
	"ibvsim/internal/ib"
	"ibvsim/internal/topology"
)

// AnalyzeTransition runs the section VI-C analysis for a plan against the
// live fabric: is the current routing, the routing after the plan, and
// their union (the state mid-reconfiguration, when some switches hold Rold
// and others Rnew) deadlock free over the given destination LIDs? The
// union captures exactly the hazard of section VI-C: a moved node ID can
// close a dependency cycle even when both endpoint routings are
// individually deadlock free.
func (r *Reconfigurator) AnalyzeTransition(plan *MigrationPlan, dlids []ib.LID) cdg.Transition {
	return AnalyzeTransition(r.SM.Topo, r.SM, plan, dlids)
}

// AnalyzeTransition is the standalone form of the section VI-C analysis,
// usable against any routing state: Rold is the view, Rnew the view with
// the plan's updates overlaid, and cdg.CheckTransition — the same check the
// auditor runs on every distribution — judges the pair.
func AnalyzeTransition(topo *topology.Topology, view PlanView, plan *MigrationPlan, dlids []ib.LID) cdg.Transition {
	// Rnew's tables: copy-on-write clones of the touched switches' tables
	// with the plan's entries written in.
	edited := make(map[topology.NodeID]*ib.LFT, len(plan.Switches))
	for i, sw := range plan.Switches {
		lft := view.ProgrammedLFT(sw)
		if lft == nil {
			lft = ib.NewLFT(0)
		} else {
			lft = lft.Clone()
		}
		for _, e := range plan.Run(i) {
			lft.Set(e.LID, e.Port)
		}
		edited[sw] = lft
	}
	// Post-plan LID locations: the VM LID moves to the peer's node, and
	// for a swap the peer LID moves back to the VM's node.
	vmNode, peerNode := view.NodeOfLID(plan.VMLID), view.NodeOfLID(plan.PeerLID)

	old := cdg.Tables{Table: view.ProgrammedLFT, Owner: view.NodeOfLID}
	next := cdg.Tables{
		Table: func(sw topology.NodeID) *ib.LFT {
			if lft, ok := edited[sw]; ok {
				return lft
			}
			return view.ProgrammedLFT(sw)
		},
		Owner: func(l ib.LID) topology.NodeID {
			switch {
			case l == plan.VMLID:
				return peerNode
			case l == plan.PeerLID && plan.Kind == PlanSwap:
				return vmNode
			}
			return view.NodeOfLID(l)
		},
	}
	return cdg.CheckTransition(topo, old, next, dlids)
}
