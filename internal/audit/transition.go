package audit

import (
	"fmt"
	"time"

	"ibvsim/internal/cdg"
	"ibvsim/internal/ib"
	"ibvsim/internal/telemetry"
	"ibvsim/internal/topology"
)

// CheckTransition proves invariant family (c) for an in-flight LFT
// distribution: while switches are being reprogrammed the fabric holds an
// arbitrary mixture of the old routing function (the programmed tables) and
// the new one (the targets), so the union CDG Rold ∪ Rnew — not either CDG
// alone — must be acyclic (the paper's section VI-C transient hazard).
//
// The subnet manager calls this through its OnDistribute hook at the moment
// a distribution fans out, i.e. exactly when the mixture becomes possible.
// A cycle is counted as a transient_cdg violation and triggers a flight
// dump; distribution itself is not blocked (the monitor observes, the
// mitigation policy in core decides).
//
// Like checkInstalledCDG, the analysis covers CA-owned destinations only:
// switch-destined traffic is VL15 management, outside data-VL deadlock.
func (a *Auditor) CheckTransition(t *topology.Topology, old, target map[topology.NodeID]*ib.LFT,
	nodeOf func(ib.LID) topology.NodeID, dlids []ib.LID) *Report {
	start := time.Now()
	span := a.tr.Start(telemetry.SpanAudit, "transition")
	var c collector
	c.max = a.cfg.MaxViolations

	dlids = dataLIDs(t, dlids, nodeOf)
	tables := func(m map[topology.NodeID]*ib.LFT) cdg.Routes {
		return cdg.Tables{Table: func(sw topology.NodeID) *ib.LFT { return m[sw] }, Owner: nodeOf}
	}
	var tr cdg.Transition
	a.withGraph(t, func(g *cdg.Graph) { tr = g.CheckTransition(tables(old), tables(target), dlids) })
	span.SetAttr("old_edges", tr.OldEdges)
	span.SetAttr("union_edges", tr.UnionEdges)

	if !tr.UnionAcyclic {
		c.add(Violation{
			Kind: KindTransientCDG,
			Detail: fmt.Sprintf(
				"union CDG of in-flight distribution has a cycle (old cyclic=%v, new cyclic=%v): %s",
				!tr.OldAcyclic, !tr.NewAcyclic, cycleString(tr.Cycle)),
		})
	}

	rep := &Report{
		Scope:           "transition",
		LIDsChecked:     len(dlids),
		SwitchesChecked: t.NumSwitches(),
		Total:           c.total,
		ByKind:          c.byKind,
		Violations:      c.kept,
		Truncated:       c.total > len(c.kept),
		WallUS:          time.Since(start).Microseconds(),
	}
	a.finish(span, rep)
	return rep
}
