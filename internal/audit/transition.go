package audit

import (
	"fmt"
	"time"

	"ibvsim/internal/cdg"
	"ibvsim/internal/ib"
	"ibvsim/internal/telemetry"
	"ibvsim/internal/topology"
)

// Transition proves invariant family (c) for an in-flight LFT
// distribution: while switches are being reprogrammed the fabric holds an
// arbitrary mixture of the old routing function (the programmed tables) and
// the new one (the targets), so the union CDG Rold ∪ Rnew — not either CDG
// alone — must be acyclic (the paper's section VI-C transient hazard). It is
// the one section VI-C entry point. The destinations and their owners are
// read from old: a plan overlaid as next may move a LID to another CA, which
// changes no dependency of its tree.
//
// The subnet manager calls this through its OnDistribute hook at the moment
// a distribution fans out, i.e. exactly when the mixture becomes possible.
// A cycle is counted as a transient_cdg violation and triggers a flight
// dump; distribution itself is not blocked (the monitor observes, the
// mitigation policy in core decides).
//
// The check costs what changed, once: the auditor's kept CDG of the
// installed routing is brought up to date with old, next's dependencies are
// inserted for the pairs whose entries differ, and an acyclic union keeps
// next (old's dependencies of those pairs are removed; next's tables are
// held by pointer, since nobody writes a table once it is handed over). The
// full audit after a completed distribution then finds nothing to re-walk,
// and after a partial one only what did not land. Only a cyclic union (a
// refused insert, after which the graph stays on old) or a cyclic installed
// routing runs the cold check, whose report names the cycle.
//
// Like checkInstalledCDG, the analysis covers CA-owned destinations only:
// switch-destined traffic is VL15 management, outside data-VL deadlock.
func (a *Auditor) Transition(t *topology.Topology, old, next cdg.Routes, dlids []ib.LID) *Report {
	start := time.Now()
	span := a.tr.Start(telemetry.SpanAudit, "transition")
	var c collector
	c.max = a.cfg.MaxViolations

	dlids = dataLIDs(t, dlids, old)
	tr := cdg.Transition{OldAcyclic: true, NewAcyclic: true, UnionAcyclic: true}
	a.cdgMu.Lock()
	p, held := a.keep(t, old, dlids)
	if held {
		var d cdg.Delta
		var err error
		tr.OldEdges, tr.UnionEdges, d, err = a.cdg.Union(next)
		p.pairs, p.entries = p.pairs+d.Pairs, p.entries+d.Entries
		if held = err == nil; !held {
			p.cold = coldRefused
		}
	}
	a.cdgMu.Unlock()
	if !held {
		tr = cdg.CheckTransition(t, old, next, dlids)
	}
	a.note(span, p)
	if span != nil {
		span.SetAttr("old_edges", tr.OldEdges)
		span.SetAttr("union_edges", tr.UnionEdges)
	}

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

// CheckTransition is Transition over table maps and an owner function, the
// shape bench/traced.go calls. It goes once ROADMAP item 6 moves that call
// onto Transition (item 10(e)).
func (a *Auditor) CheckTransition(t *topology.Topology, old, target map[topology.NodeID]*ib.LFT,
	nodeOf func(ib.LID) topology.NodeID, dlids []ib.LID) *Report {
	at := func(m map[topology.NodeID]*ib.LFT) cdg.Tables {
		return cdg.Tables{Table: func(sw topology.NodeID) *ib.LFT { return m[sw] }, Owner: nodeOf}
	}
	return a.Transition(t, at(old), at(target), dlids)
}
