package audit

import (
	"fmt"

	"ibvsim/internal/cdg"
	"ibvsim/internal/ib"
	"ibvsim/internal/topology"
)

// View is the immutable fabric state one audit pass checks. The control
// plane builds it from its copy-on-write snapshot; tests build it by hand.
// Nothing in a View is mutated by the auditor, so a View may be shared
// across concurrent passes.
type View struct {
	Topo *topology.Topology
	Gen  uint64
	// LFTs holds the programmed forwarding table of each switch. A missing
	// or nil entry means the switch forwards nothing.
	LFTs map[topology.NodeID]*ib.LFT
	// LFTOf, when non-nil, overrides LFTs lookups. Sharded control planes
	// set it to the SM's live (atomically published, immutable) active
	// tables so an op-scoped pass needs no per-run map materialisation.
	LFTOf func(topology.NodeID) *ib.LFT
	// NodeOfLID maps every owned LID (base and extra/VF) to its node. An
	// op-scoped (ScopeReach) view may carry only the LIDs it audits.
	NodeOfLID map[ib.LID]topology.NodeID
	// ActiveLIDs are the destinations whose reachability the audit proves:
	// switch LIDs, PF base LIDs and VF LIDs with a VM behind them — or,
	// for an op-scoped pass, just the LID columns one mutation touched.
	ActiveLIDs []ib.LID
	// VMs are the control plane's VM→(LID, hypervisor) bindings.
	VMs []VMBinding
}

// LFT resolves one switch's table through LFTOf or the LFTs map (nil when
// the switch forwards nothing). With NodeOf it makes a View a cdg.Routes.
func (v *View) LFT(sw topology.NodeID) *ib.LFT {
	if v.LFTOf != nil {
		return v.LFTOf(sw)
	}
	return v.LFTs[sw]
}

// provenanceOf returns the write stamp of the LFT block holding (sw, dlid),
// or nil when the switch has no table or the block was never stamped.
func (v *View) provenanceOf(sw topology.NodeID, dlid ib.LID) *ib.Provenance {
	lft := v.LFT(sw)
	if lft == nil {
		return nil
	}
	return lft.ProvenanceOf(dlid)
}

// NodeOf returns the node that owns a LID in the view's LID map.
func (v *View) NodeOf(l ib.LID) topology.NodeID {
	if n, ok := v.NodeOfLID[l]; ok {
		return n
	}
	return topology.NoNode
}

// describe labels a node for violation detail.
func describe(t *topology.Topology, id topology.NodeID) string {
	if n := t.Node(id); n != nil && n.Desc != "" {
		return fmt.Sprintf("%s(%d)", n.Desc, id)
	}
	return fmt.Sprintf("node(%d)", id)
}

// swState classifies what happens to a packet for one destination LID once
// it is inside a given switch, following the programmed next hops.
type swState struct {
	kind   Kind            // KindBlackhole / KindLoop / KindMisroute, or "" for delivers
	origin topology.NodeID // switch where the fault originates
	msg    string          // detail recorded at the originating switch
}

const stateVisiting = Kind("__visiting") // DFS grey marker, never reported

// checkReachability proves invariant family (a): for every active
// destination LID, every switch a packet can enter the fabric at forwards
// it hop-by-hop to the owning node — no drops (blackhole), no forwarding
// loops, no delivery to the wrong CA (misroute).
//
// Per destination the switch graph is functional (one next hop per switch),
// so a memoised DFS classifies all switches in O(#switches) and the pass
// overall is O(#LIDs × #switches).
func checkReachability(v *View, c *collector) {
	// The fabric entry switches of the nodes that source traffic: a CA
	// injects at its leaf switch, a switch sources SMPs at itself. Distinct
	// entry switches are what the DFS classifies, so deduplicating here
	// (many CAs share one leaf) shrinks the per-destination loop from
	// O(#nodes) to O(#switches) without changing the violation set — every
	// path to a CA destination transits its leaf, so the destination's own
	// entry switch is classified either way.
	entrySet := map[topology.NodeID]bool{}
	for _, dlid := range v.ActiveLIDs {
		node, ok := v.NodeOfLID[dlid]
		if !ok || v.Topo.Node(node) == nil {
			continue
		}
		if v.Topo.Node(node).IsSwitch() {
			entrySet[node] = true
		} else if leaf := v.Topo.LeafSwitchOf(node); leaf != topology.NoNode {
			entrySet[leaf] = true
		}
	}
	entries := make([]topology.NodeID, 0, len(entrySet))
	for e := range entrySet {
		entries = append(entries, e)
	}

	state := map[topology.NodeID]swState{}
	for _, dlid := range v.ActiveLIDs {
		dst, ok := v.NodeOfLID[dlid]
		if !ok || v.Topo.Node(dst) == nil {
			c.addf(KindStaleEntry, dlid, "", "active LID %d owned by no node", dlid)
			continue
		}
		clear(state)
		reported := map[topology.NodeID]bool{} // one violation per (dlid, origin)
		for _, entry := range entries {
			st := classify(v, dlid, dst, entry, state)
			if st.kind == "" || reported[st.origin] {
				continue
			}
			reported[st.origin] = true
			c.add(Violation{
				Kind:       st.kind,
				LID:        uint16(dlid),
				Node:       describe(v.Topo, st.origin),
				Detail:     fmt.Sprintf("LID %d (dst %s): %s", dlid, describe(v.Topo, dst), st.msg),
				Provenance: v.provenanceOf(st.origin, dlid),
			})
		}
	}
}

// classify walks one switch's forwarding of dlid with memoisation. The
// returned state is terminal (never stateVisiting): a back edge into a grey
// switch classifies the whole tail as a forwarding loop.
func classify(v *View, dlid ib.LID, dst, sw topology.NodeID, state map[topology.NodeID]swState) swState {
	if sw == dst {
		return swState{}
	}
	if st, ok := state[sw]; ok {
		if st.kind == stateVisiting {
			st = swState{kind: KindLoop, origin: sw,
				msg: fmt.Sprintf("forwarding loop through switch %s", describe(v.Topo, sw))}
			state[sw] = st
		}
		return st
	}
	state[sw] = swState{kind: stateVisiting}

	st := func() swState {
		lft := v.LFT(sw)
		if lft == nil {
			return swState{kind: KindBlackhole, origin: sw, msg: "switch has no programmed LFT"}
		}
		out := lft.Get(dlid)
		if out == ib.DropPort {
			return swState{kind: KindBlackhole, origin: sw, msg: "LFT entry is DropPort"}
		}
		node := v.Topo.Node(sw)
		if int(out) >= len(node.Ports) {
			return swState{kind: KindBlackhole, origin: sw,
				msg: fmt.Sprintf("LFT routes out nonexistent port %d", out)}
		}
		port := node.Ports[out]
		if port.Peer == topology.NoNode || !port.Up {
			return swState{kind: KindBlackhole, origin: sw,
				msg: fmt.Sprintf("LFT routes out down/unconnected port %d", out)}
		}
		if port.Peer == dst {
			return swState{}
		}
		peer := v.Topo.Node(port.Peer)
		if !peer.IsSwitch() {
			return swState{kind: KindMisroute, origin: sw,
				msg: fmt.Sprintf("delivered to wrong CA %s", describe(v.Topo, port.Peer))}
		}
		return classify(v, dlid, dst, port.Peer, state)
	}()
	state[sw] = st
	return st
}

// checkStaleEntries proves the forwarding half of invariant family (b):
// every non-drop forwarding entry must point at a LID somebody owns;
// anything else is a leaked route (e.g. left behind by a migration). It
// walks every switch × every LID and therefore needs a complete NodeOfLID
// map — op-scoped (ScopeReach) passes skip it.
func checkStaleEntries(v *View, c *collector) {
	for _, sw := range v.Topo.Switches() {
		lft := v.LFT(sw)
		if lft == nil {
			continue
		}
		top := ib.LID(lft.NumBlocks() * ib.LFTBlockSize)
		for l := ib.LID(0); l < top; l++ {
			if lft.Get(l) == ib.DropPort {
				continue
			}
			if _, ok := v.NodeOfLID[l]; !ok {
				c.add(Violation{
					Kind: KindStaleEntry,
					LID:  uint16(l),
					Node: describe(v.Topo, sw),
					Detail: fmt.Sprintf("switch %s forwards LID %d, which no node owns",
						describe(v.Topo, sw), l),
					Provenance: lft.ProvenanceOf(l),
				})
			}
		}
	}
}

// checkBindings proves the addressing half of invariant family (b): each
// VM's LID must be owned by its hypervisor, and no two VMs may claim the
// same LID.
func checkBindings(v *View, c *collector) {
	byLID := map[ib.LID]string{}
	for _, vm := range v.VMs {
		if prev, dup := byLID[vm.LID]; dup {
			c.addf(KindLIDConflict, vm.LID, "",
				"VMs %q and %q both claim LID %d", prev, vm.Name, vm.LID)
		}
		byLID[vm.LID] = vm.Name
		owner, ok := v.NodeOfLID[vm.LID]
		if !ok {
			c.addf(KindLIDConflict, vm.LID, "",
				"VM %q claims LID %d, which is not in the LID map", vm.Name, vm.LID)
			continue
		}
		if owner != vm.Hyp {
			c.addf(KindLIDConflict, vm.LID, describe(v.Topo, owner),
				"VM %q on hypervisor %s claims LID %d, owned by %s",
				vm.Name, describe(v.Topo, vm.Hyp), vm.LID, describe(v.Topo, owner))
		}
	}
}

// checkInstalledCDG proves invariant family (c) for the steady state: the
// CDG induced by the installed routing of the data traffic must be acyclic
// (Dally & Seitz). The transient variant for in-flight distributions is
// CheckTransition.
//
// Only CA-owned destination LIDs enter the graph: switch-destined traffic
// is in-band management riding VL15, which has dedicated credits and is
// exempt from data-VL credit deadlock — and routes to switch LIDs (e.g.
// spine to spine through a leaf) legally violate up/down ordering, so
// including them would flag every fat-tree as deadlocked.
func checkInstalledCDG(v *View, c *collector) {
	g := cdg.BuildSwitchCDG(v.Topo, v, dataLIDs(v.Topo, v.ActiveLIDs, v.NodeOf))
	if cyc := g.FindCycle(); cyc != nil {
		c.add(Violation{
			Kind:   KindDeadlock,
			Detail: fmt.Sprintf("installed routing CDG has a cycle: %s", cycleString(cyc)),
		})
	}
}

// dataLIDs filters a destination set down to CA-owned LIDs — the ones whose
// traffic occupies data VLs and participates in credit deadlock.
func dataLIDs(t *topology.Topology, lids []ib.LID, nodeOf func(ib.LID) topology.NodeID) []ib.LID {
	out := make([]ib.LID, 0, len(lids))
	for _, l := range lids {
		n := t.Node(nodeOf(l))
		if n != nil && !n.IsSwitch() {
			out = append(out, l)
		}
	}
	return out
}

func cycleString(cyc []cdg.Channel) string {
	s := ""
	for i, ch := range cyc {
		if i > 0 {
			s += " -> "
		}
		s += ch.String()
	}
	return s
}
