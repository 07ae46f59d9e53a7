package audit

// The reference oracle: the map-based reachability and stale-entry checks as
// they stood before the array walk replaced them, kept verbatim (names apart)
// so the differential tests in differential_test.go can hold the new checker
// to the old one violation for violation.

import (
	"fmt"
	"slices"

	"ibvsim/internal/ib"
	"ibvsim/internal/topology"
)

// refSwState classifies what happens to a packet for one destination LID once
// it is inside a given switch, following the programmed next hops.
type refSwState struct {
	kind   Kind            // KindBlackhole / KindLoop / KindMisroute, or "" for delivers
	origin topology.NodeID // switch where the fault originates
	msg    string          // detail recorded at the originating switch
}

const refStateVisiting = Kind("__visiting") // DFS grey marker, never reported

// refCheckReachability proves invariant family (a): for every active
// destination LID, every switch a packet can enter the fabric at forwards
// it hop-by-hop to the owning node — no drops (blackhole), no forwarding
// loops, no delivery to the wrong CA (misroute).
//
// Per destination the switch graph is functional (one next hop per switch),
// so a memoised DFS classifies all switches in O(#switches) and the pass
// overall is O(#LIDs × #switches).
func refCheckReachability(v *View, c *collector) {
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
	// The one departure from the code as it stood: it walked the entry
	// switches in map order, so which switch of a forwarding loop it named,
	// and the order of a destination's violations, changed run to run.
	slices.Sort(entries)

	state := map[topology.NodeID]refSwState{}
	for _, dlid := range v.ActiveLIDs {
		dst, ok := v.NodeOfLID[dlid]
		if !ok || v.Topo.Node(dst) == nil {
			c.addf(KindStaleEntry, dlid, "", "active LID %d owned by no node", dlid)
			continue
		}
		clear(state)
		reported := map[topology.NodeID]bool{} // one violation per (dlid, origin)
		for _, entry := range entries {
			st := refClassify(v, dlid, dst, entry, state)
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

// refClassify walks one switch's forwarding of dlid with memoisation. The
// returned state is terminal (never refStateVisiting): a back edge into a grey
// switch classifies the whole tail as a forwarding loop.
func refClassify(v *View, dlid ib.LID, dst, sw topology.NodeID, state map[topology.NodeID]refSwState) refSwState {
	if sw == dst {
		return refSwState{}
	}
	if st, ok := state[sw]; ok {
		if st.kind == refStateVisiting {
			st = refSwState{kind: KindLoop, origin: sw,
				msg: fmt.Sprintf("forwarding loop through switch %s", describe(v.Topo, sw))}
			state[sw] = st
		}
		return st
	}
	state[sw] = refSwState{kind: refStateVisiting}

	st := func() refSwState {
		lft := v.LFT(sw)
		if lft == nil {
			return refSwState{kind: KindBlackhole, origin: sw, msg: "switch has no programmed LFT"}
		}
		out := lft.Get(dlid)
		if out == ib.DropPort {
			return refSwState{kind: KindBlackhole, origin: sw, msg: "LFT entry is DropPort"}
		}
		node := v.Topo.Node(sw)
		if int(out) >= len(node.Ports) {
			return refSwState{kind: KindBlackhole, origin: sw,
				msg: fmt.Sprintf("LFT routes out nonexistent port %d", out)}
		}
		port := node.Ports[out]
		if port.Peer == topology.NoNode || !port.Up {
			return refSwState{kind: KindBlackhole, origin: sw,
				msg: fmt.Sprintf("LFT routes out down/unconnected port %d", out)}
		}
		if port.Peer == dst {
			return refSwState{}
		}
		peer := v.Topo.Node(port.Peer)
		if !peer.IsSwitch() {
			return refSwState{kind: KindMisroute, origin: sw,
				msg: fmt.Sprintf("delivered to wrong CA %s", describe(v.Topo, port.Peer))}
		}
		return refClassify(v, dlid, dst, port.Peer, state)
	}()
	state[sw] = st
	return st
}

// refCheckStaleEntries proves the forwarding half of invariant family (b):
// every non-drop forwarding entry must point at a LID somebody owns;
// anything else is a leaked route (e.g. left behind by a migration). It
// walks every switch × every LID and therefore needs a complete NodeOfLID
// map — op-scoped (ScopeReach) passes skip it.
func refCheckStaleEntries(v *View, c *collector) {
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
