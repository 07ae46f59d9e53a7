package audit

import (
	"fmt"
	"math/bits"
	"slices"

	"ibvsim/internal/cdg"
	"ibvsim/internal/ib"
	"ibvsim/internal/topology"
)

// View is the immutable fabric state one audit pass checks. The control
// plane builds it from its copy-on-write snapshot; tests build it by hand.
// Nothing in a View is mutated by the auditor, so a View may be shared
// across concurrent passes. Nor may anyone else write its tables once a
// fabric-wide (fast or full) pass has seen them: the auditor keeps them as
// the base of the next pass's reachability and CDG deltas (an edit goes to
// a clone, as the subnet manager's do).
type View struct {
	Topo *topology.Topology
	Gen  uint64
	// LFTs holds the programmed forwarding table of each switch. A missing
	// or nil entry means the switch forwards nothing.
	LFTs map[topology.NodeID]*ib.LFT
	// LFTOf, when non-nil, overrides LFTs lookups. Both of the control
	// plane's views set it — a snapshot's AuditView to the snapshot's
	// tables, the op-scoped view to the SM's published ones — so that no
	// pass materialises a map. Only tests and the benchmark's traced view
	// (bench/traced.go) fill LFTs.
	LFTOf func(topology.NodeID) *ib.LFT
	// NodeOfLID maps every owned LID (base and extra/VF) to its node. An
	// op-scoped (ScopeReach) view may carry only the LIDs it audits.
	NodeOfLID map[ib.LID]topology.NodeID
	// BaseLIDs is each node's base LID, dense by node ID. Every VM of a
	// Shared Port hypervisor uses the hypervisor's base (PF) LID, so VMs of
	// that host may share it; with BaseLIDs nil, any shared LID conflicts.
	BaseLIDs []ib.LID
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

// visiting marks a switch on the walk's current path: the packet is still
// being forwarded there, and re-entering it is a loop. It is never reported.
const visiting = cdg.Forwarded

// outcome is the terminal classification of a switch for one destination:
// the cdg.Fate of a packet that enters there. The text of a violation is a
// function of (fate, origin switch, aux) and is only built when one is
// reported.
type outcome struct {
	fate   cdg.Fate
	origin topology.NodeID // switch where the fault originates
	aux    int32           // port number or misdelivery peer
}

func (o outcome) kind() Kind {
	switch o.fate {
	case cdg.WrongCA:
		return KindMisroute
	case cdg.Loop:
		return KindLoop
	}
	return KindBlackhole
}

func (o outcome) msg(t *topology.Topology) string {
	switch o.fate {
	case cdg.NoTable:
		return "switch has no programmed LFT"
	case cdg.Dropped:
		return "LFT entry is DropPort"
	case cdg.NoPort:
		return fmt.Sprintf("LFT routes out nonexistent port %d", o.aux)
	case cdg.DownPort:
		return fmt.Sprintf("LFT routes out down/unconnected port %d", o.aux)
	case cdg.WrongCA:
		return fmt.Sprintf("delivered to wrong CA %s", describe(t, topology.NodeID(o.aux)))
	}
	return fmt.Sprintf("forwarding loop through switch %s", describe(t, o.origin))
}

// nodeState is one node's slot of the walk's scratch. Each group of fields
// is valid only while its stamp equals the scratch's current one, so
// nothing is ever cleared: starting the next destination or the next pass
// is one increment.
type nodeState struct {
	// What the pass has read of this switch: its table, and the 64-LID
	// block of it the current destinations fall in.
	pass  uint32
	block int32
	lft   *ib.LFT
	col   *[ib.LFTBlockSize]ib.PortNum
	// Whether the pass enters the fabric here.
	entry uint32
	// How this switch forwards the current destination, and whether a
	// violation originating here was already reported for it.
	dest     uint32
	reported uint32
	outcome
}

// scratch is the working memory of one pass, kept by the Auditor between
// passes. It is indexed by node and sized by the fabric, which is exactly
// why a pass must not initialise it: the op-scoped pass after a migration
// checks two LIDs from three switches.
type scratch struct {
	nodes   []nodeState
	pass    uint32 // stamp of the running pass
	dest    uint32 // stamp of the destination being walked
	entries []topology.NodeID
	starts  []topology.NodeID // a warm column's switches whose step changed
	dsts    []topology.NodeID // owner of each active LID, NoNode if none
	path    []topology.NodeID
	held    []topology.NodeID                 // switches whose tables this pass resolved
	owned   [1 << 16 / ib.LFTBlockSize]uint64 // checkStaleEntries: the LIDs somebody owns, a word per block
}

// begin readies s for a pass over a fabric of n nodes.
func (s *scratch) begin(n int) {
	if len(s.nodes) < n {
		s.nodes = make([]nodeState, n)
	}
	s.pass = s.nextStamp(s.pass)
}

// end drops the table pointers the pass resolved, so a pooled scratch does
// not keep a past snapshot's forwarding tables alive.
func (s *scratch) end() {
	for _, sw := range s.held {
		s.nodes[sw].lft, s.nodes[sw].col = nil, nil
	}
	s.held = s.held[:0]
}

// nextStamp increments a stamp; on wrap-around it clears every slot once,
// so a stale slot can never match.
func (s *scratch) nextStamp(stamp uint32) uint32 {
	if stamp++; stamp == 0 {
		clear(s.nodes)
		s.pass, s.dest, stamp = 1, 1, 1
	}
	return stamp
}

// column returns switch sw's table and its block b, resolving the table on
// the pass's first visit to sw and the block on the first visit since the
// destinations moved to b — one radix descent per switch per 64 LIDs.
func (s *scratch) column(v *View, sw topology.NodeID, b int32) (*ib.LFT, *[ib.LFTBlockSize]ib.PortNum) {
	ns := &s.nodes[sw]
	if ns.pass != s.pass {
		ns.pass, ns.block, ns.lft, ns.col = s.pass, -1, v.LFT(sw), nil
		s.held = append(s.held, sw)
	}
	if ns.block != b && ns.lft != nil {
		ns.block, ns.col = b, ns.lft.Block(int(b))
	}
	return ns.lft, ns.col
}

// checkReachability proves invariant family (a): for every active
// destination LID, every switch a packet can enter the fabric at forwards
// it hop-by-hop to the owning node — no drops (blackhole), no forwarding
// loops, no delivery to the wrong CA (misroute).
//
// Per destination the switch graph is functional (one next hop per switch),
// so a memoised walk classifies all switches in O(#switches) and the pass
// overall is O(#LIDs × #switches). Nothing is built per view: the walk
// reads tables and ports in place and keeps its state in s.
func checkReachability(v *View, c *collector, s *scratch) {
	s.entrySwitches(v)
	walkColumns(v, c, s, nil)
}

// entrySwitches fills s.dsts with the owner of each active LID and
// s.entries with the fabric entry switches of the nodes that source
// traffic: a CA injects at its leaf switch, a switch sources SMPs at itself.
// Distinct entry switches are what the walk classifies, so deduplicating
// here (many CAs share one leaf) shrinks the per-destination loop from
// O(#nodes) to O(#switches) without changing the violation set — every path
// to a CA destination transits its leaf, so the destination's own entry
// switch is classified either way. Ascending order makes the violations of
// one destination, and so which of them a capped report keeps, the same on
// every run.
func (s *scratch) entrySwitches(v *View) {
	s.entries, s.dsts = s.entries[:0], s.dsts[:0]
	for _, dlid := range v.ActiveLIDs {
		node, ok := v.NodeOfLID[dlid]
		n := v.Topo.Node(node)
		if !ok || n == nil {
			s.dsts = append(s.dsts, topology.NoNode)
			continue
		}
		s.dsts = append(s.dsts, node)
		if !n.IsSwitch() {
			if node = v.Topo.LeafSwitchOf(node); node == topology.NoNode {
				continue
			}
		}
		if ns := &s.nodes[node]; ns.entry != s.pass {
			ns.entry = s.pass
			s.entries = append(s.entries, node)
		}
	}
	slices.Sort(s.entries)
}

// walked is what a reachability walk did: the columns it walked, the walk
// starts it made, and the columns it walked again from every entry because
// a start did not deliver.
type walked struct{ lids, entered, rewalked int }

// walkColumns is the walk of checkReachability over the entry switches and
// owners entrySwitches found: every active LID's column from every entry, or
// — given a base — only the columns the base's last Update named, each from
// the switches whose forwarding step can differ since (a whole column from
// every entry). The others forward as they did in a pass that found them
// clean, and are clean still. In a named column the base was clean too, so
// an entry's path either reads as it did then, and delivers, or first meets
// one of those switches and shares its fate: a column whose starts all
// deliver is clean. One whose starts do not is walked again from every
// entry, so that its violations, their origins and their order are the cold
// walk's.
func walkColumns(v *View, c *collector, s *scratch, only *cdg.Base) (w walked) {
	for i, dlid := range v.ActiveLIDs {
		dst := s.dsts[i]
		if dst == topology.NoNode {
			c.addf(KindStaleEntry, dlid, "", "active LID %d owned by no node", dlid)
			continue
		}
		if only != nil && !only.Changed(dlid) {
			continue
		}
		w.lids++
		if only != nil {
			var whole bool
			if s.starts, whole = only.Switches(s.starts[:0], dlid); !whole {
				n, ok := s.delivers(v, dlid, dst, s.starts)
				if w.entered += n; ok {
					continue
				}
				w.rewalked++
			}
		}
		w.entered += len(s.entries)
		s.walkColumn(v, c, dlid, dst)
	}
	return w
}

// delivers classifies dlid from each of starts until one does not deliver,
// and returns how many it entered and whether all delivered.
func (s *scratch) delivers(v *View, dlid ib.LID, dst topology.NodeID, starts []topology.NodeID) (int, bool) {
	s.dest = s.nextStamp(s.dest)
	for k, sw := range starts {
		if s.classify(v, dlid, dst, sw).fate != cdg.Delivered {
			return k + 1, false
		}
	}
	return len(starts), true
}

// walkColumn classifies dlid from every entry switch, in ascending order,
// and reports one violation per (dlid, origin switch).
func (s *scratch) walkColumn(v *View, c *collector, dlid ib.LID, dst topology.NodeID) {
	s.dest = s.nextStamp(s.dest)
	for _, entry := range s.entries {
		o := s.classify(v, dlid, dst, entry)
		if o.fate == cdg.Delivered {
			continue
		}
		if ns := &s.nodes[o.origin]; ns.reported != s.dest { // one violation per (dlid, origin)
			ns.reported = s.dest
			c.add(Violation{
				Kind:       o.kind(),
				LID:        uint16(dlid),
				Node:       describe(v.Topo, o.origin),
				Detail:     fmt.Sprintf("LID %d (dst %s): %s", dlid, describe(v.Topo, dst), o.msg(v.Topo)),
				Provenance: v.provenanceOf(o.origin, dlid),
			})
		}
	}
}

// classify follows dlid's next hops from switch sw by cdg.Step until the
// packet is delivered, a fault stops it, or it reaches a switch already
// classified for this destination; every switch on the way then shares that
// outcome. Re-entering a switch of the current path is a forwarding loop
// originating at that switch. A fate at a CA is charged to the switch that
// sent the packet there.
func (s *scratch) classify(v *View, dlid ib.LID, dst, sw topology.NodeID) outcome {
	block, off := int32(ib.BlockOf(dlid)), int(dlid)%ib.LFTBlockSize
	path := s.path[:0]
	var o outcome
	for {
		ns := &s.nodes[sw]
		if ns.dest == s.dest {
			if o = ns.outcome; o.fate == visiting {
				o = outcome{fate: cdg.Loop, origin: sw}
			}
			break
		}
		ns.dest, ns.fate = s.dest, visiting
		path = append(path, sw)

		lft, col := s.column(v, sw, block)
		out := ib.DropPort
		if col != nil {
			out = col[off]
		}
		next, f := cdg.Step(v.Topo.Node(sw), lft != nil, out, dst)
		if f == cdg.Forwarded {
			peer := v.Topo.Node(next)
			if peer.IsSwitch() {
				sw = next
				continue
			}
			next, f = cdg.Step(peer, false, 0, dst)
		}
		o = outcome{fate: f, origin: sw, aux: int32(out)}
		if f == cdg.WrongCA {
			o.aux = int32(next)
		}
		break
	}
	for _, n := range path {
		s.nodes[n].outcome = o
	}
	s.path = path
	return o
}

// checkStaleEntries proves the forwarding half of invariant family (b):
// every non-drop forwarding entry must point at a LID somebody owns;
// anything else is a leaked route (e.g. left behind by a migration). It
// sweeps every materialised block of every switch against a bitmap of the
// owned LIDs and therefore needs a complete NodeOfLID map — op-scoped
// (ScopeReach) passes skip it.
func checkStaleEntries(v *View, c *collector, s *scratch) {
	clear(s.owned[:])
	for l := range v.NodeOfLID {
		s.owned[l/64] |= 1 << (l % 64)
	}
	for _, n := range v.Topo.Nodes() {
		if !n.IsSwitch() {
			continue
		}
		lft := v.LFT(n.ID)
		if lft == nil {
			continue
		}
		for b, ports := lft.NextBlock(0); ports != nil; b, ports = lft.NextBlock(b + 1) {
			// A block is one word of the bitmap: only its unowned LIDs are read.
			for rest := ^s.owned[b]; rest != 0; rest &= rest - 1 {
				i := bits.TrailingZeros64(rest)
				if ports[i] == ib.DropPort {
					continue
				}
				l := ib.LID(b*ib.LFTBlockSize + i)
				c.add(Violation{
					Kind: KindStaleEntry,
					LID:  uint16(l),
					Node: describe(v.Topo, n.ID),
					Detail: fmt.Sprintf("switch %s forwards LID %d, which no node owns",
						describe(v.Topo, n.ID), l),
					Provenance: lft.ProvenanceOf(l),
				})
			}
		}
	}
}

// checkBindings proves the addressing half of invariant family (b): each
// VM's LID must be owned by its hypervisor, and no two VMs may claim the
// same LID — unless both run on the hypervisor whose base (PF) LID it is,
// which is how every VM of a Shared Port host is addressed.
func checkBindings(v *View, c *collector) {
	byLID := map[ib.LID]VMBinding{}
	for _, vm := range v.VMs {
		prev, dup := byLID[vm.LID]
		pf := vm.Hyp >= 0 && int(vm.Hyp) < len(v.BaseLIDs) && v.BaseLIDs[vm.Hyp] == vm.LID
		if dup && !(pf && prev.Hyp == vm.Hyp) {
			c.addf(KindLIDConflict, vm.LID, "",
				"VMs %q and %q both claim LID %d", prev.Name, vm.Name, vm.LID)
		}
		byLID[vm.LID] = vm
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
// Transition. It brings the auditor's kept graph up to date with the
// view's tables; only when that routing is cyclic does it build a Graph from
// nothing, to name the cycle.
//
// Only CA-owned destination LIDs enter the graph: switch-destined traffic
// is in-band management riding VL15, which has dedicated credits and is
// exempt from data-VL credit deadlock — and routes to switch LIDs (e.g.
// spine to spine through a leaf) legally violate up/down ordering, so
// including them would flag every fat-tree as deadlocked.
func (a *Auditor) checkInstalledCDG(v *View, c *collector) cdgPass {
	dlids := dataLIDs(v.Topo, v.ActiveLIDs, v)
	a.cdgMu.Lock()
	p, held := a.keep(v.Topo, v, dlids)
	a.cdgMu.Unlock()
	if held {
		return p
	}
	c.add(Violation{
		Kind: KindDeadlock,
		Detail: fmt.Sprintf("installed routing CDG has a cycle: %s",
			cycleString(cdg.BuildSwitchCDG(v.Topo, v, dlids).FindCycle())),
	})
	return p
}

// dataLIDs filters a destination set down to CA-owned LIDs — the ones whose
// traffic occupies data VLs and participates in credit deadlock.
func dataLIDs(t *topology.Topology, lids []ib.LID, r cdg.Routes) []ib.LID {
	out := make([]ib.LID, 0, len(lids))
	for _, l := range lids {
		n := t.Node(r.NodeOf(l))
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
