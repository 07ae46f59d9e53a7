package api

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"

	"ibvsim/internal/cdg"
	"ibvsim/internal/cloud"
	"ibvsim/internal/ib"
	"ibvsim/internal/shard"
	"ibvsim/internal/sm"
	"ibvsim/internal/topology"
)

// VMInfo is one VM in a snapshot (and in VM listings).
type VMInfo struct {
	Name    string          `json:"name"`
	Node    topology.NodeID `json:"hypervisor"`
	HypDesc string          `json:"hypervisor_desc,omitempty"`
	VF      int             `json:"vf"`
	LID     uint16          `json:"lid"`
	GUID    string          `json:"guid"`
	GID     string          `json:"gid,omitempty"`
}

// HypInfo is one hypervisor in a snapshot. Zone is the zone whose actor owns
// it (0, and omitted, when one zone is the whole fabric).
type HypInfo struct {
	Node     topology.NodeID `json:"node"`
	Desc     string          `json:"desc"`
	LID      uint16          `json:"lid"`
	VFs      int             `json:"vfs"`
	Attached int             `json:"attached"`
	Zone     int             `json:"zone,omitempty"`
}

// Snapshot is an immutable view of the fabric at one generation, read
// lock-free by every GET handler. It is a persistent value: the one after a
// command shares with the one before it everything the command did not touch.
// The rows are the zones' own snapshots (shard.Snap: a published row is never
// written, and a command re-reads only the rows it names); the forwarding
// tables are the SM's published ones captured by pointer, never copied (every
// writer is clone, edit, commit — one pointer swap per switch); the LID maps
// are the SM's own immutable values. Rows keep the cloud's types: the wire
// forms (VMInfo, HypInfo) are rendered when a row is served.
type Snapshot struct {
	Gen    uint64
	Fabric string
	Model  string
	SMNode topology.NodeID

	topo *topology.Topology // static after build; safe to share
	// mgr is the subnet manager the fabric state was read from: a handover
	// swaps it under the server between two commands.
	mgr *sm.SubnetManager
	// parts are the rows, one zone each, in shard order: the zones' snapshots
	// as their actors published them (their identity is compose's cache key).
	parts []*shard.Snap
	lidOf []ib.LID         // base LID by node ID (0: none); the SM's slice
	addrs *sm.AddressTable // LID -> node, base and VF LIDs alike
	lfts  []*ib.LFT        // published table by node ID (nil for a CA)
}

// next is the one Snapshot constructor: the snapshot at gen over the given
// parts, derived from prev (nil: from nothing). Fabric-level state is read
// from the SM in O(1) — its address table and base-LID slice are immutable
// values — except the tables, one pointer per switch. Only compose calls it.
func (s *Server) next(prev *Snapshot, gen uint64, parts []*shard.Snap) *Snapshot {
	mgr, topo := s.c.SM, s.c.SM.Topo
	sn := &Snapshot{
		Gen:    gen,
		Fabric: s.fabric,
		Model:  s.c.Model.String(),
		SMNode: mgr.SMNode,
		topo:   topo,
		mgr:    mgr,
		parts:  parts,
		lidOf:  mgr.BaseLIDs(),
		addrs:  mgr.Addresses(),
	}
	if prev != nil {
		sn.lfts = prev.lfts
	}
	sn.lfts = s.tables(sn.lfts)
	s.reg.Gauge("api.snapshot.generation").Set(int64(gen))
	return sn
}

// tables captures every switch's published table, by node ID: prev itself
// when no table moved since it was captured, else a patched copy.
func (s *Server) tables(prev []*ib.LFT) []*ib.LFT {
	out, own := prev, false // own: out is a copy, ours to write
	if n := s.c.SM.Topo.NumNodes(); len(prev) != n {
		out, own = make([]*ib.LFT, n), true
	}
	for _, sw := range s.switches {
		lft := s.c.SM.ProgrammedLFT(sw)
		if out[sw] == lft {
			continue
		}
		if !own {
			out, own = slices.Clone(prev), true
		}
		out[sw] = lft
	}
	return out
}

// vmInfo renders one VM for the wire: listings and create replies.
func vmInfo(topo *topology.Topology, vm *cloud.VM) VMInfo {
	desc := ""
	if n := topo.Node(vm.Hyp); n != nil {
		desc = n.Desc
	}
	return VMInfo{
		Name:    vm.Name,
		Node:    vm.Hyp,
		HypDesc: desc,
		VF:      vm.VF,
		LID:     uint16(vm.Addr.LID),
		GUID:    vm.Addr.GUID.String(),
		GID:     vm.Addr.GID.String(),
	}
}

// vm finds a VM's row by name: a binary search in each part.
func (sn *Snapshot) vm(name string) *cloud.VM {
	for _, p := range sn.parts {
		if vm := p.VM(name); vm != nil {
			return vm
		}
	}
	return nil
}

// NumVMs returns the number of VMs in the snapshot.
func (sn *Snapshot) NumVMs() int {
	n := 0
	for _, p := range sn.parts {
		n += p.NumVMs()
	}
	return n
}

// VMs renders every VM, sorted by name.
func (sn *Snapshot) VMs() []VMInfo {
	out := make([]VMInfo, 0, sn.NumVMs())
	for _, p := range sn.parts {
		p.EachVM(func(vm *cloud.VM) { out = append(out, vmInfo(sn.topo, vm)) })
	}
	if len(sn.parts) > 1 { // a part is sorted; several are not, end to end
		slices.SortFunc(out, func(a, b VMInfo) int { return cmp.Compare(a.Name, b.Name) })
	}
	return out
}

// Hyps renders every hypervisor, sorted by node.
func (sn *Snapshot) Hyps() []HypInfo {
	n := 0
	for _, p := range sn.parts {
		n += p.NumHyps()
	}
	out := make([]HypInfo, 0, n)
	for _, p := range sn.parts {
		p.EachHyp(func(h *shard.HypState) {
			out = append(out, HypInfo{
				Node:     h.Node,
				Desc:     sn.topo.Node(h.Node).Desc,
				LID:      uint16(sn.lidOf[h.Node]),
				VFs:      h.VFs,
				Attached: h.Attached,
				Zone:     p.Shard,
			})
		})
	}
	if len(sn.parts) > 1 {
		slices.SortFunc(out, func(a, b HypInfo) int { return cmp.Compare(a.Node, b.Node) })
	}
	return out
}

// PathHop is one switch traversal of a walked path.
type PathHop struct {
	Switch topology.NodeID `json:"switch"`
	Desc   string          `json:"desc"`
	Egress ib.PortNum      `json:"egress_port"`
}

// PathResponse answers GET /v1/paths/{src}/{dst}: the switch-by-switch
// route the programmed LFTs give traffic from src to dst's LID.
type PathResponse struct {
	Src        string          `json:"src"`
	Dst        string          `json:"dst"`
	SrcNode    topology.NodeID `json:"src_node"`
	DstNode    topology.NodeID `json:"dst_node"`
	DstLID     uint16          `json:"dst_lid"`
	Generation uint64          `json:"generation"`
	Hops       []PathHop       `json:"hops"`
}

// resolve maps a path endpoint token — a VM name or a numeric node ID — to
// the node traffic enters/leaves the fabric at and the LID addressing it.
func (sn *Snapshot) resolve(token string) (topology.NodeID, ib.LID, error) {
	if vm := sn.vm(token); vm != nil {
		return vm.Hyp, vm.Addr.LID, nil
	}
	id, err := strconv.Atoi(token)
	if err != nil {
		return topology.NoNode, 0, fmt.Errorf("no VM or node %q", token)
	}
	node := topology.NodeID(id)
	if sn.topo.Node(node) == nil {
		return topology.NoNode, 0, fmt.Errorf("no node %d", node)
	}
	lid := sn.lidOf[node]
	if lid == ib.LIDUnassigned {
		return topology.NoNode, 0, fmt.Errorf("node %d has no LID", node)
	}
	return node, lid, nil
}

// LFT implements cdg.Routes: switch sw's published table.
func (sn *Snapshot) LFT(sw topology.NodeID) *ib.LFT { return sn.lfts[sw] }

// NodeOf implements cdg.Routes: the node that owns a LID.
func (sn *Snapshot) NodeOf(l ib.LID) topology.NodeID { return sn.addrs.NodeOf(l) }

// Path walks dst's LID from src through the snapshot's *programmed*
// (distributed) tables by cdg.Trace, the rule the auditor proves, served
// concurrently with mutations. Hops are the switches the packet leaves. A
// walk that ends anywhere but at the LID's owner returns the cdg.End that
// stopped it, with the hops up to there.
func (sn *Snapshot) Path(src, dst string) (PathResponse, error) {
	var resp PathResponse
	srcNode, _, err := sn.resolve(src)
	if err != nil {
		return resp, err
	}
	dstNode, dstLID, err := sn.resolve(dst)
	if err != nil {
		return resp, err
	}
	resp = PathResponse{
		Src: src, Dst: dst,
		SrcNode: srcNode, DstNode: dstNode,
		DstLID: uint16(dstLID), Generation: sn.Gen,
		Hops: []PathHop{},
	}
	end := cdg.Trace(sn.topo, sn, srcNode, dstLID, func(at topology.NodeID, out ib.PortNum) bool {
		if n := sn.topo.Node(at); n.IsSwitch() {
			resp.Hops = append(resp.Hops, PathHop{Switch: at, Desc: n.Desc, Egress: out})
		}
		return true
	})
	if end.Fate != cdg.Delivered {
		return resp, end
	}
	return resp, nil
}
