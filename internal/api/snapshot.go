package api

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"

	"ibvsim/internal/cloud"
	"ibvsim/internal/ib"
	"ibvsim/internal/shard"
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

// HypInfo is one hypervisor in a snapshot. Zone is the owning shard's zone
// in sharded mode (always 0 — and omitted — in single-actor mode).
type HypInfo struct {
	Node     topology.NodeID `json:"node"`
	Desc     string          `json:"desc"`
	LID      uint16          `json:"lid"`
	VFs      int             `json:"vfs"`
	Attached int             `json:"attached"`
	Zone     int             `json:"zone,omitempty"`
}

// Snapshot is an immutable view of the fabric at one generation, read
// lock-free by every GET handler. The forwarding tables are the SM's
// published ones captured by pointer, never copied: a published table is
// immutable (every writer is clone, edit, commit — one pointer swap per
// switch), so two generations share every table no mutation in between
// touched.
type Snapshot struct {
	Gen    uint64
	Fabric string
	Model  string
	SMNode topology.NodeID
	VMs    []VMInfo  // sorted by name
	Hyps   []HypInfo // sorted by node

	topo      *topology.Topology // static after build; safe to share
	lidOf     map[topology.NodeID]ib.LID
	nodeOfLID map[ib.LID]topology.NodeID
	lfts      map[topology.NodeID]*ib.LFT // published tables, shared with the SM
	// from is compose's cache key in sharded mode: the shard snapshots this
	// one was built from (nil in single-actor mode).
	from []*shard.Snap
}

// vmInfo renders one VM for the wire: snapshot rows and create replies.
func (s *Server) vmInfo(vm *cloud.VM) VMInfo {
	desc := ""
	if n := s.c.SM.Topo.Node(vm.Hyp); n != nil {
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

// buildSnapshot is the one Snapshot constructor. Fabric-level state (LID
// maps, published tables) is read from the SM; the hypervisor and VM rows
// are fed by the caller — from the cloud by the single-actor loop, from the
// shards' own snapshots by compose — so the caller must own, or hold
// immutable copies of, whatever rows reads.
func (s *Server) buildSnapshot(gen uint64, from []*shard.Snap,
	rows func(hyp func(h shard.HypState, zone int), vm func(*cloud.VM))) *Snapshot {
	mgr, topo := s.c.SM, s.c.SM.Topo
	sn := &Snapshot{
		Gen:    gen,
		from:   from,
		Fabric: topo.String(),
		Model:  s.c.Model.String(),
		SMNode: mgr.SMNode,
		topo:   topo,
		lidOf:  map[topology.NodeID]ib.LID{},
		// One pass over the SM's address maps. The per-node alternative
		// (ExtraLIDsOf for every CA) rescans the whole extra-LID map per
		// node — O(CAs x LIDs) per snapshot, which at 10^4 nodes turned
		// every mutation into seconds of map iteration.
		nodeOfLID: mgr.AddressView(),
		lfts:      make(map[topology.NodeID]*ib.LFT, len(topo.Switches())),
	}
	for _, id := range topo.Switches() {
		if lid := mgr.LIDOf(id); lid != ib.LIDUnassigned {
			sn.lidOf[id] = lid
		}
		if lft := mgr.ProgrammedLFT(id); lft != nil {
			sn.lfts[id] = lft
		}
	}
	for _, id := range topo.CAs() {
		if lid := mgr.LIDOf(id); lid != ib.LIDUnassigned {
			sn.lidOf[id] = lid
		}
	}
	rows(func(h shard.HypState, zone int) {
		sn.Hyps = append(sn.Hyps, HypInfo{
			Node:     h.Node,
			Desc:     topo.Node(h.Node).Desc,
			LID:      uint16(mgr.LIDOf(h.Node)),
			VFs:      h.VFs,
			Attached: h.Attached,
			Zone:     zone,
		})
	}, func(vm *cloud.VM) { sn.VMs = append(sn.VMs, s.vmInfo(vm)) })
	slices.SortFunc(sn.Hyps, func(a, b HypInfo) int { return cmp.Compare(a.Node, b.Node) })
	slices.SortFunc(sn.VMs, func(a, b VMInfo) int { return cmp.Compare(a.Name, b.Name) })
	s.reg.Gauge("api.snapshot.generation").Set(int64(gen))
	return sn
}

// cloudRows feeds buildSnapshot straight from the cloud. Only the goroutine
// that owns the cloud — the command loop — may call it.
func (s *Server) cloudRows(hyp func(shard.HypState, int), vm func(*cloud.VM)) {
	for _, hn := range s.c.Hypervisors() {
		hca := s.c.Hypervisor(hn).HCA
		hyp(shard.HypState{Node: hn, VFs: hca.NumVFs(), Attached: hca.AttachedCount()}, 0)
	}
	for _, name := range s.c.VMs() {
		vm(s.c.VM(name))
	}
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
	for i := range sn.VMs {
		if sn.VMs[i].Name == token {
			return sn.VMs[i].Node, ib.LID(sn.VMs[i].LID), nil
		}
	}
	id, err := strconv.Atoi(token)
	if err != nil {
		return topology.NoNode, 0, fmt.Errorf("no VM or node %q", token)
	}
	node := topology.NodeID(id)
	if sn.topo.Node(node) == nil {
		return topology.NoNode, 0, fmt.Errorf("no node %d", node)
	}
	lid, ok := sn.lidOf[node]
	if !ok {
		return topology.NoNode, 0, fmt.Errorf("node %d has no LID", node)
	}
	return node, lid, nil
}

// maxPathHops bounds the LFT walk; any sane fabric routes in far fewer,
// so hitting it means the programmed tables loop.
const maxPathHops = 64

// Path walks dst's LID through the snapshot's tables starting at src's
// leaf switch — the same walk routing.Verify does, but against the
// *programmed* (distributed) tables and served concurrently with mutations.
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
	if srcNode == dstNode {
		return resp, nil
	}
	cur := srcNode
	if !sn.topo.Node(cur).IsSwitch() {
		cur = sn.topo.LeafSwitchOf(cur)
		if cur == topology.NoNode {
			return resp, fmt.Errorf("node %d has no connected leaf switch", srcNode)
		}
	}
	for range [maxPathHops]struct{}{} {
		lft := sn.lfts[cur]
		if lft == nil {
			return resp, fmt.Errorf("switch %d has no programmed LFT", cur)
		}
		out := lft.Get(dstLID)
		if out == ib.DropPort {
			return resp, fmt.Errorf("LID %d drops at switch %d", dstLID, cur)
		}
		node := sn.topo.Node(cur)
		if int(out) >= len(node.Ports) {
			return resp, fmt.Errorf("switch %d routes LID %d to missing port %d", cur, dstLID, out)
		}
		port := node.Ports[out]
		if port.Peer == topology.NoNode || !port.Up {
			return resp, fmt.Errorf("switch %d routes LID %d out a down port %d", cur, dstLID, out)
		}
		resp.Hops = append(resp.Hops, PathHop{Switch: cur, Desc: node.Desc, Egress: out})
		if port.Peer == dstNode {
			return resp, nil
		}
		peer := sn.topo.Node(port.Peer)
		if !peer.IsSwitch() {
			return resp, fmt.Errorf("LID %d delivered to wrong CA %d (want %d)", dstLID, port.Peer, dstNode)
		}
		cur = port.Peer
	}
	return resp, fmt.Errorf("no path after %d hops: LFTs loop", maxPathHops)
}
