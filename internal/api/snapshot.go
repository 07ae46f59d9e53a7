package api

import (
	"fmt"
	"strconv"

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

// Snapshot is an immutable view of the fabric at one generation, published
// by the command loop after every mutation and read lock-free by every GET
// handler. The LFT clones are copy-on-write: a table whose revision counter
// (ib.LFT.Rev) did not move between generations is shared with the previous
// snapshot rather than re-cloned, so steady-state snapshots after a one-LID
// migration clone only the switches that migration touched.
type Snapshot struct {
	Gen    uint64
	Fabric string
	Model  string
	SMNode topology.NodeID
	VMs    []VMInfo
	Hyps   []HypInfo

	topo      *topology.Topology // static after build; safe to share
	lidOf     map[topology.NodeID]ib.LID
	nodeOfLID map[ib.LID]topology.NodeID
	lfts      map[topology.NodeID]*ib.LFT // immutable clones
	// from is compose's cache key in sharded mode: the shard snapshots this
	// one was built from (nil in single-actor mode).
	from []*shard.Snap
}

// lftIdentity is the copy-on-write cache key for one switch's programmed
// table. The revision alone is not enough: the SM *replaces* the programmed
// LFT object on every fully-successful distribution (with a clone of the
// target, which carries the target's own revision counter) and on SM
// handover adoption — a fresh object can coincidentally repeat the last
// recorded revision while holding different routes. Keying on (object,
// revision) re-clones whenever either moves.
type lftIdentity struct {
	src *ib.LFT
	rev uint64
}

// buildSnapshot runs on the command loop (or in NewServer before the loop
// starts) — it reads the cloud directly, which no published snapshot ever
// does.
func (s *Server) buildSnapshot(prev *Snapshot) *Snapshot {
	s.gen++
	topo := s.c.SM.Topo
	sn := &Snapshot{
		Gen:    s.gen,
		Fabric: topo.String(),
		Model:  s.c.Model.String(),
		SMNode: s.c.SM.SMNode,
		topo:   topo,
		lidOf:  map[topology.NodeID]ib.LID{},
		// One pass over the SM's address maps. The per-node alternative
		// (ExtraLIDsOf for every CA) rescans the whole extra-LID map per
		// node — O(CAs x LIDs) per snapshot, which at 10^4 nodes turned
		// every mutation into seconds of map iteration.
		nodeOfLID: s.c.SM.AddressView(),
		lfts:      map[topology.NodeID]*ib.LFT{},
	}

	for _, id := range topo.Switches() {
		if lid := s.c.SM.LIDOf(id); lid != ib.LIDUnassigned {
			sn.lidOf[id] = lid
		}
	}
	for _, id := range topo.CAs() {
		if lid := s.c.SM.LIDOf(id); lid != ib.LIDUnassigned {
			sn.lidOf[id] = lid
		}
	}

	for _, hn := range s.c.Hypervisors() {
		h := s.c.Hypervisor(hn)
		sn.Hyps = append(sn.Hyps, HypInfo{
			Node:     hn,
			Desc:     topo.Node(hn).Desc,
			LID:      uint16(s.c.SM.LIDOf(hn)),
			VFs:      h.HCA.NumVFs(),
			Attached: len(h.HCA.AttachedVFs()),
		})
	}

	for _, name := range s.c.VMs() {
		vm := s.c.VM(name)
		sn.VMs = append(sn.VMs, VMInfo{
			Name:    vm.Name,
			Node:    vm.Hyp,
			HypDesc: topo.Node(vm.Hyp).Desc,
			VF:      vm.VF,
			LID:     uint16(vm.Addr.LID),
			GUID:    vm.Addr.GUID.String(),
			GID:     vm.Addr.GID.String(),
		})
	}

	clones := 0
	for _, sw := range topo.Switches() {
		cur := s.c.SM.ProgrammedLFT(sw)
		if cur == nil {
			continue
		}
		id := lftIdentity{src: cur, rev: cur.Rev()}
		if prev != nil && prev.lfts[sw] != nil && s.lftRevs[sw] == id {
			sn.lfts[sw] = prev.lfts[sw]
		} else {
			sn.lfts[sw] = cur.Clone()
			s.lftRevs[sw] = id
			clones++
		}
	}
	s.reg.Counter("api.snapshot.lft_clones").Add(int64(clones))
	s.reg.Gauge("api.snapshot.generation").Set(int64(s.gen))
	return sn
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

// Path walks dst's LID through the snapshot's LFT clones starting at src's
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
