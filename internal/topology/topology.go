// Package topology models the physical InfiniBand fabric: switches, channel
// adapters (HCAs), ports and the links between them. It provides builders
// for the regular fat-trees used in the paper's evaluation (via BuildXGFT),
// as well as meshes, tori, rings and random irregular networks used to
// exercise the topology-agnostic claims of the reconfiguration method.
//
// The graph is immutable-after-build in spirit: the subnet manager treats it
// as the ground truth it discovers by sweeping, and link failures are
// modelled by marking ports down rather than mutating the structure.
package topology

import (
	"fmt"
	"sync/atomic"

	"ibvsim/internal/ib"
)

// NodeID indexes a node within a Topology. IDs are dense, starting at 0.
type NodeID int32

// NoNode is the invalid node ID.
const NoNode NodeID = -1

// Port is one end of a link. A port with Peer == NoNode is down/unconnected.
type Port struct {
	Num      ib.PortNum // 1-based port number on the owning node
	Peer     NodeID     // remote node, or NoNode
	PeerPort ib.PortNum // port number on the remote node
	Up       bool       // administratively and physically up
}

// Node is a switch or channel adapter in the fabric.
type Node struct {
	ID    NodeID
	Type  ib.NodeType
	GUID  ib.GUID
	Desc  string // human-readable node description, as in ibnetdiscover
	Level int    // fat-tree level (0 = leaf switch); -1 when not applicable

	// Ports is indexed by port number; index 0 is unused for CAs and is the
	// switch management port for switches (never linked).
	Ports []Port
}

// NumPorts returns the number of physical ports on the node.
func (n *Node) NumPorts() int { return len(n.Ports) - 1 }

// IsSwitch reports whether the node is a switch.
func (n *Node) IsSwitch() bool { return n.Type == ib.NodeSwitch }

// ConnectedPorts returns the port numbers that have an up link.
func (n *Node) ConnectedPorts() []ib.PortNum {
	var out []ib.PortNum
	for i := 1; i < len(n.Ports); i++ {
		if n.Ports[i].Up && n.Ports[i].Peer != NoNode {
			out = append(out, ib.PortNum(i))
		}
	}
	return out
}

// FreePort returns the lowest-numbered unconnected port, or 0 if none.
func (n *Node) FreePort() ib.PortNum {
	for i := 1; i < len(n.Ports); i++ {
		if n.Ports[i].Peer == NoNode {
			return ib.PortNum(i)
		}
	}
	return 0
}

// Topology is the whole fabric graph.
type Topology struct {
	Name     string
	nodes    []*Node
	switches []NodeID // the switches' IDs, ascending

	nextGUID uint64
	// links counts SetLinkState calls: what a cached computation that
	// walked the links compares to know it is still current.
	links atomic.Uint64
}

// New returns an empty topology with the given name.
func New(name string) *Topology {
	return &Topology{Name: name, nextGUID: 0x0002_0000_0000_0000}
}

// NumNodes returns the total number of nodes (switches + CAs).
func (t *Topology) NumNodes() int { return len(t.nodes) }

// Node returns the node with the given ID, or nil if out of range.
func (t *Topology) Node(id NodeID) *Node {
	if id < 0 || int(id) >= len(t.nodes) {
		return nil
	}
	return t.nodes[id]
}

// Nodes returns the underlying node slice; callers must not mutate it.
func (t *Topology) Nodes() []*Node { return t.nodes }

// Switches returns the IDs of all switch nodes in ascending order. The
// slice is the topology's own: callers must not mutate it.
func (t *Topology) Switches() []NodeID { return t.switches[:len(t.switches):len(t.switches)] }

// CAs returns the IDs of all channel adapters in ascending order.
func (t *Topology) CAs() []NodeID {
	var out []NodeID
	for _, n := range t.nodes {
		if n.Type == ib.NodeCA {
			out = append(out, n.ID)
		}
	}
	return out
}

// NumSwitches returns the number of switch nodes.
func (t *Topology) NumSwitches() int { return len(t.switches) }

// NumCAs counts channel adapters.
func (t *Topology) NumCAs() int { return len(t.nodes) - t.NumSwitches() }

// AddSwitch appends a switch with the given radix (number of physical
// ports) and description, returning its ID.
func (t *Topology) AddSwitch(radix int, desc string) NodeID {
	return t.addNode(ib.NodeSwitch, radix, desc)
}

// AddCA appends a single-port channel adapter, returning its ID.
func (t *Topology) AddCA(desc string) NodeID {
	return t.addNode(ib.NodeCA, 1, desc)
}

// AddCAWithPorts appends a channel adapter with multiple ports (dual-port
// HCAs exist; the experiments only use single-port ones).
func (t *Topology) AddCAWithPorts(numPorts int, desc string) NodeID {
	return t.addNode(ib.NodeCA, numPorts, desc)
}

func (t *Topology) addNode(typ ib.NodeType, numPorts int, desc string) NodeID {
	if numPorts < 1 {
		panic(fmt.Sprintf("topology: node %q needs at least one port", desc))
	}
	id := NodeID(len(t.nodes))
	t.nextGUID++
	n := &Node{
		ID:    id,
		Type:  typ,
		GUID:  ib.GUID(t.nextGUID),
		Desc:  desc,
		Level: -1,
		Ports: make([]Port, numPorts+1),
	}
	for i := range n.Ports {
		n.Ports[i] = Port{Num: ib.PortNum(i), Peer: NoNode}
	}
	t.nodes = append(t.nodes, n)
	if n.IsSwitch() {
		t.switches = append(t.switches, id)
	}
	return id
}

// Connect links port ap of node a to port bp of node b. Both ports must be
// free. The link is full duplex and comes up immediately.
func (t *Topology) Connect(a NodeID, ap ib.PortNum, b NodeID, bp ib.PortNum) error {
	na, nb := t.Node(a), t.Node(b)
	if na == nil || nb == nil {
		return fmt.Errorf("topology: connect %d/%d: unknown node", a, b)
	}
	if a == b {
		return fmt.Errorf("topology: %q cannot link to itself", na.Desc)
	}
	if int(ap) < 1 || int(ap) >= len(na.Ports) {
		return fmt.Errorf("topology: node %q has no port %d", na.Desc, ap)
	}
	if int(bp) < 1 || int(bp) >= len(nb.Ports) {
		return fmt.Errorf("topology: node %q has no port %d", nb.Desc, bp)
	}
	if na.Ports[ap].Peer != NoNode {
		return fmt.Errorf("topology: %q port %d already connected", na.Desc, ap)
	}
	if nb.Ports[bp].Peer != NoNode {
		return fmt.Errorf("topology: %q port %d already connected", nb.Desc, bp)
	}
	na.Ports[ap] = Port{Num: ap, Peer: b, PeerPort: bp, Up: true}
	nb.Ports[bp] = Port{Num: bp, Peer: a, PeerPort: ap, Up: true}
	return nil
}

// Link connects the lowest free ports of a and b, returning the chosen port
// numbers.
func (t *Topology) Link(a, b NodeID) (ib.PortNum, ib.PortNum, error) {
	na, nb := t.Node(a), t.Node(b)
	if na == nil || nb == nil {
		return 0, 0, fmt.Errorf("topology: link %d-%d: unknown node", a, b)
	}
	ap, bp := na.FreePort(), nb.FreePort()
	if ap == 0 {
		return 0, 0, fmt.Errorf("topology: %q has no free port", na.Desc)
	}
	if bp == 0 {
		return 0, 0, fmt.Errorf("topology: %q has no free port", nb.Desc)
	}
	return ap, bp, t.Connect(a, ap, b, bp)
}

// SetLinkState marks both ends of the link at node a, port ap up or down.
func (t *Topology) SetLinkState(a NodeID, ap ib.PortNum, up bool) error {
	na := t.Node(a)
	if na == nil || int(ap) >= len(na.Ports) {
		return fmt.Errorf("topology: no such port %d/%d", a, ap)
	}
	p := &na.Ports[ap]
	if p.Peer == NoNode {
		return fmt.Errorf("topology: port %q/%d not connected", na.Desc, ap)
	}
	p.Up = up
	t.Node(p.Peer).Ports[p.PeerPort].Up = up
	t.links.Add(1)
	return nil
}

// LinkChanges counts the link-state changes made so far (SetLinkState
// calls). Two equal readings bracket a span in which no link went up or down.
func (t *Topology) LinkChanges() uint64 { return t.links.Load() }

// Validate checks structural invariants: symmetric links, port-number
// consistency, no self-links, and that every CA is attached to a switch.
func (t *Topology) Validate() error {
	for _, n := range t.nodes {
		for i := 1; i < len(n.Ports); i++ {
			p := n.Ports[i]
			if int(p.Num) != i {
				return fmt.Errorf("%q: port %d numbered %d", n.Desc, i, p.Num)
			}
			if p.Peer == NoNode {
				continue
			}
			if p.Peer == n.ID {
				return fmt.Errorf("%q: port %d links to itself", n.Desc, i)
			}
			peer := t.Node(p.Peer)
			if peer == nil {
				return fmt.Errorf("%q: port %d links to missing node %d", n.Desc, i, p.Peer)
			}
			if int(p.PeerPort) >= len(peer.Ports) {
				return fmt.Errorf("%q: port %d links to missing port %q/%d", n.Desc, i, peer.Desc, p.PeerPort)
			}
			back := peer.Ports[p.PeerPort]
			if back.Peer != n.ID || back.PeerPort != p.Num {
				return fmt.Errorf("asymmetric link %q/%d <-> %q/%d", n.Desc, i, peer.Desc, p.PeerPort)
			}
			if n.Type == ib.NodeCA && peer.Type == ib.NodeCA {
				return fmt.Errorf("back-to-back CAs %q and %q (no switch)", n.Desc, peer.Desc)
			}
		}
	}
	return nil
}

// Connected reports whether every node can reach every other node over up
// links.
func (t *Topology) Connected() bool {
	if len(t.nodes) == 0 {
		return true
	}
	seen := make([]bool, len(t.nodes))
	queue := []NodeID{0}
	seen[0] = true
	count := 1
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		n := t.nodes[id]
		for i := 1; i < len(n.Ports); i++ {
			p := n.Ports[i]
			if p.Peer == NoNode || !p.Up || seen[p.Peer] {
				continue
			}
			seen[p.Peer] = true
			count++
			queue = append(queue, p.Peer)
		}
	}
	return count == len(t.nodes)
}

// LeafSwitchOf returns the switch a CA is attached to (via its first up
// port) or NoNode.
func (t *Topology) LeafSwitchOf(ca NodeID) NodeID {
	n := t.Node(ca)
	if n == nil || n.IsSwitch() {
		return NoNode
	}
	for i := 1; i < len(n.Ports); i++ {
		p := n.Ports[i]
		if p.Peer != NoNode && p.Up && t.Node(p.Peer).IsSwitch() {
			return p.Peer
		}
	}
	return NoNode
}

// SwitchHopDistances returns, for the given source switch, the hop distance
// to every node (switch graph BFS; CAs get their leaf's distance + 1).
// Unreachable nodes get -1.
func (t *Topology) SwitchHopDistances(src NodeID) []int {
	dist := make([]int, len(t.nodes))
	for i := range dist {
		dist[i] = -1
	}
	if t.Node(src) == nil {
		return dist
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		n := t.nodes[id]
		for i := 1; i < len(n.Ports); i++ {
			p := n.Ports[i]
			if p.Peer == NoNode || !p.Up || dist[p.Peer] >= 0 {
				continue
			}
			dist[p.Peer] = dist[id] + 1
			if t.nodes[p.Peer].IsSwitch() {
				queue = append(queue, p.Peer)
			}
		}
	}
	return dist
}

// String summarises the topology.
func (t *Topology) String() string {
	return fmt.Sprintf("%s: %d switches, %d CAs", t.Name, t.NumSwitches(), t.NumCAs())
}
