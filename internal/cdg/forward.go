package cdg

import (
	"fmt"

	"ibvsim/internal/ib"
	"ibvsim/internal/topology"
)

// MaxHops is the IBA hop limit: a packet that has crossed this many links
// and is still forwarded is in a loop.
const MaxHops = 64

// Fate is where the forwarding rule leaves a packet at one node: moving on,
// or one of the outcomes the auditor reports.
type Fate uint8

const (
	Forwarded Fate = iota // no fate yet: the packet moves on
	Delivered             // the node owns the LID
	NoTable               // a switch without a forwarding table
	Dropped               // the table names DropPort
	NoPort                // the table names a port the switch does not have
	DownPort              // down or unconnected port; port 0 at a switch that does not own the LID
	WrongCA               // a CA received a packet for a LID it does not own
	Loop                  // still forwarded after MaxHops links
)

// Step is the forwarding rule at node n for a packet to a LID that owner
// owns. At a switch, table says whether it holds a forwarding table and out
// is the port the table names. It returns the node the packet moves to,
// with Forwarded, or n and the packet's fate there:
//   - a node that owns the LID takes the packet;
//   - a CA forwards nothing: it drops what arrives for a LID it does not
//     own (its own traffic leaves by Inject);
//   - a switch forwards by its table.
func Step(n *topology.Node, table bool, out ib.PortNum, owner topology.NodeID) (topology.NodeID, Fate) {
	switch {
	case n.ID == owner:
		return n.ID, Delivered
	case !n.IsSwitch():
		return n.ID, WrongCA
	case !table:
		return n.ID, NoTable
	case out == ib.DropPort:
		return n.ID, Dropped
	case int(out) >= len(n.Ports):
		return n.ID, NoPort
	}
	if p := n.Ports[out]; out != 0 && p.Peer != topology.NoNode && p.Up {
		return p.Peer, Forwarded
	}
	return n.ID, DownPort
}

// Inject is the first step of a node's own traffic: a switch forwards it
// by its table (Forward), a CA sends it out its first up port. It returns
// the port and the node it leads to, or the packet's fate: Delivered when n
// owns l, DownPort from a CA without an up port.
func Inject(r Routes, n *topology.Node, l ib.LID, owner topology.NodeID) (ib.PortNum, topology.NodeID, Fate) {
	if n.IsSwitch() || n.ID == owner {
		return Forward(r, n, l, owner)
	}
	for p := 1; p < len(n.Ports); p++ {
		if n.Ports[p].Peer != topology.NoNode && n.Ports[p].Up {
			return ib.PortNum(p), n.Ports[p].Peer, Forwarded
		}
	}
	return 0, n.ID, DownPort
}

// Forward is Step at node n with n's entry for l read from r: the port the
// packet leaves by and the node it moves to, or its fate. Only a switch
// that does not own l reads its table.
func Forward(r Routes, n *topology.Node, l ib.LID, owner topology.NodeID) (ib.PortNum, topology.NodeID, Fate) {
	var lft *ib.LFT
	out := ib.DropPort
	if n.ID != owner && n.IsSwitch() {
		if lft = r.LFT(n.ID); lft != nil {
			out = lft.Get(l)
		}
	}
	next, f := Step(n, lft != nil, out, owner)
	return out, next, f
}

// End is where Trace left a packet.
type End struct {
	LID  ib.LID
	Fate Fate
	// At is the node the fate fell at: the owner, the node that stopped
	// the packet, the wrong CA, or where the walk stopped.
	At topology.NodeID
	// Port is the port At named: the bad port of NoPort and DownPort.
	Port ib.PortNum
	Hops int // links crossed
}

// fateText formats an End's LID, node and port, each verb naming its
// argument (so none is reported missing or extra).
var fateText = [...]string{
	Forwarded: "LID %[1]d stopped at node %[2]d",
	Delivered: "LID %[1]d delivered to node %[2]d",
	NoTable:   "switch %[2]d has no forwarding table for LID %[1]d",
	Dropped:   "switch %[2]d drops LID %[1]d",
	NoPort:    "switch %[2]d routes LID %[1]d out nonexistent port %[3]d",
	DownPort:  "node %[2]d sends LID %[1]d out down/unconnected port %[3]d",
	WrongCA:   "LID %[1]d delivered to wrong CA %[2]d",
	Loop:      "LID %[1]d exceeded the hop limit at node %[2]d (forwarding loop?)",
}

// Error describes where the packet ended.
func (e End) Error() string { return fmt.Sprintf(fateText[e.Fate], e.LID, e.At, e.Port) }

// Trace follows a packet for l from node from through r's tables to its
// fate: the source sends it by Inject, and every node after that applies
// Step. visit, when not nil, sees each node the packet leaves and the port
// it leaves by, and stops the walk there, with fate Forwarded, by
// returning false.
func Trace(t *topology.Topology, r Routes, from topology.NodeID, l ib.LID, visit func(at topology.NodeID, out ib.PortNum) bool) End {
	owner, n := r.NodeOf(l), t.Node(from)
	out, next, f := Inject(r, n, l, owner)
	for hops := 0; ; hops++ {
		switch {
		case f != Forwarded:
		case visit != nil && !visit(n.ID, out):
		case hops == MaxHops:
			f = Loop
		default:
			n = t.Node(next)
			out, next, f = Forward(r, n, l, owner)
			continue
		}
		return End{LID: l, Fate: f, At: n.ID, Port: out, Hops: hops}
	}
}
