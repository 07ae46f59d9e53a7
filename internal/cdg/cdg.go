// Package cdg implements channel dependency graphs (CDGs) for deadlock
// analysis of routed InfiniBand fabrics.
//
// A channel is a directed link (node, egress port). A routing function
// induces a dependency from channel A to channel B whenever some packet may
// hold A while requesting B. By Dally & Seitz / Duato's condition, a
// deterministic routing function is deadlock free on a lossless network iff
// its CDG is acyclic.
//
// There is one key: an Index numbers the fabric's switch egress channels
// densely, and because every dependency a -> b is physical — b is an egress
// of the switch a leads to — (a, b's port) names it exactly (Index.slot).
// The Index also lists the channels into each switch, the only possible
// predecessors of its egress channels. Two graphs are built on that key:
//   - Graph: a set of dependencies, a membership bit per slot plus successor
//     chains in first-added order, searched by a full white/grey/black
//     cycle search — the section VI-C transition check from nothing
//     (Rold ∪ Rnew may deadlock even when both are safe), the cycle an
//     auditor reports, and DFSSSP's per-virtual-lane cycle ejection;
//   - Ordered: a multiplicity per slot in one dense array, under
//     Pearce-Kelly checked insertion, which refuses the one edge that would
//     close a cycle — LASH's per-path layer trials and their rollback, and
//     under Maintained the auditor's installed-routing CDG, kept between
//     passes and moved by the (switch, destination) pairs that changed.
//
// Walk is the single enumeration of the dependencies a set of forwarding
// tables induces; everything that builds a graph from routes goes through it,
// and its pair walk the element for one (switch, destination). Step is the
// single forwarding rule: every walker that follows a packet to its fate
// (Trace) takes its next hop from it.
package cdg

import (
	"fmt"

	"ibvsim/internal/ib"
	"ibvsim/internal/topology"
)

// Channel identifies a directed link by its transmitting node and port.
type Channel struct {
	Node topology.NodeID
	Port ib.PortNum
}

// String implements fmt.Stringer.
func (c Channel) String() string { return fmt.Sprintf("ch(%d:%d)", c.Node, c.Port) }

// Dep is one dependency between two channels named by their Index ids: a
// packet may hold A while requesting B.
type Dep struct{ A, B int32 }

// Index numbers the egress channels of a fabric's switches: the id of
// (switch, port) is the switch's dense index times a fixed port stride plus
// the port. Only switches own ids — CA injection channels have no incoming
// dependency, so they can never lie on a cycle and no graph stores them.
// Switches are indexed in ascending NodeID order (topology.Switches), so
// ids ascend with (NodeID, port).
type Index struct {
	nodes  []*topology.Node // dense switch index -> switch
	dense  []int32          // NodeID -> dense switch index, -1 for a CA
	stride int32            // len(Ports) of the widest switch
	// next[id] is the id of port 0 of the switch channel id leads to, so
	// that switch's egress channels are next[id] .. next[id]+stride-1: the
	// only channels a packet holding id can request. -1 when the channel
	// is unconnected or delivers to a CA. Link state is ignored — the
	// numbering must survive flaps.
	next []int32
	// into[intoAt[s]:intoAt[s+1]] are the channels leading into dense
	// switch s, one per port of s with a switch peer: the only channels a
	// packet requesting one of s's egress channels can hold.
	intoAt, into []int32
}

// NewIndex indexes the switch channels of t.
func NewIndex(t *topology.Topology) *Index {
	ix := &Index{dense: make([]int32, t.NumNodes())}
	for _, n := range t.Nodes() {
		if !n.IsSwitch() {
			ix.dense[n.ID] = -1
			continue
		}
		ix.dense[n.ID] = int32(len(ix.nodes))
		ix.nodes = append(ix.nodes, n)
		ix.stride = max(ix.stride, int32(len(n.Ports)))
	}
	ix.next = make([]int32, ix.NumIDs())
	for i := range ix.next {
		ix.next[i] = -1
	}
	ix.intoAt = make([]int32, 1, len(ix.nodes)+1)
	for i, n := range ix.nodes {
		for _, p := range n.Ports {
			if p.Peer != topology.NoNode && ix.dense[p.Peer] >= 0 {
				ix.next[int32(i)*ix.stride+int32(p.Num)] = ix.dense[p.Peer] * ix.stride
				ix.into = append(ix.into, ix.dense[p.Peer]*ix.stride+int32(p.PeerPort))
			}
		}
		ix.intoAt = append(ix.intoAt, int32(len(ix.into)))
	}
	return ix
}

// channelsInto returns the channels leading into dense switch s.
func (ix *Index) channelsInto(s int32) []int32 { return ix.into[ix.intoAt[s]:ix.intoAt[s+1]] }

// slot is the key of dependency a -> b: a*stride + b's port. It panics on a
// dependency no packet can have — b is not an egress of the switch a leads
// to — so every graph over the Index holds physical dependencies only.
func (ix *Index) slot(a, b int32) int {
	port := b - ix.next[a]
	if ix.next[a] < 0 || uint32(port) >= uint32(ix.stride) {
		panic(fmt.Sprintf("cdg: dependency %v -> %v: the second channel is not an egress of the switch the first leads to",
			ix.Channel(a), ix.Channel(b)))
	}
	return int(a)*int(ix.stride) + int(port)
}

// NumIDs returns the size of the id space (switches times port stride).
func (ix *Index) NumIDs() int { return len(ix.nodes) * int(ix.stride) }

// ID returns the id of a switch egress channel. It panics on a channel the
// index does not cover (a CA, an unknown node, a port beyond the stride):
// graphs over an Index hold switch channels of that fabric only.
func (ix *Index) ID(c Channel) int32 {
	if c.Node < 0 || int(c.Node) >= len(ix.dense) || ix.dense[c.Node] < 0 || int32(c.Port) >= ix.stride {
		panic(fmt.Sprintf("cdg: %v is not a switch egress channel of the indexed fabric", c))
	}
	return ix.dense[c.Node]*ix.stride + int32(c.Port)
}

// Channel is the inverse of ID.
func (ix *Index) Channel(id int32) Channel {
	return Channel{Node: ix.nodes[id/ix.stride].ID, Port: ib.PortNum(id % ix.stride)}
}

// arc is one stored dependency: an element of its source channel's
// successor chain.
type arc struct {
	to   int32 // successor channel id
	next int32 // next arc of the same source, -1 at the end of the chain
}

// adjacency is Graph's edge store: one successor chain per channel id,
// threaded through a flat arc arena in first-insertion order — FindCycle's
// visiting order.
type adjacency struct {
	head  []int32 // first arc per channel id, -1 for none
	tail  []int32 // last arc per channel id; meaningful while head >= 0
	arcs  []arc
	free  int32 // chain of removed arcs, reused before the arena grows
	edges int   // distinct dependencies present
}

func newAdjacency(n int) adjacency {
	s := adjacency{head: make([]int32, n), tail: make([]int32, n)}
	s.reset()
	return s
}

// reset empties the store, keeping its memory.
func (s *adjacency) reset() {
	for i := range s.head {
		s.head[i] = -1
	}
	s.arcs, s.free, s.edges = s.arcs[:0], -1, 0
}

// push appends a -> b to a's chain without looking for it: the caller knows
// the dependency is absent.
func (s *adjacency) push(a, b int32) {
	i := s.free
	if i >= 0 {
		s.free = s.arcs[i].next
		s.arcs[i] = arc{to: b, next: -1}
	} else {
		i = int32(len(s.arcs))
		s.arcs = append(s.arcs, arc{to: b, next: -1})
	}
	if s.head[a] < 0 {
		s.head[a] = i
	} else {
		s.arcs[s.tail[a]].next = i
	}
	s.tail[a] = i
	s.edges++
}

// remove unlinks a -> b, which the caller knows is present.
func (s *adjacency) remove(a, b int32) {
	last, i := int32(-1), s.head[a]
	for s.arcs[i].to != b {
		last, i = i, s.arcs[i].next
	}
	if last < 0 {
		s.head[a] = s.arcs[i].next
	} else {
		s.arcs[last].next = s.arcs[i].next
	}
	if s.tail[a] == i {
		s.tail[a] = last
	}
	s.arcs[i].next, s.free = s.free, i
	s.edges--
}

// Graph is a channel dependency graph over an Index — a set: adding a
// dependency twice is adding it once — checked for cycles by a full
// depth-first search. It holds physical dependencies only (Index.slot), so
// membership is one bit and insertion never searches. Construct with
// NewGraph. A Graph is not safe for concurrent use.
type Graph struct {
	ix  *Index
	out adjacency
	has []uint64 // bit Index.slot(a, b) set iff a -> b is present

	// FindCycle's scratch, kept so that DFSSSP's reset-rebuild-search
	// rounds allocate nothing once warm.
	color  []uint8
	parent []int32
	stack  []dfsFrame
}

type dfsFrame struct{ node, arc int32 }

// NewGraph returns an empty CDG over the channels of ix.
func NewGraph(ix *Index) *Graph {
	return &Graph{ix: ix, out: newAdjacency(ix.NumIDs()),
		has: make([]uint64, (ix.NumIDs()*int(ix.stride)+63)/64)}
}

// bit locates the membership bit of a -> b.
func (g *Graph) bit(a, b int32) (word *uint64, bit uint64) {
	k := g.ix.slot(a, b)
	return &g.has[k/64], 1 << (k % 64)
}

// add inserts a -> b by id, reporting whether it is new.
func (g *Graph) add(a, b int32) bool {
	word, bit := g.bit(a, b)
	if *word&bit != 0 {
		return false
	}
	*word |= bit
	g.out.push(a, b)
	return true
}

// NumChannels returns the number of distinct channels that take part in at
// least one dependency.
func (g *Graph) NumChannels() int {
	seen := make([]bool, len(g.out.head))
	n := 0
	mark := func(id int32) {
		if !seen[id] {
			seen[id] = true
			n++
		}
	}
	for a, i := range g.out.head {
		for ; i >= 0; i = g.out.arcs[i].next {
			mark(int32(a))
			mark(g.out.arcs[i].to)
		}
	}
	return n
}

// NumEdges returns the number of distinct dependency edges.
func (g *Graph) NumEdges() int { return g.out.edges }

// Reset empties the graph, keeping its memory for the next build.
func (g *Graph) Reset() {
	g.out.reset()
	clear(g.has)
}

// AddDep records a dependency from channel a to channel b, returning true
// if the edge is new.
func (g *Graph) AddDep(a, b Channel) bool { return g.add(g.ix.ID(a), g.ix.ID(b)) }

// AddDeps records dependencies already expressed as ids of the graph's
// Index — what Walk.Deps produces.
func (g *Graph) AddDeps(deps []Dep) {
	for _, d := range deps {
		g.add(d.A, d.B)
	}
}

// RemoveDep removes the edge a->b if present.
func (g *Graph) RemoveDep(a, b Channel) {
	ai, bi := g.ix.ID(a), g.ix.ID(b)
	if word, bit := g.bit(ai, bi); *word&bit != 0 {
		*word &^= bit
		g.out.remove(ai, bi)
	}
}

// HasCycle reports whether the CDG contains a directed cycle.
func (g *Graph) HasCycle() bool { return g.FindCycle() != nil }

// FindCycle returns one directed cycle as a channel sequence (first element
// repeated at the end), or nil if the graph is acyclic. Iterative DFS with
// the classic white/grey/black colouring.
//
// The visiting order is part of the contract, because DFSSSP's virtual-lane
// assignment depends on which cycle is reported: roots are tried in
// ascending Index id, and a channel's successors in the order their
// dependencies were first added. The cycle returned is the first back edge
// that search meets, starting at the back edge's target.
func (g *Graph) FindCycle() []Channel {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	if g.color == nil {
		g.color = make([]uint8, len(g.out.head))
		g.parent = make([]int32, len(g.out.head))
	}
	color, parent, arcs := g.color, g.parent, g.out.arcs
	clear(color)
	for start := range g.out.head {
		if color[start] != white {
			continue
		}
		color[start] = grey
		stack := append(g.stack[:0], dfsFrame{node: int32(start), arc: g.out.head[start]})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.arc < 0 {
				color[f.node] = black
				stack = stack[:len(stack)-1]
				continue
			}
			to := arcs[f.arc].to
			f.arc = arcs[f.arc].next
			switch color[to] {
			case white:
				color[to] = grey
				parent[to] = f.node
				stack = append(stack, dfsFrame{node: to, arc: g.out.head[to]})
			case grey:
				// The cycle runs to -> ... -> f.node -> to: collect the
				// parent chain backwards, reverse it, close the loop.
				cyc := []Channel{g.ix.Channel(to)}
				for v := f.node; v != to; v = parent[v] {
					cyc = append(cyc, g.ix.Channel(v))
				}
				for i, j := 1, len(cyc)-1; i < j; i, j = i+1, j-1 {
					cyc[i], cyc[j] = cyc[j], cyc[i]
				}
				g.stack = stack
				return append(cyc, cyc[0])
			}
		}
		g.stack = stack
	}
	return nil
}
