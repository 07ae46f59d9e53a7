// Package cdg implements channel dependency graphs (CDGs) for deadlock
// analysis of routed InfiniBand fabrics.
//
// A channel is a directed link (node, egress port). A routing function
// induces a dependency from channel A to channel B whenever some packet may
// hold A while requesting B. By Dally & Seitz / Duato's condition, a
// deterministic routing function is deadlock free on a lossless network iff
// its CDG is acyclic.
//
// There is one representation: an Index numbers the fabric's switch egress
// channels densely, and an adjacency stores dependencies between those
// numbers in flat slices. Two algorithms run over that storage:
//   - Graph: a set of dependencies with constant-time insertion and a full
//     white/grey/black cycle search — the section VI-C transition check
//     from nothing (Rold ∪ Rnew may deadlock even when both are safe), the
//     cycle an auditor reports, and DFSSSP's per-virtual-lane cycle
//     ejection;
//   - Ordered: Pearce-Kelly checked insertion with multiplicities, which
//     refuses the one edge that would close a cycle — LASH's per-path
//     layer trials and their rollback, and under Maintained the auditor's
//     installed-routing CDG, kept between passes and moved by the
//     (switch, destination) pairs that changed.
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
	for i, n := range ix.nodes {
		for _, p := range n.Ports {
			if p.Peer != topology.NoNode && ix.dense[p.Peer] >= 0 {
				ix.next[int32(i)*ix.stride+int32(p.Num)] = ix.dense[p.Peer] * ix.stride
			}
		}
	}
	return ix
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
	mult int32 // adds not yet undone by a remove
}

// adjacency is the edge store under both Graph and Ordered: one successor
// chain per channel id, threaded through a flat arc arena in
// first-insertion order, each arc carrying its multiplicity. Nothing is
// hashed: the successors of channel (s, p) are egress ports of the one
// switch p leads to, so a chain is at most a port count long.
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

// fit reallocates the arena to what it holds plus 1/32 of headroom: after a
// bulk load, append's growth would otherwise leave up to a quarter of it
// allocated for nothing, for as long as the store lives. Only a store with no
// removed arcs may be fitted.
func (s *adjacency) fit() {
	s.arcs = append(make([]arc, 0, len(s.arcs)+len(s.arcs)/32), s.arcs...)
}

// add records a -> b once more, reporting whether the dependency is new.
func (s *adjacency) add(a, b int32) bool {
	for i := s.head[a]; i >= 0; i = s.arcs[i].next {
		if s.arcs[i].to == b {
			s.arcs[i].mult++
			return false
		}
	}
	s.push(a, b)
	return true
}

// push appends a -> b to a's chain without looking for it: for callers that
// know the dependency is absent.
func (s *adjacency) push(a, b int32) {
	i := s.free
	if i >= 0 {
		s.free = s.arcs[i].next
		s.arcs[i] = arc{to: b, next: -1, mult: 1}
	} else {
		i = int32(len(s.arcs))
		s.arcs = append(s.arcs, arc{to: b, next: -1, mult: 1})
	}
	if s.head[a] < 0 {
		s.head[a] = i
	} else {
		s.arcs[s.tail[a]].next = i
	}
	s.tail[a] = i
	s.edges++
}

// remove undoes one add of a -> b, unlinking the arc when its multiplicity
// reaches zero, and reports whether it did. Removing an absent dependency
// is a no-op.
func (s *adjacency) remove(a, b int32) (gone bool) {
	last := int32(-1)
	for i := s.head[a]; i >= 0; last, i = i, s.arcs[i].next {
		e := &s.arcs[i]
		if e.to != b {
			continue
		}
		if e.mult--; e.mult > 0 {
			return false
		}
		if last < 0 {
			s.head[a] = e.next
		} else {
			s.arcs[last].next = e.next
		}
		if s.tail[a] == i {
			s.tail[a] = last
		}
		e.next, s.free = s.free, i
		s.edges--
		return true
	}
	return false
}

// Graph is a channel dependency graph over an Index — a set: adding a
// dependency twice is adding it once — checked for cycles by a full
// depth-first search. It holds physical dependencies only: in a -> b, b
// must be an egress channel of the switch a leads to (what else could a
// packet holding a request?). That makes (a, b's port) an exact key, so
// membership is one bit and insertion never searches. Construct with
// NewGraph. A Graph is not safe for concurrent use.
type Graph struct {
	ix  *Index
	out adjacency
	has []uint64 // bit a*stride + port(b) set iff a -> b is present

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

// slot locates the membership bit of a -> b. It panics on a dependency no
// packet can have: b is not an egress of the switch a leads to.
func (g *Graph) slot(a, b int32) (word *uint64, bit uint64) {
	port := b - g.ix.next[a]
	if g.ix.next[a] < 0 || uint32(port) >= uint32(g.ix.stride) {
		panic(fmt.Sprintf("cdg: dependency %v -> %v: the second channel is not an egress of the switch the first leads to",
			g.ix.Channel(a), g.ix.Channel(b)))
	}
	k := uint(a)*uint(g.ix.stride) + uint(port)
	return &g.has[k/64], 1 << (k % 64)
}

// add inserts a -> b by id, reporting whether it is new.
func (g *Graph) add(a, b int32) bool {
	word, bit := g.slot(a, b)
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
	if word, bit := g.slot(ai, bi); *word&bit != 0 {
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
