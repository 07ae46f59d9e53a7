package cdg

import (
	"ibvsim/internal/ib"
	"ibvsim/internal/topology"
)

// Routes is the one read interface of a routed subnet: one forwarding table
// per switch and the location of each LID. The subnet manager hands out its
// programmed and target routing as Routes, and everything that reads
// installed routing takes one: the dependency walk and the kept CDG, the
// auditor's transition check, the migration planner, and everything that
// follows a packet by Trace (the LID-routed SMP walk, the fabric simulator,
// the paths endpoint).
type Routes interface {
	// LFT returns the forwarding table of switch sw; nil means the switch
	// forwards nothing.
	LFT(sw topology.NodeID) *ib.LFT
	// NodeOf returns the node that owns a LID, or topology.NoNode.
	NodeOf(l ib.LID) topology.NodeID
}

// Tables is the Routes of a holder of forwarding state that can name a
// table per switch and an owner per LID through two functions: an engine's
// result, or table maps.
type Tables struct {
	Table func(sw topology.NodeID) *ib.LFT
	Owner func(l ib.LID) topology.NodeID
}

// LFT implements Routes.
func (t Tables) LFT(sw topology.NodeID) *ib.LFT { return t.Table(sw) }

// NodeOf implements Routes.
func (t Tables) NodeOf(l ib.LID) topology.NodeID { return t.Owner(l) }

// Walk enumerates, destination by destination, the switch-to-switch channel
// dependencies one routing function induces. It is the only such
// enumeration in the tree: the auditor's installed-routing CDG, the
// transition check and DFSSSP's per-tree dependency lists all come from
// Deps. Every switch's table and every link's state is read once, at
// construction; Deps only reads, so one Walk may serve concurrent callers.
type Walk struct {
	ix     *Index
	lfts   []*ib.LFT // per dense switch index
	nodeOf func(ib.LID) topology.NodeID
	// Per channel id, the link as the walk sees it: hop is the dense index
	// of the switch an up link leads to (-1: down, unconnected or to a CA),
	// wired whether the port has a peer at all, up whether that link is up
	// (delivery links to CAs included).
	hop       []int32
	wired, up []bool
}

// NewWalk freezes r's tables and the link state for the switches of ix.
func NewWalk(ix *Index, r Routes) *Walk {
	w := &Walk{ix: ix, nodeOf: r.NodeOf}
	w.load(r)
	return w
}

// load reads every switch's table and the link state into w, reusing its
// memory. It reports false when a port's peer is no longer the one ix
// numbered: the fabric was rewired under the index.
func (w *Walk) load(r Routes) (asIndexed bool) {
	ix := w.ix
	if w.lfts == nil {
		w.lfts = make([]*ib.LFT, len(ix.nodes))
		w.hop, w.wired, w.up = make([]int32, ix.NumIDs()), make([]bool, ix.NumIDs()), make([]bool, ix.NumIDs())
	}
	asIndexed = true
	for i, n := range ix.nodes {
		w.lfts[i] = r.LFT(n.ID)
		for p := int32(0); p < ix.stride; p++ {
			id := int32(i)*ix.stride + p
			w.hop[id], w.wired[id], w.up[id] = -1, false, false
			next := int32(-1)
			if int(p) < len(n.Ports) && n.Ports[p].Peer != topology.NoNode {
				peer := ix.dense[n.Ports[p].Peer]
				if peer >= 0 {
					next = peer * ix.stride
				}
				w.wired[id], w.up[id] = true, n.Ports[p].Up
				if n.Ports[p].Up {
					w.hop[id] = peer
				}
			}
			asIndexed = asIndexed && next == ix.next[id]
		}
	}
	return asIndexed
}

// Deps appends to buf the dependencies of destination dlid's forwarding
// tree, in ascending switch order, and returns the extended slice. Each
// switch that forwards dlid over an up link to another switch contributes
// one dependency: from its egress channel to the egress channel the next
// switch forwards dlid on (which may be the delivery link to a CA — a
// terminal channel). An unowned dlid, a switch without a table, the
// destination itself, and entries that are DropPort, the management port
// or no connected port contribute nothing.
//
// Injection channels (CA to leaf switch) are deliberately absent: nothing
// depends on them, so they cannot lie on a cycle, and any caller that only
// asks for cycles gets the verdict of the complete CDG.
func (w *Walk) Deps(buf []Dep, dlid ib.LID) []Dep { return w.deps(buf, dlid, nil) }

// columns is every switch's block of forwarding entries for one 64-LID
// block: what 64 consecutive destinations read of the tables, resolved with
// one radix descent per switch instead of two per (destination, switch).
type columns struct {
	block int
	of    []*[ib.LFTBlockSize]ib.PortNum // per dense switch index; nil: all DropPort
}

// resolve points c at block b of every table.
func (w *Walk) resolve(c *columns, b int) {
	if c.of == nil {
		c.of = make([]*[ib.LFTBlockSize]ib.PortNum, len(w.lfts))
	}
	c.block = b
	for i, lft := range w.lfts {
		c.of[i] = nil
		if lft != nil {
			c.of[i] = lft.Block(b)
		}
	}
}

// deps is Deps reading through cols when the caller resolved dlid's block
// (one goroutine, many destinations), and through the tables otherwise.
func (w *Walk) deps(buf []Dep, dlid ib.LID, cols *columns) []Dep {
	dst := w.nodeOf(dlid)
	if dst == topology.NoNode {
		return buf
	}
	stride := w.ix.stride
	dstSw := w.ix.dense[dst] // -1 for a CA: no switch is the destination
	off := int(dlid) % ib.LFTBlockSize
	// The cold build's inner loop: a closure the compiler inlines, not
	// the entry method dep uses, which it does not.
	entry := func(i int32) int32 {
		if cols == nil {
			return int32(w.lfts[i].Get(dlid))
		}
		if col := cols.of[i]; col != nil {
			return int32(col[off])
		}
		return int32(ib.DropPort)
	}
	for i, lft := range w.lfts {
		if lft == nil || int32(i) == dstSw {
			continue
		}
		out := entry(int32(i))
		if out == int32(ib.DropPort) || out == 0 || out >= stride {
			continue
		}
		a := int32(i)*stride + out
		j := w.hop[a]
		if j < 0 || j == dstSw || w.lfts[j] == nil {
			continue
		}
		out2 := entry(j)
		if out2 == int32(ib.DropPort) || out2 == 0 || out2 >= stride || !w.wired[j*stride+out2] {
			continue
		}
		buf = append(buf, Dep{A: a, B: j*stride + out2})
	}
	return buf
}

// entry is switch i's port for dlid, read through cols when the caller
// resolved dlid's block, else through i's table (which must exist): deps'
// read, for dep.
func (w *Walk) entry(i int32, dlid ib.LID, cols *columns) int32 {
	if cols == nil {
		return int32(w.lfts[i].Get(dlid))
	}
	if col := cols.of[i]; col != nil {
		return int32(col[int(dlid)%ib.LFTBlockSize])
	}
	return int32(ib.DropPort)
}

// egress is the channel id of switch i's entry out, or -1 when the entry
// leaves by no data port: DropPort, the management port, beyond the stride.
func (w *Walk) egress(i, out int32) int32 {
	if out == int32(ib.DropPort) || out == 0 || out >= w.ix.stride {
		return -1
	}
	return i*w.ix.stride + out
}

// dep is the pair walk: the one dependency switch i (by dense index)
// contributes to dlid's forwarding tree — its element of Deps — and whether
// there is one, read through cols as deps does. It reads i's entry, the
// state of the link that entry leaves by, whether i and the next switch hold
// tables, the next switch's entry and dlid's owner; nothing else.
func (w *Walk) dep(i int32, dlid ib.LID, cols *columns) (Dep, bool) {
	dst := w.nodeOf(dlid)
	if dst == topology.NoNode || w.lfts[i] == nil || i == w.ix.dense[dst] {
		return Dep{}, false
	}
	a := w.egress(i, w.entry(i, dlid, cols))
	if a < 0 {
		return Dep{}, false
	}
	j := w.hop[a]
	if j < 0 || j == w.ix.dense[dst] || w.lfts[j] == nil {
		return Dep{}, false
	}
	b := w.egress(j, w.entry(j, dlid, cols))
	if b < 0 || !w.wired[b] {
		return Dep{}, false
	}
	return Dep{A: a, B: b}, true
}

// AddRoutes adds the dependencies r induces for the given destinations.
func (g *Graph) AddRoutes(r Routes, dlids []ib.LID) {
	w := NewWalk(g.ix, r)
	cols := columns{block: -1}
	var buf []Dep
	for _, dlid := range dlids {
		if b := ib.BlockOf(dlid); b != cols.block {
			w.resolve(&cols, b)
		}
		buf = w.deps(buf[:0], dlid, &cols)
		g.AddDeps(buf)
	}
}

// BuildSwitchCDG constructs the CDG the routing of the given destination
// LIDs induces among switch egress channels (see Walk.Deps for exactly
// which dependencies that is).
func BuildSwitchCDG(t *topology.Topology, r Routes, dlids []ib.LID) *Graph {
	g := NewGraph(NewIndex(t))
	g.AddRoutes(r, dlids)
	return g
}

// Transition is the outcome of a section VI-C analysis: whether the union
// of an old and a new routing function is deadlock free while the fabric is
// reprogrammed switch by switch and holds a mixture of both.
type Transition struct {
	OldAcyclic   bool
	NewAcyclic   bool
	UnionAcyclic bool
	// Cycle holds one dependency cycle of the union when UnionAcyclic is
	// false (first channel repeated at the end).
	Cycle []Channel
	// OldEdges and UnionEdges count the distinct dependencies of Rold and
	// of Rold ∪ Rnew; their difference is what the new routing adds.
	OldEdges, UnionEdges int
}

// Deadlocks reports whether the transition itself is hazardous: both
// endpoint routings are safe but their coexistence is not.
func (t Transition) Deadlocks() bool {
	return t.OldAcyclic && t.NewAcyclic && !t.UnionAcyclic
}

// CheckTransition walks both routing functions into one graph — a packet in
// flight may hold channels granted under Rold while requesting channels
// under Rnew, the Duato safety condition the paper invokes — and searches it
// once. An acyclic union proves both subgraphs acyclic; only a cyclic one
// pays for separate verdicts on Rold and Rnew.
//
// The union does not cover every state a distribution passes through: each
// routing is walked alone, so a switch still on Rold forwarding to one
// already on Rnew makes a dependency neither holds, and a half-landed
// mixture can be cyclic although the union is not. An acyclic union is a
// necessary condition for a safe transition, not a sufficient one.
func CheckTransition(t *topology.Topology, old, next Routes, dlids []ib.LID) Transition {
	return NewGraph(NewIndex(t)).CheckTransition(old, next, dlids)
}

// CheckTransition is the package function run in g's storage: g is emptied
// first and holds the union afterwards. A caller that checks one fabric
// over and over (the auditor, on every distribution) keeps one Graph and
// grows the arc arena once.
func (g *Graph) CheckTransition(old, next Routes, dlids []ib.LID) Transition {
	g.Reset()
	g.AddRoutes(old, dlids)
	tr := Transition{OldAcyclic: true, NewAcyclic: true, UnionAcyclic: true, OldEdges: g.NumEdges()}
	g.AddRoutes(next, dlids)
	tr.UnionEdges = g.NumEdges()
	if tr.Cycle = g.FindCycle(); tr.Cycle != nil {
		tr.UnionAcyclic = false
		alone := NewGraph(g.ix)
		alone.AddRoutes(old, dlids)
		tr.OldAcyclic = !alone.HasCycle()
		alone.Reset()
		alone.AddRoutes(next, dlids)
		tr.NewAcyclic = !alone.HasCycle()
	}
	return tr
}
