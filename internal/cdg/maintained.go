package cdg

import (
	"errors"
	"math/bits"
	"slices"

	"ibvsim/internal/ib"
	"ibvsim/internal/topology"
)

// Errors of a Maintained graph. After either, the graph must be reloaded.
var (
	// ErrRewired: a port's peer is not the one the graph's Index numbered.
	ErrRewired = errors.New("cdg: the fabric was rewired under the channel index")
	// ErrCyclic: the routing's dependencies close a cycle, which an Ordered
	// cannot hold.
	ErrCyclic = errors.New("cdg: the routing's dependencies are cyclic")
)

// Maintained is the CDG of one routing function kept between checks instead
// of rebuilt: an Ordered holding one dependency per (switch, destination)
// pair — a multiset, so a dependency two pairs induce is held twice —
// together with the tables, link state and destination owners it was walked
// from. Update moves it to another routing, and Union checks a second routing
// against it and, when their union is acyclic, keeps the second; each costs
// the pairs whose dependency can differ: the pairs of delta's four rules,
// which follow from what the pair walk (Walk.dep) reads.
//
// A rewired fabric is not covered (ErrRewired). The tables a Maintained was
// loaded, updated or unioned from must not be written afterwards: it keeps
// them by pointer, and the next delta starts from them (ib.LFT's ownership
// rule). A Maintained is not safe for concurrent use.
type Maintained struct {
	delta // the pairs to re-walk
	g     *Ordered
	// cur is what g holds; next is Update's scratch, tgt Union's.
	cur, next, tgt *kept
	// cols are the held and the other walk's blocks of the LIDs being
	// visited: a pair's dependencies are array reads.
	cols [2]columns
	// deps is scratch: Update's refused inserts, retried after every
	// removal, and Union's old dependencies of the pairs it moved.
	deps []Dep
}

// Delta is what one Update or Union re-walked: the pairs, and the changed
// forwarding entries of destinations in the set.
type Delta struct{ Pairs, Entries int }

// kept is a Walk with a copy of its destinations' owners, so that it
// can be the base of the next delta after the Routes it came from moved on.
type kept struct {
	Walk
	own  []topology.NodeID // per LID; NoNode outside lids
	in   []uint64          // per 64-LID block, which of its LIDs are in lids
	lids []ib.LID          // the destinations, ascending and distinct
}

func newKept(ix *Index) *kept {
	k := &kept{Walk: Walk{ix: ix}}
	k.nodeOf = k.owner
	return k
}

func (k *kept) owner(l ib.LID) topology.NodeID {
	if int(l) < len(k.own) {
		return k.own[l]
	}
	return topology.NoNode
}

// inBlock says which LIDs of block blk are destinations.
func (k *kept) inBlock(blk int) uint64 {
	if blk < len(k.in) {
		return k.in[blk]
	}
	return 0
}

// load freezes r's tables, the link state, and the owners of those dlids
// that have one.
func (k *kept) load(r Routes, dlids []ib.LID) (asIndexed bool) {
	for _, l := range k.lids {
		k.own[l] = topology.NoNode
		k.in[ib.BlockOf(l)] = 0
	}
	k.lids = k.lids[:0]
	for _, l := range dlids {
		if n := int(l) + 1; n > len(k.own) {
			from := len(k.own)
			k.own = slices.Grow(k.own, n-from)[:n]
			for i := from; i < n; i++ {
				k.own[i] = topology.NoNode
			}
			if blocks := ib.BlockOf(l) + 1; blocks > len(k.in) {
				from := len(k.in)
				k.in = slices.Grow(k.in, blocks-from)[:blocks]
				clear(k.in[from:])
			}
		}
		if n := r.NodeOf(l); n != topology.NoNode && k.own[l] == topology.NoNode {
			k.own[l] = n
			k.in[ib.BlockOf(l)] |= 1 << (int(l) % ib.LFTBlockSize)
			k.lids = append(k.lids, l)
		}
	}
	slices.Sort(k.lids)
	return k.Walk.load(r)
}

// move loads r's routing of dlids into next and reports whether it can be
// the far end of a delta from cur: the fabric was not rewired.
func move(cur, next *kept, r Routes, dlids []ib.LID) bool {
	if !next.load(r, dlids) || !slices.Equal(next.wired, cur.wired) {
		next.release()
		return false
	}
	return true
}

// release drops the table pointers of a scratch walk, so that it keeps no
// past routing alive.
func (k *kept) release() { clear(k.lfts) }

// NewMaintained returns an empty maintained CDG over the channels of ix;
// Load it before anything else.
func NewMaintained(ix *Index) *Maintained {
	return &Maintained{delta: delta{ix: ix}, g: NewOrdered(ix), cur: newKept(ix), next: newKept(ix), tgt: newKept(ix)}
}

// Load builds the graph of r's routing for dlids from nothing: one walk of
// every pair and one topological sort, not a checked insert per dependency.
func (m *Maintained) Load(r Routes, dlids []ib.LID) error {
	if !m.cur.load(r, dlids) {
		return ErrRewired
	}
	return m.build()
}

// build fills the graph with cur's routing from nothing.
func (m *Maintained) build() error {
	m.g.reset()
	cols := columns{block: -1}
	var buf []Dep
	for _, d := range m.cur.lids {
		if b := ib.BlockOf(d); b != cols.block {
			m.cur.resolve(&cols, b)
		}
		buf = m.cur.deps(buf[:0], d, &cols)
		for _, dep := range buf {
			m.g.add(dep.A, dep.B)
		}
	}
	if !m.g.order() {
		return ErrCyclic
	}
	return nil
}

// Pairs returns how many (switch, destination) pairs the graph holds a
// dependency slot for: what a Load walks.
func (m *Maintained) Pairs() int { return len(m.cur.lids) * len(m.ix.nodes) }

// Update moves the graph to r's routing for dlids, re-walking only the pairs
// whose dependency can differ: where it did, the old dependency is removed
// and the new one inserted with Pearce-Kelly's check.
func (m *Maintained) Update(r Routes, dlids []ib.LID) (Delta, error) {
	n := m.next
	if !move(m.cur, n, r, dlids) {
		return Delta{}, ErrRewired
	}
	entries := m.changed(m.cur, n)
	d := Delta{Pairs: m.set.n, Entries: entries}
	// One pass: a pair's old dependency out, its new one in. An insert
	// refused while other pairs' old dependencies are still held may be a
	// cycle through one of them: it waits until every removal is done, and
	// only a refusal then is a cycle of the new routing.
	waiting := m.deps[:0]
	m.each(n, func(c change) bool {
		if !c.moved() {
			return true
		}
		if c.had {
			m.g.remove(c.was.A, c.was.B)
		}
		if c.has {
			if _, acyclic := m.g.insert(c.is.A, c.is.B); !acyclic {
				waiting = append(waiting, c.is)
			}
		}
		return true
	})
	var err error
	for _, dep := range waiting {
		if _, acyclic := m.g.insert(dep.A, dep.B); !acyclic {
			err = ErrCyclic
			break
		}
	}
	m.deps = waiting[:0]
	m.forget()
	m.cur, m.next = n, m.cur
	m.next.release()
	return d, err
}

// Union checks next's routing against the one held, for the same
// destinations, owners and link state — the section VI-C transition, in
// which a packet may hold channels of either: it inserts next's dependencies
// for the pairs whose entries differ and reads the edge counts of the
// routing held and of the union. When the union is acyclic it keeps next:
// the old dependencies of those pairs are removed, and the graph holds next's
// routing, its tables by pointer. The next Update then costs only what did
// not land as next. ErrCyclic means an insert was refused: the union has a
// cycle, unionEdges is a lower bound, and the graph is rebuilt on the
// routing it held — a refusal is the rare path, and a pair moved costs only
// its old dependency in scratch.
func (m *Maintained) Union(next Routes) (oldEdges, unionEdges int, d Delta, err error) {
	t := m.tgt
	t.lfts = slices.Grow(t.lfts[:0], len(m.ix.nodes))[:len(m.ix.nodes)]
	for i, n := range m.ix.nodes {
		t.lfts[i] = next.LFT(n.ID)
	}
	t.hop, t.wired, t.up, t.own, t.in, t.lids = m.cur.hop, m.cur.wired, m.cur.up, m.cur.own, m.cur.in, m.cur.lids
	entries := m.changed(m.cur, t)
	d = Delta{Pairs: m.set.n, Entries: entries}
	oldEdges = m.g.NumEdges()
	olds := m.deps[:0]
	m.each(t, func(c change) bool {
		if !c.moved() {
			return true
		}
		if c.has {
			if _, acyclic := m.g.insert(c.is.A, c.is.B); !acyclic {
				err = ErrCyclic
				return false
			}
		}
		if c.had {
			olds = append(olds, c.was)
		}
		return true
	})
	unionEdges = m.g.NumEdges()
	if err == nil {
		for _, dep := range olds {
			m.g.remove(dep.A, dep.B)
		}
		copy(m.cur.lfts, t.lfts)
	} else {
		m.build() //nolint:errcheck // the routing held is acyclic
	}
	m.deps = olds[:0]
	m.forget()
	t.release()
	t.hop, t.wired, t.up, t.own, t.in, t.lids = nil, nil, nil, nil, nil, nil
	return oldEdges, unionEdges, d, err
}

// change is what one pair's dependency does between the graph and a walk.
type change struct {
	was, is  Dep
	had, has bool
}

func (c change) moved() bool { return c.had != c.has || c.was != c.is }

// each visits the pairs of the set by destination, then switch, while visit returns
// true, handing it what the pair's dependency does between the graph and b.
func (m *Maintained) each(b *kept, visit func(c change) bool) {
	if m.set.n == 0 {
		return
	}
	nsw := uint(len(m.ix.nodes))
	held, other := &m.cols[0], &m.cols[1]
	held.block = -1
	for w := m.set.lo; w <= m.set.hi; w++ {
		for rest := m.set.words[w]; rest != 0; rest &= rest - 1 {
			bit := uint(w)*64 + uint(bits.TrailingZeros64(rest))
			i, l := int32(bit%nsw), ib.LID(bit/nsw)
			if blk := ib.BlockOf(l); blk != held.block {
				m.cur.resolve(held, blk)
				b.resolve(other, blk)
			}
			var c change
			c.was, c.had = m.cur.dep(i, l, held)
			c.is, c.has = b.dep(i, l, other)
			if !visit(c) {
				return
			}
		}
	}
}
