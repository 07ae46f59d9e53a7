package cdg

import "slices"

// Ordered is an incrementally maintained acyclic channel dependency graph
// using the Pearce-Kelly dynamic topological-order algorithm. AddDepChecked
// rejects (and does not apply) any edge that would close a cycle, in
// amortised sub-linear time for sparse updates.
//
// LASH uses this to test, per source-destination switch pair, whether a
// path's dependencies fit into an existing virtual-lane layer: millions of
// trial insertions that would be hopeless with full-graph DFS per check.
// Maintained keeps an installed routing in one, bulk-loaded once and then
// moved by checked inserts and removals.
//
// Storage is the package's one adjacency, twice: successors with their
// multiplicities, and the mirrored predecessors the backward search needs,
// each distinct dependency once. Construct with NewOrdered. An Ordered is
// not safe for concurrent use.
type Ordered struct {
	ix      *Index
	out, in adjacency
	ord     []int32 // topological index per channel id

	// reorder's scratch: mark[n] == epoch means n was reached in this call.
	mark                  []uint32
	epoch                 uint32
	fwd, bwd, stack, idxs []int32
}

// NewOrdered returns an empty incremental CDG over the channels of ix.
func NewOrdered(ix *Index) *Ordered {
	n := ix.NumIDs()
	o := &Ordered{ix: ix, out: newAdjacency(n), in: newAdjacency(n),
		ord: make([]int32, n), mark: make([]uint32, n)}
	for i := range o.ord {
		o.ord[i] = int32(i) // any order is topological for an empty graph
	}
	return o
}

// AddDepChecked inserts the dependency a -> b unless it would create a
// cycle. It returns (inserted, acyclic): (true, true) on success,
// (false, true) if the edge already existed (multiplicity bumped),
// (false, false) if insertion was refused because it closes a cycle.
func (o *Ordered) AddDepChecked(a, b Channel) (inserted, acyclic bool) {
	return o.insert(o.ix.ID(a), o.ix.ID(b))
}

// insert is AddDepChecked by id.
func (o *Ordered) insert(a, b int32) (inserted, acyclic bool) {
	if a == b {
		return false, false // self-dependency is an immediate cycle
	}
	if !o.out.add(a, b) {
		return false, true
	}
	// The edge is new. If it goes against the current order, discover the
	// affected region and try to reorder; reorder never walks out of a, so
	// the arc just added does not disturb it.
	if o.ord[a] > o.ord[b] && !o.reorder(a, b) {
		o.out.remove(a, b)
		return false, false
	}
	o.in.push(b, a)
	return true, true
}

// RemoveDepChecked undoes one multiplicity of a -> b (used for rollback when
// a path does not fit a layer). The topological order stays valid: removing
// edges never invalidates it.
func (o *Ordered) RemoveDepChecked(a, b Channel) { o.remove(o.ix.ID(a), o.ix.ID(b)) }

// remove is RemoveDepChecked by id.
func (o *Ordered) remove(a, b int32) {
	if o.out.remove(a, b) {
		o.in.remove(b, a)
	}
}

// NumEdges returns the number of distinct dependencies held.
func (o *Ordered) NumEdges() int { return o.out.edges }

// A bulk load is reset, one add per dependency with no check, then order:
// one topological sort instead of a checked insert per dependency.

// reset empties o, keeping its memory.
func (o *Ordered) reset() {
	o.out.reset()
	o.in.reset()
}

// add records a -> b once more without checking for a cycle.
func (o *Ordered) add(a, b int32) {
	if o.out.add(a, b) {
		o.in.push(b, a)
	}
}

// order gives what o holds a topological order by Kahn's algorithm, sources
// in ascending id first, and reports false when there is none: the
// dependencies are cyclic, and o must be reset before it is used again.
func (o *Ordered) order() bool {
	n := len(o.ord)
	indeg := slices.Grow(o.idxs[:0], n)[:n]
	clear(indeg)
	for _, e := range o.out.arcs {
		indeg[e.to]++ // every arc is live: nothing was removed since reset
	}
	queue := slices.Grow(o.fwd[:0], n)
	for id, d := range indeg {
		if d == 0 {
			queue = append(queue, int32(id))
		}
	}
	for k := 0; k < len(queue); k++ {
		id := queue[k]
		o.ord[id] = int32(k)
		for i := o.out.head[id]; i >= 0; i = o.out.arcs[i].next {
			to := o.out.arcs[i].to
			if indeg[to]--; indeg[to] == 0 {
				queue = append(queue, to)
			}
		}
	}
	if len(queue) < n {
		o.idxs, o.fwd = indeg, queue
		return false
	}
	// A loaded graph is kept: fit its arenas, and drop the sort's scratch,
	// as big as the channel space, to what reorder grows it to.
	o.out.fit()
	o.in.fit()
	o.idxs, o.fwd = nil, nil
	return true
}

// reorder implements the Pearce-Kelly affected-region discovery for a new
// edge x -> y with ord[x] > ord[y]. It returns false when x is reachable
// from y (the new edge would close a cycle), true after reindexing.
func (o *Ordered) reorder(x, y int32) bool {
	lb, ub := o.ord[y], o.ord[x]
	if o.epoch++; o.epoch == 0 { // wrapped: stale marks could alias
		clear(o.mark)
		o.epoch = 1
	}
	// Forward DFS from y within (lb, ub]; if we hit x there is a cycle.
	fwd := o.fwd[:0]
	stack := append(o.stack[:0], y)
	o.mark[y] = o.epoch
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		fwd = append(fwd, n)
		for i := o.out.head[n]; i >= 0; i = o.out.arcs[i].next {
			m := o.out.arcs[i].to
			if m == x {
				o.fwd, o.stack = fwd, stack
				return false
			}
			if o.mark[m] != o.epoch && o.ord[m] <= ub {
				o.mark[m] = o.epoch
				stack = append(stack, m)
			}
		}
	}
	// Backward DFS from x within [lb, ub).
	bwd := o.bwd[:0]
	stack = append(stack, x)
	o.mark[x] = o.epoch
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		bwd = append(bwd, n)
		for i := o.in.head[n]; i >= 0; i = o.in.arcs[i].next {
			m := o.in.arcs[i].to
			if o.mark[m] != o.epoch && o.ord[m] >= lb {
				o.mark[m] = o.epoch
				stack = append(stack, m)
			}
		}
	}
	// Hand the indices the two regions occupy, in ascending order, to the
	// backward region first and the forward region after it, each keeping
	// its internal relative order.
	sortByOrd(bwd, o.ord)
	sortByOrd(fwd, o.ord)
	idxs := o.idxs[:0]
	for _, n := range bwd {
		idxs = append(idxs, o.ord[n])
	}
	for _, n := range fwd {
		idxs = append(idxs, o.ord[n])
	}
	slices.Sort(idxs)
	for i, n := range bwd {
		o.ord[n] = idxs[i]
	}
	for i, n := range fwd {
		o.ord[n] = idxs[len(bwd)+i]
	}
	o.fwd, o.bwd, o.stack, o.idxs = fwd, bwd, stack, idxs
	return true
}

// sortByOrd sorts channel ids ascending by topological index. Insertion
// sort: affected regions are small in practice.
func sortByOrd(ids, ord []int32) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ord[ids[j-1]] > ord[ids[j]]; j-- {
			ids[j-1], ids[j] = ids[j], ids[j-1]
		}
	}
}
