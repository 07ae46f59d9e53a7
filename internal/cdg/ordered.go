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
// It holds physical dependencies only, and panics on any other: the
// multiplicity of a -> b is one counter at Index.slot(a, b) of a dense array,
// so an insert or a removal is one increment or decrement. The successors of
// n are the non-zero slots of its row; its predecessors are the channels into
// its switch whose slot for its port is non-zero: nothing is mirrored.
// Construct with NewOrdered. An Ordered is not safe for concurrent use.
type Ordered struct {
	ix    *Index
	mult  []int32 // per Index.slot(a, b): adds of a -> b not undone by a remove
	edges int     // distinct dependencies held: non-zero slots
	ord   []int32 // topological index per channel id

	// reorder's scratch: mark[n] == epoch means n was reached in this call.
	mark                  []uint32
	epoch                 uint32
	fwd, bwd, stack, idxs []int32
}

// NewOrdered returns an empty incremental CDG over the channels of ix.
func NewOrdered(ix *Index) *Ordered {
	n := ix.NumIDs()
	o := &Ordered{ix: ix, mult: make([]int32, n*int(ix.stride)), ord: make([]int32, n), mark: make([]uint32, n)}
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
	if k := o.ix.slot(a, b); o.mult[k] > 0 {
		o.mult[k]++
		return false, true
	}
	// The edge is new. If it goes against the current order, discover the
	// affected region and try to reorder; reorder never walks out of a, so
	// the edge need not be held while it runs.
	if o.ord[a] > o.ord[b] && !o.reorder(a, b) {
		return false, false
	}
	o.add(a, b)
	return true, true
}

// RemoveDepChecked undoes one multiplicity of a -> b (used for rollback when
// a path does not fit a layer). The topological order stays valid: removing
// edges never invalidates it.
func (o *Ordered) RemoveDepChecked(a, b Channel) { o.remove(o.ix.ID(a), o.ix.ID(b)) }

// remove is RemoveDepChecked by id. Removing an absent dependency is a no-op.
func (o *Ordered) remove(a, b int32) {
	if k := o.ix.slot(a, b); o.mult[k] > 0 {
		if o.mult[k]--; o.mult[k] == 0 {
			o.edges--
		}
	}
}

// NumEdges returns the number of distinct dependencies held.
func (o *Ordered) NumEdges() int { return o.edges }

// reset empties o. A bulk load is reset, one add per dependency with no
// check, then order: one sort instead of a checked insert per dependency.
func (o *Ordered) reset() {
	clear(o.mult)
	o.edges = 0
}

// add records a -> b once more without checking for a cycle.
func (o *Ordered) add(a, b int32) {
	k := o.ix.slot(a, b)
	if o.mult[k] == 0 {
		o.edges++
	}
	o.mult[k]++
}

// succ appends n's successors to buf in ascending id.
func (o *Ordered) succ(buf []int32, n int32) []int32 {
	stride := int(o.ix.stride)
	for port, m := range o.mult[int(n)*stride:][:stride] {
		if m > 0 {
			buf = append(buf, o.ix.next[n]+int32(port))
		}
	}
	return buf
}

// order gives what o holds a topological order by Kahn's algorithm, sources
// in ascending id first, and reports false when there is none: the
// dependencies are cyclic, and o must be reset before it is used again.
func (o *Ordered) order() bool {
	n := len(o.ord)
	indeg := slices.Grow(o.idxs[:0], n)[:n]
	clear(indeg)
	var succ []int32
	for id := range int32(n) {
		succ = o.succ(succ[:0], id)
		for _, m := range succ {
			indeg[m]++
		}
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
		succ = o.succ(succ[:0], id)
		for _, m := range succ {
			if indeg[m]--; indeg[m] == 0 {
				queue = append(queue, m)
			}
		}
	}
	if len(queue) < n {
		o.idxs, o.fwd = indeg, queue
		return false
	}
	// A loaded graph is kept: drop the sort's scratch, as big as the
	// channel space, to what reorder grows it to.
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
		o.bwd = o.succ(o.bwd[:0], n) // bwd is free until the backward search
		for _, m := range o.bwd {
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
		port := int(n % o.ix.stride)
		for _, m := range o.ix.channelsInto(n / o.ix.stride) {
			if o.mult[int(m)*int(o.ix.stride)+port] > 0 && o.mark[m] != o.epoch && o.ord[m] >= lb {
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
