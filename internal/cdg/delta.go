package cdg

import (
	"math/bits"
	"slices"

	"ibvsim/internal/ib"
	"ibvsim/internal/topology"
)

// delta is the rule walk between two kept routings: the (switch, LID)
// pairs that can read differently under one than under the other. For a kept
// CDG a pair is a dependency to re-walk; for a reachability base (reach set)
// it is a switch whose forwarding step for the LID can differ — the next hop
// a walk takes there, or its fate. The rules, with duplicates removed:
//
//  1. each changed entry (j, d), plus, for a kept CDG, (i, d) for every
//     neighbour i that forwards d to j under either routing;
//  2. (i, d) for every d that i forwards, under either routing, out of a
//     port whose link came up or went down — a switch-to-switch link for a
//     kept CDG, any link (delivery links to CAs included) for a base;
//  3. every destination of a switch that gained or lost its table, each as a
//     changed entry under 1;
//  4. every switch for a destination whose owner changed, entering or
//     leaving the destination set included. A base marks such a column
//     whole instead, and records no pairs of it.
//
// A rewired fabric is not covered: a delta's two ends have the same wiring.
type delta struct {
	ix    *Index
	reach bool

	// The pairs: bit d*switches+i for (i, d), d-major so that a visit reads
	// the tables column by column. The set is the list: nothing is kept per
	// member.
	set bitset
	// For a base, per LID: whether the delta names it (cols) and whether it
	// names its whole column (whole).
	cols, whole bitset
}

// bitset is a set of small integers that grows to its largest member. Only
// words lo..hi can be non-zero, so emptying it costs what filling it did.
type bitset struct {
	words  []uint64
	lo, hi int
	n      int // members
}

// add puts bit in the set.
func (s *bitset) add(bit uint) {
	w := int(bit / 64)
	if w >= len(s.words) {
		from := len(s.words)
		s.words = slices.Grow(s.words, w+1-from)[:w+1]
		clear(s.words[from:])
	}
	if s.words[w]&(1<<(bit%64)) != 0 {
		return
	}
	s.words[w] |= 1 << (bit % 64)
	if s.n == 0 || w < s.lo {
		s.lo = w
	}
	if s.n == 0 || w > s.hi {
		s.hi = w
	}
	s.n++
}

// has reports whether bit is in the set.
func (s *bitset) has(bit uint) bool {
	w := int(bit / 64)
	return w < len(s.words) && s.words[w]&(1<<(bit%64)) != 0
}

// forget empties the set.
func (s *bitset) forget() {
	if s.n > 0 {
		clear(s.words[s.lo : s.hi+1])
	}
	s.n = 0
}

// changed collects in the set what can differ between routings a and b —
// the four rules of delta — and returns how many forwarding entries of
// destinations changed.
func (d *delta) changed(a, b *kept) (entries int) {
	sets := [][]ib.LID{a.lids, b.lids}
	if slices.Equal(a.lids, b.lids) {
		sets = sets[:1]
	}
	for _, lids := range sets { // rule 4: owners
		for _, l := range lids {
			if a.owner(l) != b.owner(l) {
				d.column(l)
			}
		}
	}
	for j := range int32(len(d.ix.nodes)) {
		switch ta, tb := a.lfts[j], b.lfts[j]; {
		case (ta == nil) != (tb == nil): // rule 3: a table gained or lost
			for _, lids := range sets {
				for len(lids) > 0 {
					blk, mask := ib.BlockOf(lids[0]), uint64(0)
					for ; len(lids) > 0 && ib.BlockOf(lids[0]) == blk; lids = lids[1:] {
						mask |= 1 << (int(lids[0]) % ib.LFTBlockSize)
					}
					d.touch(a, b, j, blk, mask)
				}
			}
		case ta != tb: // rule 1: the entries that changed
			for blk, pa, pb, ok := ta.NextDiff(tb, 0); ok; blk, pa, pb, ok = ta.NextDiff(tb, blk+1) {
				in := a.inBlock(blk) | b.inBlock(blk)
				if in == 0 || pa != nil && pb != nil && *pa == *pb {
					continue
				}
				var mask uint64
				for rest := in; rest != 0; rest &= rest - 1 {
					if off := bits.TrailingZeros64(rest); portAt(pa, off) != portAt(pb, off) {
						mask |= 1 << off
					}
				}
				entries += bits.OnesCount64(mask)
				d.touch(a, b, j, blk, mask)
			}
		}
		d.flips(a, b, j, sets)
	}
	return entries
}

// touch adds, for each destination of block blk in mask, (j, l) and — for a
// kept CDG — every (i, l) whose switch i forwards l to j under a or b: the
// pairs that read j's entry for l.
func (d *delta) touch(a, b *kept, j int32, blk int, mask uint64) {
	base := ib.LID(blk * ib.LFTBlockSize)
	for rest := mask; rest != 0; rest &= rest - 1 {
		d.add(j, base+ib.LID(bits.TrailingZeros64(rest)))
	}
	if d.reach {
		return
	}
	for _, c := range d.ix.channelsInto(j) {
		i, port := c/d.ix.stride, ib.PortNum(c%d.ix.stride)
		pa, pb := blockOf(a.lfts[i], blk), blockOf(b.lfts[i], blk)
		for rest := mask; rest != 0; rest &= rest - 1 {
			if off := bits.TrailingZeros64(rest); portAt(pa, off) == port || portAt(pb, off) == port {
				d.add(i, base+ib.LID(off))
			}
		}
	}
}

// flips is rule 2 for switch i: every destination it forwards, under a or b,
// out of a port whose link came up or went down.
func (d *delta) flips(a, b *kept, i int32, sets [][]ib.LID) {
	lo, hi := i*d.ix.stride, (i+1)*d.ix.stride
	if slices.Equal(a.hop[lo:hi], b.hop[lo:hi]) && (!d.reach || slices.Equal(a.up[lo:hi], b.up[lo:hi])) {
		return
	}
	flipped := func(port ib.PortNum) bool {
		c := a.egress(i, int32(port))
		return c >= 0 && (a.hop[c] != b.hop[c] || d.reach && a.up[c] != b.up[c])
	}
	for _, lids := range sets {
		blk := -1
		var pa, pb *[ib.LFTBlockSize]ib.PortNum
		for _, l := range lids {
			if ib.BlockOf(l) != blk {
				blk = ib.BlockOf(l)
				pa, pb = blockOf(a.lfts[i], blk), blockOf(b.lfts[i], blk)
			}
			if off := int(l) % ib.LFTBlockSize; flipped(portAt(pa, off)) || flipped(portAt(pb, off)) {
				d.add(i, l)
			}
		}
	}
}

// blockOf is lft's block blk, nil for no table or an unmaterialised block.
func blockOf(lft *ib.LFT, blk int) *[ib.LFTBlockSize]ib.PortNum {
	if lft == nil {
		return nil
	}
	return lft.Block(blk)
}

// portAt reads one entry of a block; a nil block is all DropPort.
func portAt(ports *[ib.LFTBlockSize]ib.PortNum, off int) ib.PortNum {
	if ports == nil {
		return ib.DropPort
	}
	return ports[off]
}

// column adds destination l with every switch: its whole column.
func (d *delta) column(l ib.LID) {
	if d.reach {
		d.whole.add(uint(l))
		d.cols.add(uint(l))
		return
	}
	for i := range int32(len(d.ix.nodes)) {
		d.add(i, l)
	}
}

// add puts (i, l) in the set; a base skips the pairs of a whole column.
func (d *delta) add(i int32, l ib.LID) {
	if d.reach {
		if d.whole.has(uint(l)) {
			return
		}
		d.cols.add(uint(l))
	}
	d.set.add(uint(l)*uint(len(d.ix.nodes)) + uint(i))
}

// forget empties the set.
func (d *delta) forget() {
	d.set.forget()
	d.cols.forget()
	d.whole.forget()
}

// Base is a routing kept as the base of the next reachability pass: the
// tables, the link state and the owners of a destination set, held after
// the Routes they came from moved on. Update names, per destination, the
// switches whose forwarding step can differ under another routing — or the
// whole column, when its owner moved — and moves the base there, so that a
// pass re-walks those columns only, and enters them only where they
// changed. The tables a Base was loaded from must not be written afterwards:
// it keeps them by pointer (ib.LFT's ownership rule).
// A Base is not safe for concurrent use.
type Base struct {
	delta
	cur, next *kept
}

// NewBase returns an empty base over the channels of ix; Load it before
// anything else.
func NewBase(ix *Index) *Base {
	return &Base{delta: delta{ix: ix, reach: true}, cur: newKept(ix), next: newKept(ix)}
}

// Load freezes r's routing of dlids as the base.
func (b *Base) Load(r Routes, dlids []ib.LID) error {
	b.forget()
	if !b.cur.load(r, dlids) {
		return ErrRewired
	}
	return nil
}

// Update moves the base to r's routing of dlids and returns how many
// destinations can forward differently under it than under the base —
// Changed and Switches name them until the next Update or Load. After
// ErrRewired the base must be reloaded.
func (b *Base) Update(r Routes, dlids []ib.LID) (int, error) {
	b.forget()
	if !move(b.cur, b.next, r, dlids) {
		return 0, ErrRewired
	}
	b.changed(b.cur, b.next)
	b.cur, b.next = b.next, b.cur
	b.next.release()
	return b.cols.n, nil
}

// Changed reports whether the last Update named destination l.
func (b *Base) Changed(l ib.LID) bool { return b.cols.has(uint(l)) }

// Switches appends to buf, in ascending order, the switches whose forwarding
// step for l the last Update found can differ — and reports instead whether
// it named l's whole column (its owner moved, or it joined the
// destinations), appending nothing then.
func (b *Base) Switches(buf []topology.NodeID, l ib.LID) (_ []topology.NodeID, whole bool) {
	if b.whole.has(uint(l)) {
		return buf, true
	}
	nsw := uint(len(b.ix.nodes))
	lo, hi := uint(l)*nsw, (uint(l)+1)*nsw // the column's bits: lo..hi-1
	for w := lo / 64; w <= (hi-1)/64 && int(w) < len(b.set.words); w++ {
		word := b.set.words[w]
		if w == lo/64 {
			word &^= 1<<(lo%64) - 1
		}
		if w == (hi-1)/64 && hi%64 != 0 {
			word &= 1<<(hi%64) - 1
		}
		for ; word != 0; word &= word - 1 {
			buf = append(buf, b.ix.nodes[w*64+uint(bits.TrailingZeros64(word))-lo].ID)
		}
	}
	return buf, false
}
