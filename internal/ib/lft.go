package ib

import (
	"fmt"
	"sync/atomic"
)

// lftGen hands out globally unique ownership generations for the
// copy-on-write sharing below. Every Clone assigns fresh generations to
// both sides, so no table ever believes it owns storage another table can
// still reach.
var lftGen atomic.Uint64

// lftFanout is the number of 64-entry blocks per superblock: 16×64 = 1024
// entries. It is sized for the sparse write rather than for Clone. A
// migration sets two LIDs on each of hundreds of switches, and each Set on a
// fresh clone copies the superblock it lands in: 136 bytes of pointers at
// this fanout; at a fanout of 64 it would be 520, half of all the bytes a
// migration allocates. Clone copies one pointer per superblock, and
// a table of up to 8192 LIDs keeps them inside itself (lftInline), so the
// smaller fanout costs a clone nothing at the fabric sizes the simulator
// runs.
const lftFanout = 16

// lftBlock is one 64-entry run of the table plus the generation of the LFT
// that may mutate it in place. A block whose generation differs from its
// table's is shared with at least one clone and is copied before the first
// write (see mutableBlock). A nil block reads as all-DropPort.
//
// prov is the provenance stamp of the write epoch that last touched the
// block: one shared pointer per epoch, carried verbatim through COW copies
// so clones and snapshots keep the attribution of the writer that produced
// their entries. nil means the block predates the provenance plane (or
// stamping was disabled when it was written).
type lftBlock struct {
	gen   uint64
	prov  *Provenance
	ports [LFTBlockSize]PortNum
}

// lftSuper is one level-1 node: lftFanout block pointers plus the owning
// generation. A nil superblock reads as lftFanout nil blocks.
type lftSuper struct {
	gen    uint64
	blocks [lftFanout]*lftBlock
}

// LFT is a linear forwarding table: a dense map from destination LID to
// egress port number, held by every switch. Entries are organised in blocks
// of LFTBlockSize LIDs because the subnet manager reads and writes them with
// one SMP per block.
//
// Storage is a two-level copy-on-write radix: a short slice of superblocks,
// each holding lftFanout (16) block pointers. Clone is one allocation that
// copies the superblock pointers (for a table of up to eight superblocks
// they sit inside the LFT itself), and a later Set copies just the one
// superblock (136 bytes) and one 64-entry block (80 bytes) it lands in, the
// first time it lands there. This is what makes
// the control plane's clone-mutate-publish cycle O(blocks touched) instead
// of O(table size) — at cluster scale one VM migration edits two LIDs on
// each of ~10^3 switches, and cloning full multi-kilobyte tables per switch
// dominated the whole operation (and its allocation rate dominated GC).
// Nil superblocks and nil blocks mean "all entries DropPort", so fresh
// tables allocate almost nothing.
//
// Ownership: once a table is handed to another holder — a routing result,
// the incremental index, the subnet manager's target or programmed view, a
// cdg.Routes reader — nobody writes it again. A writer clones, writes the
// clone, and publishes the clone. So holders share tables by pointer, and
// two equal pointers hold equal entries. Get is safe against concurrent
// Clone of the same table, and concurrent Clones of one table are safe
// against each other; Set must not race with any other method on the same
// table.
//
// The zero value is not usable; construct with NewLFT. A port value of 255
// (DropPort) or an entry outside the populated range means "drop".
type LFT struct {
	// supers is inline[:n] for a table of up to lftInline superblocks, so a
	// Clone of one is a single allocation; a larger table holds its own
	// slice.
	supers  []*lftSuper
	inline  [lftInline]*lftSuper
	nblocks int // logical geometry in 64-entry blocks (supers over-cover)
	gen     atomic.Uint64
	// prov is the table's current write epoch: every Set that changes an
	// entry stamps the touched block with this pointer. Writers open an
	// epoch with SetProvenance before their Sets; Clone carries the epoch
	// so follow-up writes on the clone stay attributed until the next
	// writer opens its own.
	prov *Provenance
}

// NewLFT returns an LFT able to hold entries for LIDs 0..topLID (rounded up
// to a whole number of blocks). All entries start as DropPort.
func NewLFT(topLID LID) *LFT {
	return NewLFTBlocks(BlocksForLIDCount(topLID))
}

// NewLFTBlocks returns an LFT backed by exactly nblocks 64-entry blocks
// (minimum 1), all entries DropPort. Use it to mirror another table's
// geometry exactly — e.g. the partial-failure fallback in the distribution
// engine, which must shadow its target block for block.
func NewLFTBlocks(nblocks int) *LFT {
	if nblocks < 1 {
		nblocks = 1
	}
	t := &LFT{nblocks: nblocks}
	t.supers = t.superSlice((nblocks + lftFanout - 1) / lftFanout)
	t.gen.Store(lftGen.Add(1))
	return t
}

// lftInline is how many superblocks a table holds inside itself: 8 × 1024
// LIDs, which covers every fabric the benchmark migrates on. A larger table
// holds its superblock pointers in a slice of their own, and its Clone costs
// a second allocation.
const lftInline = 8

// superSlice returns n nil superblock pointers for t to hold: its inline
// array when they fit, else a fresh slice.
func (t *LFT) superSlice(n int) []*lftSuper {
	if n <= lftInline {
		return t.inline[:n]
	}
	return make([]*lftSuper, n)
}

// Clone returns an independent copy of the table: the copy a writer edits
// off to the side before publishing it. Only the superblock pointers are
// copied, and for a table of up to lftInline superblocks into the clone's
// own inline array, so a clone is one allocation; superblocks and blocks are
// shared until either side writes into them. Both tables move to fresh
// generations, so neither will mutate shared storage in place.
func (t *LFT) Clone() *LFT {
	c := &LFT{nblocks: t.nblocks, prov: t.prov}
	c.supers = c.superSlice(len(t.supers))
	copy(c.supers, t.supers)
	c.gen.Store(lftGen.Add(1))
	t.gen.Store(lftGen.Add(1))
	return c
}

// NumBlocks returns the number of 64-entry blocks backing the table.
func (t *LFT) NumBlocks() int { return t.nblocks }

// blockAt returns the block at index b, or nil when b is out of range or
// unmaterialised (an implicit all-DropPort block).
func (t *LFT) blockAt(b int) *lftBlock {
	if b >= t.nblocks {
		return nil
	}
	sp := t.supers[b/lftFanout]
	if sp == nil {
		return nil
	}
	return sp.blocks[b%lftFanout]
}

// dropBlock is what a nil block reads as.
var dropBlock = func() (b [LFTBlockSize]PortNum) {
	for i := range b {
		b[i] = DropPort
	}
	return b
}()

// entries returns a block's ports, or the all-DropPort block for nil.
func entries(ports *[LFTBlockSize]PortNum) *[LFTBlockSize]PortNum {
	if ports == nil {
		return &dropBlock
	}
	return ports
}

// Block returns the 64 entries of block b for reading, or nil when the block
// is out of range or unmaterialised (every entry DropPort). The array is the
// table's own storage, shared with its clones: callers must not write
// through it. One call is the whole radix descent, so a reader that needs
// many LIDs of one block (the auditor checks 64 consecutive destinations
// against the same block of every switch) pays it once.
func (t *LFT) Block(b int) *[LFTBlockSize]PortNum {
	if blk := t.blockAt(b); blk != nil {
		return &blk.ports
	}
	return nil
}

// NextBlock returns the first materialised block with index >= from and its
// entries, or (NumBlocks(), nil) when there is none; unmaterialised
// superblocks are skipped whole. It is the one way to visit a table block by
// block:
//
//	for b, ports := t.NextBlock(0); ports != nil; b, ports = t.NextBlock(b + 1) {
func (t *LFT) NextBlock(from int) (int, *[LFTBlockSize]PortNum) {
	for b := max(from, 0); b < t.nblocks; {
		sp := t.supers[b/lftFanout]
		if sp == nil {
			b = (b/lftFanout + 1) * lftFanout
			continue
		}
		for end := min((b/lftFanout+1)*lftFanout, t.nblocks); b < end; b++ {
			if blk := sp.blocks[b%lftFanout]; blk != nil {
				return b, &blk.ports
			}
		}
	}
	return t.nblocks, nil
}

// NextDiff returns the first block index >= from at which t and other hold
// different storage — one side may be nil, i.e. all DropPort — together
// with both sides' entries; ok is false when there is none. Superblocks the
// two tables share are skipped whole, so a clone that took k writes is
// compared in O(k). Different storage may still hold equal entries: the
// caller compares what it cares about.
func (t *LFT) NextDiff(other *LFT, from int) (b int, mine, theirs *[LFTBlockSize]PortNum, ok bool) {
	nb := max(t.nblocks, other.nblocks)
	for b = max(from, 0); b < nb; {
		si := b / lftFanout
		end := min((si+1)*lftFanout, nb)
		if end <= t.nblocks && end <= other.nblocks && t.supers[si] == other.supers[si] {
			b = end // one shared (or doubly absent) superblock
			continue
		}
		for ; b < end; b++ {
			tb, ob := t.blockAt(b), other.blockAt(b)
			if tb == ob {
				continue
			}
			if tb != nil {
				mine = &tb.ports
			}
			if ob != nil {
				theirs = &ob.ports
			}
			return b, mine, theirs, true
		}
	}
	return nb, nil, nil, false
}

// Bytes returns a copy of the dense port array — a canonical byte
// representation for equality checks between independently computed tables.
func (t *LFT) Bytes() []byte {
	out := make([]byte, t.nblocks*LFTBlockSize)
	for b := 0; b < t.nblocks; b++ {
		for i, p := range entries(t.Block(b)) {
			out[b*LFTBlockSize+i] = byte(p)
		}
	}
	return out
}

// Equal reports whether two tables forward every LID identically. Tables of
// different lengths are compared as if the shorter were padded with
// DropPort (which is exactly how Get treats out-of-range LIDs).
func (t *LFT) Equal(o *LFT) bool {
	for b, mine, theirs, ok := t.NextDiff(o, 0); ok; b, mine, theirs, ok = t.NextDiff(o, b+1) {
		if *entries(mine) != *entries(theirs) {
			return false
		}
	}
	return true
}

// Get returns the egress port for the given LID, or DropPort if the LID is
// outside the populated range.
func (t *LFT) Get(l LID) PortNum {
	b := int(l) / LFTBlockSize
	if b >= t.nblocks {
		return DropPort
	}
	sp := t.supers[b/lftFanout]
	if sp == nil {
		return DropPort
	}
	blk := sp.blocks[b%lftFanout]
	if blk == nil {
		return DropPort
	}
	return blk.ports[int(l)%LFTBlockSize]
}

// mutableBlock returns the block with index b with this table as its
// exclusive owner, copying shared storage (or materialising nil storage)
// level by level first.
func (t *LFT) mutableBlock(b int) *lftBlock {
	g := t.gen.Load()
	si := b / lftFanout
	sp := t.supers[si]
	switch {
	case sp == nil:
		sp = &lftSuper{gen: g}
		t.supers[si] = sp
	case sp.gen != g:
		cp := &lftSuper{gen: g, blocks: sp.blocks}
		sp = cp
		t.supers[si] = cp
	}
	bi := b % lftFanout
	blk := sp.blocks[bi]
	switch {
	case blk == nil:
		blk = &lftBlock{gen: g, ports: dropBlock}
		sp.blocks[bi] = blk
	case blk.gen != g:
		cp := &lftBlock{gen: g, prov: blk.prov, ports: blk.ports}
		blk = cp
		sp.blocks[bi] = cp
	}
	return blk
}

// SetProvenance opens a write epoch: every subsequent Set that changes an
// entry stamps its block with p, until the next SetProvenance. Passing nil
// closes the epoch (subsequent writes carry no stamp). When stamping is
// disabled process-wide the call stores nil regardless, so disabled-mode
// writes never inherit a stale epoch from a cloned ancestor.
func (t *LFT) SetProvenance(p *Provenance) {
	if !provEnabled.Load() {
		t.prov = nil
		return
	}
	t.prov = p
}

// Provenance returns the table's current write epoch (nil when none open).
func (t *LFT) Provenance() *Provenance { return t.prov }

// ProvenanceOf returns the stamp of the write epoch that last touched the
// block containing LID l, or nil when the block was never stamped (never
// written, written before the provenance plane, or written with stamping
// disabled).
func (t *LFT) ProvenanceOf(l LID) *Provenance {
	blk := t.blockAt(BlockOf(l))
	if blk == nil {
		return nil
	}
	return blk.prov
}

// Set programs the egress port for a LID, growing the table if needed, and
// reports whether the entry changed: the SM sends the block of every changed
// entry to the switch and nothing else. A changed entry also stamps its block
// with the table's current provenance epoch; an unchanged one copies no
// storage.
func (t *LFT) Set(l LID, p PortNum) bool {
	t.ensure(l)
	b := BlockOf(l)
	if entries(t.Block(b))[int(l)%LFTBlockSize] == p {
		return false
	}
	blk := t.mutableBlock(b)
	blk.ports[int(l)%LFTBlockSize] = p
	blk.prov = t.prov
	return true
}

// SetRun programs a run of entries as Set does each in turn — a later
// duplicate wins, and every changed entry stamps its block with the table's
// current epoch — and appends to changed the index of each block in which
// some entry changed. It descends the radix once per group of consecutive
// entries in one block, not once per entry. When the run ascends by LID, as
// a plan's run does, the blocks come out ascending and without repeats; an
// unsorted run repeats no block twice in a row only.
func (t *LFT) SetRun(run []LFTEntry, changed []int) []int {
	for i := 0; i < len(run); {
		b := BlockOf(run[i].LID)
		t.ensure(run[i].LID)
		ports := entries(t.Block(b))
		var blk *lftBlock // this table's own copy, once an entry changes
		for ; i < len(run) && BlockOf(run[i].LID) == b; i++ {
			k := int(run[i].LID) % LFTBlockSize
			if ports[k] == run[i].Port {
				continue
			}
			if blk == nil {
				blk = t.mutableBlock(b)
				ports = &blk.ports
			}
			ports[k] = run[i].Port
		}
		if blk == nil {
			continue
		}
		blk.prov = t.prov
		if n := len(changed); n == 0 || changed[n-1] != b {
			changed = append(changed, b)
		}
	}
	return changed
}

// LFTEntry is one entry to program: LID leaves the switch through Port. It is
// the unit a migration plan lists and the SM's sparse write takes.
type LFTEntry struct {
	LID  LID
	Port PortNum
}

// Swap exchanges the entries of two LIDs, writing a block only when a value
// actually changes (two LIDs behind the same port cost nothing, section
// VI-B). This is the primitive of the paper's prepopulated-LID
// reconfiguration (section V-C1).
func (t *LFT) Swap(a, b LID) {
	pa, pb := t.Get(a), t.Get(b)
	t.Set(a, pb)
	t.Set(b, pa)
}

func (t *LFT) ensure(l LID) {
	nblocks := BlockOf(l) + 1
	if nblocks <= t.nblocks {
		return
	}
	nsupers := (nblocks + lftFanout - 1) / lftFanout
	if nsupers > len(t.supers) {
		ns := t.superSlice(nsupers)
		copy(ns, t.supers)
		t.supers = ns
	}
	t.nblocks = nblocks
}

// CopyBlockFrom overwrites one 64-entry block of t with the corresponding
// block of other, growing t as needed. The distribution engine uses it to
// publish exactly the blocks a switch acknowledged when a write ends
// partially delivered. A block whose contents actually change adopts the
// source block's provenance stamp — the entries now ARE the source writer's
// work, so attribution follows them.
func (t *LFT) CopyBlockFrom(other *LFT, block int) {
	base := block * LFTBlockSize
	t.ensure(LID(base + LFTBlockSize - 1))
	changed := false
	for i := 0; i < LFTBlockSize; i++ {
		l := LID(base + i)
		if t.Set(l, other.Get(l)) {
			changed = true
		}
	}
	if changed && provEnabled.Load() {
		// Set materialised the block under t's generation; re-stamp it with
		// the source epoch without another copy.
		t.mutableBlock(block).prov = other.ProvenanceOf(LID(base))
	}
}

// PopulatedBlocks returns the indices of blocks that contain at least one
// non-drop entry. A full reconfiguration must push every populated block,
// which is what Table I's "Min SMPs Full RC" counts per switch.
func (t *LFT) PopulatedBlocks() []int {
	var out []int
	for b, ports := t.NextBlock(0); ports != nil; b, ports = t.NextBlock(b + 1) {
		if *ports != dropBlock {
			out = append(out, b)
		}
	}
	return out
}

// TopPopulatedBlock returns the highest block index containing a non-drop
// entry, or -1 if the table is empty. Because LFT distribution writes blocks
// 0..top contiguously (a switch cannot hold a sparse table), the number of
// SMPs per switch for a full distribution is TopPopulatedBlock()+1. This is
// the effect described in section VII-C: a single node using LID 49151
// forces 768 blocks onto every switch.
func (t *LFT) TopPopulatedBlock() int {
	for b := t.nblocks - 1; b >= 0; b-- {
		if ports := t.Block(b); ports != nil && *ports != dropBlock {
			return b
		}
	}
	return -1
}

// Diff returns the block indices on which t and other differ. Growing or
// shrinking counts: blocks present in one table and populated are compared
// against implicit drop-filled blocks in the other.
func (t *LFT) Diff(other *LFT) []int {
	var out []int
	for b, mine, theirs, ok := t.NextDiff(other, 0); ok; b, mine, theirs, ok = t.NextDiff(other, b+1) {
		if *entries(mine) != *entries(theirs) {
			out = append(out, b)
		}
	}
	return out
}

// String summarises the table (for debugging and event traces).
func (t *LFT) String() string {
	return fmt.Sprintf("LFT{blocks=%d, populated=%d}", t.NumBlocks(), len(t.PopulatedBlocks()))
}
