package ib

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
)

func TestLIDRanges(t *testing.T) {
	cases := []struct {
		lid       LID
		unicast   bool
		multicast bool
	}{
		{LIDUnassigned, false, false},
		{MinUnicastLID, true, false},
		{0x1234, true, false},
		{MaxUnicastLID, true, false},
		{0xC000, false, true},
		{0xFFFE, false, true},
		{PermissiveLID, false, false},
	}
	for _, c := range cases {
		if got := c.lid.IsUnicast(); got != c.unicast {
			t.Errorf("LID %#x IsUnicast = %v, want %v", uint16(c.lid), got, c.unicast)
		}
		if got := c.lid.IsMulticast(); got != c.multicast {
			t.Errorf("LID %#x IsMulticast = %v, want %v", uint16(c.lid), got, c.multicast)
		}
	}
}

func TestUnicastLIDCount(t *testing.T) {
	// The paper: "only 49151 (0x0001-0xBFFF) can be used as unicast".
	if UnicastLIDCount != 49151 {
		t.Fatalf("UnicastLIDCount = %d, want 49151", UnicastLIDCount)
	}
}

// TestGIDString and TestGUIDString hold the fmt-free renderings to the fmt
// spelling they replaced, and to one allocation (the returned string).
func TestGIDString(t *testing.T) {
	g := MakeGID(DefaultGIDPrefix, 0x0002c90300a1beef)
	want := "fe80:0000:0000:0000:0002:c903:00a1:beef"
	if got := g.String(); got != want {
		t.Errorf("GID.String() = %q, want %q", got, want)
	}
	for _, g := range []GID{{}, {^GIDPrefix(0), ^GUID(0)}, {0x0123456789abcdef, 0xfedcba9876543210}, g} {
		p, q := uint64(g.Prefix), uint64(g.GUID)
		want := fmt.Sprintf("%04x:%04x:%04x:%04x:%04x:%04x:%04x:%04x",
			p>>48, p>>32&0xffff, p>>16&0xffff, p&0xffff, q>>48, q>>32&0xffff, q>>16&0xffff, q&0xffff)
		if got := g.String(); got != want {
			t.Errorf("GID.String() = %q, want %q", got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { sink = g.String() }); n != 1 {
		t.Errorf("GID.String allocates %v times, want 1", n)
	}
}

func TestGUIDString(t *testing.T) {
	if got := GUID(0xdeadbeef).String(); got != "0x00000000deadbeef" {
		t.Errorf("GUID.String() = %q", got)
	}
	for _, g := range []GUID{0, ^GUID(0), 0x0002c90300a1beef, 0x0123456789abcdef} {
		if got, want := g.String(), fmt.Sprintf("0x%016x", uint64(g)); got != want {
			t.Errorf("GUID.String() = %q, want %q", got, want)
		}
	}
	g := GUID(0x0002c90300a1beef)
	if n := testing.AllocsPerRun(100, func() { sink = g.String() }); n != 1 {
		t.Errorf("GUID.String allocates %v times, want 1", n)
	}
}

// sink keeps a measured result alive.
var sink string

func TestNodeTypeString(t *testing.T) {
	if NodeCA.String() != "CA" || NodeSwitch.String() != "Switch" || NodeRouter.String() != "Router" {
		t.Error("NodeType.String mismatch")
	}
	if NodeType(9).String() != "NodeType(9)" {
		t.Error("unknown NodeType.String mismatch")
	}
}

func TestBlockOf(t *testing.T) {
	cases := []struct {
		lid  LID
		want int
	}{
		{0, 0}, {1, 0}, {63, 0}, {64, 1}, {127, 1}, {128, 2}, {49151, 767},
	}
	for _, c := range cases {
		if got := BlockOf(c.lid); got != c.want {
			t.Errorf("BlockOf(%d) = %d, want %d", c.lid, got, c.want)
		}
	}
}

func TestMinBlocksForDenseLIDs(t *testing.T) {
	// Table I of the paper: LIDs consumed -> min LFT blocks per switch.
	cases := []struct {
		lids, blocks int
	}{
		{360, 6}, {702, 11}, {6804, 107}, {13284, 208},
		{0, 0}, {1, 1}, {63, 1}, {64, 2}, {65, 2}, {49151, 768},
	}
	for _, c := range cases {
		if got := MinBlocksForDenseLIDs(c.lids); got != c.blocks {
			t.Errorf("MinBlocksForDenseLIDs(%d) = %d, want %d", c.lids, got, c.blocks)
		}
	}
}

func TestLFTBasic(t *testing.T) {
	lft := NewLFT(100)
	if lft.NumBlocks() != 2 {
		t.Fatalf("NumBlocks = %d, want 2", lft.NumBlocks())
	}
	if lft.Get(5) != DropPort {
		t.Error("fresh LFT entry should be DropPort")
	}
	before := lft.Clone()
	if !lft.Set(5, 3) {
		t.Error("Set of a new port reported no change")
	}
	if lft.Get(5) != 3 {
		t.Error("Set/Get mismatch")
	}
	if got := lft.Diff(before); len(got) != 1 || got[0] != 0 {
		t.Errorf("Diff = %v, want [0]", got)
	}
	// Setting the same value again is no change and writes no block.
	written := lft.Clone()
	if lft.Set(5, 3) {
		t.Error("idempotent Set reported a change")
	}
	if _, _, _, ok := lft.NextDiff(written, 0); ok {
		t.Error("idempotent Set copied a block")
	}
}

func TestLFTGrowth(t *testing.T) {
	lft := NewLFT(10)
	lft.Set(500, 7)
	if lft.Get(500) != 7 {
		t.Error("growth lost value")
	}
	if lft.Get(5) != DropPort {
		t.Error("growth corrupted low entries")
	}
	if lft.NumBlocks() != BlockOf(500)+1 {
		t.Errorf("NumBlocks = %d after growth", lft.NumBlocks())
	}
	// Out-of-range reads stay safe.
	if lft.Get(40000) != DropPort {
		t.Error("out-of-range Get should be DropPort")
	}
}

func TestLFTSwapSameBlock(t *testing.T) {
	// Fig. 5: swapping LID 2 and LID 12 touches a single block.
	lft := NewLFT(63)
	lft.Set(2, 2)
	lft.Set(12, 4)
	before := lft.Clone()
	lft.Swap(2, 12)
	if lft.Get(2) != 4 || lft.Get(12) != 2 {
		t.Fatal("swap did not exchange ports")
	}
	if n := len(lft.Diff(before)); n != 1 {
		t.Errorf("swap within one block changed %d blocks, want 1", n)
	}
}

func TestLFTSwapAcrossBlocks(t *testing.T) {
	// Paper V-C1: "If the LID of VF3 ... was 64 or greater, then two SMPs
	// would need to be sent as two LFT blocks would have to be updated."
	lft := NewLFT(127)
	lft.Set(2, 2)
	lft.Set(70, 4)
	before := lft.Clone()
	lft.Swap(2, 70)
	if n := len(lft.Diff(before)); n != 2 {
		t.Errorf("cross-block swap changed %d blocks, want 2", n)
	}
}

func TestLFTSwapEqualPortsNoDirty(t *testing.T) {
	// Section VI-B: if both LIDs already exit the same port, the switch
	// needs no update at all (n' < n): the swap writes no block, so the
	// table still shares every block with its clone.
	lft := NewLFT(63)
	lft.Set(2, 2)
	lft.Set(6, 2)
	before := lft.Clone()
	lft.Swap(2, 6)
	if b, _, _, ok := lft.NextDiff(before, 0); ok {
		t.Errorf("same-port swap wrote block %d, want none", b)
	}
}

func TestLFTPopulatedAndTopBlock(t *testing.T) {
	lft := NewLFT(49151)
	if lft.TopPopulatedBlock() != -1 {
		t.Error("empty LFT should have top block -1")
	}
	lft.Set(1, 1)
	lft.Set(2, 1)
	lft.Set(3, 1)
	if got := lft.TopPopulatedBlock(); got != 0 {
		t.Errorf("TopPopulatedBlock = %d, want 0", got)
	}
	// Section VII-C: one node at the topmost LID forces 768 blocks.
	lft.Set(49151, 2)
	if got := lft.TopPopulatedBlock(); got != 767 {
		t.Errorf("TopPopulatedBlock = %d, want 767", got)
	}
	if got := len(lft.PopulatedBlocks()); got != 2 {
		t.Errorf("PopulatedBlocks = %d entries, want 2", got)
	}
}

func TestLFTDiff(t *testing.T) {
	a := NewLFT(200)
	b := NewLFT(200)
	a.Set(1, 1)
	b.Set(1, 1)
	if d := a.Diff(b); len(d) != 0 {
		t.Errorf("identical tables diff = %v", d)
	}
	b.Set(130, 5)
	if d := a.Diff(b); len(d) != 1 || d[0] != 2 {
		t.Errorf("diff = %v, want [2]", d)
	}
	// Different sizes: entries beyond the smaller table are implicit drops.
	c := NewLFT(31)
	c.Set(1, 1)
	if d := a.Diff(c); len(d) != 0 {
		t.Errorf("diff against smaller identical table = %v", d)
	}
}

// TestLFTClone pins what a writer relies on when it clones a published
// table: the copy reads like the source, neither side moves when the other
// is Set, the two share the storage neither wrote, and a clone of a table of
// up to lftInline superblocks is one allocation.
func TestLFTClone(t *testing.T) {
	for _, supers := range []int{1, lftInline, lftInline + 3} {
		src := NewLFTBlocks(supers * lftFanout)
		for b := 0; b < src.NumBlocks(); b += 5 {
			src.Set(LID(b*LFTBlockSize+b%LFTBlockSize), PortNum(b%30+1))
		}
		c := src.Clone()
		if !c.Equal(src) || c.NumBlocks() != src.NumBlocks() {
			t.Fatalf("%d superblocks: the copy reads %v, the source %v", supers, c.String(), src.String())
		}
		last := LID(src.NumBlocks()*LFTBlockSize - 1)
		src.Set(1, 7)
		src.Set(last, 9)
		if c.Get(1) == 7 || c.Get(last) == 9 {
			t.Errorf("%d superblocks: the copy moved with a later Set of the source", supers)
		}
		c.Set(LFTBlockSize, 4)
		if src.Get(LFTBlockSize) == 4 {
			t.Errorf("%d superblocks: the source moved with a later Set of the copy", supers)
		}
		var diff []int
		for b, _, _, ok := c.NextDiff(src, 0); ok; b, _, _, ok = c.NextDiff(src, b+1) {
			diff = append(diff, b)
		}
		if want := []int{0, 1, src.NumBlocks() - 1}; !slices.Equal(diff, want) {
			t.Errorf("%d superblocks: the copy's storage differs from the source at blocks %v, want %v", supers, diff, want)
		}
		if supers > lftInline {
			continue
		}
		if n := testing.AllocsPerRun(100, func() { c = src.Clone() }); n != 1 {
			t.Errorf("%d superblocks: Clone allocates %.0f times, want 1", supers, n)
		}
	}
}

func TestLFTString(t *testing.T) {
	a := NewLFT(64)
	a.Set(10, 3)
	if got := a.String(); got != "LFT{blocks=2, populated=1}" {
		t.Errorf("String = %q", got)
	}
}

// Property: Swap is an involution — swapping twice restores the table.
func TestLFTSwapInvolutionProperty(t *testing.T) {
	f := func(a, b uint16, pa, pb uint8) bool {
		la := LID(a%2000) + 1
		lb := LID(b%2000) + 1
		lft := NewLFT(2048)
		lft.Set(la, PortNum(pa))
		lft.Set(lb, PortNum(pb))
		before := [2]PortNum{lft.Get(la), lft.Get(lb)}
		lft.Swap(la, lb)
		lft.Swap(la, lb)
		return lft.Get(la) == before[0] && lft.Get(lb) == before[1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestLFTBlockIteration pins the block accessor every block-wise reader
// (Diff, Equal, Bytes, PopulatedBlocks, the auditor, the CDG walk) is built
// on: Block agrees with Get entry for entry, NextBlock visits exactly the
// materialised blocks across superblock boundaries, and NextDiff visits a
// clone's written blocks and nothing else.
func TestLFTBlockIteration(t *testing.T) {
	lft := NewLFT(300 * LFTBlockSize) // five superblocks of 64 blocks
	written := []int{0, 1, 63, 64, 130, 299}
	for _, b := range written {
		lft.Set(LID(b*LFTBlockSize+b%LFTBlockSize), PortNum(b%200+1))
	}
	for b := 0; b <= lft.NumBlocks(); b++ { // one past the end reads as DropPort too
		ports := lft.Block(b)
		for i := 0; i < LFTBlockSize; i++ {
			want := lft.Get(LID(b*LFTBlockSize + i))
			if got := entries(ports)[i]; got != want {
				t.Fatalf("Block(%d)[%d] = %d, Get says %d", b, i, got, want)
			}
		}
	}
	var visited []int
	for b, ports := lft.NextBlock(0); ports != nil; b, ports = lft.NextBlock(b + 1) {
		visited = append(visited, b)
	}
	if !sameInts(visited, written) {
		t.Fatalf("NextBlock visited %v, want %v", visited, written)
	}
	if b, ports := lft.NextBlock(300); ports != nil || b != lft.NumBlocks() {
		t.Fatalf("NextBlock past the end = %d, %v", b, ports)
	}

	clone := lft.Clone()
	clone.Set(LID(64*LFTBlockSize), 9)  // rewrites a shared block
	clone.Set(LID(200*LFTBlockSize), 9) // materialises a new one
	clone.Set(LID(320*LFTBlockSize), 9) // grows the clone past the original
	var diff []int
	for b, mine, theirs, ok := lft.NextDiff(clone, 0); ok; b, mine, theirs, ok = lft.NextDiff(clone, b+1) {
		if (mine == nil) != (lft.Block(b) == nil) || (theirs == nil) != (clone.Block(b) == nil) {
			t.Fatalf("NextDiff block %d: sides do not match Block", b)
		}
		diff = append(diff, b)
	}
	if want := []int{64, 200, 320}; !sameInts(diff, want) || !sameInts(lft.Diff(clone), want) || !sameInts(clone.Diff(lft), want) {
		t.Fatalf("NextDiff visited %v, Diff %v / %v, want %v", diff, lft.Diff(clone), clone.Diff(lft), want)
	}
	if lft.Equal(clone) || !lft.Equal(lft.Clone()) {
		t.Fatal("Equal disagrees with Diff")
	}
}
