package ib

import (
	"bytes"
	"slices"
	"testing"
)

// superLIDs is how many LIDs one superblock covers.
const superLIDs = lftFanout * LFTBlockSize

// fuzzLIDs bounds the LIDs a fuzz payload sets: four superblocks, so inputs
// copy more than one superblock on write and Diff meets shared and unshared
// superblocks side by side, whatever the fanout.
const fuzzLIDs = 4 * superLIDs

// lftFromBytes decodes a fuzz payload into an LFT: each 3-byte record is a
// (LID, port) Set. LIDs are folded into the first four superblocks.
func lftFromBytes(data []byte) *LFT {
	return setFromBytes(NewLFT(63), data)
}

// setFromBytes applies a fuzz payload's Sets to t and returns it.
func setFromBytes(t *LFT, data []byte) *LFT {
	for i := 0; i+2 < len(data); i += 3 {
		l := LID(uint16(data[i])<<8|uint16(data[i+1])) % fuzzLIDs
		t.Set(l, PortNum(data[i+2]))
	}
	return t
}

// lidBytes encodes a LID as the two bytes setFromBytes reads.
func lidBytes(l int) []byte { return []byte{byte(l >> 8), byte(l)} }

// straddle is a payload setting the last LID of the first superblock and
// the first LID of the second.
func straddle(port byte) []byte {
	return append(append(lidBytes(superLIDs-1), port), append(lidBytes(superLIDs), port)...)
}

// bruteDiff is the straightforward O(blocks*64) block compare Diff must
// agree with: two blocks differ iff any of their 64 entries differ, with
// out-of-range entries reading as DropPort.
func bruteDiff(a, b *LFT) []int {
	nb := a.NumBlocks()
	if ob := b.NumBlocks(); ob > nb {
		nb = ob
	}
	var out []int
	for blk := 0; blk < nb; blk++ {
		for i := 0; i < LFTBlockSize; i++ {
			l := LID(blk*LFTBlockSize + i)
			if a.Get(l) != b.Get(l) {
				out = append(out, blk)
				break
			}
		}
	}
	return out
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func FuzzLFTDiff(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0, 1, 3}, []byte{0, 1, 4})
	f.Add([]byte{0, 200, 1, 1, 100, 2}, []byte{0, 200, 1})
	f.Add([]byte{15, 255, 7}, []byte{0, 64, 9, 15, 255, 7})
	f.Add(straddle(3), straddle(4))
	f.Add(straddle(3), append(straddle(3), append(lidBytes(3*superLIDs+5), 9)...))
	f.Fuzz(func(t *testing.T, da, db []byte) {
		a, b := lftFromBytes(da), lftFromBytes(db)
		got := a.Diff(b)
		want := bruteDiff(a, b)
		if !sameInts(got, want) {
			t.Errorf("Diff = %v, brute force = %v", got, want)
		}
		// Diff is symmetric: growth in either direction compares against
		// implicit drop-filled blocks.
		if rev := b.Diff(a); !sameInts(rev, want) {
			t.Errorf("Diff not symmetric: %v vs %v", rev, want)
		}
		// A table never differs from itself or its clone.
		if d := a.Diff(a); len(d) != 0 {
			t.Errorf("self-diff = %v", d)
		}
		if d := a.Clone().Diff(a); len(d) != 0 {
			t.Errorf("clone-diff = %v", d)
		}
		// Copy-on-write isolation: b's Sets made on a clone of a leave a
		// byte for byte as it was, and the clone differs from a exactly
		// where the brute force says.
		before := a.Bytes()
		c := setFromBytes(a.Clone(), db)
		if !bytes.Equal(a.Bytes(), before) {
			t.Fatal("Sets on a clone changed its source")
		}
		if got, want := c.Diff(a), bruteDiff(c, a); !sameInts(got, want) {
			t.Errorf("clone Diff = %v, brute force = %v", got, want)
		}
	})
}

func FuzzLFTSwap(f *testing.F) {
	f.Add([]byte{0, 1, 3, 0, 2, 4}, uint16(1), uint16(2))
	f.Add([]byte{0, 1, 3}, uint16(1), uint16(1))
	f.Add([]byte{0, 1, 3, 1, 0, 5}, uint16(1), uint16(256))
	f.Add(straddle(3), uint16(superLIDs-1), uint16(superLIDs))
	f.Add(append(straddle(3), append(lidBytes(3*superLIDs), 7)...), uint16(superLIDs), uint16(3*superLIDs))
	f.Fuzz(func(t *testing.T, data []byte, ra, rb uint16) {
		lft := lftFromBytes(data)
		a, b := LID(ra%fuzzLIDs), LID(rb%fuzzLIDs)
		pa, pb := lft.Get(a), lft.Get(b)
		orig := lft.Clone()
		origBytes := orig.Bytes()

		// One swap exchanges exactly the two entries.
		lft.Swap(a, b)
		if lft.Get(a) != pb || lft.Get(b) != pa {
			t.Fatalf("Swap(%d,%d): got (%d,%d), want (%d,%d)",
				a, b, lft.Get(a), lft.Get(b), pb, pa)
		}
		for _, blk := range bruteDiff(lft, orig) {
			if blk != BlockOf(a) && blk != BlockOf(b) {
				t.Fatalf("swap touched unrelated block %d (a in %d, b in %d)",
					blk, BlockOf(a), BlockOf(b))
			}
		}

		// The prepopulated-LID migration relies on the swap being its own
		// inverse: applying it twice restores the original table.
		lft.Swap(a, b)
		if d := lft.Diff(orig); len(d) != 0 {
			t.Fatalf("double swap is not identity: differing blocks %v", d)
		}
		// Neither swap reached the clone taken before them.
		if !bytes.Equal(orig.Bytes(), origBytes) {
			t.Fatal("swaps on the source changed its clone")
		}
	})
}

// runFromBytes decodes a fuzz payload into a run of entries, 3 bytes each
// as setFromBytes reads them, arranged by shape: 0 as decoded (unsorted,
// repeats anywhere), 1 stably sorted by LID (repeats adjacent, the later
// one last), 2 sorted with every entry preceded by a duplicate of another
// port, which the entry must override.
func runFromBytes(data []byte, shape byte) []LFTEntry {
	var run []LFTEntry
	for i := 0; i+2 < len(data); i += 3 {
		l := LID(uint16(data[i])<<8|uint16(data[i+1])) % fuzzLIDs
		run = append(run, LFTEntry{LID: l, Port: PortNum(data[i+2])})
	}
	if shape%3 == 0 {
		return run
	}
	slices.SortStableFunc(run, func(a, b LFTEntry) int { return int(a.LID) - int(b.LID) })
	if shape%3 == 1 {
		return run
	}
	doubled := make([]LFTEntry, 0, 2*len(run))
	for _, e := range run {
		doubled = append(doubled, LFTEntry{LID: e.LID, Port: e.Port ^ 1}, e)
	}
	return doubled
}

// FuzzSetRun: writing a run block by block is writing it entry by entry —
// the same table, the same changed blocks in the same order, the same
// provenance on every block — on a clone, whose source does not move.
func FuzzSetRun(f *testing.F) {
	f.Add([]byte{}, []byte{0, 1, 3}, byte(0))
	f.Add([]byte{0, 1, 3}, []byte{0, 1, 3, 0, 2, 4}, byte(1))
	f.Add([]byte{0, 1, 3, 0, 200, 5}, []byte{0, 200, 1, 0, 1, 4, 0, 200, 5}, byte(0))
	f.Add(straddle(3), append(straddle(4), straddle(3)...), byte(2))
	f.Add([]byte{15, 255, 7}, append(append(lidBytes(3*superLIDs+5), 9), 15, 255, 7, 0, 64, 9), byte(1))
	f.Add([]byte{0, 70, 5}, []byte{0, 1, 3, 0, 70, 5, 0, 2, 4}, byte(0)) // block 0 changed, block 1 not, block 0 again
	f.Fuzz(func(t *testing.T, base, data []byte, shape byte) {
		p0 := &Provenance{Mutation: NextMutationID(), Reason: "base"}
		p1 := &Provenance{Mutation: NextMutationID(), Reason: "run"}
		src := NewLFT(63)
		src.SetProvenance(p0)
		setFromBytes(src, base)
		before := src.Bytes()
		run := runFromBytes(data, shape)

		want := src.Clone()
		want.SetProvenance(p1)
		var wantBlocks []int
		for _, e := range run {
			if b := BlockOf(e.LID); want.Set(e.LID, e.Port) && (len(wantBlocks) == 0 || wantBlocks[len(wantBlocks)-1] != b) {
				wantBlocks = append(wantBlocks, b)
			}
		}
		got := src.Clone()
		got.SetProvenance(p1)
		gotBlocks := got.SetRun(run, nil)

		if !slices.Equal(gotBlocks, wantBlocks) {
			t.Errorf("SetRun changed blocks %v, per-entry Set %v", gotBlocks, wantBlocks)
		}
		if got.NumBlocks() != want.NumBlocks() || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("SetRun table differs from per-entry Set (%d vs %d blocks)", got.NumBlocks(), want.NumBlocks())
		}
		for b := 0; b < want.NumBlocks(); b++ {
			if g, w := got.ProvenanceOf(LID(b*LFTBlockSize)), want.ProvenanceOf(LID(b*LFTBlockSize)); g != w {
				t.Fatalf("block %d stamped %+v, per-entry Set %+v", b, g, w)
			}
		}
		if !bytes.Equal(src.Bytes(), before) {
			t.Fatal("SetRun on a clone changed its source")
		}
	})
}
