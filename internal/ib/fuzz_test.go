package ib

import (
	"bytes"
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
