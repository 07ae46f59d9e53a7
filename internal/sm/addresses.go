package sm

import (
	"ibvsim/internal/ib"
	"ibvsim/internal/topology"
)

// addrFan is both the number of LIDs in an address block and the number of
// blocks in a superblock — the two-level layout ib.LFT has, for the same
// reason: a write copies one block, one superblock and the root, whatever
// the size of the subnet.
const addrFan = 64

// addrBlock is the owners of 64 consecutive LIDs.
type addrBlock struct {
	owner [addrFan]int32 // node ID + 1; 0 = nobody owns the LID
	extra uint64         // bit per LID: an additional (VF) LID, not a node's own
}

// AddressTable is the subnet's LID → node map, base and additional LIDs
// alike, as a persistent value: dense, indexed by LID, and never written
// after it is published. The SM replaces its table on every address change
// by a copy that shares all but the path to the changed LID, so whoever holds
// a table — an API snapshot, an auditor — holds the addresses of one instant
// for free and reads them without a lock. A nil table is empty.
type AddressTable struct {
	supers [(1 << 16) / addrFan / addrFan]*[addrFan]*addrBlock
	n      int // LIDs owned
}

// block returns the block holding l (nil when none of its LIDs is owned).
func (t *AddressTable) block(l ib.LID) *addrBlock {
	if t == nil {
		return nil
	}
	if sp := t.supers[int(l)/addrFan/addrFan]; sp != nil {
		return sp[int(l)/addrFan%addrFan]
	}
	return nil
}

// NodeOf returns the node that owns l, or topology.NoNode.
func (t *AddressTable) NodeOf(l ib.LID) topology.NodeID {
	if blk := t.block(l); blk != nil {
		return topology.NodeID(blk.owner[int(l)%addrFan] - 1)
	}
	return topology.NoNode
}

// isExtra reports whether l is owned as an additional (VF) LID.
func (t *AddressTable) isExtra(l ib.LID) bool {
	blk := t.block(l)
	return blk != nil && blk.extra>>(int(l)%addrFan)&1 == 1
}

// Len returns the number of owned LIDs.
func (t *AddressTable) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Each calls fn for every owned LID in ascending order.
func (t *AddressTable) Each(fn func(l ib.LID, node topology.NodeID, extra bool)) {
	if t == nil {
		return
	}
	for si, sp := range t.supers {
		if sp == nil {
			continue
		}
		for bi, blk := range sp {
			if blk == nil {
				continue
			}
			for i, o := range blk.owner {
				if o != 0 {
					fn(ib.LID((si*addrFan+bi)*addrFan+i), topology.NodeID(o-1), blk.extra>>i&1 == 1)
				}
			}
		}
	}
}

// Map materialises the table, for consumers that need a map.
func (t *AddressTable) Map() map[ib.LID]topology.NodeID {
	out := make(map[ib.LID]topology.NodeID, t.Len())
	t.Each(func(l ib.LID, n topology.NodeID, _ bool) { out[l] = n })
	return out
}

// with returns the table in which node owns l (topology.NoNode: nobody
// does), sharing every block but l's with t.
func (t *AddressTable) with(l ib.LID, node topology.NodeID, extra bool) *AddressTable {
	next := &AddressTable{}
	if t != nil {
		*next = *t
	}
	si, bi, i := int(l)/addrFan/addrFan, int(l)/addrFan%addrFan, int(l)%addrFan
	sp := new([addrFan]*addrBlock)
	if old := next.supers[si]; old != nil {
		*sp = *old
	}
	blk := new(addrBlock)
	if old := sp[bi]; old != nil {
		*blk = *old
	}
	if blk.owner[i] != 0 {
		next.n--
	}
	blk.owner[i], blk.extra = int32(node)+1, blk.extra&^(1<<i)
	if node != topology.NoNode {
		next.n++
		if extra {
			blk.extra |= 1 << i
		}
	}
	sp[bi], next.supers[si] = blk, sp
	return next
}
