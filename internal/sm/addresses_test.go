package sm

import (
	"testing"

	"ibvsim/internal/ib"
	"ibvsim/internal/topology"
)

// TestAddressTablePersistent pins the table's two contracts: it is a dense
// LID -> node map across block and superblock boundaries, and a table once
// taken never changes — a later write shares every block but the one it
// lands in.
func TestAddressTablePersistent(t *testing.T) {
	var empty *AddressTable
	if empty.NodeOf(7) != topology.NoNode || empty.Len() != 0 || len(empty.Map()) != 0 {
		t.Fatal("nil table is not empty")
	}
	lids := []ib.LID{1, 63, 64, 4095, 4096, ib.MaxUnicastLID}
	tab := empty
	for i, l := range lids {
		tab = tab.with(l, topology.NodeID(i), i%2 == 1)
	}
	before := tab
	after := tab.with(64, 99, true).with(1, topology.NoNode, false)

	var seen []ib.LID
	before.Each(func(l ib.LID, n topology.NodeID, extra bool) {
		i := len(seen)
		if l != lids[i] || n != topology.NodeID(i) || extra != (i%2 == 1) || before.isExtra(l) != extra {
			t.Errorf("entry %d: LID %d node %d extra %v", i, l, n, extra)
		}
		seen = append(seen, l)
	})
	if len(seen) != len(lids) || before.Len() != len(lids) {
		t.Fatalf("table taken before the writes lists %d LIDs (Len %d), want %d", len(seen), before.Len(), len(lids))
	}
	if after.NodeOf(64) != 99 || !after.isExtra(64) || after.NodeOf(1) != topology.NoNode || after.Len() != len(lids)-1 {
		t.Errorf("after rebind and release: 64 -> %d, 1 -> %d, %d LIDs", after.NodeOf(64), after.NodeOf(1), after.Len())
	}
	if after.block(4096) != before.block(4096) || after.block(ib.MaxUnicastLID) != before.block(ib.MaxUnicastLID) {
		t.Error("a write copied a block it did not land in")
	}
	if after.block(64) == before.block(64) {
		t.Error("a write changed a published block in place")
	}
}
