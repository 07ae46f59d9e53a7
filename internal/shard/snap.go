package shard

import (
	"cmp"
	"slices"

	"ibvsim/internal/cloud"
	"ibvsim/internal/topology"
)

// VMState is one VM row of a snapshot: a copy of the cloud's record, never
// written after the snapshot holding it is published.
type VMState = cloud.VM

// HypState is one hypervisor row of a snapshot.
type HypState struct {
	Node     topology.NodeID
	VFs      int
	Attached int
	Free     int // unattached, unheld VFs
}

// Snap is the rows of one zone — its VMs and its hypervisors — at one
// generation, as a persistent value: Next derives the snapshot after a
// command by reading again the rows the command names and sharing every
// other row with its predecessor, so publishing costs what the command
// touched, not the zone. A shard actor publishes its zone's; the API's fabric
// snapshot is a list of them. Nothing reachable from a published Snap is
// ever written.
type Snap struct {
	Shard   int
	Gen     uint64
	FreeVFs int // unattached, unheld VFs across the zone

	zone []topology.NodeID // the zone's hypervisors, ascending; fixed
	vms  rows[string, VMState]
	hyps rows[topology.NodeID, HypState]
}

// Empty returns the snapshot of a zone — the given hypervisors, ascending —
// before anything was read: no row yet. Every snapshot descends from one by
// Next; a full rebuild is Next over Empty with every VM name and every
// hypervisor touched.
func Empty(shard int, hyps []topology.NodeID) *Snap {
	return &Snap{
		Shard: shard,
		zone:  hyps,
		vms:   rows[string, VMState]{key: func(vm *VMState) string { return vm.Name }},
		hyps:  rows[topology.NodeID, HypState]{key: func(h *HypState) topology.NodeID { return h.Node }},
	}
}

// NumVMs returns the number of VM rows.
func (sn *Snap) NumVMs() int { return sn.vms.n }

// VM returns the row of the named VM, or nil.
func (sn *Snap) VM(name string) *VMState { return sn.vms.get(name) }

// EachVM calls fn on every VM row, in name order.
func (sn *Snap) EachVM(fn func(*VMState)) { sn.vms.each(fn) }

// NumHyps returns the number of hypervisor rows.
func (sn *Snap) NumHyps() int { return sn.hyps.n }

// EachHyp calls fn on every hypervisor row, in node order.
func (sn *Snap) EachHyp(fn func(*HypState)) { sn.hyps.each(fn) }

// Next derives the zone's snapshot at gen from sn. The named VMs are read
// again through vm — which answers nil for a VM that is gone, or is not this
// zone's to show — and the named hypervisors from c; every other row, and
// every re-read row that did not change, is shared with sn. Names may repeat
// and come in any order; hypervisors outside the zone are ignored. It
// returns the number of rows read. Only the goroutine that owns the named
// rows in the cloud may call it.
func (sn *Snap) Next(c *cloud.Cloud, vm func(name string) *cloud.VM, gen uint64, vms []string, hyps []topology.NodeID) (*Snap, int) {
	next := *sn
	next.Gen = gen
	names := sortedSet(vms)
	next.vms = sn.vms.patch(names, func(name string) (VMState, bool) {
		if now := vm(name); now != nil {
			return *now, true
		}
		return VMState{}, false
	})
	nodes := sortedSet(hyps)
	nodes = slices.DeleteFunc(nodes, func(node topology.NodeID) bool {
		_, ours := slices.BinarySearch(sn.zone, node)
		return !ours
	})
	next.hyps = sn.hyps.patch(nodes, func(node topology.NodeID) (HypState, bool) {
		hca := c.Hypervisor(node).HCA
		now := HypState{Node: node, VFs: hca.NumVFs(), Attached: hca.AttachedCount(), Free: hca.FreeCount()}
		if was := sn.hyps.get(node); was != nil {
			next.FreeVFs -= was.Free
		}
		next.FreeVFs += now.Free
		return now, true
	})
	return &next, len(names) + len(nodes)
}

// sortedSet returns a copy of xs, ascending and without repeats.
func sortedSet[T cmp.Ordered](xs []T) []T {
	xs = slices.Clone(xs)
	slices.Sort(xs)
	return slices.Compact(xs)
}
