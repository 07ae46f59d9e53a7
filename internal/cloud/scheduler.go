package cloud

import (
	"fmt"
	"sort"
	"time"

	"ibvsim/internal/core"
	"ibvsim/internal/topology"
)

// Scheduler picks a hypervisor for a new VM.
type Scheduler interface {
	// Place returns the hypervisor, of hyps (ascending), to host the next VM.
	Place(c *Cloud, hyps []topology.NodeID) (topology.NodeID, error)
}

// FirstFit picks the lowest-numbered hypervisor with a free VF.
type FirstFit struct{}

// Place implements Scheduler.
func (FirstFit) Place(c *Cloud, hyps []topology.NodeID) (topology.NodeID, error) {
	for _, hn := range hyps {
		if c.hyps[hn].HCA.FreeVF() >= 0 {
			return hn, nil
		}
	}
	return topology.NoNode, fmt.Errorf("cloud: no hypervisor has a %w", ErrNoFreeVF)
}

// Spread picks the hypervisor with the fewest VMs (ties to the lowest node
// ID) — the availability-oriented policy.
type Spread struct{}

// Place implements Scheduler.
func (Spread) Place(c *Cloud, hyps []topology.NodeID) (topology.NodeID, error) {
	best := topology.NoNode
	bestCount := int(^uint(0) >> 1)
	for _, hn := range hyps {
		h := c.hyps[hn]
		if h.HCA.FreeVF() < 0 {
			continue
		}
		if n := len(h.HCA.AttachedVFs()); n < bestCount {
			best, bestCount = hn, n
		}
	}
	if best == topology.NoNode {
		return best, fmt.Errorf("cloud: no hypervisor has a %w", ErrNoFreeVF)
	}
	return best, nil
}

// Pack picks the most loaded hypervisor that still has a free VF — the
// consolidation-oriented policy.
type Pack struct{}

// Place implements Scheduler.
func (Pack) Place(c *Cloud, hyps []topology.NodeID) (topology.NodeID, error) {
	best := topology.NoNode
	bestCount := -1
	for _, hn := range hyps {
		h := c.hyps[hn]
		if h.HCA.FreeVF() < 0 {
			continue
		}
		if n := len(h.HCA.AttachedVFs()); n > bestCount {
			best, bestCount = hn, n
		}
	}
	if best == topology.NoNode {
		return best, fmt.Errorf("cloud: no hypervisor has a %w", ErrNoFreeVF)
	}
	return best, nil
}

// Move is one step of a defragmentation plan.
type Move struct {
	VM string
	To topology.NodeID
}

// DefragPlan computes the migrations that consolidate VMs onto the minimal
// number of hypervisors — the paper's motivating scenario for cheap
// migrations, "optimization of fragmented networks" (section V-B).
//
// The plan is keeper-based: the fullest hosts whose combined capacity covers
// every VM are kept, every other loaded host drains *completely* into them,
// and the bookkeeping credits capacity as it is consumed. This fixes two
// bugs of the earlier greedy sketch: it emitted moves between equally-loaded
// hosts (the "receiver must end up strictly fuller than the donor" rule was
// stated but never enforced), producing pointless or oscillating traffic at
// minimal occupancy; and it could leave a donor half-drained when it ran out
// of receiver space mid-host, paying migrations without freeing the host.
// Every move here leaves the receiver strictly fuller than the donor, every
// donor ends empty, and re-planning the achieved state yields no moves.
//
// Receivers are chosen leaf-local first (a donor's VM prefers a keeper under
// the same leaf switch, where a migration touches the fewest switches —
// section VI-D), then by highest current load, ties to the lowest node ID.
func (c *Cloud) DefragPlan() []Move {
	type host struct {
		node topology.NodeID
		vms  int
		cap  int
	}
	total := 0
	hosts := make([]host, 0, len(c.hypOrder))
	for _, hn := range c.hypOrder {
		h := c.hyps[hn]
		n := h.HCA.AttachedCount()
		total += n
		hosts = append(hosts, host{hn, n, n + h.HCA.FreeCount()}) // a held VF is not room
	}
	if total == 0 {
		return nil
	}
	sort.Slice(hosts, func(i, j int) bool {
		if hosts[i].vms != hosts[j].vms {
			return hosts[i].vms > hosts[j].vms // fullest first
		}
		return hosts[i].node < hosts[j].node
	})

	// Keepers: the shortest fullest-first prefix whose capacity holds every
	// VM. Everything after it drains.
	capSum, nKeep := 0, 0
	for nKeep < len(hosts) && capSum < total {
		capSum += hosts[nKeep].cap
		nKeep++
	}
	keepers := hosts[:nKeep]
	isKeeper := map[topology.NodeID]bool{}
	for _, k := range keepers {
		isKeeper[k.node] = true
	}

	// Live per-keeper bookkeeping, and each keeper's leaf switch for the
	// leaf-local preference.
	load := map[topology.NodeID]int{}
	free := map[topology.NodeID]int{}
	leaf := map[topology.NodeID]topology.NodeID{}
	for _, k := range keepers {
		load[k.node] = k.vms
		free[k.node] = k.cap - k.vms
		leaf[k.node] = c.SM.Topo.LeafSwitchOf(k.node)
	}

	vmsOn := map[topology.NodeID][]string{}
	for _, name := range c.VMs() { // sorted by name: deterministic plans
		vm := c.vms[name]
		vmsOn[vm.Hyp] = append(vmsOn[vm.Hyp], name)
	}

	var moves []Move
	for di := len(hosts) - 1; di >= nKeep; di-- { // emptiest donors first
		donor := hosts[di]
		if donor.vms == 0 || isKeeper[donor.node] {
			continue
		}
		donorLeaf := c.SM.Topo.LeafSwitchOf(donor.node)
		for _, name := range vmsOn[donor.node] {
			recv := topology.NoNode
			recvLocal := false
			for _, k := range keepers {
				if free[k.node] <= 0 {
					continue
				}
				local := leaf[k.node] == donorLeaf
				switch {
				case recv == topology.NoNode,
					local && !recvLocal,
					local == recvLocal && load[k.node] > load[recv],
					local == recvLocal && load[k.node] == load[recv] && k.node < recv:
					recv, recvLocal = k.node, local
				}
			}
			// Unreachable: total <= sum of keeper capacities by
			// construction, so a keeper with space always exists.
			if recv == topology.NoNode {
				return moves
			}
			moves = append(moves, Move{VM: name, To: recv})
			free[recv]--
			load[recv]++
		}
	}
	return moves
}

// BatchReport summarises ExecuteMoves.
type BatchReport struct {
	Reports []MigrationReport
	// Batches is the number of sequential migration waves. Moves in one
	// wave ride a single merged LFT distribution (section VI-D batching +
	// the multi-block SMP coalescing of the distribution layer).
	Batches int
	// ModelledTime sums the per-wave distribution times.
	ModelledTime time.Duration
}

// BatchError reports a batch that could not run to completion. Completed
// holds the reports of every move that was fully applied before the failure
// (the fabric reflects them); Pending lists the moves that were not.
type BatchError struct {
	Completed BatchReport
	Pending   []Move
	Err       error
}

// Error implements error.
func (e *BatchError) Error() string {
	return fmt.Sprintf("cloud: batch stopped with %d moves applied, %d pending: %v",
		len(e.Completed.Reports), len(e.Pending), e.Err)
}

// Unwrap exposes the underlying cause for errors.Is/As.
func (e *BatchError) Unwrap() error { return e.Err }

// ExecuteMoves runs a set of migrations as sequential waves. Each round
// admits every pending move whose destination has a free VF that no
// earlier-admitted move of the same wave has already reserved — the fix for
// the old batcher, which planned the whole batch against a pre-batch
// snapshot and let two moves claim the same last VF, failing mid-batch.
// Moves whose destination is currently full are deferred: capacity freed by
// this wave's own departures is credited when the next round plans. Each
// wave runs as one MigrateWave, so its LFT edits ride a single merged
// distribution. A batch that can make no progress (or fails mid-wave)
// returns the completed reports wrapped in a *BatchError.
func (c *Cloud) ExecuteMoves(moves []Move) (BatchReport, error) {
	var rep BatchReport
	seen := map[string]bool{}
	for _, mv := range moves {
		vm := c.vms[mv.VM]
		if vm == nil {
			return rep, fmt.Errorf("cloud: %w %q", ErrNoVM, mv.VM)
		}
		if seen[mv.VM] {
			return rep, fmt.Errorf("cloud: VM %q appears twice in one batch", mv.VM)
		}
		seen[mv.VM] = true
		if c.hyps[mv.To] == nil {
			return rep, fmt.Errorf("cloud: destination %d %w", mv.To, ErrNotHypervisor)
		}
		if mv.To == vm.Hyp {
			return rep, fmt.Errorf("cloud: VM %q %w %d", mv.VM, ErrSameNode, mv.To)
		}
	}
	pending := append([]Move(nil), moves...)
	for len(pending) > 0 {
		reserved := map[topology.NodeID]int{}
		var wave, rest []Move
		for _, mv := range pending {
			if reserved[mv.To] >= c.hyps[mv.To].HCA.FreeCount() {
				rest = append(rest, mv) // full now; may free up this wave
				continue
			}
			reserved[mv.To]++
			wave = append(wave, mv)
			// Merged plans under the port-255 invalidation pre-pass would
			// leave one VM's LID invalidated on switches only the *other*
			// moves' edits touch, so waves degrade to single moves there.
			if c.RC.Mitigation == core.MitigationInvalidate {
				rest = append(rest, pending[len(rest)+len(wave):]...)
				break
			}
		}
		if len(wave) == 0 {
			return rep, &BatchError{Completed: rep, Pending: pending,
				Err: fmt.Errorf("no pending destination has a %w", ErrNoFreeVF)}
		}
		wr, err := c.MigrateWave(wave)
		rep.Reports = append(rep.Reports, wr.Reports...)
		if err != nil {
			return rep, &BatchError{Completed: rep, Pending: rest, Err: err}
		}
		rep.Batches++
		rep.ModelledTime += wr.Plan.ModelledTime
		pending = rest
	}
	return rep, nil
}
