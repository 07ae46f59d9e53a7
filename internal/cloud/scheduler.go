package cloud

import (
	"fmt"

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

// Move is one migration of a batch: a reconcile plan's wave is a list of
// them, run by MigrateWaveProv.
type Move struct {
	VM string
	To topology.NodeID
}
