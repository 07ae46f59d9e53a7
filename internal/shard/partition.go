// Package shard partitions the fabric control plane into zones, each owned
// by one actor goroutine, with a thin coordinator routing operations. It is
// the control plane's one mechanism for serialising commands: one zone is
// the whole fabric under one actor (OpenSM's serial master), several let
// mutations with disjoint footprints run beside each other (section VI-D).
//
// Zones are derived from the fat-tree structure: hypervisors group by leaf
// switch, leaves group into pods by their lowest-numbered upper-level
// neighbour (on a 2-level fabric, where every leaf sees every spine, each
// leaf is its own group), and pod groups are folded into the requested
// number of zones. A shard actor owns its zone's hypervisors, VFs, VM
// records and the LID columns of the VMs it hosts; per-switch stripe locks
// in the SM make the resulting concurrent single-column LFT updates safe
// (each published table stays immutable — updates clone, send and commit
// under the stripe).
//
// Zone-local mutations — the common case: VM create/destroy and
// migrations within a zone — go straight to the owning shard's bounded
// queue. A cross-shard migration is the same cloud.Migration with its steps
// run on the actors that own what they touch: staged (destination VF held)
// on the target shard, detached on the source shard, committed by the
// coordinator, aborted by releasing both holds if either side fails before
// the commit. Each shard publishes its own copy-on-write snapshot after
// every mutation, and the API layer puts them under one fabric-wide root
// before the reply, so reads never block on or cross shards.
package shard

import (
	"fmt"
	"sort"

	"ibvsim/internal/topology"
)

// Zone is one partition of the fabric: a set of leaf switches, the
// hypervisors under them, and (for ownership accounting) a stripe of the
// upper-level switches.
type Zone struct {
	ID     int
	Leaves []topology.NodeID
	Hyps   []topology.NodeID
	// Uppers is this zone's stripe of the non-leaf switches. Upper-level
	// LFT columns are written by whichever shard owns the column's LID;
	// the stripe only balances ownership accounting.
	Uppers []topology.NodeID
}

// Partition maps every hypervisor (and switch) to its zone.
type Partition struct {
	Zones     []*Zone
	zoneOfHyp map[topology.NodeID]int
}

// ZoneOfHyp returns the zone owning a hypervisor (-1 if unknown).
func (p *Partition) ZoneOfHyp(n topology.NodeID) int {
	if z, ok := p.zoneOfHyp[n]; ok {
		return z
	}
	return -1
}

// NewPartition derives a partition of the given hypervisors into n zones
// (n <= 0: one zone per pod / leaf group, the "auto" mode). n is clamped
// to the number of leaf groups, so every zone owns at least one leaf, and
// exactly n zones come back.
func NewPartition(topo *topology.Topology, hyps []topology.NodeID, n int) (*Partition, error) {
	if len(hyps) == 0 {
		return nil, fmt.Errorf("shard: no hypervisors to partition")
	}

	// Group hypervisors by leaf switch.
	hypsOfLeaf := map[topology.NodeID][]topology.NodeID{}
	var leaves []topology.NodeID
	for _, h := range hyps {
		leaf := topo.LeafSwitchOf(h)
		if leaf == topology.NoNode {
			return nil, fmt.Errorf("shard: hypervisor %d has no leaf switch", h)
		}
		if _, ok := hypsOfLeaf[leaf]; !ok {
			leaves = append(leaves, leaf)
		}
		hypsOfLeaf[leaf] = append(hypsOfLeaf[leaf], h)
	}
	sort.Slice(leaves, func(i, j int) bool { return leaves[i] < leaves[j] })

	// Group leaves into pods by their lowest upper-level neighbour. On a
	// 2-level fabric every leaf connects to every spine, collapsing all
	// leaves into one group — fall back to one group per leaf there.
	anchorOf := func(leaf topology.NodeID) topology.NodeID {
		anchor := topology.NoNode
		ln := topo.Node(leaf)
		for pi := 1; pi < len(ln.Ports); pi++ {
			peer := ln.Ports[pi].Peer
			if peer == topology.NoNode {
				continue
			}
			if pn := topo.Node(peer); pn != nil && pn.IsSwitch() {
				if anchor == topology.NoNode || peer < anchor {
					anchor = peer
				}
			}
		}
		return anchor
	}
	groupIdx := map[topology.NodeID]int{} // anchor -> group index
	var groups [][]topology.NodeID
	for _, leaf := range leaves {
		a := anchorOf(leaf)
		gi, ok := groupIdx[a]
		if !ok {
			gi = len(groups)
			groupIdx[a] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], leaf)
	}
	if len(groups) == 1 && len(leaves) > 1 {
		groups = groups[:0]
		for _, leaf := range leaves {
			groups = append(groups, []topology.NodeID{leaf})
		}
	}

	// Fold the groups into n zones: contiguous chunks (pod locality) whose
	// sizes differ by at most one group.
	if n <= 0 || n > len(groups) {
		n = len(groups)
	}
	p := &Partition{zoneOfHyp: map[topology.NodeID]int{}}
	for z := 0; z < n; z++ {
		zone := &Zone{ID: z}
		for _, g := range groups[z*len(groups)/n : (z+1)*len(groups)/n] {
			for _, leaf := range g {
				zone.Leaves = append(zone.Leaves, leaf)
				zone.Hyps = append(zone.Hyps, hypsOfLeaf[leaf]...)
			}
		}
		sort.Slice(zone.Hyps, func(i, j int) bool { return zone.Hyps[i] < zone.Hyps[j] })
		for _, h := range zone.Hyps {
			p.zoneOfHyp[h] = zone.ID
		}
		p.Zones = append(p.Zones, zone)
	}

	// Stripe the upper-level switches across zones for accounting.
	leafSet := map[topology.NodeID]bool{}
	for _, leaf := range leaves {
		leafSet[leaf] = true
	}
	i := 0
	for _, sw := range topo.Switches() {
		if leafSet[sw] {
			continue
		}
		z := p.Zones[i%len(p.Zones)]
		z.Uppers = append(z.Uppers, sw)
		i++
	}
	return p, nil
}
