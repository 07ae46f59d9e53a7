package reconcile

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"ibvsim/internal/cloud"
	"ibvsim/internal/sriov"
	"ibvsim/internal/topology"
)

// The goals' move lists as they were computed before the fleet became dense
// per-hypervisor tables — maps keyed by node, the VM list walked per goal —
// kept verbatim but for their doc comments as the oracle the dense ones must
// match move for move.

func (p *Planner) refDefragMoves() []cloud.Move {
	type host struct {
		node topology.NodeID
		vms  int
		cap  int
	}
	total := 0
	hosts := make([]host, 0, len(p.C.Hypervisors()))
	for _, hn := range p.C.Hypervisors() {
		hca := p.C.Hypervisor(hn).HCA
		n := hca.AttachedCount()
		if n == 0 {
			continue // neither a keeper (the loaded hosts' room holds every VM) nor a donor
		}
		total += n
		hosts = append(hosts, host{hn, n, n + hca.FreeCount()}) // a held VF is not room
	}
	if total == 0 {
		return nil
	}
	slices.SortFunc(hosts, func(a, b host) int {
		if a.vms != b.vms {
			return b.vms - a.vms // fullest first
		}
		return cmp.Compare(a.node, b.node)
	})

	// Keepers: the shortest fullest-first prefix whose capacity holds every
	// VM. Everything after it drains; total <= the keepers' capacity, so a
	// keeper with space exists for every donated VM.
	capSum, nKeep := 0, 0
	for nKeep < len(hosts) && capSum < total {
		capSum += hosts[nKeep].cap
		nKeep++
	}

	// Live per-keeper bookkeeping, and each keeper's leaf switch for the
	// leaf-local preference, in keeper order.
	type keeper struct {
		node, leaf topology.NodeID
		load, free int
	}
	leafOf := p.C.SM.Topo.LeafSwitchOf
	keepers := make([]keeper, nKeep)
	for i, k := range hosts[:nKeep] {
		keepers[i] = keeper{k.node, leafOf(k.node), k.vms, k.cap - k.vms}
	}

	vmsOn := map[topology.NodeID][]string{}
	for _, name := range p.C.VMs() { // sorted by name: deterministic plans
		hn := p.C.VM(name).Hyp
		vmsOn[hn] = append(vmsOn[hn], name)
	}

	var moves []cloud.Move
	for di := len(hosts) - 1; di >= nKeep; di-- { // emptiest donors first
		donor := hosts[di]
		donorLeaf := leafOf(donor.node)
		for _, name := range vmsOn[donor.node] {
			recv := -1
			recvLocal := false
			for i := range keepers {
				k := &keepers[i]
				if k.free <= 0 {
					continue
				}
				local := k.leaf == donorLeaf
				switch {
				case recv < 0,
					local && !recvLocal,
					local == recvLocal && k.load > keepers[recv].load,
					local == recvLocal && k.load == keepers[recv].load && k.node < keepers[recv].node:
					recv, recvLocal = i, local
				}
			}
			moves = append(moves, cloud.Move{VM: name, To: keepers[recv].node})
			keepers[recv].free--
			keepers[recv].load++
		}
	}
	return moves
}

func (p *Planner) refDrainMoves(host topology.NodeID) ([]cloud.Move, error) {
	if p.C.Hypervisor(host) == nil {
		return nil, fmt.Errorf("reconcile: drain target %d %w", host, cloud.ErrNotHypervisor)
	}
	hostLeaf := p.C.SM.Topo.LeafSwitchOf(host)
	load := map[topology.NodeID]int{}
	free := map[topology.NodeID]int{}
	for _, hn := range p.C.Hypervisors() {
		h := p.C.Hypervisor(hn)
		load[hn] = h.HCA.AttachedCount()
		free[hn] = h.HCA.FreeCount() // a held VF is not room
	}
	var moves []cloud.Move
	for _, name := range p.C.VMs() { // sorted
		vm := p.C.VM(name)
		if vm.Hyp != host {
			continue
		}
		recv := topology.NoNode
		recvLocal := false
		for _, hn := range p.C.Hypervisors() {
			if hn == host || free[hn] <= 0 {
				continue
			}
			local := p.C.SM.Topo.LeafSwitchOf(hn) == hostLeaf
			switch {
			case recv == topology.NoNode,
				local && !recvLocal,
				local == recvLocal && load[hn] > load[recv],
				local == recvLocal && load[hn] == load[recv] && hn < recv:
				recv, recvLocal = hn, local
			}
		}
		if recv == topology.NoNode {
			return nil, fmt.Errorf("reconcile: draining %d is infeasible: no %w for VM %q", host, cloud.ErrNoFreeVF, name)
		}
		moves = append(moves, cloud.Move{VM: name, To: recv})
		free[recv]--
		load[recv]++
	}
	return moves, nil
}

func (p *Planner) refSpreadMoves() []cloud.Move {
	load := map[topology.NodeID]int{}
	vmsOn := map[topology.NodeID][]string{}
	for _, hn := range p.C.Hypervisors() {
		load[hn] = 0
	}
	for _, name := range p.C.VMs() { // sorted: deterministic donations
		vm := p.C.VM(name)
		load[vm.Hyp]++
		vmsOn[vm.Hyp] = append(vmsOn[vm.Hyp], name)
	}
	var moves []cloud.Move
	for {
		maxH, minH := topology.NoNode, topology.NoNode
		for _, hn := range p.C.Hypervisors() {
			if maxH == topology.NoNode || load[hn] > load[maxH] {
				maxH = hn
			}
			if minH == topology.NoNode || load[hn] < load[minH] {
				minH = hn
			}
		}
		if maxH == topology.NoNode || load[maxH]-load[minH] <= 1 {
			return moves
		}
		// Prefer a same-leaf receiver among the minimally loaded hosts.
		donorLeaf := p.C.SM.Topo.LeafSwitchOf(maxH)
		for _, hn := range p.C.Hypervisors() {
			if load[hn] == load[minH] && p.C.SM.Topo.LeafSwitchOf(hn) == donorLeaf && hn != maxH {
				minH = hn
				break
			}
		}
		names := vmsOn[maxH]
		name := names[len(names)-1]
		vmsOn[maxH] = names[:len(names)-1]
		vmsOn[minH] = append(vmsOn[minH], name)
		moves = append(moves, cloud.Move{VM: name, To: minH})
		load[maxH]--
		load[minH]++
	}
}

func (p *Planner) refPlacementMoves(want map[string]topology.NodeID) ([]cloud.Move, error) {
	if len(want) == 0 {
		return nil, fmt.Errorf("reconcile: empty placement map")
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)

	// Final feasibility: every host's end load must fit its VF count.
	final := map[topology.NodeID]int{}
	for _, hn := range p.C.Hypervisors() {
		final[hn] = p.C.VMCountOn(hn)
	}
	var moves []cloud.Move
	for _, name := range names {
		vm := p.C.VM(name)
		if vm == nil {
			return nil, fmt.Errorf("reconcile: %w %q", cloud.ErrNoVM, name)
		}
		dst := want[name]
		if p.C.Hypervisor(dst) == nil {
			return nil, fmt.Errorf("reconcile: placement of %q: %d %w", name, dst, cloud.ErrNotHypervisor)
		}
		if dst == vm.Hyp {
			continue
		}
		final[vm.Hyp]--
		final[dst]++
		moves = append(moves, cloud.Move{VM: name, To: dst})
	}
	for _, hn := range p.C.Hypervisors() {
		if cap := p.C.VMCountOn(hn) + p.C.Hypervisor(hn).HCA.FreeCount(); final[hn] > cap {
			return nil, fmt.Errorf("reconcile: placement overfills hypervisor %d (%d VMs, %d VFs): no %w", hn, final[hn], cap, cloud.ErrNoFreeVF)
		}
	}
	return moves, nil
}

// TestGoalsMatchReference: on seeded fleets — VMs scattered at random, some
// VFs held — every goal's move list, and every refusal, is the reference's.
func TestGoalsMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		c := testCloud(t, sriov.VSwitchDynamic)
		rng := rand.New(rand.NewSource(seed))
		hyps := c.Hypervisors()
		for i, n := 0, rng.Intn(2*len(hyps)); i < n; i++ {
			hn := hyps[rng.Intn(len(hyps))]
			if c.Hypervisor(hn).HCA.FreeCount() == 0 {
				continue
			}
			if _, err := c.CreateVMOn(fmt.Sprintf("vm-%02d", rng.Intn(100)), hn); err != nil && !errors.Is(err, cloud.ErrExists) {
				t.Fatal(err)
			}
		}
		for i := rng.Intn(3); i > 0; i-- { // a VF an abandoned migration left held
			hca := c.Hypervisor(hyps[rng.Intn(len(hyps))]).HCA
			if vf := hca.FreeVF(); vf >= 0 {
				hca.Hold(vf)
			}
		}
		p := &Planner{C: c}
		what := fmt.Sprintf("seed %d", seed)
		same := func(goal string, got, want []cloud.Move, gerr, werr error) {
			t.Helper()
			if fmt.Sprint(gerr) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s: moves %v (err %v), reference %v (err %v)", what, goal, got, gerr, want, werr)
			}
		}
		same("defrag", p.defragMoves(), p.refDefragMoves(), nil, nil)
		same("spread", p.spreadMoves(), p.refSpreadMoves(), nil, nil)
		for _, hn := range hyps {
			got, gerr := p.drainMoves(hn)
			want, werr := p.refDrainMoves(hn)
			same(fmt.Sprintf("drain:%d", hn), got, want, gerr, werr)
		}
		want := map[string]topology.NodeID{}
		for _, name := range c.VMs() {
			if rng.Intn(2) == 0 {
				want[name] = hyps[rng.Intn(len(hyps))]
			}
		}
		if len(want) > 0 {
			got, gerr := p.placementMoves(want)
			ref, werr := p.refPlacementMoves(want)
			same("placement", got, ref, gerr, werr)
		}
	}
}
