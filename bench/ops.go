package main

import (
	"fmt"
	"math/rand"

	"ibvsim/internal/ib"
	"ibvsim/internal/shard"
	"ibvsim/internal/topology"
)

type opKind uint8

const (
	opMigrate opKind = iota
	opCreate
	opDestroy
)

// String names the op as the metric names do (api.migrate_us, ...).
func (k opKind) String() string {
	return [...]string{opMigrate: "migrate", opCreate: "create", opDestroy: "destroy"}[k]
}

// Locality classes of a migration, cheapest first: the number of switches
// whose LFT changes grows with the distance between source and destination.
const (
	classLeaf  = iota // same leaf switch
	classPod          // same pod, another leaf
	classZone         // same shard zone, another pod
	classCross        // another shard zone (two-phase in sharded mode)
)

// op is one generated lifecycle request. Hyp is the destination (migrate),
// the placement (create) or the VM's last host (destroy: the read-after-
// write target).
type op struct {
	Kind  opKind          `json:"kind"`
	VM    string          `json:"vm"`
	Hyp   topology.NodeID `json:"hyp"`
	Class uint8           `json:"class"`
}

type placement struct {
	VM  string          `json:"vm"`
	Hyp topology.NodeID `json:"hyp"`
}

// link is one flap candidate: the A-side port of a switch-to-switch link.
// Stratum is the level of the lower switch: a leaf-to-middle flap reroutes a
// different share of the fabric than a middle-to-top one, so cycles
// alternate strata and only the link within a stratum is seeded.
type link struct {
	A       topology.NodeID `json:"a"`
	B       topology.NodeID `json:"b"`
	Port    ib.PortNum      `json:"port"`
	Stratum int             `json:"stratum"`
}

// plan is everything a run feeds the program, generated from the seed
// before any window opens.
type plan struct {
	Fleet    []placement     `json:"fleet"`
	Clients  [][]op          `json:"clients,omitempty"`
	Peer     topology.NodeID `json:"peer"`
	Flush    topology.NodeID `json:"flush"` // hypervisor no client owns (migrate workloads)
	Links    []link          `json:"links,omitempty"`
	Scatters [][]placement   `json:"scatters,omitempty"`
	Strata   int             `json:"strata,omitempty"`
	Switches int             `json:"switches"`
}

// genPlan derives the run's inputs from the seed on a throwaway copy of the
// workload's topology (node IDs are a pure function of the spec). budget
// bounds the ops per client / flap cycles generated.
func genPlan(w *workload, seed int64, budget int) (*plan, error) {
	topo, err := topology.BuildXGFT(w.Spec, w.Radix)
	if err != nil {
		return nil, err
	}
	cas := topo.CAs()
	hyps := cas[1:]
	p := &plan{Peer: cas[0], Switches: topo.NumSwitches()}
	rng := rand.New(rand.NewSource(seed))
	switch w.Kind {
	case kindMigrate:
		p.Flush = hyps[len(hyps)-1]
		return p, genMigrate(w, topo, hyps[:len(hyps)-1], rng, budget, p)
	case kindFlap:
		p.Fleet = scatter(w.Fleet, hyps, rng)
		genLinks(topo, rng, budget, p)
	case kindReconcile:
		// One seeded scatter per cycle: each cycle starts from a fresh
		// random placement, so the state the planner works on — and with it
		// SMPs per move — does not settle into one of several seed-chosen
		// fixed points, as alternating defrag/spread does.
		p.Fleet = scatter(w.Fleet, hyps, rng)
		for k := 0; k < budget; k++ {
			p.Scatters = append(p.Scatters, scatter(w.Fleet, hyps, rng))
		}
	}
	return p, nil
}

// scatter draws a placement of n VMs on seeded hypervisors, at most 2 (the
// VF count) each.
func scatter(n int, hyps []topology.NodeID, rng *rand.Rand) []placement {
	used := map[topology.NodeID]int{}
	out := make([]placement, 0, n)
	for i := 0; i < n; i++ {
		h := hyps[rng.Intn(len(hyps))]
		for used[h] >= 2 {
			h = hyps[rng.Intn(len(hyps))]
		}
		used[h]++
		out = append(out, placement{VM: fmt.Sprintf("vm%04d", i), Hyp: h})
	}
	return out
}

func genLinks(topo *topology.Topology, rng *rand.Rand, cycles int, p *plan) {
	byStratum := map[int][]link{}
	for _, sw := range topo.Switches() {
		n := topo.Node(sw)
		for i := 1; i < len(n.Ports); i++ {
			peer := n.Ports[i].Peer
			if peer == topology.NoNode || peer <= sw || !topo.Node(peer).IsSwitch() {
				continue
			}
			s := n.Level
			byStratum[s] = append(byStratum[s], link{A: sw, B: peer, Port: ib.PortNum(i), Stratum: s})
		}
	}
	var strata []int
	for s := 1; s <= len(byStratum)+1; s++ {
		if len(byStratum[s]) > 0 {
			strata = append(strata, s)
		}
	}
	p.Strata = len(strata)
	for k := 0; k < cycles; k++ {
		cand := byStratum[strata[k%len(strata)]]
		l := cand[rng.Intn(len(cand))]
		for !survivesWithout(topo, l) {
			l = cand[rng.Intn(len(cand))]
		}
		l.Stratum = k % len(strata)
		p.Links = append(p.Links, l)
	}
}

// survivesWithout reports whether the fabric stays connected with the link
// down: a flap that partitions cannot be rerouted around, and the workload
// is made of operations that succeed.
func survivesWithout(topo *topology.Topology, l link) bool {
	if err := topo.SetLinkState(l.A, l.Port, false); err != nil {
		return false
	}
	ok := topo.Connected()
	if err := topo.SetLinkState(l.A, l.Port, true); err != nil {
		return false
	}
	return ok
}

// mirror is one client's model of the hypervisors and VMs it owns. The two
// clients own disjoint sets, so every generated request succeeds whatever
// the interleaving, and SMP counts do not depend on it.
type mirror struct {
	id     int
	rng    *rand.Rand
	hyps   []topology.NodeID
	free   map[topology.NodeID]int
	byLeaf map[topology.NodeID][]topology.NodeID
	byPod  map[int][]topology.NodeID
	byZone map[int][]topology.NodeID
	leafOf map[topology.NodeID]topology.NodeID
	podOf  map[topology.NodeID]int
	zoneOf map[topology.NodeID]int
	vms    []string
	at     map[string]topology.NodeID
	nextVM int
	// migrations counts the stream's migrations so far: the position in
	// classMix.
	migrations int
}

func (m *mirror) pick(pool []topology.NodeID, ok func(topology.NodeID) bool) (topology.NodeID, bool) {
	for try := 0; try < 64 && len(pool) > 0; try++ {
		h := pool[m.rng.Intn(len(pool))]
		if m.free[h] > 0 && ok(h) {
			return h, true
		}
	}
	return topology.NoNode, false
}

// destination draws a migration target of the wanted locality class,
// widening to the next class when the narrow one has no free slot (a
// 2-level fabric has no "same pod, other leaf").
func (m *mirror) destination(cur topology.NodeID, class int) (topology.NodeID, int) {
	leaf, pod, zone := m.leafOf[cur], m.podOf[cur], m.zoneOf[cur]
	for ; class <= classCross; class++ {
		var h topology.NodeID
		var ok bool
		switch class {
		case classLeaf:
			h, ok = m.pick(m.byLeaf[leaf], func(h topology.NodeID) bool { return h != cur })
		case classPod:
			h, ok = m.pick(m.byPod[pod], func(h topology.NodeID) bool { return m.leafOf[h] != leaf })
		case classZone:
			h, ok = m.pick(m.byZone[zone], func(h topology.NodeID) bool { return m.podOf[h] != pod })
		case classCross:
			h, ok = m.pick(m.hyps, func(h topology.NodeID) bool { return m.zoneOf[h] != zone })
		}
		if ok {
			return h, class
		}
	}
	// Every class exhausted (tiny fabrics): anywhere else with a free slot.
	h, _ := m.pick(m.hyps, func(h topology.NodeID) bool { return h != cur })
	return h, classCross
}

func (m *mirror) place(vm string, h topology.NodeID) {
	m.free[h]--
	m.at[vm] = h
	m.vms = append(m.vms, vm)
}

// opMix is the fixed rotation of one stream's ops, migrate 8 : create 1 :
// destroy 1, and classMix that of its migrations' locality: 3/8 leaf-local,
// 2/8 pod-local, 2/8 cross-pod within the zone, 1/8 cross-zone — the median
// sits inside the pod-local mode and the p90 inside the cross-pod one, not on
// a boundary between two modes. The mix is fixed, not drawn, so that every
// second of every seed's window holds the same mix; what the seed draws is
// which VM moves and where to.
var (
	opMix    = [10]opKind{opMigrate, opMigrate, opCreate, opMigrate, opMigrate, opMigrate, opDestroy, opMigrate, opMigrate, opMigrate}
	classMix = [8]int{classLeaf, classPod, classZone, classLeaf, classCross, classPod, classLeaf, classZone}
)

// next generates the stream's i-th op.
func (m *mirror) next(i int) op {
	switch opMix[i%len(opMix)] {
	case opCreate:
		h, _ := m.pick(m.hyps, func(topology.NodeID) bool { return true })
		vm := fmt.Sprintf("c%d-n%05d", m.id, m.nextVM)
		m.nextVM++
		m.place(vm, h)
		return op{Kind: opCreate, VM: vm, Hyp: h}
	case opDestroy:
		j := m.rng.Intn(len(m.vms))
		vm := m.vms[j]
		h := m.at[vm]
		m.vms[j] = m.vms[len(m.vms)-1]
		m.vms = m.vms[:len(m.vms)-1]
		delete(m.at, vm)
		m.free[h]++
		return op{Kind: opDestroy, VM: vm, Hyp: h}
	}
	vm := m.vms[m.rng.Intn(len(m.vms))]
	cur := m.at[vm]
	dst, class := m.destination(cur, classMix[m.migrations%len(classMix)])
	m.migrations++
	if dst == topology.NoNode {
		panic(fmt.Sprintf("ibvbench: client %d has no free VF left to migrate %s to", m.id, vm))
	}
	m.free[cur]++
	m.free[dst]--
	m.at[vm] = dst
	return op{Kind: opMigrate, VM: vm, Hyp: dst, Class: uint8(class)}
}

func genMigrate(w *workload, topo *topology.Topology, hyps []topology.NodeID, rng *rand.Rand, perClient int, p *plan) error {
	// Zones are the 4-shard partition in both control planes, so classic and
	// sharded replay the identical sequence; pods are the auto partition.
	zones, err := shard.NewPartition(topo, hyps, 4)
	if err != nil {
		return err
	}
	pods, err := shard.NewPartition(topo, hyps, 0)
	if err != nil {
		return err
	}
	mirrors := make([]*mirror, w.Clients)
	for c := range mirrors {
		mirrors[c] = &mirror{
			id: c, rng: rand.New(rand.NewSource(rng.Int63())),
			free:   map[topology.NodeID]int{},
			byLeaf: map[topology.NodeID][]topology.NodeID{},
			byPod:  map[int][]topology.NodeID{}, byZone: map[int][]topology.NodeID{},
			leafOf: map[topology.NodeID]topology.NodeID{},
			podOf:  map[topology.NodeID]int{}, zoneOf: map[topology.NodeID]int{},
			at: map[string]topology.NodeID{},
		}
	}
	// Hypervisors alternate between the clients, so each owns half of every
	// leaf, pod and zone.
	for i, h := range hyps {
		m := mirrors[i%w.Clients]
		leaf, pod, zone := topo.LeafSwitchOf(h), pods.ZoneOfHyp(h), zones.ZoneOfHyp(h)
		m.hyps = append(m.hyps, h)
		m.free[h] = 2
		m.leafOf[h], m.podOf[h], m.zoneOf[h] = leaf, pod, zone
		m.byLeaf[leaf] = append(m.byLeaf[leaf], h)
		m.byPod[pod] = append(m.byPod[pod], h)
		m.byZone[zone] = append(m.byZone[zone], h)
	}
	base := w.Fleet / w.Clients
	p.Clients = make([][]op, w.Clients)
	for c, m := range mirrors {
		for i := 0; i < base; i++ {
			h, ok := m.pick(m.hyps, func(topology.NodeID) bool { return true })
			if !ok {
				return fmt.Errorf("fleet of %d does not fit client %d's hypervisors", base, c)
			}
			vm := fmt.Sprintf("c%d-v%04d", c, i)
			m.place(vm, h)
			p.Fleet = append(p.Fleet, placement{VM: vm, Hyp: h})
		}
		ops := make([]op, perClient)
		for i := range ops {
			ops[i] = m.next(i)
		}
		p.Clients[c] = ops
	}
	return nil
}
