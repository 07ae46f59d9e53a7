// Package reconcile turns the cloud's imperative migration primitives into
// a declarative placement layer: clients state a *desired placement* — an
// explicit VM→hypervisor map or a goal like drain(host), defrag or spread —
// and the planner diffs it against current state, then compiles an ordered
// sequence of migration waves that reaches it.
//
// The plan minimises reconfiguration cost along the paper's axes: moves are
// ordered leaf-local first (a section VI-D intra-leaf migration touches the
// fewest switches), each wave's LFT edits are merged into one distribution
// (so edits sharing a switch's 64-LID block cost one SMP — section VI-B's
// n' < n effect compounded across moves), and waves are packed as large as
// destination-VF capacity allows, so a whole defragmentation costs a few
// distribution waves instead of one per VM.
//
// Cost prediction runs against a shadow copy of the fabric (LFT overlays +
// LID ownership + VF occupancy), so wave N+1 is planned on the state wave N
// leaves behind, and a dry run reports exactly the SMP counts an apply
// would: the planner replicates the distribution layer's block-run
// coalescing over its predicted per-switch edits.
package reconcile

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"ibvsim/internal/cloud"
	"ibvsim/internal/core"
	"ibvsim/internal/topology"
)

// Goal is a declarative placement objective.
type Goal string

const (
	// GoalDefrag consolidates VMs onto the minimal number of hypervisors
	// (the paper's "optimization of fragmented networks", section V-B).
	GoalDefrag Goal = "defrag"
	// GoalSpread levels VM counts across all hypervisors to within one.
	GoalSpread Goal = "spread"
	// GoalDrain empties one hypervisor (Spec.Host), e.g. for maintenance.
	GoalDrain Goal = "drain"
	// GoalPlacement applies an explicit VM→hypervisor map (Spec.Placement).
	GoalPlacement Goal = "placement"
)

// Spec is a desired placement.
type Spec struct {
	Goal Goal
	// Host is the hypervisor to empty under GoalDrain.
	Host topology.NodeID
	// Placement is the explicit map under GoalPlacement. VMs not listed
	// stay where they are.
	Placement map[string]topology.NodeID
}

// ParseGoal parses the goal DSL used on the wire: "defrag", "spread",
// "drain:<node>" (also accepted as "drain(<node>)"), where <node> is decimal
// digits naming a NodeID.
func ParseGoal(s string) (Spec, error) {
	switch {
	case s == string(GoalDefrag):
		return Spec{Goal: GoalDefrag}, nil
	case s == string(GoalSpread):
		return Spec{Goal: GoalSpread}, nil
	case strings.HasPrefix(s, "drain:"), strings.HasPrefix(s, "drain("):
		arg, ok := strings.CutPrefix(s, "drain:")
		if !ok {
			arg, ok = strings.CutSuffix(s[len("drain("):], ")")
		}
		n, err := strconv.ParseInt(arg, 10, 32)
		if !ok || err != nil || strings.Trim(arg, "0123456789") != "" {
			return Spec{}, fmt.Errorf("reconcile: bad drain host in %q (want drain:<node> or drain(<node>))", s)
		}
		return Spec{Goal: GoalDrain, Host: topology.NodeID(n)}, nil
	default:
		return Spec{}, fmt.Errorf("reconcile: unknown goal %q (want defrag, spread or drain:<node>)", s)
	}
}

// Move is one planned migration, annotated for reporting.
type Move struct {
	VM       string
	From, To topology.NodeID
	// Wave is the index of the distribution wave the move rides.
	Wave int
	// LeafLocal marks moves that stay under one leaf switch — the cheapest
	// reconfigurations (section VI-D); the planner schedules them first.
	LeafLocal bool
}

// StepCost is the predicted cost of one wave, in the same vocabulary as the
// control plane's per-mutation CostReports.
type StepCost struct {
	SwitchesUpdated  int
	LFTSMPs          int
	InvalidationSMPs int
	HostSMPs         int
	Modelled         time.Duration
}

func (c *StepCost) add(o StepCost) {
	c.SwitchesUpdated += o.SwitchesUpdated
	c.LFTSMPs += o.LFTSMPs
	c.InvalidationSMPs += o.InvalidationSMPs
	c.HostSMPs += o.HostSMPs
	c.Modelled += o.Modelled
}

// Plan is a compiled reconciliation: ordered waves plus their predicted
// costs. Converged means the desired placement already holds.
//
// Waves lists each wave's moves; Staged holds the same waves as the planner
// staged them against its shadow — the migrations and the merged plan it
// costed. An apply runs Staged[i] with Cloud.BindWave and Cloud.RunWave, in
// order, on the fabric the plan was made on, so what it sends is what was
// predicted; Cloud.MigrateWaveProv(Waves[i]) re-stages a wave live instead.
type Plan struct {
	Goal      Goal
	Moves     []Move
	Waves     [][]cloud.Move
	Staged    []cloud.Wave
	Predicted []StepCost // one per wave
	Total     StepCost
	Edits     int // LFT entries the waves' merged plans rewrite in all
	Converged bool
}

// Planner compiles placement specs against a cloud.
type Planner struct {
	C *cloud.Cloud
}

// Plan diffs the spec's desired placement against current state and
// compiles the migration waves. The cloud is not mutated.
func (p *Planner) Plan(spec Spec) (*Plan, error) {
	moves, err := p.desired(spec)
	if err != nil {
		return nil, err
	}
	plan := &Plan{Goal: spec.Goal}
	if len(moves) == 0 {
		plan.Converged = true
		return plan, nil
	}

	// Order: leaf-local moves first, then by VM name — deterministic, and
	// the early waves are the cheap intra-leaf reconfigurations.
	leaf := func(n topology.NodeID) topology.NodeID { return p.C.SM.Topo.LeafSwitchOf(n) }
	ann := make([]Move, 0, len(moves))
	for _, mv := range moves {
		vm := p.C.VM(mv.VM)
		if vm == nil {
			return nil, fmt.Errorf("reconcile: %w %q", cloud.ErrNoVM, mv.VM)
		}
		ann = append(ann, Move{
			VM:        mv.VM,
			From:      vm.Hyp,
			To:        mv.To,
			LeafLocal: leaf(vm.Hyp) == leaf(mv.To),
		})
	}
	sort.Slice(ann, func(i, j int) bool {
		if ann[i].LeafLocal != ann[j].LeafLocal {
			return ann[i].LeafLocal
		}
		return ann[i].VM < ann[j].VM
	})

	// Group into waves — a move is admitted once its destination has an
	// unreserved free VF in the *shadow* state, so capacity freed by earlier
	// waves is credited — and predict each wave's cost on the shadow fabric.
	sh := newShadow(p.C)
	pending := ann
	for len(pending) > 0 {
		reserved := map[topology.NodeID]int{}
		var wave []Move
		var rest []Move
		for i, mv := range pending {
			if reserved[mv.To] >= sh.hca(mv.To).FreeCount() {
				rest = append(rest, mv)
				continue
			}
			reserved[mv.To]++
			wave = append(wave, mv)
			if p.C.RC.Mitigation == core.MitigationInvalidate {
				// Merged multi-move distributions are illegal under the
				// port-255 pre-pass; degrade to single-move waves.
				rest = append(rest, pending[i+1:]...)
				break
			}
		}
		if len(wave) == 0 {
			// Every pending destination is full and its occupants are
			// waiting too: the moves wait on each other in a cycle (a pure
			// swap is the smallest). Park one VM of a cycle on a spare VF
			// — a wave of its own — and let it move on once its slot frees.
			i := onCycle(pending)
			spare, ok := p.spareVF(sh, pending[i].From)
			if !ok {
				return nil, fmt.Errorf("reconcile: placement infeasible: no pending destination has a %w (%d moves stuck)", cloud.ErrNoFreeVF, len(pending))
			}
			park := pending[i]
			park.To, park.LeafLocal = spare, leaf(park.From) == leaf(spare)
			wave = []Move{park}
			rest[i].From, rest[i].LeafLocal = spare, leaf(spare) == leaf(rest[i].To) // rest holds all of pending, in order
		}
		cm := make([]cloud.Move, len(wave))
		for i, mv := range wave {
			cm[i] = cloud.Move{VM: mv.VM, To: mv.To}
		}
		staged, cost, err := p.simulateWave(sh, cm)
		if err != nil {
			return nil, err
		}
		for i := range wave {
			wave[i].Wave = len(plan.Waves)
		}
		plan.Moves = append(plan.Moves, wave...)
		plan.Waves = append(plan.Waves, cm)
		plan.Staged = append(plan.Staged, staged)
		plan.Predicted = append(plan.Predicted, cost)
		plan.Total.add(cost)
		pending = rest
	}
	plan.Edits = sh.edits
	return plan, nil
}

// onCycle returns the index of a stuck move that lies on a cycle of moves
// each waiting for the next one's VF. The caller guarantees every pending
// destination is full; the final placement fits, so each such host has a
// pending leaver, and following leavers must revisit a move.
func onCycle(pending []Move) int {
	leaver := map[topology.NodeID]int{}
	for i := len(pending) - 1; i >= 0; i-- {
		leaver[pending[i].From] = i
	}
	seen := map[int]bool{}
	i := 0
	for !seen[i] {
		seen[i] = true
		next, ok := leaver[pending[i].To]
		if !ok {
			break
		}
		i = next
	}
	return i
}

// spareVF picks a hypervisor with a free VF in the shadow state to park a
// VM from src on: under src's leaf if there is one (the cheapest move),
// else the lowest-numbered.
func (p *Planner) spareVF(sh *shadow, src topology.NodeID) (topology.NodeID, bool) {
	best := topology.NoNode
	srcLeaf := p.C.SM.Topo.LeafSwitchOf(src)
	for _, hn := range p.C.Hypervisors() {
		if sh.hca(hn).FreeCount() == 0 {
			continue
		}
		if p.C.SM.Topo.LeafSwitchOf(hn) == srcLeaf {
			return hn, true
		}
		if best == topology.NoNode {
			best = hn
		}
	}
	return best, best != topology.NoNode
}

// desired computes the move list that realises the spec.
func (p *Planner) desired(spec Spec) ([]cloud.Move, error) {
	switch spec.Goal {
	case GoalDefrag:
		return p.defragMoves(), nil
	case GoalDrain:
		return p.drainMoves(spec.Host)
	case GoalSpread:
		return p.spreadMoves(), nil
	case GoalPlacement:
		return p.placementMoves(spec.Placement)
	default:
		return nil, fmt.Errorf("reconcile: unknown goal %q", spec.Goal)
	}
}

// defragMoves consolidates VMs onto the minimal number of hypervisors — the
// paper's motivating scenario for cheap migrations, "optimization of
// fragmented networks" (section V-B).
//
// The plan is keeper-based: the fullest hosts whose combined capacity covers
// every VM are kept, every other loaded host drains *completely* into them,
// and the bookkeeping credits capacity as it is consumed. Every move leaves
// the receiver strictly fuller than the donor (no moves between
// equally-loaded hosts, so no oscillation at minimal occupancy), every donor
// ends empty (no migrations paid for a host that stays occupied), and
// re-planning the achieved state yields no moves.
//
// Receivers are chosen leaf-local first (a donor's VM prefers a keeper under
// the same leaf switch, where a migration touches the fewest switches —
// section VI-D), then by highest current load, ties to the lowest node ID.
func (p *Planner) defragMoves() []cloud.Move {
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

// drainMoves empties one hypervisor, packing its VMs onto the remaining
// hosts: same-leaf receivers first, then the most loaded host with space.
func (p *Planner) drainMoves(host topology.NodeID) ([]cloud.Move, error) {
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

// spreadMoves levels VM counts across hypervisors to within one, moving VMs
// from the most loaded host to the least loaded (same-leaf receivers break
// ties) until balanced.
func (p *Planner) spreadMoves() []cloud.Move {
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

// placementMoves validates an explicit map and returns the diff against
// current placement.
func (p *Planner) placementMoves(want map[string]topology.NodeID) ([]cloud.Move, error) {
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
