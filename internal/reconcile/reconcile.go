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

// fleet is the cloud's placement as dense per-hypervisor tables, read once
// per goal: entry i of each describes hypervisor hyps[i], the i-th of
// Hypervisors() (ascending node IDs).
type fleet struct {
	hyps     []topology.NodeID
	leaf     []topology.NodeID // its leaf switch
	attached []int             // VFs attached to a VM
	free     []int             // free VFs (a held VF is not room)
	vms      [][]string        // VMs whose record names it, by name (placed only)
}

// fleet reads the hypervisors' leaves and VF counts.
func (p *Planner) fleet() *fleet {
	hyps := p.C.Hypervisors()
	f := &fleet{
		hyps:     hyps,
		leaf:     make([]topology.NodeID, len(hyps)),
		attached: make([]int, len(hyps)),
		free:     make([]int, len(hyps)),
	}
	for i, hn := range hyps {
		hca := p.C.Hypervisor(hn).HCA
		f.leaf[i] = p.C.SM.Topo.LeafSwitchOf(hn)
		f.attached[i], f.free[i] = hca.AttachedCount(), hca.FreeCount()
	}
	return f
}

// at is hypervisor hn's index.
func (f *fleet) at(hn topology.NodeID) int {
	i, _ := slices.BinarySearch(f.hyps, hn)
	return i
}

// placed fills in each hypervisor's VMs: the cloud's VMs, sorted by name,
// bucketed by hypervisor in one counting sort, so each bucket stays sorted.
// A bucket's capacity ends where it does: appending to one copies it.
func (f *fleet) placed(c *cloud.Cloud) *fleet {
	names := c.VMs()
	on := make([]int32, len(names))
	at := make([]int32, len(f.hyps)+1) // at[i+1] counts i's VMs, then at[i] is where they go
	for j, name := range names {
		on[j] = int32(f.at(c.VM(name).Hyp))
		at[on[j]+1]++
	}
	for i := 1; i < len(at); i++ {
		at[i] += at[i-1]
	}
	flat := make([]string, len(names))
	for j, name := range names {
		flat[at[on[j]]] = name
		at[on[j]]++ // leaves at[i] the end of i's VMs
	}
	f.vms = make([][]string, len(f.hyps))
	begin := int32(0)
	for i := range f.vms {
		f.vms[i] = flat[begin:at[i]:at[i]]
		begin = at[i]
	}
	return f
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
		at   int // in the fleet
		vms  int
		cap  int
	}
	f := p.fleet().placed(p.C)
	total, loaded := 0, 0
	for _, n := range f.attached {
		total += n
		loaded += min(n, 1)
	}
	hosts := make([]host, 0, loaded)
	for i, hn := range f.hyps {
		if n := f.attached[i]; n > 0 { // an empty host is neither a keeper (the loaded hosts' room holds every VM) nor a donor
			hosts = append(hosts, host{hn, i, n, n + f.free[i]})
		}
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
	keepers := make([]keeper, nKeep)
	for i, k := range hosts[:nKeep] {
		keepers[i] = keeper{k.node, f.leaf[k.at], k.vms, k.cap - k.vms}
	}

	var moves []cloud.Move
	for di := len(hosts) - 1; di >= nKeep; di-- { // emptiest donors first
		donor := hosts[di]
		donorLeaf := f.leaf[donor.at]
		for _, name := range f.vms[donor.at] { // sorted by name: deterministic plans
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
	f := p.fleet().placed(p.C)
	h := f.at(host)
	load, free := f.attached, f.free
	var moves []cloud.Move
	for _, name := range f.vms[h] { // sorted
		recv := -1
		recvLocal := false
		for i := range f.hyps { // ascending: the first of equals is the lowest node
			if i == h || free[i] <= 0 {
				continue
			}
			local := f.leaf[i] == f.leaf[h]
			switch {
			case recv < 0,
				local && !recvLocal,
				local == recvLocal && load[i] > load[recv]:
				recv, recvLocal = i, local
			}
		}
		if recv < 0 {
			return nil, fmt.Errorf("reconcile: draining %d is infeasible: no %w for VM %q", host, cloud.ErrNoFreeVF, name)
		}
		moves = append(moves, cloud.Move{VM: name, To: f.hyps[recv]})
		free[recv]--
		load[recv]++
	}
	return moves, nil
}

// spreadMoves levels VM counts across hypervisors to within one, moving VMs
// from the most loaded host to the least loaded (same-leaf receivers break
// ties) until balanced.
func (p *Planner) spreadMoves() []cloud.Move {
	f := p.fleet().placed(p.C) // VMs sorted by name: deterministic donations
	vmsOn := f.vms
	load := make([]int, len(vmsOn))
	for i, names := range vmsOn {
		load[i] = len(names)
	}
	var moves []cloud.Move
	for {
		maxH, minH := -1, -1
		for i := range load {
			if maxH < 0 || load[i] > load[maxH] {
				maxH = i
			}
			if minH < 0 || load[i] < load[minH] {
				minH = i
			}
		}
		if maxH < 0 || load[maxH]-load[minH] <= 1 {
			return moves
		}
		// Prefer a same-leaf receiver among the minimally loaded hosts.
		for i := range load {
			if load[i] == load[minH] && f.leaf[i] == f.leaf[maxH] && i != maxH {
				minH = i
				break
			}
		}
		names := vmsOn[maxH]
		name := names[len(names)-1]
		vmsOn[maxH] = names[:len(names)-1]
		vmsOn[minH] = append(vmsOn[minH], name)
		moves = append(moves, cloud.Move{VM: name, To: f.hyps[minH]})
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
	f := p.fleet()
	final := slices.Clone(f.attached)
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
		final[f.at(vm.Hyp)]--
		final[f.at(dst)]++
		moves = append(moves, cloud.Move{VM: name, To: dst})
	}
	for i, hn := range f.hyps {
		if cap := f.attached[i] + f.free[i]; final[i] > cap {
			return nil, fmt.Errorf("reconcile: placement overfills hypervisor %d (%d VMs, %d VFs): no %w", hn, final[i], cap, cloud.ErrNoFreeVF)
		}
	}
	return moves, nil
}
