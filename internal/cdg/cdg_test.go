package cdg

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ibvsim/internal/ib"
	"ibvsim/internal/topology"
)

func ch(n, p int) Channel { return Channel{Node: topology.NodeID(n), Port: ib.PortNum(p)} }

func TestIndexRoundTrip(t *testing.T) {
	topo, err := topology.BuildRing(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	ix := NewIndex(topo)
	seen := map[int32]bool{}
	for _, sw := range topo.Switches() {
		for p := range topo.Node(sw).Ports {
			c := Channel{Node: sw, Port: ib.PortNum(p)}
			id := ix.ID(c)
			if id < 0 || int(id) >= ix.NumIDs() || seen[id] {
				t.Fatalf("ID(%v) = %d: out of range or reused", c, id)
			}
			seen[id] = true
			if back := ix.Channel(id); back != c {
				t.Fatalf("Channel(ID(%v)) = %v", c, back)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("ID of a CA channel should panic")
		}
	}()
	ix.ID(Channel{Node: topo.CAs()[0], Port: 1})
}

// fullMesh links n switches all to all and returns the fabric's Index with
// hop(s, t), the channel from switch s to switch t. Any walk over the mesh
// is a chain of physical dependencies: hop(s,t) -> hop(t,u).
func fullMesh(t *testing.T, n int) (*Index, func(s, t int) Channel) {
	t.Helper()
	topo := topology.New("mesh")
	for i := 0; i < n; i++ {
		topo.AddSwitch(n, fmt.Sprintf("s%d", i))
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if _, _, err := topo.Link(topology.NodeID(a), topology.NodeID(b)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return NewIndex(topo), func(s, d int) Channel {
		return Channel{Node: topology.NodeID(s), Port: topo.PortToward(topology.NodeID(s), topology.NodeID(d))}
	}
}

func TestAddRemoveDep(t *testing.T) {
	ix, hop := fullMesh(t, 6)
	g := NewGraph(ix)
	a, b := hop(0, 1), hop(1, 2)
	if !g.AddDep(a, b) {
		t.Error("first AddDep should report new")
	}
	if g.AddDep(a, b) {
		t.Error("second AddDep should not be new")
	}
	if g.NumEdges() != 1 || g.NumChannels() != 2 {
		t.Errorf("edges=%d channels=%d", g.NumEdges(), g.NumChannels())
	}
	g.RemoveDep(a, b)
	if g.NumEdges() != 0 {
		t.Error("a Graph is a set: one removal removes the edge however often it was added")
	}
	// Removing a non-existent edge is a no-op.
	g.RemoveDep(a, b)
	g.RemoveDep(a, hop(1, 3))
	if g.HasCycle() {
		t.Error("empty graph has no cycle")
	}
	// A removed arc's slot is reused and successor order stays insertion order.
	g.AddDep(a, hop(1, 3))
	g.AddDep(a, hop(1, 4))
	g.RemoveDep(a, hop(1, 3))
	g.AddDep(a, hop(1, 5))
	if len(g.out.arcs) != 2 {
		t.Errorf("arena holds %d arcs, want 2 (freed slot reused)", len(g.out.arcs))
	}
	var succ []Channel
	for i := g.out.head[ix.ID(a)]; i >= 0; i = g.out.arcs[i].next {
		succ = append(succ, ix.Channel(g.out.arcs[i].to))
	}
	if fmt.Sprint(succ) != fmt.Sprint([]Channel{hop(1, 4), hop(1, 5)}) {
		t.Errorf("successors of a = %v, want [hop(1,4) hop(1,5)]", succ)
	}
	g.Reset()
	if g.NumEdges() != 0 || g.NumChannels() != 0 || g.HasCycle() || !g.AddDep(a, b) {
		t.Error("Reset should empty the graph")
	}
	// A dependency no packet can have is a caller bug, not an edge.
	defer func() {
		if recover() == nil {
			t.Error("hop(0,1) -> hop(2,3) skips a switch and should panic")
		}
	}()
	g.AddDep(hop(0, 1), hop(2, 3))
}

func TestFindCycleSimple(t *testing.T) {
	ix, hop := fullMesh(t, 4)
	g := NewGraph(ix)
	a, b, c := hop(1, 2), hop(2, 3), hop(3, 1)
	g.AddDep(a, b)
	g.AddDep(b, c)
	if g.HasCycle() {
		t.Fatal("chain should be acyclic")
	}
	g.AddDep(c, a)
	cyc := g.FindCycle()
	if cyc == nil {
		t.Fatal("triangle should have a cycle")
	}
	if cyc[0] != cyc[len(cyc)-1] {
		t.Errorf("cycle should close on itself: %v", cyc)
	}
	if len(cyc) != 4 {
		t.Errorf("triangle cycle length = %d, want 4 (a,b,c,a)", len(cyc))
	}
	// The shortest physical cycle: there and back again.
	g2 := NewGraph(ix)
	g2.AddDep(hop(0, 1), hop(1, 0))
	g2.AddDep(hop(1, 0), hop(0, 1))
	if got := g2.FindCycle(); len(got) != 3 {
		t.Errorf("two-cycle = %v", got)
	}
}

// TestFindCycleVisitingOrder pins the documented contract: roots ascend by
// id, successors go in first-insertion order, and the reported cycle starts
// at the target of the first back edge met.
func TestFindCycleVisitingOrder(t *testing.T) {
	ix, hop := fullMesh(t, 8)
	g := NewGraph(ix)
	// Two cycles: 5 <-> 6 and 1 -> 3 -> 2 -> 1. The root on switch 1 is
	// tried first; from it the successor added first (towards 7, a dead
	// end) goes before the one towards 2.
	g.AddDep(hop(5, 6), hop(6, 5))
	g.AddDep(hop(6, 5), hop(5, 6))
	g.AddDep(hop(1, 3), hop(3, 7))
	g.AddDep(hop(1, 3), hop(3, 2))
	g.AddDep(hop(3, 2), hop(2, 1))
	g.AddDep(hop(2, 1), hop(1, 3))
	want := []Channel{hop(1, 3), hop(3, 2), hop(2, 1), hop(1, 3)}
	for round := 0; round < 2; round++ { // the second search reuses the scratch
		got := g.FindCycle()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("round %d: cycle = %v, want %v", round, got, want)
		}
	}
}

func TestFindCycleDisconnectedComponents(t *testing.T) {
	ix, hop := fullMesh(t, 6)
	g := NewGraph(ix)
	// Acyclic component.
	g.AddDep(hop(0, 1), hop(1, 2))
	// Cyclic component elsewhere.
	g.AddDep(hop(4, 5), hop(5, 4))
	g.AddDep(hop(5, 4), hop(4, 5))
	if !g.HasCycle() {
		t.Error("cycle in second component not found")
	}
}

func TestChannelString(t *testing.T) {
	c := Channel{Node: 3, Port: 7}
	if c.String() != "ch(3:7)" {
		t.Errorf("String = %q", c.String())
	}
}

// oracle is the test-only reference CDG: a hash set of edges and a recursive
// cycle search, sharing nothing with the package's dense storage.
type oracle map[[2]Channel]bool

func (o oracle) hasCycle() bool {
	succ := map[Channel][]Channel{}
	for e := range o {
		succ[e[0]] = append(succ[e[0]], e[1])
	}
	state := map[Channel]int{} // 1 = on the current path, 2 = finished
	var visit func(c Channel) bool
	visit = func(c Channel) bool {
		state[c] = 1
		for _, n := range succ[c] {
			if state[n] == 1 || state[n] == 0 && visit(n) {
				return true
			}
		}
		state[c] = 2
		return false
	}
	for c := range succ {
		if state[c] == 0 && visit(c) {
			return true
		}
	}
	return false
}

// switchEdges returns the oracle's edges whose source is a switch channel.
func (o oracle) switchEdges(t *topology.Topology) oracle {
	out := oracle{}
	for e := range o {
		if t.Node(e[0].Node).IsSwitch() {
			out[e] = true
		}
	}
	return out
}

// edgesOf lists a Graph's distinct dependencies.
func edgesOf(g *Graph) oracle {
	out := oracle{}
	for a, i := range g.out.head {
		for ; i >= 0; i = g.out.arcs[i].next {
			out[[2]Channel{g.ix.Channel(int32(a)), g.ix.Channel(g.out.arcs[i].to)}] = true
		}
	}
	return out
}

// BuildFromLFTs is the complete CDG of a routing, straight from the
// definition and port by port: for each destination and each switch that
// routes it, dependencies run from every ingress channel that can carry
// traffic for that destination into the switch — injection channels of
// attached CAs, and channels of neighbouring switches whose own route for
// the destination points at this switch — to the switch's egress channel.
// Slow and obviously right: the oracle Walk is checked against.
func BuildFromLFTs(t *topology.Topology, r Routes, dlids []ib.LID) oracle {
	route := func(sw topology.NodeID, dlid ib.LID) ib.PortNum {
		if lft := r.LFT(sw); lft != nil {
			return lft.Get(dlid)
		}
		return ib.DropPort
	}
	g := oracle{}
	for _, dlid := range dlids {
		dst := r.NodeOf(dlid)
		if dst == topology.NoNode {
			continue
		}
		for _, swID := range t.Switches() {
			if swID == dst {
				continue
			}
			out := route(swID, dlid)
			if out == ib.DropPort || out == 0 {
				continue
			}
			sw := t.Node(swID)
			if int(out) >= len(sw.Ports) || sw.Ports[out].Peer == topology.NoNode {
				continue
			}
			egress := Channel{Node: swID, Port: out}
			for i := 1; i < len(sw.Ports); i++ {
				p := sw.Ports[i]
				if p.Peer == topology.NoNode || !p.Up || p.Peer == dst {
					continue // the destination consumes, it never forwards or injects
				}
				if !t.Node(p.Peer).IsSwitch() || route(p.Peer, dlid) == p.PeerPort {
					g[[2]Channel{{Node: p.Peer, Port: p.PeerPort}, egress}] = true
				}
			}
		}
	}
	return g
}

// tablesOf materialises a routing function as one LFT per switch.
func tablesOf(t *topology.Topology, owner map[ib.LID]topology.NodeID,
	route func(sw topology.NodeID, dlid ib.LID) ib.PortNum) Tables {
	lfts := map[topology.NodeID]*ib.LFT{}
	for _, sw := range t.Switches() {
		lfts[sw] = ib.NewLFT(ib.LID(len(owner)))
		for l := range owner {
			lfts[sw].Set(l, route(sw, l))
		}
	}
	return Tables{
		Table: func(sw topology.NodeID) *ib.LFT { return lfts[sw] },
		Owner: func(l ib.LID) topology.NodeID {
			if n, ok := owner[l]; ok {
				return n
			}
			return topology.NoNode
		},
	}
}

// caLIDs gives every CA of t a LID, 1 upwards.
func caLIDs(t *topology.Topology) (map[ib.LID]topology.NodeID, []ib.LID) {
	owner := map[ib.LID]topology.NodeID{}
	var dlids []ib.LID
	for i, ca := range t.CAs() {
		owner[ib.LID(i+1)] = ca
		dlids = append(dlids, ib.LID(i+1))
	}
	return owner, dlids
}

// clockwiseRing routes a ring always forward through port 1, which is
// famously cyclic in its channel dependencies.
func clockwiseRing(t *testing.T) (*topology.Topology, Tables, []ib.LID) {
	topo, err := topology.BuildRing(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	owner, dlids := caLIDs(topo)
	return topo, tablesOf(topo, owner, func(sw topology.NodeID, dlid ib.LID) ib.PortNum {
		if p := topo.PortToward(sw, owner[dlid]); p != 0 {
			return p
		}
		return 1
	}), dlids
}

// hubStar routes a three-leaf star through its hub, which is acyclic.
func hubStar(t *testing.T) (*topology.Topology, Tables, []ib.LID) {
	topo := topology.New("star")
	hub := topo.AddSwitch(8, "hub")
	for i := 0; i < 3; i++ {
		leaf := topo.AddSwitch(4, "leaf")
		if _, _, err := topo.Link(hub, leaf); err != nil {
			t.Fatal(err)
		}
		if _, _, err := topo.Link(topo.AddCA("ca"), leaf); err != nil {
			t.Fatal(err)
		}
	}
	owner, dlids := caLIDs(topo)
	return topo, tablesOf(topo, owner, func(sw topology.NodeID, dlid ib.LID) ib.PortNum {
		dst := owner[dlid]
		if p := topo.PortToward(sw, dst); p != 0 {
			return p
		}
		if sw == hub {
			return topo.PortToward(hub, topo.LeafSwitchOf(dst))
		}
		return topo.PortToward(sw, hub)
	}), dlids
}

func TestBuildFromLFTsRingHasCycle(t *testing.T) {
	topo, r, dlids := clockwiseRing(t)
	if !BuildFromLFTs(topo, r, dlids).hasCycle() || !BuildSwitchCDG(topo, r, dlids).HasCycle() {
		t.Error("clockwise ring routing must have a cyclic CDG")
	}
	// Unrouted LIDs and unknown destinations are skipped without panic.
	if len(BuildFromLFTs(topo, r, []ib.LID{999})) != 0 || BuildSwitchCDG(topo, r, []ib.LID{999}).NumEdges() != 0 {
		t.Error("unknown LID should add no edges")
	}
}

func TestBuildFromLFTsStarAcyclic(t *testing.T) {
	topo, r, dlids := hubStar(t)
	g := BuildSwitchCDG(topo, r, dlids)
	if BuildFromLFTs(topo, r, dlids).hasCycle() || g.HasCycle() {
		t.Errorf("star routing should be deadlock free; cycle: %v", g.FindCycle())
	}
	if g.NumEdges() == 0 {
		t.Error("expected some dependencies")
	}
}

// checkAgainstOracle holds BuildSwitchCDG to the contract it exists under:
// its edge set is exactly the complete graph's minus the edges sourced at CA
// injection channels, its cycle verdict is the complete graph's, and any
// cycle it reports is a closed walk over real dependencies.
func checkAgainstOracle(t *testing.T, name string, topo *topology.Topology, r Routes, dlids []ib.LID) (cyclic bool) {
	t.Helper()
	full := BuildFromLFTs(topo, r, dlids)
	want := full.switchEdges(topo)
	g := BuildSwitchCDG(topo, r, dlids)
	got := edgesOf(g)
	for e := range got {
		if !want[e] {
			t.Errorf("%s: edge %v->%v is not a dependency of the routes", name, e[0], e[1])
		}
	}
	for e := range want {
		if !got[e] {
			t.Errorf("%s: switch-switch dependency %v->%v missing", name, e[0], e[1])
		}
	}
	if g.NumEdges() != len(want) {
		t.Errorf("%s: NumEdges = %d, want %d", name, g.NumEdges(), len(want))
	}
	cyc := g.FindCycle()
	if (cyc != nil) != full.hasCycle() || (cyc != nil) != want.hasCycle() {
		t.Errorf("%s: cyclic=%v, complete graph %v, its switch restriction %v",
			name, cyc != nil, full.hasCycle(), want.hasCycle())
	}
	if cyc != nil {
		if len(cyc) < 2 || cyc[0] != cyc[len(cyc)-1] {
			t.Errorf("%s: cycle %v does not close", name, cyc)
		}
		for i := 0; i+1 < len(cyc); i++ {
			if !want[[2]Channel{cyc[i], cyc[i+1]}] {
				t.Errorf("%s: cycle step %v->%v is not a dependency of the routes", name, cyc[i], cyc[i+1])
			}
		}
	}
	return cyc != nil
}

func TestBuildSwitchCDGCycleEquivalence(t *testing.T) {
	topo, r, dlids := clockwiseRing(t)
	if !checkAgainstOracle(t, "ring", topo, r, dlids) {
		t.Error("switch-only CDG of the clockwise ring must be cyclic")
	}
	star, sr, sdlids := hubStar(t)
	if checkAgainstOracle(t, "star", star, sr, sdlids) {
		t.Error("star switch-only CDG should be acyclic")
	}
}

// randomRoutes routes every CA and every switch of t along shortest paths
// over its up links with seeded random tie-breaks (so rings and tori come
// out cyclic, trees acyclic), then overwrites `corrupt` random entries with
// arbitrary values: the management port, DropPort, ports that lead to CAs,
// down or unconnected ports, ports the switch does not have.
func randomRoutes(t *topology.Topology, rng *rand.Rand, corrupt int) (Tables, []ib.LID) {
	owner := map[ib.LID]topology.NodeID{}
	var dlids []ib.LID
	for _, n := range t.Nodes() {
		owner[ib.LID(n.ID)+1] = n.ID
		dlids = append(dlids, ib.LID(n.ID)+1)
	}
	routes := map[[2]int32]ib.PortNum{}
	for _, dlid := range dlids {
		dst := owner[dlid]
		root := dst
		if !t.Node(dst).IsSwitch() {
			root = t.LeafSwitchOf(dst)
		}
		if root == topology.NoNode {
			continue // its only link is down
		}
		dist := t.SwitchHopDistances(root)
		for _, sw := range t.Switches() {
			var cands []ib.PortNum
			for _, p := range t.Node(sw).Ports[1:] {
				if p.Peer == topology.NoNode || !p.Up {
					continue
				}
				if p.Peer == dst || sw != dst && dist[sw] > 0 &&
					t.Node(p.Peer).IsSwitch() && dist[p.Peer] == dist[sw]-1 {
					cands = append(cands, p.Num)
				}
			}
			switch {
			case sw == dst:
				routes[[2]int32{int32(sw), int32(dlid)}] = 0
			case len(cands) > 0:
				routes[[2]int32{int32(sw), int32(dlid)}] = cands[rng.Intn(len(cands))]
			}
		}
	}
	sws := t.Switches()
	for i := 0; i < corrupt; i++ {
		sw := sws[rng.Intn(len(sws))]
		v := ib.PortNum(rng.Intn(len(t.Node(sw).Ports) + 2))
		if rng.Intn(8) == 0 {
			v = ib.DropPort
		}
		routes[[2]int32{int32(sw), int32(dlids[rng.Intn(len(dlids))])}] = v
	}
	return tablesOf(t, owner, func(sw topology.NodeID, dlid ib.LID) ib.PortNum {
		if p, ok := routes[[2]int32{int32(sw), int32(dlid)}]; ok {
			return p
		}
		return ib.DropPort
	}), dlids
}

// failLinks takes n random switch-to-switch links down.
func failLinks(t *topology.Topology, rng *rand.Rand, n int) {
	sws := t.Switches()
	for n > 0 {
		sw := t.Node(sws[rng.Intn(len(sws))])
		p := sw.Ports[1+rng.Intn(len(sw.Ports)-1)]
		if p.Peer == topology.NoNode || !p.Up || !t.Node(p.Peer).IsSwitch() {
			continue
		}
		t.SetLinkState(sw.ID, p.Num, false) //nolint:errcheck // the port was just seen connected
		n--
	}
}

// TestBuildSwitchCDGAgainstOracle is the differential that lets the old
// builders go: on seeded random routings of five fabric families — intact,
// routed around failed links, routed and then losing links (stale entries
// pointing out of down ports), each with and without corrupted entries —
// Walk + Graph agree with the definition-level oracle edge for edge and
// verdict for verdict, and every reported cycle checks out step by step.
func TestBuildSwitchCDGAgainstOracle(t *testing.T) {
	fabrics := []struct {
		name  string
		build func(seed int64) (*topology.Topology, error)
	}{
		{"ring", func(int64) (*topology.Topology, error) { return topology.BuildRing(6, 1) }},
		{"torus", func(int64) (*topology.Topology, error) { return topology.BuildTorus2D(3, 4, 1) }},
		{"random", func(seed int64) (*topology.Topology, error) { return topology.BuildRandom(12, 8, 6, 1, seed) }},
		{"xgft", func(int64) (*topology.Topology, error) {
			return topology.BuildXGFT(topology.XGFTSpec{M: []int{4, 4}, W: []int{1, 4}}, 8)
		}},
		{"fattree", func(int64) (*topology.Topology, error) { return topology.BuildPaperFatTree(324) }},
	}
	verdicts := map[bool]int{}
	for _, f := range fabrics {
		for _, links := range []string{"intact", "routed-around", "stale"} {
			for _, corrupt := range []int{0, 12} {
				for seed := int64(1); seed <= 3; seed++ {
					topo, err := f.build(seed)
					if err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(seed))
					if links == "routed-around" {
						failLinks(topo, rng, 2)
					}
					r, dlids := randomRoutes(topo, rng, corrupt)
					if links == "stale" {
						failLinks(topo, rng, 2)
					}
					name := fmt.Sprintf("%s/%s/corrupt=%d/seed=%d", f.name, links, corrupt, seed)
					verdicts[checkAgainstOracle(t, name, topo, r, dlids)]++
				}
			}
		}
	}
	if verdicts[true] < 10 || verdicts[false] < 10 {
		t.Errorf("verdict mix %v: the differential should see plenty of both", verdicts)
	}
}

// TestCheckTransitionMatchesSeparateGraphs checks the one-graph transition
// check against three independently built oracles on the random routings
// above: Rold and Rnew are two differently seeded routings of one fabric.
func TestCheckTransitionMatchesSeparateGraphs(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		var topo *topology.Topology
		var err error
		if seed%2 == 0 {
			topo, err = topology.BuildTorus2D(3, 3, 1)
		} else {
			topo, err = topology.BuildXGFT(topology.XGFTSpec{M: []int{4, 4}, W: []int{1, 4}}, 8)
		}
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		old, dlids := randomRoutes(topo, rng, 0)
		next, _ := randomRoutes(topo, rng, int(seed%3)*4)
		gOld, gNew := BuildFromLFTs(topo, old, dlids), BuildFromLFTs(topo, next, dlids)
		union := oracle{}
		for e := range gOld {
			union[e] = true
		}
		for e := range gNew {
			union[e] = true
		}
		tr := CheckTransition(topo, old, next, dlids)
		// A caller's long-lived graph gives the same answer, whatever an
		// earlier check left in it.
		kept := NewGraph(NewIndex(topo))
		kept.AddRoutes(next, dlids)
		for round := 0; round < 2; round++ {
			if again := kept.CheckTransition(old, next, dlids); !reflect.DeepEqual(again, tr) {
				t.Errorf("seed %d: reused graph, round %d: %+v, fresh graph %+v", seed, round, again, tr)
			}
		}
		if tr.OldAcyclic == gOld.hasCycle() || tr.NewAcyclic == gNew.hasCycle() || tr.UnionAcyclic == union.hasCycle() {
			t.Errorf("seed %d: got old/new/union acyclic %v/%v/%v, oracle cyclic %v/%v/%v", seed,
				tr.OldAcyclic, tr.NewAcyclic, tr.UnionAcyclic, gOld.hasCycle(), gNew.hasCycle(), union.hasCycle())
		}
		if tr.OldEdges != len(gOld.switchEdges(topo)) || tr.UnionEdges != len(union.switchEdges(topo)) {
			t.Errorf("seed %d: edges old=%d union=%d, oracle %d/%d", seed, tr.OldEdges, tr.UnionEdges,
				len(gOld.switchEdges(topo)), len(union.switchEdges(topo)))
		}
		if (tr.Cycle == nil) != tr.UnionAcyclic {
			t.Errorf("seed %d: Cycle=%v with UnionAcyclic=%v", seed, tr.Cycle, tr.UnionAcyclic)
		}
		for i := 0; i+1 < len(tr.Cycle); i++ {
			if !union[[2]Channel{tr.Cycle[i], tr.Cycle[i+1]}] {
				t.Errorf("seed %d: union cycle step %v->%v is in neither routing", seed, tr.Cycle[i], tr.Cycle[i+1])
			}
		}
	}
}
