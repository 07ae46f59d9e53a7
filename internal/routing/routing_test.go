package routing

import (
	"strings"
	"testing"

	"ibvsim/internal/cdg"
	"ibvsim/internal/ib"
	"ibvsim/internal/topology"
)

// reqFor assigns sequential LIDs to every CA and switch of a topology,
// CAs first (matching the dense assignment the SM performs).
func reqFor(t *testing.T, topo *topology.Topology) *Request {
	t.Helper()
	req := &Request{Topo: topo}
	lid := ib.LID(1)
	for _, ca := range topo.CAs() {
		req.Targets = append(req.Targets, Target{LID: lid, Node: ca})
		lid++
	}
	for _, sw := range topo.Switches() {
		req.Targets = append(req.Targets, Target{LID: lid, Node: sw})
		lid++
	}
	return req
}

// newLFTRoutes presents a Result as cdg.Routes for deadlock analysis.
func newLFTRoutes(req *Request, res *Result) cdg.Routes {
	m := map[ib.LID]topology.NodeID{}
	for _, t := range req.Targets {
		m[t.LID] = t.Node
	}
	return cdg.Tables{
		Table: func(sw topology.NodeID) *ib.LFT { return res.LFTs[sw] },
		Owner: func(l ib.LID) topology.NodeID {
			if n, ok := m[l]; ok {
				return n
			}
			return topology.NoNode
		},
	}
}

func engines() []Engine {
	return []Engine{NewMinHop(), NewUpDown(), NewFatTree(), NewDFSSSP(), NewLASH()}
}

func TestNewByName(t *testing.T) {
	for _, name := range Names() {
		e, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if e.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, e.Name())
		}
	}
	if _, err := New("bogus"); err == nil {
		t.Error("unknown engine should fail")
	}
}

func TestRequestValidate(t *testing.T) {
	topo, _ := topology.BuildRing(3, 1)
	ca := topo.CAs()[0]
	cases := []struct {
		name string
		req  *Request
	}{
		{"nil topo", &Request{}},
		{"no targets", &Request{Topo: topo}},
		{"bad lid", &Request{Topo: topo, Targets: []Target{{LID: 0, Node: ca}}}},
		{"multicast lid", &Request{Topo: topo, Targets: []Target{{LID: 0xC001, Node: ca}}}},
		{"dup lid", &Request{Topo: topo, Targets: []Target{{LID: 1, Node: ca}, {LID: 1, Node: ca}}}},
		{"missing node", &Request{Topo: topo, Targets: []Target{{LID: 1, Node: 999}}}},
	}
	for _, c := range cases {
		if err := c.req.Validate(); err == nil {
			t.Errorf("%s: Validate should fail", c.name)
		}
	}
}

func TestAllEnginesDeliverOnFatTree(t *testing.T) {
	topo, err := topology.BuildXGFT(topology.XGFTSpec{M: []int{4, 4}, W: []int{1, 4}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	req := reqFor(t, topo)
	for _, e := range engines() {
		res, err := e.Compute(req)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if err := Verify(req, res); err != nil {
			t.Errorf("%s: %v", e.Name(), err)
		}
		if res.Stats.PathsComputed == 0 || res.Stats.Duration <= 0 {
			t.Errorf("%s: empty stats %+v", e.Name(), res.Stats)
		}
	}
}

func TestAllEnginesDeliverOnPaper324(t *testing.T) {
	if testing.Short() {
		t.Skip("324-node fabric")
	}
	topo, err := topology.BuildPaperFatTree(324)
	if err != nil {
		t.Fatal(err)
	}
	req := reqFor(t, topo)
	for _, e := range engines() {
		res, err := e.Compute(req)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if err := VerifySampled(req, res, 6); err != nil {
			t.Errorf("%s: %v", e.Name(), err)
		}
	}
}

func TestTopologyAgnosticEnginesOnIrregular(t *testing.T) {
	topos := map[string]*topology.Topology{}
	if r, err := topology.BuildRing(6, 2); err == nil {
		topos["ring"] = r
	} else {
		t.Fatal(err)
	}
	if m, err := topology.BuildMesh2D(3, 3, 2); err == nil {
		topos["mesh"] = m
	} else {
		t.Fatal(err)
	}
	if r, err := topology.BuildRandom(12, 10, 8, 3, 1); err == nil {
		topos["random"] = r
	} else {
		t.Fatal(err)
	}
	if tb, err := topology.BuildTestbed(); err == nil {
		topos["testbed"] = tb
	} else {
		t.Fatal(err)
	}
	if df, err := topology.BuildDragonfly(4, 3, 2); err == nil {
		topos["dragonfly"] = df
	} else {
		t.Fatal(err)
	}
	agnostic := []Engine{NewMinHop(), NewUpDown(), NewDFSSSP(), NewLASH()}
	for name, topo := range topos {
		req := reqFor(t, topo)
		for _, e := range agnostic {
			res, err := e.Compute(req)
			if err != nil {
				t.Fatalf("%s on %s: %v", e.Name(), name, err)
			}
			if err := Verify(req, res); err != nil {
				t.Errorf("%s on %s: %v", e.Name(), name, err)
			}
		}
	}
}

func TestFatTreeRequiresLevels(t *testing.T) {
	topo, _ := topology.BuildRandom(6, 8, 4, 2, 3)
	// Erase levels to simulate an unannotated fabric.
	for _, id := range topo.Switches() {
		topo.Node(id).Level = -1
	}
	req := reqFor(t, topo)
	if _, err := NewFatTree().Compute(req); err == nil {
		t.Error("ftree should reject unlevelled switches")
	}
}

func TestFatTreeRejectsSameLevelLinks(t *testing.T) {
	topo := topology.New("bad")
	s1 := topo.AddSwitch(4, "s1")
	s2 := topo.AddSwitch(4, "s2")
	topo.Node(s1).Level = 1
	topo.Node(s2).Level = 1
	topo.Link(s1, s2)
	ca := topo.AddCA("ca")
	topo.Node(ca).Level = 0
	topo.Link(ca, s1)
	req := reqFor(t, topo)
	if _, err := NewFatTree().Compute(req); err == nil ||
		!strings.Contains(err.Error(), "same-level") {
		t.Errorf("want same-level error, got %v", err)
	}
}

func TestFatTreeDispersesVFLIDs(t *testing.T) {
	// Section V-A: prepopulated VF LIDs on one hypervisor should take
	// different spine paths (the LMC-like property). Bind 4 extra LIDs to
	// the same CA and check they leave the leaf by different up ports.
	topo, err := topology.BuildXGFT(topology.XGFTSpec{M: []int{4, 4}, W: []int{1, 4}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	req := reqFor(t, topo)
	hyp := topo.CAs()[0]
	base := ib.LID(1000)
	for i := 0; i < 4; i++ {
		req.Targets = append(req.Targets, Target{LID: base + ib.LID(i), Node: hyp})
	}
	res, err := NewFatTree().Compute(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(req, res); err != nil {
		t.Fatal(err)
	}
	// From a leaf that is NOT the hypervisor's leaf, the four VF LIDs
	// should use distinct up ports.
	otherLeaf := topo.LeafSwitchOf(topo.CAs()[15])
	if otherLeaf == topo.LeafSwitchOf(hyp) {
		t.Fatal("test setup: expected a different leaf")
	}
	ports := map[ib.PortNum]bool{}
	for i := 0; i < 4; i++ {
		ports[res.LFTs[otherLeaf].Get(base+ib.LID(i))] = true
	}
	if len(ports) != 4 {
		t.Errorf("VF LIDs share up ports: %v (want 4 distinct)", ports)
	}
}

// TestFatTreeRoutesAroundFailedUplink fails every 7th leaf–spine link of
// the paper's 324- and 648-node fat trees, one at a time, and walks every
// (leaf, CA) pair through fresh ftree tables. A leaf whose d-mod-k parent
// lost its link into the destination's cone must step to a parent that
// still reaches it instead of forwarding into a switch that drops.
func TestFatTreeRoutesAroundFailedUplink(t *testing.T) {
	sizes := []int{324, 648}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, size := range sizes {
		topo, err := topology.BuildPaperFatTree(size)
		if err != nil {
			t.Fatal(err)
		}
		req := reqFor(t, topo)
		var leaves []topology.NodeID
		var uplinks []fuzzLink
		for _, sw := range topo.Switches() {
			n := topo.Node(sw)
			if n.Level != 1 {
				continue
			}
			leaves = append(leaves, sw)
			for _, p := range n.Ports[1:] {
				if p.Peer != topology.NoNode && topo.Node(p.Peer).IsSwitch() {
					uplinks = append(uplinks, fuzzLink{a: sw, ap: p.Num})
				}
			}
		}
		for li := 0; li < len(uplinks); li += 7 {
			l := uplinks[li]
			if err := topo.SetLinkState(l.a, l.ap, false); err != nil {
				t.Fatal(err)
			}
			res, err := NewFatTree().Compute(req)
			if err != nil {
				t.Fatal(err)
			}
			undelivered, pairs := 0, 0
			r := routes(req, res)
			var first error
			for _, leaf := range leaves {
				for _, tg := range req.Targets {
					if topo.Node(tg.Node).IsSwitch() {
						continue
					}
					pairs++
					if end := cdg.Trace(topo, r, leaf, tg.LID, nil); end.Fate != cdg.Delivered {
						undelivered++
						if first == nil {
							first = end
						}
					}
				}
			}
			if undelivered != 0 {
				t.Errorf("%d nodes, link %q port %d down: %d of %d (leaf, CA) pairs undelivered, first: %v",
					size, topo.Node(l.a).Desc, l.ap, undelivered, pairs, first)
			}
			if err := topo.SetLinkState(l.a, l.ap, true); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestMinHopBalancesLoad(t *testing.T) {
	// On a 2-level tree, the leaf's up-port loads should differ by at most
	// a small factor across destinations.
	topo, err := topology.BuildXGFT(topology.XGFTSpec{M: []int{4, 4}, W: []int{1, 4}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	req := reqFor(t, topo)
	res, err := NewMinHop().Compute(req)
	if err != nil {
		t.Fatal(err)
	}
	leaf := topo.LeafSwitchOf(topo.CAs()[0])
	counts := map[ib.PortNum]int{}
	for _, tg := range req.Targets {
		n := topo.Node(tg.Node)
		if !n.IsSwitch() && topo.LeafSwitchOf(tg.Node) != leaf {
			counts[res.LFTs[leaf].Get(tg.LID)]++
		}
	}
	if len(counts) < 4 {
		t.Errorf("minhop used %d up ports from a leaf, want 4: %v", len(counts), counts)
	}
	min, max := 1<<30, 0
	for _, c := range counts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max-min > 1 {
		t.Errorf("unbalanced up-port loads: %v", counts)
	}
}

func TestMinHopRingCDGHasCycle(t *testing.T) {
	// The motivation for DFSSSP/LASH: plain minimal routing deadlocks on
	// rings.
	topo, _ := topology.BuildRing(6, 1)
	req := reqFor(t, topo)
	res, err := NewMinHop().Compute(req)
	if err != nil {
		t.Fatal(err)
	}
	var dlids []ib.LID
	for _, tg := range req.Targets {
		dlids = append(dlids, tg.LID)
	}
	g := cdg.BuildSwitchCDG(topo, newLFTRoutes(req, res), dlids)
	if !g.HasCycle() {
		t.Error("min-hop on a 6-ring should have a cyclic CDG")
	}
}

func TestUpDownCDGAcyclic(t *testing.T) {
	for _, build := range []func() (*topology.Topology, error){
		func() (*topology.Topology, error) { return topology.BuildRing(6, 1) },
		func() (*topology.Topology, error) { return topology.BuildTorus2D(3, 3, 1) },
		func() (*topology.Topology, error) { return topology.BuildRandom(10, 8, 6, 2, 5) },
	} {
		topo, err := build()
		if err != nil {
			t.Fatal(err)
		}
		req := reqFor(t, topo)
		res, err := NewUpDown().Compute(req)
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(req, res); err != nil {
			t.Fatalf("%s: %v", topo.Name, err)
		}
		var dlids []ib.LID
		for _, tg := range req.Targets {
			dlids = append(dlids, tg.LID)
		}
		g := cdg.BuildSwitchCDG(topo, newLFTRoutes(req, res), dlids)
		if cyc := g.FindCycle(); cyc != nil {
			t.Errorf("up*/down* CDG on %s has a cycle: %v", topo.Name, cyc)
		}
	}
}

func TestDFSSSPLayersAcyclic(t *testing.T) {
	topo, _ := topology.BuildTorus2D(4, 4, 1)
	req := reqFor(t, topo)
	res, err := NewDFSSSP().Compute(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(req, res); err != nil {
		t.Fatal(err)
	}
	if res.Stats.VLsUsed < 2 {
		t.Errorf("torus should need >= 2 VLs, got %d", res.Stats.VLsUsed)
	}
	// Each VL's restricted CDG must be acyclic.
	routes := newLFTRoutes(req, res)
	byVL := map[uint8][]ib.LID{}
	for _, tg := range req.Targets {
		byVL[res.DestVL[tg.LID]] = append(byVL[res.DestVL[tg.LID]], tg.LID)
	}
	for vl, dlids := range byVL {
		g := cdg.BuildSwitchCDG(topo, routes, dlids)
		if cyc := g.FindCycle(); cyc != nil {
			t.Errorf("dfsssp VL %d has a cycle: %v", vl, cyc)
		}
	}
}

func TestDFSSSPVLBudgetExceeded(t *testing.T) {
	topo, _ := topology.BuildTorus2D(4, 4, 1)
	req := reqFor(t, topo)
	e := &DFSSSP{MaxVLs: 1}
	if _, err := e.Compute(req); err == nil {
		t.Error("1-VL dfsssp on a torus should fail")
	}
}

func TestLASHLayersAcyclicAndPairsCovered(t *testing.T) {
	// A 3x3 torus is fully adjacent per ring (1 VL suffices); the 4x4
	// torus has distance-2 wraparound pairs whose dependencies close
	// ring cycles, so LASH must open a second layer.
	topo, _ := topology.BuildTorus2D(4, 4, 1)
	req := reqFor(t, topo)
	res, err := NewLASH().Compute(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(req, res); err != nil {
		t.Fatal(err)
	}
	if res.Stats.VLsUsed < 2 {
		t.Errorf("torus LASH should need >= 2 VLs, got %d", res.Stats.VLsUsed)
	}
	// Every (srcSwitch, dstSwitch) CA pair must have a VL assignment.
	sw := topo.Switches()
	for _, a := range sw {
		for _, b := range sw {
			if a == b {
				continue
			}
			if _, ok := res.PairVL[[2]topology.NodeID{a, b}]; !ok {
				t.Fatalf("pair (%d,%d) missing VL", a, b)
			}
		}
	}
}

func TestLASHVLBudgetExceeded(t *testing.T) {
	topo, _ := topology.BuildTorus2D(4, 4, 1)
	req := reqFor(t, topo)
	e := &LASH{MaxVLs: 1}
	if _, err := e.Compute(req); err == nil {
		t.Error("1-VL lash on a 4x4 torus should fail")
	}
}

func TestVerifyCatchesBrokenLFTs(t *testing.T) {
	topo, _ := topology.BuildRing(4, 1)
	req := reqFor(t, topo)
	res, err := NewUpDown().Compute(req)
	if err != nil {
		t.Fatal(err)
	}
	sw := topo.Switches()
	// Drop: point a LID at DropPort.
	res.LFTs[sw[0]].Set(req.Targets[0].LID, ib.DropPort)
	if err := Verify(req, res); err == nil {
		t.Error("Verify should catch drops")
	}
	// Loop: two switches pointing at each other.
	res, _ = NewUpDown().Compute(req)
	l := req.Targets[0].LID
	res.LFTs[sw[2]].Set(l, topo.PortToward(sw[2], sw[3]))
	res.LFTs[sw[3]].Set(l, topo.PortToward(sw[3], sw[2]))
	if err := Verify(req, res); err == nil || !strings.Contains(err.Error(), "loop") {
		t.Errorf("Verify should catch loops, got %v", err)
	}
	// Missing LFT map entry.
	res, _ = NewUpDown().Compute(req)
	delete(res.LFTs, sw[1])
	if err := Verify(req, res); err == nil {
		t.Error("Verify should catch missing LFTs")
	}
}

func TestVerifySampledSubset(t *testing.T) {
	topo, _ := topology.BuildRing(8, 1)
	req := reqFor(t, topo)
	res, err := NewUpDown().Compute(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySampled(req, res, 2); err != nil {
		t.Error(err)
	}
	if err := VerifySampled(req, res, 0); err != nil {
		t.Error(err)
	}
	if err := VerifySampled(req, res, 100); err != nil {
		t.Error(err)
	}
}
