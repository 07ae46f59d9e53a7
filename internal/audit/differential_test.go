package audit

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"ibvsim/internal/ib"
	"ibvsim/internal/routing"
	"ibvsim/internal/sm"
	"ibvsim/internal/topology"
)

// routed is a fat tree brought up by a real subnet manager: the tables the
// differential tests corrupt copies of.
type routed struct {
	topo   *topology.Topology
	lfts   map[topology.NodeID]*ib.LFT
	nodeOf map[ib.LID]topology.NodeID
	lids   []ib.LID // ascending
	smLID  ib.LID
}

func bringUp(tb testing.TB, spec topology.XGFTSpec, radix int) *routed {
	tb.Helper()
	topo, err := topology.BuildXGFT(spec, radix)
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := routing.New("minhop")
	if err != nil {
		tb.Fatal(err)
	}
	mgr, err := sm.New(topo, topo.CAs()[0], eng)
	if err != nil {
		tb.Fatal(err)
	}
	if _, _, _, err := mgr.Bootstrap(); err != nil {
		tb.Fatal(err)
	}
	r := &routed{topo: topo, lfts: map[topology.NodeID]*ib.LFT{}, nodeOf: mgr.AddressView(), smLID: mgr.LIDOf(mgr.SMNode)}
	for _, sw := range topo.Switches() {
		r.lfts[sw] = mgr.ProgrammedLFT(sw)
	}
	for l := range r.nodeOf {
		r.lids = append(r.lids, l)
	}
	slices.Sort(r.lids)
	return r
}

// fullView is the fabric-wide view over private copies of the tables.
func (r *routed) fullView() *View {
	v := &View{Topo: r.topo, Gen: 1, LFTs: map[topology.NodeID]*ib.LFT{}, NodeOfLID: map[ib.LID]topology.NodeID{},
		ActiveLIDs: slices.Clone(r.lids)}
	for sw, lft := range r.lfts {
		v.LFTs[sw] = lft.Clone()
	}
	for l, n := range r.nodeOf {
		v.NodeOfLID[l] = n
	}
	return v
}

// opScoped narrows a full view to what the control plane audits after one
// migration: two CA LIDs and the SM's own, resolved through LFTOf.
func (r *routed) opScoped(v *View, rng *rand.Rand) *View {
	lids := []ib.LID{r.smLID}
	for len(lids) < 3 {
		if l := r.lids[rng.Intn(len(r.lids))]; !r.topo.Node(r.nodeOf[l]).IsSwitch() && !slices.Contains(lids, l) {
			lids = append(lids, l)
		}
	}
	tables := v.LFTs // kept on the view too, so a corruption can remove one
	op := &View{Topo: v.Topo, Gen: v.Gen, ActiveLIDs: lids, NodeOfLID: map[ib.LID]topology.NodeID{},
		LFTs: tables, LFTOf: func(sw topology.NodeID) *ib.LFT { return tables[sw] }}
	for _, l := range lids {
		op.NodeOfLID[l] = v.NodeOfLID[l]
	}
	return op
}

// corruption damages a view in one way the auditor must catch. It returns
// an undo for what it changed outside the view (link state lives in the
// shared topology).
type corruption struct {
	name  string
	apply func(r *routed, v *View, rng *rand.Rand) (undo func())
}

// pickEntry returns a switch that forwards one of the view's active CA LIDs
// towards another switch, with that LID and the next switch. When earlier
// corruptions have left none to find it returns NoNode, and set, which every
// corruption writes through, does nothing.
func pickEntry(r *routed, v *View, rng *rand.Rand) (sw topology.NodeID, lid ib.LID, next topology.NodeID) {
	sws := r.topo.Switches()
	for try := 0; try < 1000; try++ {
		lid = v.ActiveLIDs[rng.Intn(len(v.ActiveLIDs))]
		dst, ok := v.NodeOfLID[lid]
		if !ok || r.topo.Node(dst).IsSwitch() {
			continue
		}
		sw = sws[rng.Intn(len(sws))]
		lft := v.LFT(sw)
		if lft == nil {
			continue
		}
		out := lft.Get(lid)
		if ports := r.topo.Node(sw).Ports; out != ib.DropPort && int(out) < len(ports) &&
			ports[out].Peer != topology.NoNode && r.topo.Node(ports[out].Peer).IsSwitch() {
			return sw, lid, ports[out].Peer
		}
	}
	return topology.NoNode, 0, topology.NoNode
}

// portTo returns the port of switch a that leads to node b.
func portTo(t *topology.Topology, a, b topology.NodeID) ib.PortNum {
	for _, p := range t.Node(a).Ports {
		if p.Peer == b {
			return p.Num
		}
	}
	panic(fmt.Sprintf("no link %d -> %d", a, b))
}

// set writes one forwarding entry, unless an earlier corruption took the
// switch's table away.
func set(v *View, sw topology.NodeID, lid ib.LID, port ib.PortNum) {
	if lft := v.LFT(sw); sw != topology.NoNode && lft != nil {
		lft.Set(lid, port)
	}
}

var corruptions = []corruption{
	{"drop-port", func(r *routed, v *View, rng *rand.Rand) func() {
		sw, lid, _ := pickEntry(r, v, rng)
		set(v, sw, lid, ib.DropPort)
		return nil
	}},
	{"nonexistent-port", func(r *routed, v *View, rng *rand.Rand) func() {
		sw, lid, _ := pickEntry(r, v, rng)
		set(v, sw, lid, 200)
		return nil
	}},
	{"down-port", func(r *routed, v *View, rng *rand.Rand) func() {
		sw, lid, _ := pickEntry(r, v, rng)
		if sw == topology.NoNode {
			return nil
		}
		port := &r.topo.Node(sw).Ports[v.LFT(sw).Get(lid)]
		if !port.Up {
			return nil // already taken down: the first taker restores it
		}
		port.Up = false
		return func() { port.Up = true }
	}},
	{"nil-table", func(r *routed, v *View, rng *rand.Rand) func() {
		sw, _, _ := pickEntry(r, v, rng)
		delete(v.LFTs, sw)
		return nil
	}},
	{"ca-misdelivery", func(r *routed, v *View, rng *rand.Rand) func() {
		sw, lid, _ := pickEntry(r, v, rng)
		if sw == topology.NoNode {
			return nil
		}
		leaf := r.topo.LeafSwitchOf(v.NodeOfLID[lid])
		for _, p := range r.topo.Node(leaf).Ports {
			if p.Peer != topology.NoNode && !r.topo.Node(p.Peer).IsSwitch() && p.Peer != v.NodeOfLID[lid] {
				set(v, leaf, lid, p.Num)
				break
			}
		}
		return nil
	}},
	{"two-switch-loop", func(r *routed, v *View, rng *rand.Rand) func() {
		if a, lid, b := pickEntry(r, v, rng); a != topology.NoNode {
			set(v, b, lid, portTo(r.topo, b, a))
		}
		return nil
	}},
	{"three-switch-loop", func(r *routed, v *View, rng *rand.Rand) func() {
		// a -> b -> c -> b: a tail into a two-cycle, three switches in all.
		a, lid, b := pickEntry(r, v, rng)
		if a == topology.NoNode {
			return nil
		}
		for _, p := range r.topo.Node(b).Ports {
			if c := p.Peer; c != topology.NoNode && c != a && r.topo.Node(c).IsSwitch() && c != v.NodeOfLID[lid] {
				set(v, b, lid, p.Num)
				set(v, c, lid, portTo(r.topo, c, b))
				break
			}
		}
		return nil
	}},
	{"unowned-active-lid", func(r *routed, v *View, rng *rand.Rand) func() {
		v.ActiveLIDs = append(v.ActiveLIDs, ib.LID(40000+rng.Intn(1000)))
		return nil
	}},
	{"leak-in-nil-block", func(r *routed, v *View, rng *rand.Rand) func() {
		// A block far above every assigned LID is unmaterialised in every
		// table; one entry there is a leaked route.
		sw, _, _ := pickEntry(r, v, rng)
		set(v, sw, ib.LID(30000+rng.Intn(5000)), 1)
		return nil
	}},
}

// agree runs both checkers over v and fails unless they report the same
// violations in the same order: kind, LID, node, detail and the provenance
// pointer of the offending block.
func agree(tb testing.TB, v *View, stale bool, what string) int {
	tb.Helper()
	return agreeUsing(tb, &scratch{}, v, stale, what)
}

// agreeUsing is agree on a scratch that has seen other passes.
func agreeUsing(tb testing.TB, s *scratch, v *View, stale bool, what string) int {
	tb.Helper()
	ref := collector{max: 1 << 20}
	refCheckReachability(v, &ref)
	if stale {
		refCheckStaleEntries(v, &ref)
	}
	got := collector{max: 1 << 20}
	s.begin(v.Topo.NumNodes())
	checkReachability(v, &got, s)
	if stale {
		checkStaleEntries(v, &got, s)
	}
	s.end()
	if got.total != ref.total || !reflect.DeepEqual(got.byKind, ref.byKind) {
		tb.Fatalf("%s: %d violations %v, reference %d %v", what, got.total, got.byKind, ref.total, ref.byKind)
	}
	for i := range ref.kept {
		g, w := got.kept[i], ref.kept[i]
		if g.Kind != w.Kind || g.LID != w.LID || g.Node != w.Node || g.Detail != w.Detail || g.Provenance != w.Provenance {
			tb.Fatalf("%s: violation %d:\n got %+v\nwant %+v", what, i, g, w)
		}
	}
	return got.total
}

var (
	fabricsOnce sync.Once
	fabrics     map[string]*routed
)

func testFabrics(tb testing.TB) map[string]*routed {
	fabricsOnce.Do(func() {
		fabrics = map[string]*routed{
			"fattree324":   bringUp(tb, topology.FatTree324, 36),
			"xgft3-level":  bringUp(tb, topology.XGFTSpec{M: []int{4, 4, 4}, W: []int{1, 4, 4}}, 8),
			"xgft-2x4-fuz": bringUp(tb, topology.XGFTSpec{M: []int{4, 4}, W: []int{1, 4}}, 8),
		}
	})
	return fabrics
}

// TestReachabilityAgreesWithReference is the proof obligation of the array
// walk: on two fabrics, full and op-scoped views, clean and under every
// corruption (alone, then all at once), it reports what the map-based checker
// it replaced reports.
func TestReachabilityAgreesWithReference(t *testing.T) {
	for name, r := range testFabrics(t) {
		for _, scoped := range []bool{false, true} {
			cases := append([]corruption{{"clean", func(*routed, *View, *rand.Rand) func() { return nil }}}, corruptions...)
			for ci, c := range cases {
				for seed := int64(1); seed <= 3; seed++ {
					rng := rand.New(rand.NewSource(seed*100 + int64(ci)))
					v := r.fullView()
					if scoped {
						v = r.opScoped(v, rng)
					}
					what := fmt.Sprintf("%s scoped=%v %s seed %d", name, scoped, c.name, seed)
					undo := c.apply(r, v, rng)
					n := agree(t, v, !scoped, what)
					if undo != nil {
						undo()
					}
					if c.name != "clean" && !scoped && n == 0 {
						t.Errorf("%s: corruption went unnoticed", what)
					}
					if c.name == "clean" && n != 0 {
						t.Errorf("%s: %d violations on a clean fabric", what, n)
					}
				}
			}
		}
		// Everything at once, a few times over.
		rng := rand.New(rand.NewSource(7))
		v := r.fullView()
		var undos []func()
		for round := 0; round < 3; round++ {
			for _, c := range corruptions {
				if undo := c.apply(r, v, rng); undo != nil {
					undos = append(undos, undo)
				}
			}
		}
		agree(t, v, true, name+" all corruptions")
		for _, undo := range undos {
			undo()
		}
	}
}

// FuzzReachabilityAgrees lets the fuzzer choose which corruptions pile up on
// a small fabric, and in what order.
func FuzzReachabilityAgrees(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2})
	f.Add(int64(7), []byte{5, 5, 6, 4, 3})
	f.Add(int64(42), []byte{8, 7, 0, 6})
	f.Fuzz(func(t *testing.T, seed int64, picks []byte) {
		r := testFabrics(t)["xgft-2x4-fuz"]
		rng := rand.New(rand.NewSource(seed))
		v := r.fullView()
		var undos []func()
		for _, p := range picks[:min(len(picks), 12)] {
			if undo := corruptions[int(p)%len(corruptions)].apply(r, v, rng); undo != nil {
				undos = append(undos, undo)
			}
		}
		agree(t, v, true, "full")
		agree(t, r.opScoped(v, rng), false, "op-scoped")
		for _, undo := range undos {
			undo()
		}
	})
}

// TestTruncatedReportIsDeterministic: with more faults than MaxViolations,
// which violations a report keeps must not change from run to run. Entry
// switches used to come out of a Go map, so the order of violations inside
// one destination — and with it the kept prefix — did.
func TestTruncatedReportIsDeterministic(t *testing.T) {
	r := testFabrics(t)["fattree324"]
	v := r.fullView()
	// Every leaf loses its table, so each destination alone is a blackhole
	// at eighteen distinct origins and the cap falls inside the first one.
	for _, ca := range r.topo.CAs() {
		delete(v.LFTs, r.topo.LeafSwitchOf(ca))
	}
	a := New(nil, nil, Config{MaxViolations: 8})
	first := a.Run(v, ScopeFast)
	if !first.Truncated || len(first.Violations) != 8 {
		t.Fatalf("want a truncated report of 8, got %d of %d", len(first.Violations), first.Total)
	}
	for run := 0; run < 20; run++ {
		if rep := New(nil, nil, Config{MaxViolations: 8}).Run(v, ScopeFast); !reflect.DeepEqual(rep.Violations, first.Violations) {
			t.Fatalf("run %d kept different violations:\n got %+v\nwant %+v", run, rep.Violations, first.Violations)
		}
	}
}

// opScopedAt1728 is the pass the control plane runs after every migration on
// the benchmark's big fabric: two CA LIDs and the SM's, through LFTOf.
func opScopedAt1728(tb testing.TB) *View {
	r := bringUp(tb, topology.XGFTSpec{M: []int{12, 12, 12}, W: []int{1, 12, 12}}, 24)
	return r.opScoped(r.fullView(), rand.New(rand.NewSource(1)))
}

// BenchmarkOpScopedAudit times that pass, without a telemetry hub. The
// map-based checker it replaced took 7.0–8.4 µs and 14 allocations (5.1 KB)
// here; the array walk must not cost an op-scoped pass more than that, which
// it would the moment anything in it were sized or initialised by the fabric.
func BenchmarkOpScopedAudit(b *testing.B) {
	v := opScopedAt1728(b)
	a := New(nil, nil, Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := a.Run(v, ScopeReach); rep.Total != 0 {
			b.Fatal(rep.Violations)
		}
	}
}

// TestOpScopedAuditAllocations is the gate on that: no more allocations than
// the checker it replaced (14), and none that scale with the fabric — a second
// pass reuses the first one's scratch.
func TestOpScopedAuditAllocations(t *testing.T) {
	v := opScopedAt1728(t)
	a := New(nil, nil, Config{})
	a.Run(v, ScopeReach) // sizes the scratch once
	if got := testing.AllocsPerRun(200, func() { a.Run(v, ScopeReach) }); got > 14 {
		t.Errorf("op-scoped pass allocates %.0f times, the map-based one it replaced 14", got)
	}
}

// TestScratchSurvivesStampWrap: the walk's state is stamped, never cleared,
// so the one moment it must clear — a stamp wrapping to zero — is exercised.
func TestScratchSurvivesStampWrap(t *testing.T) {
	r := testFabrics(t)["xgft-2x4-fuz"]
	rng := rand.New(rand.NewSource(3))
	v := r.fullView()
	for _, c := range corruptions[:2] {
		c.apply(r, v, rng)
	}
	var s scratch
	s.begin(v.Topo.NumNodes())
	s.dest = ^uint32(0) - uint32(len(v.ActiveLIDs))/2 // wraps halfway through the pass
	s.end()
	for pass := 0; pass < 3; pass++ {
		if agreeUsing(t, &s, v, true, fmt.Sprint("pass ", pass)) == 0 {
			t.Fatal("corruptions went unnoticed")
		}
		s.pass = ^uint32(0) // and the pass stamp wraps at the next begin
	}
}
