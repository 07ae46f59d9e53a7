package audit

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"ibvsim/internal/cdg"
	"ibvsim/internal/cloud"
	"ibvsim/internal/ib"
	"ibvsim/internal/routing"
	"ibvsim/internal/sriov"
	"ibvsim/internal/telemetry"
	"ibvsim/internal/topology"
)

// flapHalf is one half of a link flap as the auditor sees it: the link
// state, the tables programmed when distribution starts and its targets,
// and the view the full audit after it reads.
type flapHalf struct {
	topo        *topology.Topology
	sw          topology.NodeID
	port        ib.PortNum
	up          bool
	old, target *tableRoutes
	dlids       []ib.LID
	view        *View
}

// tableRoutes is a cdg.Routes over copied tables and a live owner lookup.
type tableRoutes struct {
	lfts   map[topology.NodeID]*ib.LFT
	nodeOf func(ib.LID) topology.NodeID
}

func (r *tableRoutes) LFT(sw topology.NodeID) *ib.LFT  { return r.lfts[sw] }
func (r *tableRoutes) NodeOf(l ib.LID) topology.NodeID { return r.nodeOf(l) }

// flapHalves boots the benchmark's fabric-events fabric — 512 hosts on an
// 8-ary 3-tree, prepopulated VF LIDs (1 534 data LIDs), incremental minhop —
// and fails and heals perStratum seeded links of each switch level in turn:
// the halves the workload repeats, in order.
func flapHalves(tb testing.TB, perStratum int) []*flapHalf {
	tb.Helper()
	topo, err := topology.BuildXGFT(topology.XGFTSpec{M: []int{8, 8, 8}, W: []int{1, 8, 8}}, 16)
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := routing.New("minhop")
	if err != nil {
		tb.Fatal(err)
	}
	cas := topo.CAs()
	c, _, err := cloud.New(topo, cas[0], cas[1:], cloud.Config{
		Model: sriov.VSwitchPrepopulated, VFsPerHypervisor: 2, Engine: eng, Scheduler: cloud.Spread{}, RouteWorkers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	mgr := c.SM
	mgr.IncrementalRouting = true
	tables := func(of func(topology.NodeID) *ib.LFT) map[topology.NodeID]*ib.LFT {
		m := map[topology.NodeID]*ib.LFT{}
		for _, sw := range topo.Switches() {
			if lft := of(sw); lft != nil {
				m[sw] = lft.Clone() // the manager goes on editing its own
			}
		}
		return m
	}
	byLevel := map[int][][2]int{}
	for _, sw := range topo.Switches() {
		for _, p := range topo.Node(sw).Ports {
			if p.Peer > sw && topo.Node(p.Peer).IsSwitch() {
				byLevel[topo.Node(sw).Level] = append(byLevel[topo.Node(sw).Level], [2]int{int(sw), int(p.Num)})
			}
		}
	}
	rng := rand.New(rand.NewSource(21))
	var halves []*flapHalf
	for _, level := range []int{1, 2} {
		for k := 0; k < perStratum; k++ {
			l := byLevel[level][rng.Intn(len(byLevel[level]))]
			for _, up := range []bool{false, true} {
				h := &flapHalf{topo: topo, sw: topology.NodeID(l[0]), port: ib.PortNum(l[1]), up: up}
				h.set(tb)
				if _, err := mgr.LightSweep(); err != nil {
					tb.Fatal(err)
				}
				if _, err := mgr.Resweep(); err != nil {
					tb.Fatal(err)
				}
				mgr.OnDistribute = func(old, next cdg.Routes) {
					h.old = &tableRoutes{tables(old.LFT), mgr.NodeOfLID}
					h.target = &tableRoutes{tables(next.LFT), mgr.NodeOfLID}
				}
				if _, _, err := mgr.ReconfigureCtx(context.Background()); err != nil {
					tb.Fatal(err)
				}
				if h.old == nil {
					tb.Fatal("the reconfiguration distributed nothing")
				}
				for _, tg := range mgr.Targets() {
					h.dlids = append(h.dlids, tg.LID)
				}
				addrs := mgr.AddressView()
				h.view = &View{Topo: topo, Gen: uint64(len(halves) + 1), LFTs: tables(mgr.ProgrammedLFT), NodeOfLID: addrs}
				for l := range addrs {
					h.view.ActiveLIDs = append(h.view.ActiveLIDs, l)
				}
				slices.Sort(h.view.ActiveLIDs)
				halves = append(halves, h)
			}
		}
	}
	return halves
}

// set puts the half's link in its state (every other link is up).
func (h *flapHalf) set(tb testing.TB) {
	if err := h.topo.SetLinkState(h.sw, h.port, h.up); err != nil {
		tb.Fatal(err)
	}
}

// transition and installed are the two CDG passes of one half.
func (h *flapHalf) transition(a *Auditor) *Report {
	return a.Transition(h.topo, h.old, h.target, h.dlids)
}

func (h *flapHalf) installed(a *Auditor) cdgPass {
	var c collector
	c.max = 1
	return a.checkInstalledCDG(h.view, &c)
}

// TestMaintainedCDGCosts is the deterministic gate on the kept graph, on the
// benchmark's flap fabric over four links of each stratum: every pass after
// the first is warm, a pass re-walks on average at most 5 % of the (data
// LID, switch) pairs a cold build walks, the full audit after a completed
// distribution re-walks none (the transition check kept the routing it
// checked), and a warm transition check and a warm full-audit CDG update
// after one flap each allocate at most 4 times.
func TestMaintainedCDGCosts(t *testing.T) {
	if testing.Short() {
		t.Skip("a 512-host fabric")
	}
	halves := flapHalves(t, 4)
	hub := telemetry.NewHub()
	a := New(hub, nil, Config{})
	all := len(dataLIDs(halves[0].topo, halves[0].dlids, halves[0].old)) * halves[0].topo.NumSwitches()
	var passes, sum, most int
	for i, h := range halves {
		h.set(t)
		if rep := h.transition(a); rep.Total != 0 {
			t.Fatalf("transition: %+v", rep.Violations)
		}
		sv, _ := hub.Tracer().SpanByID(hub.Tracer().LastSpanID())
		full := h.installed(a)
		if i > 0 && (sv.Attrs["cdg"] != "warm" || full.cold != "") {
			t.Fatalf("half %d: transition ran %v (%v), full audit %q", i, sv.Attrs["cdg"], sv.Attrs["cdg_reason"], full.cold)
		}
		if full.pairs != 0 {
			t.Errorf("half %d: the full audit after a completed distribution re-walked %d pairs, want 0", i, full.pairs)
		}
		if i > 0 {
			for _, pairs := range []int{int(sv.Attrs["pairs"].(int64)), full.pairs} {
				passes, sum, most = passes+1, sum+pairs, max(most, pairs)
			}
		}
	}
	t.Logf("%d warm passes: %.0f pairs re-walked on average (%.2f %% of %d), at most %d (%.2f %%)",
		passes, float64(sum)/float64(passes), 100*float64(sum)/float64(passes*all), all, most, 100*float64(most)/float64(all))
	if 20*sum > passes*all {
		t.Errorf("a warm pass re-walks %.0f pairs on average, budget 5 %% of %d", float64(sum)/float64(passes), all)
	}

	a = New(nil, nil, Config{})
	warm := func(f func(h *flapHalf)) float64 {
		i := 0
		f(halves[1]) // the graph follows the healed fabric
		return testing.AllocsPerRun(20, func() {
			h := halves[i%2]
			h.set(t)
			f(h)
			i++
		})
	}
	transition := warm(func(h *flapHalf) { h.transition(a) })
	installed := warm(func(h *flapHalf) { h.installed(a) })
	cold := testing.AllocsPerRun(5, func() { halves[1].transition(New(nil, nil, Config{})) })
	coldFull := testing.AllocsPerRun(5, func() { halves[1].installed(New(nil, nil, Config{})) })
	t.Logf("allocations: warm transition %.0f (cold %.0f), warm full-audit CDG %.0f (cold %.0f)",
		transition, cold, installed, coldFull)
	if transition > 4 || installed > 4 {
		t.Errorf("warm passes allocate %.0f (transition) and %.0f (full audit) times, budget 4", transition, installed)
	}
}

// BenchmarkWarmCDG times one flap half's two CDG passes — the transition
// check and the full audit's deadlock check — on one auditor over the
// benchmark's link mix: the kept graph follows every half.
func BenchmarkWarmCDG(b *testing.B) {
	halves := flapHalves(b, 2)
	a := New(nil, nil, Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := halves[i%len(halves)]
		h.set(b)
		h.transition(a)
		h.installed(a)
	}
}
