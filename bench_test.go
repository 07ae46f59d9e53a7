// Package bench holds the benchmark harness that regenerates the paper's
// evaluation artifacts under `go test -bench`:
//
//	BenchmarkFig7PathComputation  — Fig. 7: PCt per routing engine and size
//	                                (dfsssp/lash on the 3-level fabrics are
//	                                heavyweight and run under -timeout care)
//	BenchmarkTable1SMPCount       — Table I closed-form SMP arithmetic
//	BenchmarkTable1FullRCWire     — Table I full-RC SMPs counted on the wire
//	BenchmarkReconfigSwap/Copy    — one live migration, plan + apply
//	BenchmarkVMBootDynamic        — section V-B VM boot fast path
//	BenchmarkFullReconfiguration  — the traditional method per migration
//	BenchmarkAblation*            — scope, SMP mode and mitigation ablations
//	BenchmarkFabricStep           — flow-simulator round throughput
package bench

import (
	"fmt"
	"os"
	"os/exec"
	"testing"

	"ibvsim/internal/cdg"
	"ibvsim/internal/cloud"
	"ibvsim/internal/core"
	"ibvsim/internal/experiments"
	"ibvsim/internal/fabric"
	"ibvsim/internal/ib"
	"ibvsim/internal/routing"
	"ibvsim/internal/sm"
	"ibvsim/internal/smp"
	"ibvsim/internal/sriov"
	"ibvsim/internal/topology"
)

// TestBenchModuleVets makes tier-1 see bench/. The control-plane benchmark
// is its own module (ibvsim/bench, replace ibvsim => ../), so `go test ./...`
// here never compiles it, and a change to a type bench/traced.go imports
// from internal/ would break the repository's yardstick unnoticed. go vet
// type-checks every package of that module, tests included.
func TestBenchModuleVets(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	cmd := exec.Command(goTool, "vet", "./...")
	cmd.Dir = "bench"
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in bench/: %v\n%s", err, out)
	}
}

// fig7Combos lists the Fig. 7 combinations benchmarked by default. The
// dfsssp/lash runs on 5832/11664 nodes are the ones the paper measured at
// 123-39145 s; they are skipped here and reproduced by
// `cmd/experiments -exp fig7 -full` instead. Each combination runs at
// worker counts w1 and w4 (the routing engines are deterministic across
// worker counts, so the pairs also double as a scaling regression check);
// dfsssp@648 adds w2 to expose the scaling curve of the heaviest
// parallelized engine.
var fig7Combos = []struct {
	engine  string
	nodes   int
	workers []int
}{
	{"ftree", 324, []int{1, 4}}, {"minhop", 324, []int{1, 4}},
	{"dfsssp", 324, []int{1, 4}}, {"lash", 324, []int{1, 4}},
	{"ftree", 648, []int{1, 4}}, {"minhop", 648, []int{1, 4}},
	{"dfsssp", 648, []int{1, 2, 4}}, {"lash", 648, []int{1, 4}},
	{"ftree", 5832, []int{1, 4}}, {"minhop", 5832, []int{1, 4}},
	{"ftree", 11664, []int{1, 4}}, {"minhop", 11664, []int{1, 4}},
}

func BenchmarkFig7PathComputation(b *testing.B) {
	for _, combo := range fig7Combos {
		combo := combo
		for _, workers := range combo.workers {
			workers := workers
			b.Run(fmt.Sprintf("%s/%d/w%d", combo.engine, combo.nodes, workers), func(b *testing.B) {
				if testing.Short() && combo.nodes > 648 {
					b.Skip("large fabric")
				}
				topo, err := topology.BuildPaperFatTree(combo.nodes)
				if err != nil {
					b.Fatal(err)
				}
				eng, err := routing.New(combo.engine)
				if err != nil {
					b.Fatal(err)
				}
				mgr, err := sm.New(topo, topo.CAs()[0], eng)
				if err != nil {
					b.Fatal(err)
				}
				mgr.RouteWorkers = workers
				if _, err := mgr.Sweep(); err != nil {
					b.Fatal(err)
				}
				if err := mgr.AssignLIDs(); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := mgr.ComputeRoutes(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkTable1SMPCount(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(experiments.Table1Options{})
		if err != nil {
			b.Fatal(err)
		}
		if rows[3].MinSMPsFullRC != 336960 {
			b.Fatal("Table I arithmetic diverged from the paper")
		}
	}
}

func BenchmarkTable1FullRCWire(b *testing.B) {
	topo, err := topology.BuildPaperFatTree(324)
	if err != nil {
		b.Fatal(err)
	}
	mgr, err := sm.New(topo, topo.CAs()[0], routing.NewMinHop())
	if err != nil {
		b.Fatal(err)
	}
	if _, _, _, err := mgr.Bootstrap(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := mgr.DistributeFull()
		if err != nil {
			b.Fatal(err)
		}
		if ds.SMPs != 216 {
			b.Fatalf("full RC sent %d SMPs, want 216", ds.SMPs)
		}
	}
}

// benchCloud builds a 324-node cloud with one VM and two far-apart
// hypervisors to ping-pong it between.
func benchCloud(b testing.TB, model sriov.Model) (*cloud.Cloud, string, topology.NodeID, topology.NodeID) {
	b.Helper()
	topo, err := topology.BuildPaperFatTree(324)
	if err != nil {
		b.Fatal(err)
	}
	cas := topo.CAs()
	c, _, err := cloud.New(topo, cas[0], cas[1:], cloud.Config{
		Model:            model,
		VFsPerHypervisor: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	src := c.Hypervisors()[0]
	dst := c.Hypervisors()[len(c.Hypervisors())-1]
	if _, err := c.CreateVMOn("bench", src); err != nil {
		b.Fatal(err)
	}
	return c, "bench", src, dst
}

// pingPong migrates the benchmark VM back and forth b.N times.
func pingPong(b *testing.B, c *cloud.Cloud, name string, src, dst topology.NodeID) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		to := dst
		if i%2 == 1 {
			to = src
		}
		if _, err := c.MigrateVM(name, to); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconfigSwapMigration(b *testing.B) {
	c, name, src, dst := benchCloud(b, sriov.VSwitchPrepopulated)
	pingPong(b, c, name, src, dst)
}

func BenchmarkReconfigCopyMigration(b *testing.B) {
	c, name, src, dst := benchCloud(b, sriov.VSwitchDynamic)
	pingPong(b, c, name, src, dst)
}

func BenchmarkVMBootDynamic(b *testing.B) {
	topo, err := topology.BuildPaperFatTree(324)
	if err != nil {
		b.Fatal(err)
	}
	mgr, err := sm.New(topo, topo.CAs()[0], routing.NewMinHop())
	if err != nil {
		b.Fatal(err)
	}
	if _, _, _, err := mgr.Bootstrap(); err != nil {
		b.Fatal(err)
	}
	rc := core.NewReconfigurator(mgr)
	hyp := topo.CAs()[7]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		boot, err := rc.BootVMLID(hyp)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if _, err := rc.DestroyVMLID(boot.LID); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

func BenchmarkFullReconfiguration(b *testing.B) {
	// The traditional alternative (section VI-A): recompute all paths and
	// push every LFT block, per network change.
	topo, err := topology.BuildPaperFatTree(324)
	if err != nil {
		b.Fatal(err)
	}
	mgr, err := sm.New(topo, topo.CAs()[0], routing.NewMinHop())
	if err != nil {
		b.Fatal(err)
	}
	if _, _, _, err := mgr.Bootstrap(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := mgr.FullReconfigure(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationScope(b *testing.B) {
	for _, scope := range []core.Scope{core.ScopeAllSwitches, core.ScopeMinimal} {
		scope := scope
		b.Run(scope.String(), func(b *testing.B) {
			c, name, src, dst := benchCloud(b, sriov.VSwitchDynamic)
			c.RC.Scope = scope
			pingPong(b, c, name, src, dst)
		})
	}
}

func BenchmarkAblationSMPMode(b *testing.B) {
	// Equation 4 vs 5: directed-route SMPs pay the r term per packet.
	for _, mode := range []smp.Mode{smp.DirectedRoute, smp.DestinationRouted} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			c, name, src, dst := benchCloud(b, sriov.VSwitchPrepopulated)
			c.RC.Mode = mode
			pingPong(b, c, name, src, dst)
		})
	}
}

func BenchmarkAblationMitigation(b *testing.B) {
	for _, mit := range []core.Mitigation{core.MitigationNone, core.MitigationInvalidate} {
		mit := mit
		b.Run(mit.String(), func(b *testing.B) {
			c, name, src, dst := benchCloud(b, sriov.VSwitchPrepopulated)
			c.RC.Mitigation = mit
			pingPong(b, c, name, src, dst)
		})
	}
}

func BenchmarkFabricStep(b *testing.B) {
	topo, err := topology.BuildXGFT(topology.XGFTSpec{M: []int{8, 8}, W: []int{1, 8}}, 16)
	if err != nil {
		b.Fatal(err)
	}
	mgr, err := sm.New(topo, topo.CAs()[0], routing.NewMinHop())
	if err != nil {
		b.Fatal(err)
	}
	if _, _, _, err := mgr.Bootstrap(); err != nil {
		b.Fatal(err)
	}
	sim, err := fabric.New(topo, mgr.Programmed(), fabric.Config{BufferCredits: 4, NumVLs: 1})
	if err != nil {
		b.Fatal(err)
	}
	cas := topo.CAs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sim.InFlight() < 256 {
			b.StopTimer()
			for j, src := range cas {
				dst := mgr.LIDOf(cas[(j+17)%len(cas)])
				if err := sim.Inject(src, dst, 2); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
		}
		sim.Step()
	}
}

// BenchmarkAblationIncrementalCDG quantifies the LASH substitution noted
// in DESIGN.md: per-path acyclicity trials with the Pearce-Kelly
// incremental order (cdg.Ordered) versus a full-graph cycle check per
// insertion (cdg.Graph). The gap is why our LASH finishes in minutes where
// the paper's took 39145 s, with the same O(pairs) structure.
func BenchmarkAblationIncrementalCDG(b *testing.B) {
	topo, err := topology.BuildPaperFatTree(324)
	if err != nil {
		b.Fatal(err)
	}
	mgr, err := sm.New(topo, topo.CAs()[0], routing.NewMinHop())
	if err != nil {
		b.Fatal(err)
	}
	if _, _, _, err := mgr.Bootstrap(); err != nil {
		b.Fatal(err)
	}
	// Collect the switch-pair paths LASH would trial-insert.
	type path []cdg.Channel
	var paths []path
	sw := topo.Switches()
	for _, src := range sw {
		for _, dst := range sw {
			if src == dst {
				continue
			}
			var p path
			cur := src
			for hops := 0; cur != dst && hops < 8; hops++ {
				out := mgr.ProgrammedLFT(cur).Get(mgr.LIDOf(dst))
				if out == 0 || out == ib.DropPort {
					break
				}
				p = append(p, cdg.Channel{Node: cur, Port: out})
				cur = topo.Node(cur).Ports[out].Peer
			}
			if cur == dst && len(p) >= 2 {
				paths = append(paths, p)
			}
		}
	}
	ix := cdg.NewIndex(topo)
	b.Run("pearce-kelly", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			o := cdg.NewOrdered(ix)
			for _, p := range paths {
				for j := 0; j+1 < len(p); j++ {
					o.AddDepChecked(p[j], p[j+1])
				}
			}
		}
	})
	b.Run("full-dfs-per-path", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := cdg.NewGraph(ix)
			for _, p := range paths {
				for j := 0; j+1 < len(p); j++ {
					g.AddDep(p[j], p[j+1])
				}
				if g.HasCycle() {
					b.Fatal("unexpected cycle on a fat-tree")
				}
			}
		}
	})
}

// BenchmarkCloudChurn measures whole-orchestrator operation throughput.
func BenchmarkCloudChurn(b *testing.B) {
	topo, err := topology.BuildPaperFatTree(324)
	if err != nil {
		b.Fatal(err)
	}
	cas := topo.CAs()
	c, _, err := cloud.New(topo, cas[0], cas[1:], cloud.Config{
		Model:            sriov.VSwitchDynamic,
		VFsPerHypervisor: 4,
		Scheduler:        cloud.Spread{},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("vm%d", i)
		if _, err := c.CreateVM(name); err != nil {
			b.Fatal(err)
		}
		if _, err := c.MigrateVM(name, c.Hypervisors()[(i*37)%len(c.Hypervisors())]); err == nil {
			// moved; fine either way — some destinations equal the source
			_ = name
		}
		if err := c.DestroyVM(name); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLFTBlockOps(b *testing.B) {
	lft := ib.NewLFT(49151)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := ib.LID(i%49150 + 1)
		lft.Set(l, ib.PortNum(i%36+1))
		lft.Swap(l, ib.LID((i*7)%49150+1))
	}
}

// updnAutoRoot replicates the up/down engine's automatic root selection
// (highest level*1000+degree key, first switch winning ties) so the reroute
// benchmarks can pick deltas that provably leave the rank orientation — and
// therefore the incremental path — intact.
func updnAutoRoot(topo *topology.Topology) topology.NodeID {
	best, bestKey := topology.NoNode, -1
	for _, sw := range topo.Switches() {
		n := topo.Node(sw)
		deg := 0
		for _, p := range n.Ports[1:] {
			if p.Peer != topology.NoNode && p.Up && topo.Node(p.Peer).IsSwitch() {
				deg++
			}
		}
		if key := n.Level*1000 + deg; key > bestKey {
			best, bestKey = sw, key
		}
	}
	return best
}

// swRanks returns BFS hop counts from root across the live switch-switch
// links, indexed by position in topo.Switches() (-1 = unreachable). This is
// the updn rank orientation, which the incremental layer guards with a full
// fallback when it moves.
func swRanks(topo *topology.Topology, root topology.NodeID) []int {
	sws := topo.Switches()
	idx := make(map[topology.NodeID]int, len(sws))
	for i, sw := range sws {
		idx[sw] = i
	}
	rank := make([]int, len(sws))
	for i := range rank {
		rank[i] = -1
	}
	q := []int{idx[root]}
	rank[q[0]] = 0
	for len(q) > 0 {
		i := q[0]
		q = q[1:]
		for _, p := range topo.Node(sws[i]).Ports[1:] {
			if p.Peer == topology.NoNode || !p.Up {
				continue
			}
			if j, ok := idx[p.Peer]; ok && rank[j] < 0 {
				rank[j] = rank[i] + 1
				q = append(q, j)
			}
		}
	}
	return rank
}

func equalIntSlices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// prepLinkFlap returns a step function that flaps one switch-switch link
// (down on even iterations, up on odd). The link is probed so its removal
// keeps every switch's BFS rank from the updn auto-root intact — on deeper
// trees a leaf's first uplink can be the unique shortest path to the root,
// which would (correctly) trip the incremental layer's orientation guard.
func prepLinkFlap(b *testing.B, topo *topology.Topology) func(int) {
	b.Helper()
	root := updnAutoRoot(topo)
	base := swRanks(topo, root)
	for _, sw := range topo.Switches() {
		if sw == root {
			continue
		}
		n := topo.Node(sw)
		for _, p := range n.Ports[1:] {
			if p.Peer == topology.NoNode || !topo.Node(p.Peer).IsSwitch() || p.Peer == root {
				continue
			}
			if err := topo.SetLinkState(sw, p.Num, false); err != nil {
				b.Fatal(err)
			}
			keeps := equalIntSlices(swRanks(topo, root), base)
			if err := topo.SetLinkState(sw, p.Num, true); err != nil {
				b.Fatal(err)
			}
			if !keeps {
				continue
			}
			sw, pn := sw, p.Num
			return func(i int) {
				if err := topo.SetLinkState(sw, pn, i%2 == 1); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Fatal("no rank-preserving switch-switch link to flap")
	return nil
}

// prepLeafFailure returns a step function that power-fails a whole leaf
// switch (every link down) on even iterations and restores it on odd ones.
// The leaf hosting the SM and the updn auto-root are excluded.
func prepLeafFailure(b *testing.B, topo *topology.Topology) func(int) {
	b.Helper()
	root := updnAutoRoot(topo)
	smLeaf := topo.Node(topo.CAs()[0]).Ports[1].Peer
	for _, sw := range topo.Switches() {
		if sw == root || sw == smLeaf {
			continue
		}
		n := topo.Node(sw)
		hasCA := false
		var ports []ib.PortNum
		for _, p := range n.Ports[1:] {
			if p.Peer == topology.NoNode {
				continue
			}
			ports = append(ports, p.Num)
			if !topo.Node(p.Peer).IsSwitch() {
				hasCA = true
			}
		}
		if !hasCA {
			continue
		}
		sw := sw
		return func(i int) {
			up := i%2 == 1
			for _, pn := range ports {
				if err := topo.SetLinkState(sw, pn, up); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Fatal("no leaf switch with CAs to fail")
	return nil
}

// prepLIDChurn returns a step function that detaches ~1% of the CAs (their
// LIDs leave the target set) on even iterations and reattaches them on odd.
func prepLIDChurn(b *testing.B, topo *topology.Topology) func(int) {
	b.Helper()
	cas := topo.CAs()
	var churn []topology.NodeID
	for i := 1; i < len(cas); i += 100 { // skip index 0: it hosts the SM
		churn = append(churn, cas[i])
	}
	return func(i int) {
		up := i%2 == 1
		for _, ca := range churn {
			if err := topo.SetLinkState(ca, 1, up); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkIncrementalReroute times the reconfiguration path after a
// topology delta — ComputeRoutes + DistributeDiff — with the routing engine
// either recomputing from scratch (full) or running through the SM's
// dependency-tracked incremental wrapper with SMP block coalescing
// (incremental). The delta itself and the discovery Resweep happen outside
// the timer: discovery costs the same either way, and the contract under
// test is compute + distribute. Every iteration applies exactly one delta
// (the change and its restoration alternate, so both directions are
// measured). The incremental link-flap runs also self-assert the perf
// contract: the delta path must engage and re-run under 10% of the
// destination trees.
func BenchmarkIncrementalReroute(b *testing.B) {
	scenarios := []struct {
		name string
		prep func(*testing.B, *topology.Topology) func(int)
	}{
		{"link-flap", prepLinkFlap},
		{"leaf-failure", prepLeafFailure},
		{"lid-churn", prepLIDChurn},
	}
	for _, sc := range scenarios {
		sc := sc
		for _, engine := range []string{"minhop", "updn"} {
			engine := engine
			for _, nodes := range []int{648, 5832, 11664} {
				nodes := nodes
				for _, variant := range []string{"full", "incremental"} {
					variant := variant
					b.Run(fmt.Sprintf("%s/%s/%d/%s", sc.name, engine, nodes, variant), func(b *testing.B) {
						if testing.Short() && nodes > 648 {
							b.Skip("large fabric")
						}
						if sc.name == "leaf-failure" && engine == "updn" {
							// Both variants refuse identically: stock updn
							// errors on any switch unreachable from the root,
							// and a whole-leaf failure partitions the leaf.
							b.Skip("updn cannot route a partitioned fabric")
						}
						topo, err := topology.BuildPaperFatTree(nodes)
						if err != nil {
							b.Fatal(err)
						}
						eng, err := routing.New(engine)
						if err != nil {
							b.Fatal(err)
						}
						mgr, err := sm.New(topo, topo.CAs()[0], eng)
						if err != nil {
							b.Fatal(err)
						}
						if variant == "incremental" {
							mgr.IncrementalRouting = true
							mgr.Dist.MaxBlocksPerSMP = 64
						}
						if _, _, _, err := mgr.Bootstrap(); err != nil {
							b.Fatal(err)
						}
						step := sc.prep(b, topo)
						b.ReportAllocs()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							b.StopTimer()
							step(i)
							if _, err := mgr.Resweep(); err != nil {
								b.Fatal(err)
							}
							b.StartTimer()
							rs, err := mgr.ComputeRoutes()
							if err != nil {
								b.Fatal(err)
							}
							if _, err := mgr.DistributeDiff(); err != nil {
								b.Fatal(err)
							}
							if variant == "incremental" && sc.name == "link-flap" {
								st := rs.Incremental
								if !st.Applied {
									b.Fatalf("link flap fell back to full recompute: %s", st.FallbackReason)
								}
								if st.DestsRecomputed*10 >= st.DestsTotal {
									b.Fatalf("link flap re-ran %d/%d destination trees (>= 10%%)",
										st.DestsRecomputed, st.DestsTotal)
								}
							}
						}
					})
				}
			}
		}
	}
}
