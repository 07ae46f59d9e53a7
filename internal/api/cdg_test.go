package api

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ibvsim/internal/audit"
	"ibvsim/internal/cdg"
	"ibvsim/internal/cloud"
	"ibvsim/internal/core"
	"ibvsim/internal/ib"
	"ibvsim/internal/routing"
	"ibvsim/internal/sm"
	"ibvsim/internal/smp"
	"ibvsim/internal/sriov"
	"ibvsim/internal/telemetry"
	"ibvsim/internal/topology"
)

// cdgFabrics are the two fabrics the kept CDG is pinned on: the paper's
// 324-node fat tree and the benchmark's 512-host flap fabric.
var cdgFabrics = []struct {
	name  string
	build func() (*topology.Topology, error)
}{
	{"fattree324", func() (*topology.Topology, error) { return topology.BuildPaperFatTree(324) }},
	{"xgft512", func() (*topology.Topology, error) {
		return topology.BuildXGFT(topology.XGFTSpec{M: []int{8, 8, 8}, W: []int{1, 8, 8}}, 16)
	}},
}

// newCDGServer boots a fabric under the given SR-IOV model, incremental
// routing and port-255 invalidation behind a one-zone Server.
func newCDGServer(t *testing.T, topo *topology.Topology, model sriov.Model, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	eng, err := routing.New("minhop")
	if err != nil {
		t.Fatal(err)
	}
	cas := topo.CAs()
	c, _, err := cloud.New(topo, cas[0], cas[1:], cloud.Config{
		Model: model, VFsPerHypervisor: 2, Engine: eng, Scheduler: cloud.Spread{}, RouteWorkers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.SM.IncrementalRouting = true
	c.RC.Mitigation = core.MitigationInvalidate
	c.SM.InjectFaults(smp.FaultConfig{Seed: 1})
	srv := NewServer(c, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown(context.Background()) //nolint:errcheck
	})
	return srv, ts
}

// trunk is one end of a switch-to-switch link: what a flap takes down.
type trunk struct {
	sw   topology.NodeID
	port ib.PortNum
}

// strataLinks returns one switch-to-switch link per stratum: a leaf's
// uplink and, on a fabric of three levels or more, a link between two
// switches without CAs.
func strataLinks(topo *topology.Topology) (links []trunk) {
	var up, top bool
	for _, sw := range topo.Switches() {
		for _, p := range topo.Node(sw).Ports {
			if p.Peer == topology.NoNode || p.Peer < sw || !topo.Node(p.Peer).IsSwitch() {
				continue
			}
			switch leafward := hasCA(topo, sw) || hasCA(topo, p.Peer); {
			case leafward && !up:
				up = true
				links = append(links, trunk{sw, p.Num})
			case !leafward && !top:
				top = true
				links = append(links, trunk{sw, p.Num})
			}
		}
	}
	return links
}

func hasCA(topo *topology.Topology, sw topology.NodeID) bool {
	for _, p := range topo.Node(sw).Ports {
		if p.Peer != topology.NoNode && !topo.Node(p.Peer).IsSwitch() {
			return true
		}
	}
	return false
}

// flapLink takes a link down or up the way the chaos harness does — state
// change and sweeps on the SM — and asks the API to reconfigure.
func flapLink(t *testing.T, srv *Server, do func(string, string, any) int, l trunk, up bool) {
	t.Helper()
	if err := srv.c.SM.Topo.SetLinkState(l.sw, l.port, up); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.c.SM.LightSweep(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.c.SM.Resweep(); err != nil {
		t.Fatal(err)
	}
	if st := do("POST", "/v1/reconfigure", nil); st != 200 {
		t.Fatalf("reconfigure with %v up=%v: status %d", l, up, st)
	}
}

// lastSpanAttrs returns the attributes of the newest span of tr.
func lastSpanAttrs(tr *telemetry.Tracer) map[string]any {
	sv, _ := tr.SpanByID(tr.LastSpanID())
	return sv.Attrs
}

// squareTransition is the section VI-C hazard of audit.TestTransientCDGCycle:
// a four-switch ring on which the old and the new routing are each acyclic
// and their union is not.
func squareTransition(t *testing.T) (topo *topology.Topology, old, target cdg.Routes, dlids []ib.LID) {
	topo = topology.New("square")
	var sw, ca [4]topology.NodeID
	for i := range sw {
		sw[i] = topo.AddSwitch(4, "")
	}
	for i := range ca {
		ca[i] = topo.AddCA("")
		if err := topo.Connect(sw[i], 1, sw[(i+1)%4], 2); err != nil {
			t.Fatal(err)
		}
		if err := topo.Connect(ca[i], 1, sw[i], 3); err != nil {
			t.Fatal(err)
		}
	}
	nodeOf := func(l ib.LID) topology.NodeID {
		if l >= 10 && l <= 13 {
			return ca[l-10]
		}
		return topology.NoNode
	}
	tables := func(sets [4][][2]int) cdg.Routes {
		out := map[topology.NodeID]*ib.LFT{}
		for i, entries := range sets {
			out[sw[i]] = ib.NewLFT(16)
			for _, e := range entries {
				out[sw[i]].Set(ib.LID(e[0]), ib.PortNum(e[1]))
			}
		}
		return cdg.Tables{Table: func(sw topology.NodeID) *ib.LFT { return out[sw] }, Owner: nodeOf}
	}
	old = tables([4][][2]int{{{12, 1}}, {{12, 1}, {13, 1}}, {{12, 3}, {13, 1}}, {{13, 3}}})
	target = tables([4][][2]int{{{10, 3}, {11, 1}}, {{11, 3}}, {{10, 1}}, {{10, 1}, {11, 1}}})
	return topo, old, target, []ib.LID{10, 11, 12, 13}
}

// TestMaintainedCDGMatchesCold is the proof obligation of the kept CDG: one
// long-lived auditor — the server's, which follows the fabric from pass to
// pass — and a fresh audit.New give identical transition and full reports
// (wall time aside), identical old_edges/union_edges and identical cycle
// text after every op of a seeded sequence: flaps of both strata, migrations,
// creates and destroys under dynamic LIDs, a reconcile, injected DropPort and
// loop corruptions and their repair, the section VI-C square as a real union
// cycle, and a subnet-manager handover. Every cold reason must show up, and
// most passes must be warm. Reachability is held to the same oracle: the
// full passes walk only the LID columns that changed, and the server's own
// fast pass after each reconfigure and reconcile equals a fresh auditor's
// over the snapshot it read. A corruption is caught by the warm pass after
// it, the pass after that runs cold (violations), and once repaired the
// passes are warm again.
func TestMaintainedCDGMatchesCold(t *testing.T) {
	if testing.Short() {
		t.Skip("two fabrics, ~100 full audits each")
	}
	for _, f := range cdgFabrics {
		t.Run(f.name, func(t *testing.T) {
			topo, err := f.build()
			if err != nil {
				t.Fatal(err)
			}
			runCDGOracle(t, topo)
		})
	}
}

func runCDGOracle(t *testing.T, topo *topology.Topology) {
	srv, ts := newCDGServer(t, topo, sriov.VSwitchDynamic, Config{}) // LIDs come and go with VMs
	cl := ts.Client()
	c := srv.c
	rng := rand.New(rand.NewSource(28))
	passes := map[string]int{}
	record := func(attrs map[string]any) {
		if attrs["cdg"] == "warm" {
			passes["warm"]++
		} else {
			passes[fmt.Sprint("cold ", attrs["cdg_reason"])]++
		}
	}
	step := 0
	same := func(what string, got, want *audit.Report, gotAttrs, wantAttrs map[string]any, keys ...string) {
		t.Helper()
		g, w := *got, *want
		g.WallUS, w.WallUS = 0, 0
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("step %d (%s): kept graph reports\n%+v\na fresh auditor\n%+v", step, what, g, w)
		}
		for _, k := range keys {
			if gotAttrs[k] != wantAttrs[k] {
				t.Fatalf("step %d (%s): %s %v, a fresh auditor %v", step, what, k, gotAttrs[k], wantAttrs[k])
			}
		}
		record(gotAttrs)
	}
	// Fabric-wide passes of the server's auditor by how reachability ran:
	// its own fast passes after reconfigures and reconciles, and check's
	// full passes.
	reach := map[string]int{}
	noteReach := func(attrs map[string]any) {
		if attrs["reach"] == "warm" {
			reach["warm"]++
		} else {
			reach[fmt.Sprint("cold ", attrs["reach_reason"])]++
		}
	}
	fast, fullWarm, fullZero, walked, active := 0, 0, 0, 0, 0
	afterFast := false // the server's fast pass ran since the last full pass
	var lastFull *audit.Report
	var lastFullAttrs map[string]any
	// served holds the fast pass the server ran after a fabric-wide command
	// (the audit spans since span id since) to a fresh auditor's over the
	// snapshot it read.
	served := func(what string, since int) {
		t.Helper()
		ran := false
		for _, sv := range srv.tr.SpansSince(since) {
			if sv.Kind == telemetry.SpanAudit && sv.Attrs["reach"] != nil {
				noteReach(sv.Attrs)
				ran = ran || sv.Name == "fast"
			}
		}
		if !ran {
			return
		}
		fast, afterFast = fast+1, true
		got := *srv.aud.Last()
		want := *audit.New(nil, nil, audit.Config{}).Run(srv.Snapshot().AuditView(), audit.ScopeFast)
		got.WallUS, want.WallUS = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (%s): the server's fast pass reports\n%+v\na fresh auditor\n%+v", step, what, got, want)
		}
	}
	transition := func(what string, tp *topology.Topology, old, next cdg.Routes, dlids []ib.LID, got *audit.Report) {
		t.Helper()
		gotAttrs := lastSpanAttrs(srv.tr)
		hub := telemetry.NewHub()
		want := audit.New(hub, nil, audit.Config{}).Transition(tp, old, next, dlids)
		same(what, got, want, gotAttrs, lastSpanAttrs(hub.Tracer()), "old_edges", "union_edges")
	}
	// landed says a distribution's union was clean since the last full
	// pass: the kept graph holds the target it checked.
	landed, keptTarget := false, 0
	wire := func() {
		srv.WireTransitionMonitor()
		monitor := c.SM.OnDistribute
		c.SM.OnDistribute = func(old, next cdg.Routes) {
			monitor(old, next)
			landed = srv.aud.Last().Total == 0
			var dlids []ib.LID
			for _, tg := range c.SM.Targets() {
				dlids = append(dlids, tg.LID)
			}
			transition("distribution", c.SM.Topo, old, next, dlids, srv.aud.Last())
		}
	}
	wire()
	check := func(what string) {
		t.Helper()
		step++
		var v *audit.View
		if err := srv.co.Freeze(func() { v = srv.compose().AuditView() }); err != nil {
			t.Fatal(err)
		}
		got := srv.aud.Run(v, audit.ScopeFull)
		attrs := lastSpanAttrs(srv.tr)
		same(what, got, audit.New(nil, nil, audit.Config{}).Run(v, audit.ScopeFull), attrs, nil)
		if landed && attrs["cdg"] == "warm" && programmedIsTarget(c.SM) {
			if attrs["pairs"] != int64(0) {
				t.Fatalf("step %d (%s): the full pass after a completed distribution re-walked %v pairs", step, what, attrs["pairs"])
			}
			keptTarget++
		}
		landed = false
		noteReach(attrs)
		if attrs["reach"] == "warm" {
			n := int(attrs["lids_walked"].(int64))
			if afterFast && n != 0 {
				t.Fatalf("step %d (%s): the full pass after the server's fast pass walked %d columns", step, what, n)
			}
			fullWarm, walked, active = fullWarm+1, walked+n, active+len(v.ActiveLIDs)
			if n == 0 {
				fullZero++
			}
		}
		lastFull, lastFullAttrs, afterFast = got, attrs, false
	}
	do := func(method, path string, body any) int {
		t.Helper()
		since := srv.tr.LastSpanID()
		st := doJSON(t, cl, method, ts.URL+path, body, nil)
		served(method+" "+path, since)
		check(method + " " + path)
		return st
	}
	// reachRan fails unless the last full pass ran reachability as want says
	// ("warm" or a cold reason).
	reachRan := func(what, want string) {
		t.Helper()
		ran := fmt.Sprint(lastFullAttrs["reach"])
		if ran == "cold" {
			ran = fmt.Sprint(lastFullAttrs["reach_reason"])
		}
		if ran != want {
			t.Fatalf("%s: reachability ran %s, want %s", what, ran, want)
		}
	}
	hyps := c.Hypervisors()
	var fleet []string
	created := 0
	create := func() {
		name := fmt.Sprintf("vm%04d", created)
		created++
		if do("POST", "/v1/vms", CreateVMRequest{Name: name, Hypervisor: ptr(hyps[rng.Intn(len(hyps))])}) == 201 {
			fleet = append(fleet, name)
		}
	}
	lifecycle := func(n int) {
		for i := 0; i < n; i++ {
			switch k := rng.Intn(10); {
			case k == 0 || len(fleet) < 8:
				create()
			case k == 1:
				j := rng.Intn(len(fleet))
				if do("DELETE", "/v1/vms/"+fleet[j], nil) == 200 {
					fleet = slices.Delete(fleet, j, j+1)
				}
			default:
				do("POST", "/v1/vms/"+fleet[rng.Intn(len(fleet))]+"/migrate",
					MigrateVMRequest{Destination: hyps[rng.Intn(len(hyps))]})
			}
		}
	}

	check("boot")
	for len(fleet) < 24 {
		create()
	}
	lifecycle(16)
	links := strataLinks(topo)
	if want := len(topo.Switches()) / 100; len(links) < 1+want { // the 512-host fabric has three levels
		t.Fatalf("want a link in each of %d strata, found %v", 1+want, links)
	}
	for _, l := range links {
		for _, up := range []bool{false, true} {
			flapLink(t, srv, do, l, up)
			lifecycle(3)
		}
	}
	since := srv.tr.LastSpanID()
	if st := doJSON(t, cl, "POST", ts.URL+"/v1/reconcile?goal=defrag", nil, nil); st != 200 {
		t.Fatalf("reconcile: status %d", st)
	}
	served("reconcile defrag", since)
	check("reconcile defrag")
	lifecycle(6)

	// Corruptions written the way a chaos write lands, each surfaced by one
	// ordinary mutation: a DropPort at a VM's leaf, and a two-switch loop
	// for the same LID elsewhere. Two reconfigures distribute out of the
	// cyclic routing, then the entries are put back.
	vm := c.VM(fleet[0])
	lid, leaf := vm.Addr.LID, topo.LeafSwitchOf(vm.Hyp)
	write := func(sw topology.NodeID, port ib.PortNum, why string) {
		t.Helper()
		prov := &ib.Provenance{Mutation: ib.NextMutationID(), Engine: "chaos", Reason: why, Shard: ib.ShardNone}
		if err := srv.co.Freeze(func() {
			if _, err := c.SM.SetLFTEntriesProv(sw, []ib.LFTEntry{{LID: lid, Port: port}}, smp.DestinationRouted, prov, nil); err != nil {
				t.Error(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
		create()
	}
	var undo []func()
	corrupt := func(sw topology.NodeID, port ib.PortNum, why string) {
		orig := c.SM.ProgrammedLFT(sw).Get(lid)
		undo = append(undo, func() { write(sw, orig, "undo "+why) })
		write(sw, port, why)
	}
	corrupt(leaf, ib.DropPort, "drop-port")
	// The pass after the corruption walks its column from a clean base and
	// reports it; the next one cannot trust that base.
	if reachRan("drop-port", "warm"); lastFull.ByKind[string(audit.KindBlackhole)] == 0 {
		t.Fatalf("the pass after a DropPort at LID %d's leaf reports %+v", lid, lastFull)
	}
	check("after drop-port")
	reachRan("after drop-port", "violations")
	for _, sw := range topo.Switches() {
		if out := c.SM.ProgrammedLFT(sw).Get(lid); sw != leaf && hasCA(topo, sw) && int(out) < len(topo.Node(sw).Ports) {
			up := topo.Node(sw).Ports[out].Peer
			corrupt(up, topo.PortToward(up, sw), "two-switch-loop")
			break
		}
	}
	flapLink(t, srv, do, links[0], false)
	flapLink(t, srv, do, links[0], true)
	for i := len(undo) - 1; i >= 0; i-- {
		undo[i]()
	}
	check("repaired")
	if lastFull.Total != 0 {
		t.Fatalf("the repaired fabric reports %+v", lastFull)
	}
	check("after repair")
	if reachRan("after repair", "warm"); lastFullAttrs["lids_walked"] != int64(0) {
		t.Fatalf("after repair a full pass over an unchanged fabric walked %v columns", lastFullAttrs["lids_walked"])
	}
	lifecycle(3)

	// The section VI-C square, checked by the long-lived auditor between two
	// passes on the fat tree: another topology, and a refused insert.
	sq, old, target, dlids := squareTransition(t)
	got := srv.aud.Transition(sq, old, target, dlids)
	transition("square", sq, old, target, dlids, got)
	if got.ByKind[string(audit.KindTransientCDG)] != 1 {
		t.Fatalf("the square's union cycle went unreported: %+v", got)
	}
	lifecycle(3)

	// A subnet-manager handover, as scenario.Harness.Handover does it.
	eng, err := routing.New("minhop")
	if err != nil {
		t.Fatal(err)
	}
	cas := topo.CAs()
	stby, err := sm.New(topo, cas[len(cas)-1], eng)
	if err != nil {
		t.Fatal(err)
	}
	cur := c.SM
	stby.SetTelemetry(cur.Telemetry())
	stby.Dist, stby.RouteWorkers, stby.LMC, stby.IncrementalRouting = cur.Dist, 1, cur.LMC, true
	if _, err := stby.Sweep(); err != nil {
		t.Fatal(err)
	}
	if _, err := sm.Negotiate(cur, stby, 1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := stby.AdoptFabricState(cur); err != nil {
		t.Fatal(err)
	}
	c.SM, c.RC.SM = stby, stby
	wire()
	lifecycle(6)
	flapLink(t, srv, do, links[0], false)
	flapLink(t, srv, do, links[0], true)

	t.Logf("%d steps; CDG passes %v (%d after a completed distribution, re-walking no pair); reachability passes %v (%d served fast passes; %d warm full passes, %d of them walking no column, %.2f %% of the active LIDs on average)",
		step, passes, keptTarget, reach, fast, fullWarm, fullZero, 100*float64(walked)/float64(active))
	if keptTarget == 0 {
		t.Errorf("no warm full pass followed a completed distribution")
	}
	if 100*walked > 3*active {
		t.Errorf("a warm full pass walks %.2f %% of the active LIDs on average, budget 3 %%", 100*float64(walked)/float64(active))
	}
	if fast == 0 || reach["cold violations"] == 0 {
		t.Errorf("the sequence ran %d fast passes and %d cold for violations: it proves nothing", fast, reach["cold violations"])
	}
	if fullWarm < 8*(step-fullWarm) {
		t.Errorf("%d of %d full passes ran reachability warm", fullWarm, step)
	}
	for _, want := range []string{"cold first", "cold topology", "cold cyclic", "cold refused"} {
		if passes[want] == 0 {
			t.Errorf("no %s pass: the sequence missed a fallback (passes %v)", want, passes)
		}
	}
	cold := 0
	for k, n := range passes {
		if k != "warm" {
			cold += n
		}
	}
	if passes["warm"] < 8*cold {
		t.Errorf("passes %v: the kept graph was rebuilt too often", passes)
	}
	// /metrics counts the long-lived auditor's passes by how they ran.
	resp, err := cl.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for mode, want := range map[string]int{"warm": passes["warm"], "cold": cold} {
		if line := fmt.Sprintf("audit_cdg_passes{mode=%q} %d\n", mode, want); !strings.Contains(string(body), line) {
			t.Errorf("/metrics lacks %q", line)
		}
	}
	for mode, want := range map[string]int{"warm": reach["warm"], "cold": fast + step - reach["warm"]} {
		if line := fmt.Sprintf("audit_reach_passes{mode=%q} %d\n", mode, want); !strings.Contains(string(body), line) {
			t.Errorf("/metrics lacks %q", line)
		}
	}
}

// TestMaintainedCDGConcurrentPasses: cadence full audits run beside
// reconfigures after link flaps, and every distribution's transition check
// takes the same graph. Under -race this is the test of cdgMu; afterwards
// the long-lived auditor must still agree with a fresh one.
func TestMaintainedCDGConcurrentPasses(t *testing.T) {
	topo, err := topology.BuildPaperFatTree(324)
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newCDGServer(t, topo, sriov.VSwitchDynamic, Config{AuditInterval: 2 * time.Millisecond})
	cl := ts.Client()
	do := func(method, path string, body any) int { return doJSON(t, cl, method, ts.URL+path, body, nil) }
	links := strataLinks(topo)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // an operator's full audits on top of the cadence
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := doJSONE(cl, "GET", ts.URL+"/v1/audit?run=full", nil, nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for range 4 {
		for _, l := range links {
			for _, up := range []bool{false, true} {
				if err := srv.co.Freeze(func() {
					if err := topo.SetLinkState(l.sw, l.port, up); err != nil {
						t.Error(err)
					}
					if _, err := srv.c.SM.LightSweep(); err != nil {
						t.Error(err)
					}
					if _, err := srv.c.SM.Resweep(); err != nil {
						t.Error(err)
					}
				}); err != nil {
					t.Fatal(err)
				}
				if st := do("POST", "/v1/reconfigure", nil); st != 200 {
					t.Fatalf("reconfigure: status %d", st)
				}
			}
		}
	}
	wg.Wait()
	var v *audit.View
	if err := srv.co.Freeze(func() { v = srv.compose().AuditView() }); err != nil {
		t.Fatal(err)
	}
	got, want := *srv.aud.Run(v, audit.ScopeFull), *audit.New(nil, nil, audit.Config{}).Run(v, audit.ScopeFull)
	got.WallUS, want.WallUS = 0, 0
	if !reflect.DeepEqual(got, want) || got.Total != 0 {
		t.Fatalf("after concurrent passes the kept graph reports\n%+v\na fresh auditor\n%+v", got, want)
	}
}

// programmedIsTarget reports whether every switch holds its target table:
// the last distribution completed.
func programmedIsTarget(mgr *sm.SubnetManager) bool {
	for _, sw := range mgr.Topo.Switches() {
		prog, tgt := mgr.ProgrammedLFT(sw), mgr.TargetLFT(sw)
		if (prog == nil) != (tgt == nil) || prog != nil && !prog.Equal(tgt) {
			return false
		}
	}
	return true
}

// TestKeptCDGAfterPartialDistribution: a flap's distribution loses SMPs and
// abandons some switches, so the programmed tables are a mixture of the old
// routing and the target the transition check kept. The next full pass
// brings the kept graph from that target to the mixture and reports what a
// fresh auditor reports: warm, unless the mixture is cyclic — the union
// R_old ∪ R_new walks each routing alone, and a switch still on the old
// routing may forward to one already on the new and back, a dependency
// neither holds. Once the faults clear, a redistribution completes, and the
// graph is clean: no violation, and a pass over the unchanged fabric
// re-walks no pair.
func TestKeptCDGAfterPartialDistribution(t *testing.T) {
	warm, cyclic := 0, 0
	for seed := int64(1); seed <= 6; seed++ {
		if partialDistribution(t, seed) {
			warm++
		} else {
			cyclic++
		}
	}
	t.Logf("six lossy distributions: %d mixtures checked warm, %d cyclic", warm, cyclic)
	if warm == 0 {
		t.Error("no lossy distribution left an acyclic mixture: the warm delta from a kept target went untested")
	}
}

// partialDistribution runs one lossy flap, its full pass, a fault-free
// redistribution and the passes after it, and reports whether the pass over
// the mixture ran warm.
func partialDistribution(t *testing.T, seed int64) (warm bool) {
	t.Helper()
	topo, err := topology.BuildPaperFatTree(324)
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newCDGServer(t, topo, sriov.VSwitchPrepopulated, Config{})
	cl := ts.Client()
	c := srv.c
	srv.WireTransitionMonitor()
	monitor, union := c.SM.OnDistribute, 0
	c.SM.OnDistribute = func(old, next cdg.Routes) {
		monitor(old, next)
		union = srv.aud.Last().Total
	}
	full := func(what string) (*audit.Report, map[string]any) {
		t.Helper()
		var v *audit.View
		if err := srv.co.Freeze(func() { v = srv.compose().AuditView() }); err != nil {
			t.Fatal(err)
		}
		got := srv.aud.Run(v, audit.ScopeFull)
		want := audit.New(nil, nil, audit.Config{}).Run(v, audit.ScopeFull)
		g, w := *got, *want
		g.WallUS, w.WallUS = 0, 0
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("seed %d, %s: kept graph reports\n%+v\na fresh auditor\n%+v", seed, what, g, w)
		}
		return got, lastSpanAttrs(srv.tr)
	}
	reconfigure := func(l trunk, up bool) int {
		t.Helper()
		if err := srv.co.Freeze(func() {
			if err := topo.SetLinkState(l.sw, l.port, up); err != nil {
				t.Error(err)
			}
			if _, err := c.SM.LightSweep(); err != nil {
				t.Error(err)
			}
			if _, err := c.SM.Resweep(); err != nil {
				t.Error(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
		return doJSON(t, cl, "POST", ts.URL+"/v1/reconfigure", nil, nil)
	}
	full("boot")
	link := strataLinks(topo)[0]

	// Every SMP has one attempt and a third of them are lost: the
	// distribution abandons some switches and updates the rest, which ones
	// fixed by the seed since one worker rolls the dice in job order. The
	// manager is idle between replies, so configuring it here is race free.
	dist := c.SM.Dist
	c.SM.Dist.Retry.MaxAttempts, c.SM.Dist.Workers = 1, 1
	c.SM.InjectFaults(smp.FaultConfig{Drop: 0.3, Seed: seed})
	if reconfigure(link, false); union != 0 {
		t.Fatalf("seed %d: the lossy distribution's union has a cycle", seed)
	}
	if programmedIsTarget(c.SM) {
		t.Fatalf("seed %d: the lossy distribution completed: nothing is left half-programmed", seed)
	}
	rep, attrs := full("after the lossy distribution")
	switch attrs["cdg"] {
	case "warm":
		if attrs["pairs"] == int64(0) {
			t.Fatalf("seed %d: the warm pass over an incomplete distribution re-walked no pair", seed)
		}
		warm = true
	default:
		if attrs["cdg_reason"] != "cyclic" || rep.ByKind[string(audit.KindDeadlock)] == 0 {
			t.Fatalf("seed %d: the pass over the mixture ran cold (%v) and reports %v", seed, attrs["cdg_reason"], rep.ByKind)
		}
	}

	c.SM.ClearFaults()
	c.SM.Dist = dist
	if st := reconfigure(link, false); st != 200 {
		t.Fatalf("seed %d: redistribution: status %d", seed, st)
	}
	if !programmedIsTarget(c.SM) {
		t.Fatalf("seed %d: the fault-free redistribution left switches behind", seed)
	}
	if rep, attrs := full("after the redistribution"); rep.Total != 0 || warm && attrs["pairs"] != int64(0) {
		t.Fatalf("seed %d: after the redistribution: %v, cdg %v, %v pairs re-walked", seed, rep.ByKind, attrs["cdg"], attrs["pairs"])
	}
	if _, attrs := full("again"); attrs["cdg"] != "warm" || attrs["pairs"] != int64(0) {
		t.Fatalf("seed %d: a pass over the unchanged fabric ran cdg %v and re-walked %v pairs", seed, attrs["cdg"], attrs["pairs"])
	}
	return warm
}
