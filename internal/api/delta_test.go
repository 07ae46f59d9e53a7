package api

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"ibvsim/internal/cloud"
	"ibvsim/internal/ib"
	"ibvsim/internal/shard"
	"ibvsim/internal/sm"
	"ibvsim/internal/smp"
	"ibvsim/internal/sriov"
	"ibvsim/internal/topology"
)

// scratchSnapshot is the oracle the delta-maintained snapshot is held to:
// the snapshot the one constructor derives from nothing, with every VM and
// every hypervisor of every zone named as touched. Call it only while no
// command is in flight.
func scratchSnapshot(s *Server, gen uint64) *Snapshot {
	c := s.c
	var parts []*shard.Snap
	for _, z := range s.co.Part.Zones {
		ours := func(name string) *cloud.VM {
			if vm := c.VM(name); vm != nil && s.co.Part.ZoneOfHyp(vm.Hyp) == z.ID {
				return vm
			}
			return nil
		}
		p, _ := shard.Empty(z.ID, z.Hyps).Next(c, ours, gen, c.VMs(), z.Hyps)
		parts = append(parts, p)
	}
	return s.next(nil, gen, parts)
}

// owned is one entry of an address table.
type owned struct {
	lid   ib.LID
	node  topology.NodeID
	extra bool
}

// addresses flattens an address table for comparison.
func addresses(t *sm.AddressTable) []owned {
	out := make([]owned, 0, t.Len())
	t.Each(func(l ib.LID, n topology.NodeID, extra bool) { out = append(out, owned{l, n, extra}) })
	return out
}

// partRows flattens a part's rows for comparison.
func partRows(p *shard.Snap) (vms []cloud.VM, hyps []shard.HypState) {
	p.EachVM(func(vm *cloud.VM) { vms = append(vms, *vm) })
	p.EachHyp(func(h *shard.HypState) { hyps = append(hyps, *h) })
	return
}

// diffSnapshots names the first field in which two snapshots differ, Gen
// aside ("" when none does): rows value for value, the LID maps entry for
// entry, the tables pointer for pointer.
func diffSnapshots(got, want *Snapshot) string {
	switch {
	case got.Fabric != want.Fabric || got.Model != want.Model || got.SMNode != want.SMNode:
		return fmt.Sprintf("header: %s/%s/%d, want %s/%s/%d", got.Fabric, got.Model, got.SMNode, want.Fabric, want.Model, want.SMNode)
	case got.mgr != want.mgr:
		return "read from another subnet manager"
	case len(got.parts) != len(want.parts):
		return fmt.Sprintf("%d parts, want %d", len(got.parts), len(want.parts))
	case !slices.Equal(got.lidOf, want.lidOf):
		return "lidOf differs"
	case !slices.Equal(addresses(got.addrs), addresses(want.addrs)):
		return "LID -> node table differs"
	case !slices.Equal(got.lfts, want.lfts):
		return "table pointers differ"
	}
	for i, g := range got.parts {
		w := want.parts[i]
		if g.Shard != w.Shard || g.FreeVFs != w.FreeVFs || g.NumVMs() != w.NumVMs() || g.NumHyps() != w.NumHyps() {
			return fmt.Sprintf("part %d: shard %d, %d free VFs, %d VMs, %d hyps; want %d, %d, %d, %d",
				i, g.Shard, g.FreeVFs, g.NumVMs(), g.NumHyps(), w.Shard, w.FreeVFs, w.NumVMs(), w.NumHyps())
		}
		gv, gh := partRows(g)
		wv, wh := partRows(w)
		for k := range gv {
			if gv[k] != wv[k] {
				return fmt.Sprintf("part %d VM row %d: %+v, want %+v", i, k, gv[k], wv[k])
			}
		}
		for k := range gh {
			if gh[k] != wh[k] {
				return fmt.Sprintf("part %d hypervisor row %d: %+v, want %+v", i, k, gh[k], wh[k])
			}
		}
	}
	return ""
}

// TestSnapshotDeltaEqualsScratch is the pin of the persistent snapshot: over
// a seeded sequence of more than a thousand commands — the benchmark's 8:1:1
// migrate/create/destroy mix with whatever the fleet refuses (full and
// same-node destinations, unknown and duplicate names, a non-hypervisor),
// migrations the transport abandons mid-commit, a reconfigure after a link
// flap, a multi-wave reconcile and one subnet-manager swap done the way
// scenario.Harness.Handover does it (no publish in between: the delta must
// notice the manager changed under it) — the snapshot served after every
// reply equals the one built from nothing with everything touched. All three
// SR-IOV models, through Shards 0, 1, 2, 4 and 8.
func TestSnapshotDeltaEqualsScratch(t *testing.T) {
	if testing.Short() {
		t.Skip("fifteen 324-node fabrics, 1100 commands each")
	}
	for _, model := range []sriov.Model{sriov.SharedPort, sriov.VSwitchPrepopulated, sriov.VSwitchDynamic} {
		for _, shards := range []int{0, 1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/shards=%d", model, shards), func(t *testing.T) {
				runDeltaPin(t, model, shards)
			})
		}
	}
}

func runDeltaPin(t *testing.T, model sriov.Model, shards int) {
	srv, ts, ft := newPinServer(t, model, shards, Config{})
	cl := ts.Client()
	c := srv.c
	hyps := c.Hypervisors()
	rng := rand.New(rand.NewSource(21))
	steps, statuses := 0, map[int]int{}

	// The oracle reads the cloud, so the zone actors must be parked. The
	// served snapshot is the one the reply followed: nothing composes it
	// again on the way.
	check := func(what string) {
		t.Helper()
		steps++
		got := srv.Snapshot()
		var d string
		if err := srv.co.Freeze(func() { d = diffSnapshots(got, scratchSnapshot(srv, got.Gen)) }); err != nil {
			t.Fatal(err)
		}
		if d != "" {
			t.Fatalf("step %d (%s): served snapshot is not the one built from scratch: %s", steps, what, d)
		}
	}
	do := func(method, path string, body any) int {
		t.Helper()
		st := doJSON(t, cl, method, ts.URL+path, body, nil)
		statuses[st]++
		check(method + " " + path)
		return st
	}
	// The client's own idea of the fleet, enough to aim ops at live VMs.
	var fleet []string
	created := 0
	create := func() {
		name := fmt.Sprintf("vm%04d", created)
		created++
		if do("POST", "/v1/vms", CreateVMRequest{Name: name, Hypervisor: ptr(hyps[rng.Intn(len(hyps))])}) == 201 {
			fleet = append(fleet, name)
		}
	}
	destroy := func() {
		i := rng.Intn(len(fleet))
		if do("DELETE", "/v1/vms/"+fleet[i], nil) == 200 {
			fleet = slices.Delete(fleet, i, i+1)
		}
	}
	migrate := func() int {
		return do("POST", "/v1/vms/"+fleet[rng.Intn(len(fleet))]+"/migrate",
			MigrateVMRequest{Destination: hyps[rng.Intn(len(hyps))]})
	}
	lifecycle := func(n int) {
		for i := 0; i < n; i++ {
			switch k := rng.Intn(10); {
			case k == 0 || len(fleet) < 8:
				create()
			case k == 1:
				destroy()
			default:
				migrate()
			}
		}
	}

	check("boot")
	// A fleet dense enough that random destinations are often full.
	for len(fleet) < len(hyps) {
		create()
	}
	lifecycle(250)

	// Refusals that never reach the cloud's happy path.
	do("POST", "/v1/vms", CreateVMRequest{Name: fleet[0], Hypervisor: ptr(hyps[0])})
	do("POST", "/v1/vms", CreateVMRequest{Name: "stray", Hypervisor: ptr(c.SM.SMNode)})
	do("POST", "/v1/vms/ghost/migrate", MigrateVMRequest{Destination: hyps[0]})
	do("POST", "/v1/vms/"+fleet[0]+"/migrate", MigrateVMRequest{Destination: c.SM.SMNode})
	do("DELETE", "/v1/vms/ghost", nil)

	// A link flap handled the way the chaos harness does it: state change
	// and sweeps directly on the SM, then a reconfigure through the API.
	topo := c.SM.Topo
	a, _, ap := trunkLink(t, topo)
	for _, up := range []bool{false, true} {
		if err := topo.SetLinkState(a, ap, up); err != nil {
			t.Fatal(err)
		}
		if _, err := c.SM.LightSweep(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.SM.Resweep(); err != nil {
			t.Fatal(err)
		}
		if st := do("POST", "/v1/reconfigure", nil); st != 200 {
			t.Fatalf("reconfigure with link up=%v: status %d", up, st)
		}
		lifecycle(100)
	}

	// A multi-wave reconcile: each wave publishes the rows it moved. (Before
	// anything is abandoned: the planner does not terminate over the VFs an
	// abandoned migration leaves held — ROADMAP item 4.)
	var rec ReconcileResponse
	if st := doJSON(t, cl, "POST", ts.URL+"/v1/reconcile?goal=defrag", nil, &rec); st != 200 && st != 500 {
		t.Fatalf("reconcile: status %d", st)
	}
	check("reconcile defrag")
	if rec.Waves < 2 {
		t.Fatalf("defrag of a scattered fleet planned %d waves, want several", rec.Waves)
	}
	lifecycle(150)

	// Every SMP is lost: migrations that reach the fabric are abandoned
	// mid-commit (Shared Port sends none and simply succeeds).
	ft.SetProfile(smp.FaultProfile{Drop: 1})
	abandoned := 0
	for i := 0; i < 12; i++ {
		if migrate() == 500 {
			abandoned++
		}
	}
	ft.SetProfile(smp.FaultProfile{})
	if model != sriov.SharedPort && abandoned == 0 {
		t.Fatal("no migration was abandoned under Drop: 1")
	}
	lifecycle(150)

	// The subnet manager is swapped under the server between two commands,
	// as scenario.Harness.Handover does it: nothing is published, so the
	// served snapshot is the old manager's until the next command — whose
	// publish must notice.
	cur := c.SM
	handOver(t, srv, ts)
	c.SM.InjectFaults(smp.FaultConfig{Seed: 2})
	if srv.snap.Load().mgr != cur {
		t.Fatal("the swap itself published a snapshot")
	}
	lifecycle(250)

	if steps < 1000 {
		t.Fatalf("only %d steps checked", steps)
	}
	if statuses[409] == 0 || statuses[404] == 0 || statuses[400] == 0 {
		t.Fatalf("the sequence refused too little: statuses %v", statuses)
	}
	t.Logf("%d steps, statuses %v, %d abandoned, %d reconcile waves", steps, statuses, abandoned, rec.Waves)
}

// TestPublishCostsWhatTheCommandTouched is the deterministic gate on the
// persistent snapshot, on the benchmark's 1728-host fabric under one zone:
// publishing one migration reads exactly the VM's row and the two
// hypervisors' rows, rebuilds nothing, and — the zone's derivation plus the
// composition of the fabric snapshot — allocates a bounded number of bytes
// that is nearly independent of the resident fleet (rebuilding allocated
// ~1.1 MB of rows and maps per publish); on /metrics the counters and the
// publish-stage histogram exist. Under four zones a zone-local migration
// puts one new part under the root and keeps the other three by pointer.
func TestPublishCostsWhatTheCommandTouched(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the 1728-host benchmark fabric")
	}
	spec := topology.XGFTSpec{M: []int{12, 12, 12}, W: []int{1, 12, 12}}
	srv, ts := newFatTreeServer(t, spec, 2, sriov.VSwitchPrepopulated, Config{})
	cl := ts.Client()
	hyps := srv.c.Hypervisors()
	patched, rebuilds := srv.reg.Counter("api.snapshot.rows_patched"), srv.reg.Counter("api.snapshot.full_rebuilds")

	// publishBytes migrates vm0000 (created on the first hypervisor) to the
	// last one and back, directly on the cloud under a freeze, and measures
	// what publish itself allocates for it; the least of several is free of
	// noise from the runtime's own goroutines.
	publishBytes := func() uint64 {
		least := ^uint64(0)
		for i := 0; i < 8; i++ {
			var before, after runtime.MemStats
			var err error
			ferr := srv.co.Freeze(func() {
				from := srv.c.VM("vm0000").Hyp
				to := hyps[(1-i%2)*(len(hyps)-1)] // far apart: two chunks of rows
				if _, err = srv.c.MigrateVM("vm0000", to); err != nil {
					return
				}
				d := &done{rowVMs: []string{"vm0000"}, rowHyps: []topology.NodeID{to, from}}
				runtime.ReadMemStats(&before)
				srv.publish(d)
				runtime.ReadMemStats(&after)
			})
			if err = errors.Join(ferr, err); err != nil {
				t.Fatal(err)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	fill := func(from, to int) {
		for i := from; i < to; i++ {
			req := CreateVMRequest{Name: fmt.Sprintf("vm%04d", i), Hypervisor: ptr(hyps[i%(len(hyps)-2)])}
			if st := doJSON(t, cl, "POST", ts.URL+"/v1/vms", req, nil); st != 201 {
				t.Fatalf("create %s: status %d", req.Name, st)
			}
		}
	}

	fill(0, 256)
	at256 := publishBytes()
	fill(256, 1024)
	rowsBefore, rebuildsBefore := patched.Value(), rebuilds.Value()
	if st := doJSON(t, cl, "POST", ts.URL+"/v1/vms/vm0001/migrate", MigrateVMRequest{Destination: hyps[len(hyps)-3]}, nil); st != 200 {
		t.Fatalf("migrate: status %d", st)
	}
	if rows, full := patched.Value()-rowsBefore, rebuilds.Value()-rebuildsBefore; rows != 3 || full != 0 {
		t.Errorf("one migration read %d rows and triggered %d full rebuilds, want 3 (1 VM + 2 hypervisors) and 0", rows, full)
	}
	at1024 := publishBytes()
	t.Logf("publish allocates %d B at 256 resident VMs, %d B at 1024", at256, at1024)
	if at1024 > 32<<10 {
		t.Errorf("publish allocates %d B at 1024 resident VMs, want <= 32 KiB", at1024)
	}
	if at1024 >= 2*at256 {
		t.Errorf("publish bytes grew %d -> %d from 256 to 1024 resident VMs, want < 2x", at256, at1024)
	}
	metrics := getText(t, cl, ts.URL+"/metrics")
	for _, name := range []string{"api_snapshot_rows_patched", "api_snapshot_full_rebuilds", "api_publish_wall_us"} {
		if !strings.Contains(metrics, name) {
			t.Errorf("/metrics has no %s", name)
		}
	}

	sharded, sts := newShardedServer(t, Config{Shards: 4})
	zone := sharded.Coordinator().Part.Zones[1].Hyps
	if st := doJSON(t, sts.Client(), "POST", sts.URL+"/v1/vms", CreateVMRequest{Name: "local", Hypervisor: ptr(zone[0])}, nil); st != 201 {
		t.Fatalf("sharded create: status %d", st)
	}
	before := sharded.Snapshot()
	if st := doJSON(t, sts.Client(), "POST", sts.URL+"/v1/vms/local/migrate", MigrateVMRequest{Destination: zone[1]}, nil); st != 200 {
		t.Fatalf("sharded migrate: status %d", st)
	}
	after := sharded.Snapshot()
	for i := range after.parts {
		if same := after.parts[i] == before.parts[i]; same != (i != 1) {
			t.Errorf("part %d reused by pointer: %v, want only zone 1's rebuilt", i, same)
		}
	}
}

// TestReconcileWaveCostsItsRows: a reconcile publishes the rows it moved,
// not the fabric. Over an applied defrag of a fleet scattered across zone 0,
// the whole command — k moves in all — reads at most 3k rows (each move's VM
// and its two hypervisors) and rebuilds nothing: the close publishes on the
// last wave's generation and reads no row. Under one zone and several.
func TestReconcileWaveCostsItsRows(t *testing.T) {
	if testing.Short() {
		t.Skip("boots three 324-node fabrics")
	}
	for _, shards := range []int{0, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			srv, ts := newShardedServer(t, Config{Shards: shards})
			cl := ts.Client()
			zone := srv.Coordinator().Part.Zones[0].Hyps
			for i := 0; i < 24; i++ { // one VM on every other hypervisor
				req := CreateVMRequest{Name: fmt.Sprintf("vm%02d", i), Hypervisor: ptr(zone[2*i])}
				if st := doJSON(t, cl, "POST", ts.URL+"/v1/vms", req, nil); st != 201 {
					t.Fatalf("create %s: status %d", req.Name, st)
				}
			}
			patched, rebuilds := srv.reg.Counter("api.snapshot.rows_patched"), srv.reg.Counter("api.snapshot.full_rebuilds")
			rows0, full0 := patched.Value(), rebuilds.Value()
			var rec ReconcileResponse
			if st := doJSON(t, cl, "POST", ts.URL+"/v1/reconcile?goal=defrag", nil, &rec); st != 200 || rec.Aborted {
				t.Fatalf("defrag: status %d, %+v", st, rec)
			}
			k := len(rec.Moves)
			if k == 0 {
				t.Fatal("a scattered fleet planned no moves")
			}
			rows := patched.Value() - rows0
			full := rebuilds.Value() - full0
			t.Logf("%d moves in %d waves read %d rows", k, rec.Waves, rows)
			if rows > int64(3*k) || full != 0 {
				t.Errorf("%d waves of %d moves read %d rows and rebuilt %d zones, want <= %d rows and none",
					rec.Waves, k, rows, full, 3*k)
			}
		})
	}
}
