package audit

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ibvsim/internal/cloud"
	"ibvsim/internal/ib"
	"ibvsim/internal/routing"
	"ibvsim/internal/sriov"
	"ibvsim/internal/telemetry"
	"ibvsim/internal/topology"
)

// fabricState is what a run of warm-reachability edits changes: tables are
// replaced by edited clones, never written in place, as the subnet manager
// does; owners and the active set are copied into every view; link state
// lives in the shared topology, so every flip is undone at the end.
type fabricState struct {
	r       *routed
	lfts    map[topology.NodeID]*ib.LFT
	owner   map[ib.LID]topology.NodeID
	active  []ib.LID
	removed []ib.LID // active LIDs taken out, to put back
	flipped []topology.Port
	flipsAt []topology.NodeID
}

func newFabricState(r *routed) *fabricState {
	f := &fabricState{r: r}
	f.reset()
	return f
}

// reset puts back the routed fabric: its tables, owners, active set and
// every link a flip took down or brought up.
func (f *fabricState) reset() {
	f.undoFlips()
	f.lfts, f.owner = map[topology.NodeID]*ib.LFT{}, map[ib.LID]topology.NodeID{}
	for sw, lft := range f.r.lfts {
		f.lfts[sw] = lft
	}
	for l, n := range f.r.nodeOf {
		f.owner[l] = n
	}
	f.active, f.removed = slices.Clone(f.r.lids), nil
}

func (f *fabricState) undoFlips() {
	for i := len(f.flipped) - 1; i >= 0; i-- {
		f.r.topo.SetLinkState(f.flipsAt[i], f.flipped[i].Num, f.flipped[i].Up) //nolint:errcheck // it was connected
	}
	f.flipped, f.flipsAt = nil, nil
}

// view is the fabric-wide view of the current state, at generation gen.
func (f *fabricState) view(gen uint64) *View {
	v := &View{Topo: f.r.topo, Gen: gen, LFTs: map[topology.NodeID]*ib.LFT{}, NodeOfLID: map[ib.LID]topology.NodeID{},
		ActiveLIDs: slices.Clone(f.active)}
	for sw, lft := range f.lfts {
		v.LFTs[sw] = lft
	}
	for l, n := range f.owner {
		v.NodeOfLID[l] = n
	}
	return v
}

// caLID returns an active LID a CA owns.
func (f *fabricState) caLID(rng *rand.Rand) (ib.LID, bool) {
	for try := 0; try < 100; try++ {
		l := f.active[rng.Intn(len(f.active))]
		if n := f.r.topo.Node(f.owner[l]); n != nil && !n.IsSwitch() {
			return l, true
		}
	}
	return 0, false
}

// The edits of a warm-reachability run, each one rule of the column delta
// (and the cold reasons) at work.
const (
	opEdit   = iota // an entry of a cloned table: real, management, drop or no port
	opFlip          // a link, switch-to-switch or to a CA, goes down or up
	opOwner         // a LID moves to another CA
	opLID           // a LID (a switch's too) leaves the active set, or one joins it
	opTable         // a switch loses its table, or gets it back
	opRepair        // everything back as routed
	opReach         // an op-scoped pass on the long-lived auditor
	numOps
)

// runWarmReach drives one long-lived auditor through the edits ops names and
// holds every report to a fresh auditor's over the same view: a warm pass
// must report what a cold one does, violation for violation and in the same
// order, with the same truncation. It returns how many fabric-wide passes
// the long-lived auditor ran warm and cold.
func runWarmReach(tb testing.TB, seed int64, ops []byte) (warm, cold int64) {
	tb.Helper()
	r := testFabrics(tb)["xgft-2x4-fuz"]
	rng := rand.New(rand.NewSource(seed))
	f := newFabricState(r)
	defer f.undoFlips()
	cfg := Config{MaxViolations: 8}
	hub := telemetry.NewHub()
	long := New(hub, nil, cfg)
	sws := r.topo.Switches()
	gone := map[topology.NodeID]*ib.LFT{}
	pass := func(step int, what string, scope Scope) {
		tb.Helper()
		v := f.view(uint64(step + 1))
		if scope == ScopeReach {
			v = r.opScoped(v, rng)
		}
		got, want := *long.Run(v, scope), *New(nil, nil, cfg).Run(v, scope)
		got.WallUS, want.WallUS = 0, 0
		if !reflect.DeepEqual(got, want) {
			tb.Fatalf("step %d (%s, %s): the long-lived auditor reports\n%+v\na fresh one\n%+v", step, what, scope, got, want)
		}
	}
	pass(0, "routed", ScopeFast)
	for step, op := range ops {
		what := fmt.Sprint("op ", op%numOps)
		switch op % numOps {
		case opEdit:
			sw := sws[rng.Intn(len(sws))]
			l, ok := f.caLID(rng)
			if f.lfts[sw] == nil || !ok {
				continue
			}
			next := f.lfts[sw].Clone()
			port := ib.PortNum(rng.Intn(len(r.topo.Node(sw).Ports) + 1))
			switch rng.Intn(4) {
			case 0:
				port = ib.DropPort
			case 1:
				port = 200
			}
			next.Set(l, port)
			f.lfts[sw] = next
		case opFlip:
			sw := r.topo.Node(sws[rng.Intn(len(sws))])
			if p := sw.Ports[1+rng.Intn(len(sw.Ports)-1)]; p.Peer != topology.NoNode {
				f.flipped, f.flipsAt = append(f.flipped, p), append(f.flipsAt, sw.ID)
				r.topo.SetLinkState(sw.ID, p.Num, !p.Up) //nolint:errcheck // the port was just seen connected
			}
		case opOwner:
			if l, ok := f.caLID(rng); ok {
				cas := r.topo.CAs()
				f.owner[l] = cas[rng.Intn(len(cas))]
			}
		case opLID:
			switch k := rng.Intn(3); {
			case k == 0 && len(f.removed) > 0: // back as it was
				l := f.removed[len(f.removed)-1]
				f.removed = f.removed[:len(f.removed)-1]
				f.active, f.owner[l] = append(f.active, l), r.nodeOf[l]
			case k == 1: // a new LID no table forwards
				l := ib.LID(40000 + rng.Intn(1000))
				cas := r.topo.CAs()
				f.active, f.owner[l] = append(f.active, l), cas[rng.Intn(len(cas))]
			default: // a switch's own LID too: the switch stops being an entry
				l := f.active[rng.Intn(len(f.active))]
				f.active = slices.DeleteFunc(f.active, func(m ib.LID) bool { return m == l })
				delete(f.owner, l)
				f.removed = append(f.removed, l)
			}
		case opTable:
			sw := sws[rng.Intn(len(sws))]
			if lft, ok := gone[sw]; ok {
				f.lfts[sw] = lft
				delete(gone, sw)
			} else if f.lfts[sw] != nil {
				gone[sw] = f.lfts[sw]
				delete(f.lfts, sw)
			}
		case opRepair:
			f.reset()
			clear(gone)
		case opReach:
			pass(step+1, what, ScopeReach)
			continue
		}
		scope := ScopeFast
		if op/numOps%2 == 1 {
			scope = ScopeFull
		}
		pass(step+1, what, scope)
	}
	return long.reachWarm.Value(), long.reachColdRuns.Value()
}

// FuzzWarmReach lets the fuzzer choose the edits — cloned-table entries,
// link flips of both kinds, owner moves, LIDs joining and leaving, tables
// lost and regained, repairs — that a long-lived auditor's warm passes must
// follow, report for report, against a fresh auditor at every step.
func FuzzWarmReach(f *testing.F) {
	f.Add(int64(1), []byte{opEdit, opRepair, opEdit, opRepair, opEdit + numOps})
	f.Add(int64(2), []byte{opFlip, opRepair, opFlip, opRepair, opFlip, opFlip})
	f.Add(int64(3), []byte{opOwner, opRepair, opOwner + numOps, opRepair, opOwner})
	f.Add(int64(4), []byte{opLID, opLID, opRepair, opLID, opLID, opReach, opLID})
	f.Add(int64(5), []byte{opTable, opTable, opRepair, opTable, opReach, opTable})
	// Spine 23 closes a loop for LID 11 that leaf 16, a lower-numbered
	// entry, enters first (TestWarmReachFallbackKeepsOrigins).
	f.Add(int64(313), []byte{opEdit})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		runWarmReach(t, seed, ops[:min(len(ops), 48)])
	})
}

// TestWarmReachFollowsEdits runs the fuzz target's body over seeded random
// edit sequences, so that every rule is exercised without the fuzzer, and
// fails if the long-lived auditor ran too few passes warm to prove anything.
func TestWarmReachFollowsEdits(t *testing.T) {
	var warm, cold int64
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 30)
		for i := range ops {
			// A repair one edit in three: most edits then land on a clean
			// base, which is when a pass runs warm.
			if ops[i] = byte(rng.Intn(2 * numOps)); rng.Intn(3) == 0 {
				ops[i] = opRepair
			}
		}
		w, c := runWarmReach(t, seed, ops)
		warm, cold = warm+w, cold+c
	}
	t.Logf("fabric-wide passes: %d warm, %d cold", warm, cold)
	if warm < cold {
		t.Errorf("only %d of %d fabric-wide passes ran warm", warm, warm+cold)
	}
}

// migrationViews boots a fabric under prepopulated vSwitch with one VM and
// returns the fabric-wide views before and after the VM migrates once.
func migrationViews(tb testing.TB, spec topology.XGFTSpec, radix int) (before, after *View) {
	tb.Helper()
	topo, err := topology.BuildXGFT(spec, radix)
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := routing.New("minhop")
	if err != nil {
		tb.Fatal(err)
	}
	cas := topo.CAs()
	c, _, err := cloud.New(topo, cas[0], cas[1:], cloud.Config{
		Model: sriov.VSwitchPrepopulated, VFsPerHypervisor: 2, Engine: eng, Scheduler: cloud.Spread{}})
	if err != nil {
		tb.Fatal(err)
	}
	hyps := c.Hypervisors()
	if _, err := c.CreateVMOn("vm", hyps[0]); err != nil {
		tb.Fatal(err)
	}
	view := func(gen uint64) *View {
		v := &View{Topo: topo, Gen: gen, LFTs: map[topology.NodeID]*ib.LFT{}, NodeOfLID: c.SM.AddressView()}
		for _, sw := range topo.Switches() {
			v.LFTs[sw] = c.SM.ProgrammedLFT(sw) // the manager writes clones, never these
		}
		for l := range v.NodeOfLID {
			v.ActiveLIDs = append(v.ActiveLIDs, l)
		}
		slices.Sort(v.ActiveLIDs)
		vm := c.VM("vm")
		v.VMs = []VMBinding{{Name: vm.Name, LID: vm.Addr.LID, Hyp: vm.Hyp}}
		return v
	}
	before = view(1)
	if _, err := c.MigrateVM("vm", hyps[len(hyps)-1]); err != nil {
		tb.Fatal(err)
	}
	return before, view(2)
}

// warmMigrationPass audits the views before and after one migration on one
// auditor and returns the columns the second pass walked and the
// allocations of a warm pass, the views alternating.
func warmMigrationPass(tb testing.TB, spec topology.XGFTSpec, radix int) (walked int, allocs float64) {
	tb.Helper()
	before, after := migrationViews(tb, spec, radix)
	hub := telemetry.NewHub()
	a := New(hub, nil, Config{})
	a.Run(before, ScopeFast)
	if rep := a.Run(after, ScopeFast); rep.Total != 0 {
		tb.Fatalf("the migration left violations: %+v", rep.Violations)
	}
	sv, _ := hub.Tracer().SpanByID(hub.Tracer().LastSpanID())
	if sv.Attrs["reach"] != "warm" {
		tb.Fatalf("the pass after a migration ran %v (%v)", sv.Attrs["reach"], sv.Attrs["reach_reason"])
	}
	walked = int(sv.Attrs["lids_walked"].(int64))
	a = New(nil, nil, Config{})
	views := []*View{before, after}
	i := 0
	a.Run(after, ScopeFast)
	allocs = testing.AllocsPerRun(20, func() {
		a.Run(views[i%2], ScopeFast)
		i++
	})
	return walked, allocs
}

// warmFlapPass boots the benchmark's fabric-events fabric (flapHalves), runs
// a fast pass on the routing one flap leaves, fails another trunk link, lets
// the subnet manager reroute, and runs the fast pass the reroute ends with on
// the same auditor. It returns the columns that pass named, the fabric's
// entry switches and the walk starts the pass made.
func warmFlapPass(tb testing.TB) (columns, entries, entered int) {
	tb.Helper()
	halves := flapHalves(tb, 2)
	healed, fail := halves[1], halves[2]
	hub := telemetry.NewHub()
	a := New(hub, nil, Config{})
	healed.set(tb) // every link up, as after the first flap
	a.Run(healed.view, ScopeFast)
	fail.set(tb)
	defer halves[3].set(tb)
	if rep := a.Run(fail.view, ScopeFast); rep.Total != 0 {
		tb.Fatalf("the reroute left violations: %+v", rep.Violations)
	}
	sv, _ := hub.Tracer().SpanByID(hub.Tracer().LastSpanID())
	if sv.Attrs["reach"] != "warm" {
		tb.Fatalf("the pass after a flap ran %v (%v)", sv.Attrs["reach"], sv.Attrs["reach_reason"])
	}
	n, ok := sv.Attrs["switches_entered"].(int64)
	if !ok {
		tb.Fatalf("the pass's span carries no switches_entered: %v", sv.Attrs)
	}
	var s scratch
	s.begin(fail.topo.NumNodes())
	s.entrySwitches(fail.view)
	return int(sv.Attrs["lids_walked"].(int64)), len(s.entries), int(n)
}

// TestWarmReachCosts is the deterministic gate on warm reachability: on the
// benchmark's 1 728-host fabric, the fabric-wide pass after one migration
// walks at most 4 LID columns, and a warm pass allocates no more there than
// on a 16-host fabric; on the fabric-events fabric, the fast pass after a
// link flap enters at most 10 % of the (named column, entry switch) starts
// a walk of those columns from every entry makes.
func TestWarmReachCosts(t *testing.T) {
	if testing.Short() {
		t.Skip("a 1 728-host fabric")
	}
	small, smallAllocs := warmMigrationPass(t, topology.XGFTSpec{M: []int{4, 4}, W: []int{1, 4}}, 8)
	big, bigAllocs := warmMigrationPass(t, topology.XGFTSpec{M: []int{12, 12, 12}, W: []int{1, 12, 12}}, 24)
	t.Logf("columns walked after one migration: %d (16 hosts), %d (1 728 hosts); allocations per warm pass %.0f and %.0f",
		small, big, smallAllocs, bigAllocs)
	if big > 4 {
		t.Errorf("the pass after one migration walked %d columns, budget 4", big)
	}
	if bigAllocs > smallAllocs {
		t.Errorf("a warm pass allocates %.0f times at 1 728 hosts, %.0f at 16: it grows with the fabric", bigAllocs, smallAllocs)
	}
	columns, entries, entered := warmFlapPass(t)
	all := columns * entries
	t.Logf("the fast pass after a flap named %d columns over %d entry switches and made %d walk starts (%.2f %% of %d)",
		columns, entries, entered, 100*float64(entered)/float64(all), all)
	if 10*entered > all {
		t.Errorf("the fast pass after a flap made %d walk starts, budget 10 %% of %d", entered, all)
	}
}

// TestWarmReachFallbackKeepsOrigins: a warm edit's only changed switch closes
// a forwarding loop that a lower-numbered entry enters at another switch.
// Walked from the changed switch, the loop originates there; the cold walk
// charges it to where that entry enters it. The long-lived auditor must fall
// back to the cold walk and report what a fresh one does, truncation
// included — not its own start's violation.
func TestWarmReachFallbackKeepsOrigins(t *testing.T) {
	r := testFabrics(t)["xgft-2x4-fuz"]
	cfg := Config{MaxViolations: 1}
	for _, x := range r.topo.Switches() {
		for _, l := range r.lids {
			if r.topo.Node(r.nodeOf[l]).IsSwitch() {
				continue
			}
			for _, p := range r.topo.Node(x).Ports {
				if p.Peer == topology.NoNode || !r.topo.Node(p.Peer).IsSwitch() {
					continue
				}
				f := newFabricState(r)
				next := f.lfts[x].Clone()
				next.Set(l, p.Num)
				f.lfts[x] = next
				v := f.view(2)
				want := *New(nil, nil, cfg).Run(v, ScopeFast)
				if want.Total == 0 || want.Violations[0].Kind != KindLoop || want.Violations[0].Node == describe(r.topo, x) {
					continue // no loop, or one the changed switch's own walk names alike
				}
				hub := telemetry.NewHub()
				long := New(hub, nil, cfg)
				if rep := long.Run(newFabricState(r).view(1), ScopeFast); rep.Total != 0 {
					t.Fatalf("the routed fabric: %+v", rep.Violations)
				}
				got := *long.Run(v, ScopeFast)
				got.WallUS, want.WallUS = 0, 0
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("switch %d forwards LID %d out of port %d: the long-lived auditor reports\n%+v\na fresh one\n%+v",
						x, l, p.Num, got, want)
				}
				sv, _ := hub.Tracer().SpanByID(hub.Tracer().LastSpanID())
				if sv.Attrs["reach"] != "warm" || sv.Attrs["columns_rewalked"] != int64(1) {
					t.Fatalf("the pass ran %v and re-walked %v columns, want warm and 1", sv.Attrs["reach"], sv.Attrs["columns_rewalked"])
				}
				return
			}
		}
	}
	t.Fatal("no switch closes a loop that an entry enters elsewhere")
}

// BenchmarkWarmFullAudit times a full audit after one migration on the
// 11 664-node fat tree (minhop, prepopulated, 2 VFs): one auditor, the views
// before and after the migration alternating, so that every pass is warm —
// reachability walks the migration's columns, the CDG moves by its pairs,
// and the stale-entry sweep runs cold.
func BenchmarkWarmFullAudit(b *testing.B) {
	before, after := migrationViews(b, topology.FatTree11664, 36)
	a := New(nil, nil, Config{})
	a.Run(before, ScopeFull)
	a.Run(after, ScopeFull)
	views := []*View{before, after}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := a.Run(views[i%2], ScopeFull); rep.Total != 0 {
			b.Fatalf("violations: %+v", rep.Violations)
		}
	}
}

// BenchmarkWarmFastAuditAfterFlap times the fast pass a reroute ends with on
// the fabric-events fabric (512 hosts, minhop, prepopulated, 2 VFs): one
// auditor, the routings after a trunk link fails and after it heals
// alternating, so that every pass is warm and enters each column the flap
// changed only at the switches whose step changed.
func BenchmarkWarmFastAuditAfterFlap(b *testing.B) {
	halves := flapHalves(b, 1)[:2]
	defer halves[1].set(b)
	a := New(nil, nil, Config{})
	for _, h := range halves {
		h.set(b)
		a.Run(h.view, ScopeFast)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := halves[i%2]
		h.set(b)
		if rep := a.Run(h.view, ScopeFast); rep.Total != 0 {
			b.Fatalf("violations: %+v", rep.Violations)
		}
	}
}

// TestWarmReachNewEntrySwitch: a switch that was no entry forwards a column
// badly where no path from the entries passes — clean, and warm — until its
// own LID joins the active set. Then every column must be walked from it,
// not only the LID that joined.
func TestWarmReachNewEntrySwitch(t *testing.T) {
	r := testFabrics(t)["xgft-2x4-fuz"]
	for _, sw := range r.topo.Switches() {
		if hasCA(r.topo, sw) {
			continue // a leaf stays an entry for its CAs
		}
		own := ib.LID(0)
		for l, n := range r.nodeOf {
			if n == sw {
				own = l
			}
		}
		for _, l := range r.lids {
			if r.topo.Node(r.nodeOf[l]).IsSwitch() {
				continue
			}
			f := newFabricState(r)
			f.active = slices.DeleteFunc(f.active, func(m ib.LID) bool { return m == own })
			next := f.lfts[sw].Clone()
			next.Set(l, ib.DropPort)
			f.lfts[sw] = next
			a := New(nil, nil, Config{})
			if rep := a.Run(f.view(1), ScopeFast); rep.Total != 0 {
				continue // the entries' paths for l pass sw: not the case sought
			}
			f.active = append(f.active, own)
			v := f.view(2)
			got, want := *a.Run(v, ScopeFast), *New(nil, nil, Config{}).Run(v, ScopeFast)
			got.WallUS, want.WallUS = 0, 0
			if want.Total == 0 || !reflect.DeepEqual(got, want) {
				t.Fatalf("switch %d joins with a DropPort for LID %d: the long-lived auditor reports\n%+v\na fresh one\n%+v", sw, l, got, want)
			}
			return
		}
	}
	t.Fatal("no switch off every entry's path for some LID")
}

func hasCA(t *topology.Topology, sw topology.NodeID) bool {
	for _, p := range t.Node(sw).Ports {
		if p.Peer != topology.NoNode && !t.Node(p.Peer).IsSwitch() {
			return true
		}
	}
	return false
}
