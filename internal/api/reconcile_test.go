package api

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ibvsim/internal/cloud"
	"ibvsim/internal/core"
	"ibvsim/internal/ib"
	"ibvsim/internal/routing"
	"ibvsim/internal/sriov"
	"ibvsim/internal/telemetry"
	"ibvsim/internal/topology"
)

func TestReconcileEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, 6, 2, 3, sriov.VSwitchDynamic, Config{})
	cl := ts.Client()
	hyps := srv.Snapshot().Hyps()

	// Fragment: one VM on each of six hosts; minimal occupancy is two.
	for i := 0; i < 6; i++ {
		node := hyps[i].Node
		st := doJSON(t, cl, "POST", ts.URL+"/v1/vms",
			CreateVMRequest{Name: fmt.Sprintf("fr-%d", i), Hypervisor: &node}, nil)
		if st != http.StatusCreated {
			t.Fatalf("create fr-%d: status %d", i, st)
		}
	}

	// Dry run via the query form: plans, mutates nothing.
	var dry ReconcileResponse
	if st := doJSON(t, cl, "POST", ts.URL+"/v1/reconcile?goal=defrag&dry_run=1", nil, &dry); st != http.StatusOK {
		t.Fatalf("dry run: status %d: %+v", st, dry)
	}
	if !dry.DryRun || dry.Converged || len(dry.Moves) == 0 || dry.Applied != nil {
		t.Fatalf("dry run response: %+v", dry)
	}
	if dry.PredictedTotal.LFTSMPs == 0 || len(dry.Predicted) != dry.Waves {
		t.Fatalf("dry run prediction not populated: %+v", dry)
	}
	var vms struct {
		VMs []VMInfo `json:"vms"`
	}
	doJSON(t, cl, "GET", ts.URL+"/v1/vms", nil, &vms)
	if n := occupiedNodes(vms.VMs); n != 6 {
		t.Fatalf("dry run mutated placement: %d occupied hosts", n)
	}

	// Apply: the applied per-wave costs must equal the prediction exactly.
	var app ReconcileResponse
	if st := doJSON(t, cl, "POST", ts.URL+"/v1/reconcile", ReconcileRequest{Goal: "defrag"}, &app); st != http.StatusOK {
		t.Fatalf("apply: status %d: %+v", st, app)
	}
	if app.Aborted || !app.Converged || app.AuditViolations != 0 {
		t.Fatalf("apply response: %+v", app)
	}
	if len(app.Applied) != len(app.Predicted) {
		t.Fatalf("applied %d waves, predicted %d", len(app.Applied), len(app.Predicted))
	}
	for i := range app.Applied {
		pr, ap := app.Predicted[i], app.Applied[i]
		if pr.SwitchesUpdated != ap.SwitchesUpdated || pr.LFTSMPs != ap.LFTSMPs ||
			pr.InvalidationSMPs != ap.InvalidationSMPs || pr.HostSMPs != ap.HostSMPs ||
			pr.ModelledUS != ap.ModelledUS {
			t.Errorf("wave %d: predicted %+v != applied %+v", i, pr, ap)
		}
	}
	// The same prediction held across the dry run and the apply.
	if dry.PredictedTotal != app.PredictedTotal {
		t.Errorf("dry-run predicted %+v, apply predicted %+v", dry.PredictedTotal, app.PredictedTotal)
	}
	doJSON(t, cl, "GET", ts.URL+"/v1/vms", nil, &vms)
	if n := occupiedNodes(vms.VMs); n != 2 {
		t.Fatalf("defrag left %d occupied hosts, want 2", n)
	}

	// Re-reconciling the achieved state converges with zero moves.
	var again ReconcileResponse
	doJSON(t, cl, "POST", ts.URL+"/v1/reconcile?goal=defrag&dry_run=1", nil, &again)
	if !again.Converged || len(again.Moves) != 0 {
		t.Fatalf("achieved state must be a fixpoint: %+v", again)
	}

	// Drain via the JSON body form.
	target := vms.VMs[0].Node
	var drain ReconcileResponse
	host := target
	if st := doJSON(t, cl, "POST", ts.URL+"/v1/reconcile", ReconcileRequest{Goal: "drain", Host: &host}, &drain); st != http.StatusOK {
		t.Fatalf("drain: status %d: %+v", st, drain)
	}
	doJSON(t, cl, "GET", ts.URL+"/v1/vms", nil, &vms)
	for _, vm := range vms.VMs {
		if vm.Node == target {
			t.Fatalf("VM %q still on drained host %d", vm.Name, target)
		}
	}

	// Error surface: unknown goal and bad drain host are 400s; an explicit
	// placement of an unknown VM is a 404.
	var e map[string]string
	if st := doJSON(t, cl, "POST", ts.URL+"/v1/reconcile?goal=bogus", nil, &e); st != http.StatusBadRequest {
		t.Fatalf("bogus goal: status %d", st)
	}
	if st := doJSON(t, cl, "POST", ts.URL+"/v1/reconcile?goal=drain:zz", nil, &e); st != http.StatusBadRequest {
		t.Fatalf("bad drain host: status %d", st)
	}
	if st := doJSON(t, cl, "POST", ts.URL+"/v1/reconcile",
		ReconcileRequest{Placement: map[string]topology.NodeID{"ghost": hyps[0].Node}}, &e); st != http.StatusNotFound {
		t.Fatalf("ghost placement: status %d", st)
	}
}

func occupiedNodes(vms []VMInfo) int {
	nodes := map[topology.NodeID]bool{}
	for _, vm := range vms {
		nodes[vm.Node] = true
	}
	return len(nodes)
}

// newPaperFatTreeServer boots the paper's 648-node fat-tree behind the API.
func newPaperFatTreeServer(t *testing.T, vfs int, model sriov.Model) (*Server, *httptest.Server) {
	t.Helper()
	topo, err := topology.BuildPaperFatTree(648)
	if err != nil {
		t.Fatal(err)
	}
	cas := topo.CAs()
	c, _, err := cloud.New(topo, cas[0], cas[1:], cloud.Config{
		Model:            model,
		VFsPerHypervisor: vfs,
		RouteWorkers:     4,
		Engine:           routing.NewFatTree(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(c, Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown(context.Background())
	})
	return srv, ts
}

// TestReconcileFatTreeAcceptance is the PR's acceptance scenario: on a
// fragmented 648-node fat-tree with VMs across twice the minimal host count,
// reconcile(defrag) must (a) converge to minimal occupancy, (b) cost fewer
// LFT SMPs and fewer sequential batches than migrating the same moves
// one-by-one on an identically prepared server, and (c) predict its applied
// costs exactly.
func TestReconcileFatTreeAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("648-node fabric boot is slow")
	}
	const vfs = 4
	bootVMs := func(t *testing.T, srv *Server, ts *httptest.Server) {
		cl := ts.Client()
		hyps := srv.Snapshot().Hyps()
		// 24 VMs across 12 hosts (2 each): minimal occupancy is 6 hosts, so
		// the fleet is fragmented across 2x the minimal host count.
		for i := 0; i < 12; i++ {
			node := hyps[i*3].Node
			for j := 0; j < 2; j++ {
				st := doJSON(t, cl, "POST", ts.URL+"/v1/vms",
					CreateVMRequest{Name: fmt.Sprintf("vm-%02d-%d", i, j), Hypervisor: &node}, nil)
				if st != http.StatusCreated {
					t.Fatalf("create vm-%02d-%d: status %d", i, j, st)
				}
			}
		}
	}

	srvA, tsA := newPaperFatTreeServer(t, vfs, sriov.VSwitchDynamic)
	bootVMs(t, srvA, tsA)
	clA := tsA.Client()

	var rec ReconcileResponse
	if st := doJSON(t, clA, "POST", tsA.URL+"/v1/reconcile?goal=defrag", nil, &rec); st != http.StatusOK {
		t.Fatalf("reconcile: status %d: %+v", st, rec)
	}
	if rec.Aborted || !rec.Converged || rec.AuditViolations != 0 {
		t.Fatalf("reconcile response: %+v", rec)
	}
	if len(rec.Moves) == 0 || rec.Waves >= len(rec.Moves) {
		t.Fatalf("want fewer batches than moves, got %d waves for %d moves", rec.Waves, len(rec.Moves))
	}
	for i := range rec.Applied {
		pr, ap := rec.Predicted[i], rec.Applied[i]
		if pr.SwitchesUpdated != ap.SwitchesUpdated || pr.LFTSMPs != ap.LFTSMPs ||
			pr.InvalidationSMPs != ap.InvalidationSMPs || pr.HostSMPs != ap.HostSMPs ||
			pr.ModelledUS != ap.ModelledUS {
			t.Errorf("wave %d: predicted %+v != applied %+v", i, pr, ap)
		}
	}
	var vmsA struct {
		VMs []VMInfo `json:"vms"`
	}
	doJSON(t, clA, "GET", tsA.URL+"/v1/vms", nil, &vmsA)
	if n := occupiedNodes(vmsA.VMs); n != 6 { // ceil(24 VMs / 4 VFs)
		t.Fatalf("defrag left %d occupied hosts, want minimal 6", n)
	}

	// Baseline: an identically prepared server pays for the same moves with
	// one migration (one LFT distribution) each.
	srvB, tsB := newPaperFatTreeServer(t, vfs, sriov.VSwitchDynamic)
	bootVMs(t, srvB, tsB)
	clB := tsB.Client()
	baselineSMPs := 0
	for _, mv := range rec.Moves {
		var mrep MigrateResponse
		st := doJSON(t, clB, "POST", tsB.URL+"/v1/vms/"+mv.VM+"/migrate",
			MigrateVMRequest{Destination: mv.To}, &mrep)
		if st != http.StatusOK {
			t.Fatalf("baseline migrate %q: status %d", mv.VM, st)
		}
		baselineSMPs += mrep.Cost.LFTSMPs + mrep.Cost.InvalidationSMPs
	}
	var vmsB struct {
		VMs []VMInfo `json:"vms"`
	}
	doJSON(t, clB, "GET", tsB.URL+"/v1/vms", nil, &vmsB)
	if n := occupiedNodes(vmsB.VMs); n != 6 {
		t.Fatalf("baseline left %d occupied hosts, want 6", n)
	}

	batchedSMPs := rec.AppliedTotal.LFTSMPs + rec.AppliedTotal.InvalidationSMPs
	if batchedSMPs >= baselineSMPs {
		t.Fatalf("batched reconcile used %d SMPs, one-by-one used %d: coalescing bought nothing", batchedSMPs, baselineSMPs)
	}
	if rec.Waves >= len(rec.Moves) {
		t.Fatalf("batched reconcile used %d waves for %d moves", rec.Waves, len(rec.Moves))
	}
	t.Logf("defrag: %d moves in %d waves, %d SMPs batched vs %d one-by-one",
		len(rec.Moves), rec.Waves, batchedSMPs, baselineSMPs)
}

// fragment puts one VM on each of the first n hypervisors of a pin server.
func fragment(t *testing.T, srv *Server, ts *httptest.Server, n int) {
	t.Helper()
	for i, node := range srv.c.Hypervisors()[:n] {
		st := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/vms",
			CreateVMRequest{Name: fmt.Sprintf("fr-%d", i), Hypervisor: &node}, nil)
		if st != http.StatusCreated {
			t.Fatalf("create fr-%d: status %d", i, st)
		}
	}
}

// auditSpans counts the audit passes run since span ID after, by scope.
func auditSpans(srv *Server, after int) map[string]int {
	n := map[string]int{}
	for _, sp := range srv.tr.SpansSince(after) {
		if sp.Kind == telemetry.SpanAudit {
			n[sp.Name]++
		}
	}
	return n
}

// TestReconcileDryRunIsARead pins "a dry run is a read" in both control
// planes: it plans against live state and leaves no trace in it — no new
// generation, no new snapshot, no table edit, no audit pass, no
// flight-recorder entry. (It used to bump the generation, rebuild the
// snapshot, record a "mutation" and pay a fabric-wide audit.)
func TestReconcileDryRunIsARead(t *testing.T) {
	for _, shards := range []int{0, 2} {
		srv, ts, _ := newPinServer(t, sriov.VSwitchDynamic, shards, Config{})
		cl := ts.Client()
		fragment(t, srv, ts, 6)

		type state struct {
			gen     any
			snap    *Snapshot
			lfts    string
			audits  int64
			entries int
		}
		observe := func() state {
			var health map[string]any
			doJSON(t, cl, "GET", ts.URL+"/healthz", nil, &health)
			doJSON(t, cl, "GET", ts.URL+"/v1/vms", nil, nil) // sharded: compose now, not between the observations
			return state{health["generation"], srv.Snapshot(), lftDigest(srv),
				srv.Auditor().Runs(), len(srv.rec.Entries())}
		}
		before := observe()
		var dry ReconcileResponse
		if st := doJSON(t, cl, "POST", ts.URL+"/v1/reconcile?goal=defrag&dry_run=1", nil, &dry); st != http.StatusOK {
			t.Fatalf("shards=%d dry run: status %d", shards, st)
		}
		if !dry.DryRun || len(dry.Moves) == 0 || dry.Generation != 0 {
			t.Fatalf("shards=%d dry run response: %+v", shards, dry)
		}
		if after := observe(); after != before {
			t.Errorf("shards=%d: a dry run changed state:\n  before %+v\n  after  %+v", shards, before, after)
		}
	}
}

// TestReconcileAuditsWhatItMoved pins which audit runs when, in both control
// planes: an applied N-wave reconcile runs exactly N op-scoped reach passes
// (one per wave, over the columns that wave moved) and one fabric-wide fast
// pass before its reply; the dry run before it runs none.
func TestReconcileAuditsWhatItMoved(t *testing.T) {
	for _, shards := range []int{0, 2} {
		// The invalidation pre-pass forces single-move waves: N moves, N waves.
		srv, ts, _ := newPinServer(t, sriov.VSwitchDynamic, shards, Config{})
		cl := ts.Client()
		fragment(t, srv, ts, 6)

		mark := srv.tr.LastSpanID()
		doJSON(t, cl, "POST", ts.URL+"/v1/reconcile?goal=defrag&dry_run=1", nil, nil)
		if n := auditSpans(srv, mark); len(n) != 0 {
			t.Errorf("shards=%d: dry run audited: %v", shards, n)
		}

		mark = srv.tr.LastSpanID()
		var app ReconcileResponse
		if st := doJSON(t, cl, "POST", ts.URL+"/v1/reconcile?goal=defrag", nil, &app); st != http.StatusOK {
			t.Fatalf("shards=%d apply: status %d: %+v", shards, st, app)
		}
		if app.Waves < 2 || len(app.Applied) != app.Waves || app.AuditViolations != 0 {
			t.Fatalf("shards=%d apply response: %+v", shards, app)
		}
		n := auditSpans(srv, mark)
		if n["reach"] != app.Waves || n["fast"] != 1 || len(n) != 2 {
			t.Errorf("shards=%d: %d-wave apply ran audits %v, want %d reach + 1 fast", shards, app.Waves, n, app.Waves)
		}
	}
}

// TestReconcileWaveAuditGatesTheNext strands a moved LID at port 255 on the
// SM's leaf switch behind the first wave's back: the wave itself succeeds,
// its op-scoped audit must find the black hole, and the remaining waves must
// not run.
func TestReconcileWaveAuditGatesTheNext(t *testing.T) {
	srv, ts, _ := newPinServer(t, sriov.VSwitchDynamic, 0, Config{})
	cl := ts.Client()
	fragment(t, srv, ts, 6)
	var dry ReconcileResponse
	doJSON(t, cl, "POST", ts.URL+"/v1/reconcile?goal=defrag&dry_run=1", nil, &dry)
	if dry.Waves < 2 {
		t.Fatalf("need at least two waves, planned %d", dry.Waves)
	}
	var moved VMInfo
	doJSON(t, cl, "GET", ts.URL+"/v1/vms/"+dry.Moves[0].VM, nil, &moved)

	// The loop is idle between replies, so installing the seam here is race
	// free. It re-strands the column after every switch the wave programs,
	// so the last write before the audit is the corruption.
	smLeaf := srv.c.SM.Topo.LeafSwitchOf(srv.c.SM.SMNode)
	srv.c.RC.AfterUpdate = func() {
		srv.c.SM.SetLFTEntriesProv(smLeaf, []ib.LFTEntry{{LID: ib.LID(moved.LID), Port: ib.DropPort}}, srv.c.RC.Mode, nil, nil) //nolint:errcheck
	}
	var app ReconcileResponse
	st := doJSON(t, cl, "POST", ts.URL+"/v1/reconcile?goal=defrag", nil, &app)
	srv.c.RC.AfterUpdate = nil
	if st != http.StatusInternalServerError || !app.Aborted || app.AuditViolations == 0 {
		t.Fatalf("status %d, response %+v; want 500, aborted, audit_violations > 0", st, app)
	}
	if len(app.Applied) != 1 {
		t.Fatalf("%d waves applied after the first one failed its audit", len(app.Applied))
	}
}

// TestReconcileSpanAccountsForItsTime: where a reconcile's time goes is in
// its trace, not in a profiler. A dry run's tree is reconcile -> plan and
// nothing else; an applied batch's reconcile span is covered, within 10 %,
// by its children — the plan phase, then one wave phase each holding that
// wave's staging, distribution, migrations and op-scoped audit — and the
// closing fabric-wide audit is the root span that follows it.
func TestReconcileSpanAccountsForItsTime(t *testing.T) {
	const fleet = 48
	srv, ts, _ := newPinServer(t, sriov.VSwitchDynamic, 0, Config{})
	srv.c.RC.Mitigation = core.MitigationNone // merged waves: the work, not the per-wave epilogue, is the batch
	cl := ts.Client()
	fragment(t, srv, ts, fleet)

	// tree returns the last reconcile span since mark, its direct children
	// and the root spans after it.
	tree := func(mark int) (rec telemetry.SpanView, kids, after []telemetry.SpanView) {
		for _, sp := range srv.tr.SpansSince(mark) {
			switch {
			case sp.Kind == telemetry.SpanReconcile:
				rec, kids, after = sp, nil, nil
			case sp.Parent == rec.ID && rec.ID != 0:
				kids = append(kids, sp)
			case sp.Parent == 0 && rec.ID != 0:
				after = append(after, sp)
			}
		}
		return rec, kids, after
	}

	mark := srv.tr.LastSpanID()
	var dry ReconcileResponse
	if st := doJSON(t, cl, "POST", ts.URL+"/v1/reconcile?goal=defrag&dry_run=1", nil, &dry); st != http.StatusOK {
		t.Fatalf("dry run: status %d", st)
	}
	rec, kids, after := tree(mark)
	if got := srv.tr.LastSpanID() - mark; got != 2 || len(kids) != 1 || len(after) != 0 ||
		kids[0].Kind != telemetry.SpanPhase || kids[0].Name != "plan" {
		t.Fatalf("dry run emitted %d spans, children %+v, roots after %+v; want reconcile -> plan only", got, kids, after)
	}
	if a, want := fmt.Sprint(kids[0].Attrs["moves"], kids[0].Attrs["waves"]), fmt.Sprint(len(dry.Moves), dry.Waves); a != want || fmt.Sprint(kids[0].Attrs["edits"]) == "0" {
		t.Errorf("plan span attrs %v, want moves, waves = %s and edits > 0", kids[0].Attrs, want)
	}
	if kids[0].Wall > rec.Wall {
		t.Errorf("plan took %v of a %v reconcile", kids[0].Wall, rec.Wall)
	}

	// Wall clocks on a shared box: the accounting has to hold once in a few
	// batches, not in every one (a GC cycle between two spans is not a layer).
	var gap float64
	for attempt := 0; attempt < 4; attempt++ {
		if attempt > 0 { // fragment again: move every VM back to a host of its own
			placement := map[string]topology.NodeID{}
			for i, node := range srv.c.Hypervisors()[:fleet] {
				placement[fmt.Sprintf("fr-%d", i)] = node
			}
			if st := doJSON(t, cl, "POST", ts.URL+"/v1/reconcile", ReconcileRequest{Placement: placement}, nil); st != http.StatusOK {
				t.Fatalf("re-fragment: status %d", st)
			}
		}
		mark = srv.tr.LastSpanID()
		var app ReconcileResponse
		if st := doJSON(t, cl, "POST", ts.URL+"/v1/reconcile?goal=defrag", nil, &app); st != http.StatusOK || len(app.Applied) == 0 {
			t.Fatalf("apply: status %d: %+v", st, app)
		}
		rec, kids, after = tree(mark)
		if len(kids) != 1+app.Waves || kids[0].Name != "plan" || kids[1].Kind != telemetry.SpanPhase || kids[1].Name != "wave" {
			t.Fatalf("applied %d-wave reconcile's children are %+v, want the plan phase and one wave phase each", app.Waves, kids)
		}
		if len(after) != 1 || after[0].Kind != telemetry.SpanAudit || after[0].Name != "fast" {
			t.Fatalf("roots after an applied reconcile: %+v, want the closing fast audit", after)
		}
		var sum time.Duration
		for _, k := range kids {
			sum += k.Wall
		}
		gap = 1 - float64(sum)/float64(rec.Wall)
		t.Logf("attempt %d: reconcile %v = plan %v + %d waves %v + %.1f%% unaccounted; closing audit %v",
			attempt, rec.Wall, kids[0].Wall, len(kids)-1, sum-kids[0].Wall, 100*gap, after[0].Wall)
		if gap >= 0 && gap <= 0.10 {
			return
		}
	}
	t.Errorf("a reconcile span's children leave %.1f%% of its wall time unaccounted, want <= 10%%", 100*gap)
}
