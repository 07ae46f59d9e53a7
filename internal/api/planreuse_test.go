package api

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ibvsim/internal/core"
	"ibvsim/internal/routing"
	"ibvsim/internal/sm"
	"ibvsim/internal/sriov"
	"ibvsim/internal/telemetry"
	"ibvsim/internal/topology"
)

// reconcileReused posts one reconcile and returns its status, its reply and
// whether its plan phase ran a kept plan rather than planning (the plan
// span's reused attribute).
func reconcileReused(t *testing.T, srv *Server, ts *httptest.Server, req ReconcileRequest) (int, ReconcileResponse, bool) {
	t.Helper()
	mark := srv.tr.LastSpanID()
	var resp ReconcileResponse
	st := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/reconcile", req, &resp)
	var rec int
	for _, sp := range srv.tr.SpansSince(mark) {
		switch {
		case sp.Kind == telemetry.SpanReconcile:
			rec = sp.ID
		case sp.Kind == telemetry.SpanPhase && sp.Name == "plan" && sp.Parent == rec && rec != 0:
			reused, ok := sp.Attrs["reused"].(bool)
			if !ok {
				t.Fatalf("plan span attrs %v carry no reused flag", sp.Attrs)
			}
			return st, resp, reused
		}
	}
	t.Fatalf("reconcile %+v emitted no plan phase", req)
	return 0, resp, false
}

// replyString renders a reconcile reply for comparison: the applied total
// by value, the trace span (a count of spans emitted so far) left out.
func replyString(st int, r ReconcileResponse) string {
	var total CostReport
	if r.AppliedTotal != nil {
		total = *r.AppliedTotal
	}
	r.AppliedTotal, r.TraceSpan = nil, 0
	return fmt.Sprintf("%d %+v applied total %+v", st, r, total)
}

// placementOf is the VM → hypervisor map the server publishes.
func placementOf(srv *Server) map[string]topology.NodeID {
	out := map[string]topology.NodeID{}
	for _, vm := range srv.Snapshot().VMs() {
		out[vm.Name] = vm.Node
	}
	return out
}

// TestDryRunThenApplyEqualsApply: an apply that runs the plan its dry run
// kept is the apply that plans for itself. Twin servers booted alike take the
// same batches — defrag, spread, a drain and an explicit placement, in turn
// — one as dry run then apply, the other as the apply alone, under every
// SR-IOV model and mitigation. The applies' replies (moves, waves, predicted
// and applied costs, generation, audit verdict), the dry run's prediction,
// the programmed tables, the placement and a closing full audit all agree;
// only the first server's applies reuse a plan.
func TestDryRunThenApplyEqualsApply(t *testing.T) {
	for _, model := range []sriov.Model{sriov.SharedPort, sriov.VSwitchPrepopulated, sriov.VSwitchDynamic} {
		for _, mit := range []core.Mitigation{core.MitigationNone, core.MitigationInvalidate, core.MitigationDrain} {
			t.Run(fmt.Sprintf("%s/%v", model, mit), func(t *testing.T) {
				twin := func() (*Server, *httptest.Server) {
					srv, ts, _ := newPinServer(t, model, 0, Config{})
					srv.c.RC.Mitigation, srv.c.RC.DrainTime = mit, 2*time.Millisecond
					fragment(t, srv, ts, 12)
					return srv, ts
				}
				a, ats := twin()
				b, bts := twin()
				hyps := a.c.Hypervisors()
				batches := []func() ReconcileRequest{
					func() ReconcileRequest { return ReconcileRequest{Goal: "defrag"} },
					func() ReconcileRequest { return ReconcileRequest{Goal: "spread"} },
					func() ReconcileRequest { // empty the host fr-0 sits on
						return ReconcileRequest{Goal: fmt.Sprintf("drain:%d", placementOf(a)["fr-0"])}
					},
					func() ReconcileRequest {
						return ReconcileRequest{Placement: map[string]topology.NodeID{
							"fr-0": hyps[40], "fr-1": hyps[40], "fr-2": hyps[41], "fr-3": hyps[0]}}
					},
				}
				for i, batch := range batches {
					req := batch()
					dryReq := req
					dryReq.DryRun = true
					st, dry, _ := reconcileReused(t, a, ats, dryReq)
					if st != http.StatusOK {
						t.Fatalf("batch %d %+v: dry run status %d: %+v", i, req, st, dry)
					}
					sta, appA, reusedA := reconcileReused(t, a, ats, req)
					stb, appB, reusedB := reconcileReused(t, b, bts, req)
					if !reusedA || reusedB {
						t.Errorf("batch %d: apply after a dry run reused=%v, apply alone reused=%v; want true, false", i, reusedA, reusedB)
					}
					if sta != http.StatusOK || appA.Aborted || len(appA.Moves) == 0 && i == 0 {
						t.Fatalf("batch %d %+v: apply status %d: %+v", i, req, sta, appA)
					}
					if got, want := replyString(sta, appA), replyString(stb, appB); got != want {
						t.Errorf("batch %d: dry run then apply answered\n  %s\nthe apply alone\n  %s", i, got, want)
					}
					if fmt.Sprint(dry.Moves, dry.Waves, dry.Predicted, dry.PredictedTotal) !=
						fmt.Sprint(appB.Moves, appB.Waves, appB.Predicted, appB.PredictedTotal) {
						t.Errorf("batch %d: dry run predicted %d moves in %d waves, %+v; the apply alone %d in %d, %+v",
							i, len(dry.Moves), dry.Waves, dry.PredictedTotal, len(appB.Moves), appB.Waves, appB.PredictedTotal)
					}
					if appA.AppliedTotal != nil && appA.AppliedTotal.LFTSMPs != appA.PredictedTotal.LFTSMPs {
						t.Errorf("batch %d: applied %+v, predicted %+v", i, *appA.AppliedTotal, appA.PredictedTotal)
					}
					if da, db := lftDigest(a), lftDigest(b); da != db {
						t.Fatalf("batch %d: programmed tables differ", i)
					}
					if pa, pb := fmt.Sprint(placementOf(a)), fmt.Sprint(placementOf(b)); pa != pb {
						t.Fatalf("batch %d: placements differ:\n  %s\n  %s", i, pa, pb)
					}
				}
				var audA, audB map[string]any
				doJSON(t, ats.Client(), "GET", ats.URL+"/v1/audit?run=full", nil, &audA)
				doJSON(t, bts.Client(), "GET", bts.URL+"/v1/audit?run=full", nil, &audB)
				if audA["violations_total"] != audB["violations_total"] || audA["violations_total"] != float64(0) {
					t.Errorf("full audits: %v violations after dry run then apply, %v after the apply alone", audA["violations_total"], audB["violations_total"])
				}
				plans := func(srv *Server, source string) int64 {
					return srv.reg.Counter(telemetry.Labeled("api.reconcile.plans", "source", source)).Value()
				}
				if r := plans(a, "reused"); r != int64(len(batches)) {
					t.Errorf("api.reconcile.plans{source=reused} reads %d, want one per apply, %d", r, len(batches))
				}
				if r, p := plans(b, "reused"), plans(b, "planned"); r != 0 || p != int64(len(batches)) {
					t.Errorf("applies alone counted %d reused, %d planned plans; want 0 and %d", r, p, len(batches))
				}
			})
		}
	}
}

// TestPlanReuseInvalidation: an apply runs its dry run's plan only when
// nothing the plan was computed from changed in between. Each change below,
// made between a dry run and its apply, makes the apply plan again — a
// command that took a generation, a reconfigure, a subnet-manager handover,
// links going down and up with or without their sweeps, a full sweep
// alone, a changed mitigation and a changed spec — while a refused command, which
// changes nothing, does not. Every apply runs what it predicted.
func TestPlanReuseInvalidation(t *testing.T) {
	placement := func(srv *Server, to int) map[string]topology.NodeID {
		hyps := srv.c.Hypervisors()
		return map[string]topology.NodeID{"fr-0": hyps[to], "fr-1": hyps[to], "fr-2": hyps[to+1]}
	}
	linkFlip := func(sweep bool) func(*testing.T, *Server, *httptest.Server) {
		return func(t *testing.T, srv *Server, _ *httptest.Server) {
			topo := srv.c.SM.Topo
			a, _, ap := trunkLink(t, topo)
			err := srv.co.Freeze(func() {
				for _, up := range []bool{false, true} {
					if err := topo.SetLinkState(a, ap, up); err != nil {
						t.Error(err)
					}
					if !sweep {
						continue
					}
					if _, err := srv.c.SM.LightSweep(); err != nil {
						t.Error(err)
					}
					if _, err := srv.c.SM.Resweep(); err != nil {
						t.Error(err)
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := []struct {
		name    string
		between func(*testing.T, *Server, *httptest.Server)
		apply   func(*Server) ReconcileRequest // nil: the dry run's request
		reused  bool
	}{
		{name: "nothing", reused: true},
		{name: "refused create", reused: true, between: func(t *testing.T, srv *Server, ts *httptest.Server) {
			req := CreateVMRequest{Name: "fr-0", Hypervisor: ptr(srv.c.Hypervisors()[60])}
			if st := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/vms", req, nil); st != http.StatusConflict {
				t.Fatalf("duplicate create: status %d", st)
			}
		}},
		{name: "create", between: func(t *testing.T, srv *Server, ts *httptest.Server) {
			req := CreateVMRequest{Name: "late", Hypervisor: ptr(srv.c.Hypervisors()[60])}
			if st := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/vms", req, nil); st != http.StatusCreated {
				t.Fatalf("create: status %d", st)
			}
		}},
		{name: "migrate", between: func(t *testing.T, srv *Server, ts *httptest.Server) {
			req := MigrateVMRequest{Destination: srv.c.Hypervisors()[60]}
			if st := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/vms/fr-5/migrate", req, nil); st != http.StatusOK {
				t.Fatalf("migrate: status %d", st)
			}
		}},
		{name: "reconfigure", between: func(t *testing.T, _ *Server, ts *httptest.Server) {
			if st := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/reconfigure", nil, nil); st != http.StatusOK {
				t.Fatalf("reconfigure: status %d", st)
			}
		}},
		{name: "handover", between: handOver},
		{name: "link flip with sweeps", between: linkFlip(true)},
		{name: "link flip unswept", between: linkFlip(false)},
		{name: "resweep", between: func(t *testing.T, srv *Server, _ *httptest.Server) {
			if err := srv.co.Freeze(func() {
				if _, err := srv.c.SM.Resweep(); err != nil {
					t.Error(err)
				}
			}); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "mitigation", between: func(t *testing.T, srv *Server, _ *httptest.Server) {
			if err := srv.co.Freeze(func() { srv.c.RC.Mitigation = core.MitigationNone }); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "spec", apply: func(srv *Server) ReconcileRequest { return ReconcileRequest{Placement: placement(srv, 41)} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, ts, _ := newPinServer(t, sriov.VSwitchDynamic, 0, Config{})
			fragment(t, srv, ts, 8)
			dryReq := ReconcileRequest{Placement: placement(srv, 40), DryRun: true}
			if st, _, _ := reconcileReused(t, srv, ts, dryReq); st != http.StatusOK {
				t.Fatalf("dry run: status %d", st)
			}
			if tc.between != nil {
				tc.between(t, srv, ts)
			}
			req := ReconcileRequest{Placement: placement(srv, 40)}
			if tc.apply != nil {
				req = tc.apply(srv)
			}
			st, app, reused := reconcileReused(t, srv, ts, req)
			if st != http.StatusOK || app.Aborted || app.AppliedTotal == nil || len(app.Moves) == 0 {
				t.Fatalf("apply: status %d: %+v", st, app)
			}
			if reused != tc.reused {
				t.Errorf("apply reused=%v, want %v", reused, tc.reused)
			}
			if pt, at := app.PredictedTotal, *app.AppliedTotal; pt.LFTSMPs != at.LFTSMPs || pt.SwitchesUpdated != at.SwitchesUpdated || pt.ModelledUS != at.ModelledUS {
				t.Errorf("apply paid %+v, predicted %+v", at, pt)
			}
			// The apply consumed the kept plan and kept its closing re-plan,
			// which the confirming dry run reuses.
			st, again, reused := reconcileReused(t, srv, ts, ReconcileRequest{Placement: req.Placement, DryRun: true})
			if st != http.StatusOK || !again.Converged || !reused {
				t.Errorf("confirming dry run: status %d, converged %v, reused %v", st, again.Converged, reused)
			}
		})
	}
}

// handOver swaps a standby subnet manager in under the server, as
// scenario.Harness.Handover does it, with the control plane frozen.
func handOver(t *testing.T, srv *Server, _ *httptest.Server) {
	t.Helper()
	c := srv.c
	topo := c.SM.Topo
	eng, err := routing.New("minhop")
	if err != nil {
		t.Fatal(err)
	}
	cas := topo.CAs()
	stby, err := sm.New(topo, cas[len(cas)-1], eng)
	if err != nil {
		t.Fatal(err)
	}
	err = srv.co.Freeze(func() {
		cur := c.SM
		stby.SetTelemetry(cur.Telemetry())
		stby.Dist, stby.RouteWorkers, stby.LMC = cur.Dist, 1, cur.LMC
		if _, err := stby.Sweep(); err != nil {
			t.Error(err)
			return
		}
		if _, err := sm.Negotiate(cur, stby, 1, 2); err != nil {
			t.Error(err)
			return
		}
		if _, err := stby.AdoptFabricState(cur); err != nil {
			t.Error(err)
			return
		}
		c.SM, c.RC.SM = stby, stby
		srv.WireTransitionMonitor()
	})
	if err != nil {
		t.Fatal(err)
	}
}
