package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ibvsim/internal/audit"
	"ibvsim/internal/cloud"
	"ibvsim/internal/core"
	"ibvsim/internal/routing"
	"ibvsim/internal/smp"
	"ibvsim/internal/sriov"
	"ibvsim/internal/telemetry"
	"ibvsim/internal/topology"
)

// auditSummary mirrors the GET /v1/audit response body.
type auditSummary struct {
	Runs            int64         `json:"runs"`
	ViolationsTotal int64         `json:"violations_total"`
	Dumps           int           `json:"dumps"`
	Last            *audit.Report `json:"last"`
}

// flightBody mirrors the GET /v1/flightrecorder response body.
type flightBody struct {
	Dumps    int           `json:"dumps"`
	Entries  []audit.Entry `json:"entries"`
	LastDump *struct {
		Reason  *audit.Report        `json:"reason"`
		Entries []audit.Entry        `json:"entries"`
		Spans   []telemetry.SpanView `json:"spans"`
	} `json:"last_dump"`
}

// newFatTreeServer boots a cloud on a small XGFT with fat-tree routing.
// Deadlock-mindful tests need it: a ring fabric under min-hop routing has a
// genuinely cyclic CDG (the auditor rightly reports deadlock there), while
// up/down paths on a fat-tree are provably cycle-free.
func newFatTreeServer(t *testing.T, spec topology.XGFTSpec, vfs int, model sriov.Model, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	topo, err := topology.BuildXGFT(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	cas := topo.CAs()
	c, _, err := cloud.New(topo, cas[0], cas[1:], cloud.Config{
		Model:            model,
		VFsPerHypervisor: vfs,
		RouteWorkers:     1,
		Engine:           routing.NewFatTree(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(c, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown(context.Background())
	})
	return srv, ts
}

// getText fetches a URL and returns the body as a string.
func getText(t *testing.T, cl *http.Client, url string) string {
	t.Helper()
	resp, err := cl.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestAuditCleanLifecycle drives a full VM lifecycle plus a reconfiguration
// and requires the auditor — which runs after every one of those mutations,
// and inside the reconfigure's distribution via the transition hook — to
// find a perfectly healthy fabric.
func TestAuditCleanLifecycle(t *testing.T) {
	for _, model := range []sriov.Model{sriov.VSwitchDynamic, sriov.VSwitchPrepopulated} {
		t.Run(model.String(), func(t *testing.T) {
			// 9 compute nodes under 3 leaf switches, 3 spines.
			srv, ts := newFatTreeServer(t, topology.XGFTSpec{M: []int{3, 3}, W: []int{1, 3}}, 2, model, Config{})
			cl := ts.Client()
			hyps := srv.Snapshot().Hyps()

			doJSON(t, cl, "POST", ts.URL+"/v1/vms", CreateVMRequest{Name: "vm-a"}, nil)
			doJSON(t, cl, "POST", ts.URL+"/v1/vms", CreateVMRequest{Name: "vm-b"}, nil)
			var vm VMInfo
			doJSON(t, cl, "GET", ts.URL+"/v1/vms/vm-a", nil, &vm)
			dst := hyps[0].Node
			if vm.Node == dst {
				dst = hyps[1].Node
			}
			if st := doJSON(t, cl, "POST", ts.URL+"/v1/vms/vm-a/migrate", MigrateVMRequest{Destination: dst}, nil); st != http.StatusOK {
				t.Fatalf("migrate: %d", st)
			}
			doJSON(t, cl, "DELETE", ts.URL+"/v1/vms/vm-b", nil, nil)
			if st := doJSON(t, cl, "POST", ts.URL+"/v1/reconfigure", nil, nil); st != http.StatusOK {
				t.Fatalf("reconfigure: %d", st)
			}

			var sum auditSummary
			if st := doJSON(t, cl, "GET", ts.URL+"/v1/audit?run=full", nil, &sum); st != http.StatusOK {
				t.Fatalf("audit: %d", st)
			}
			// 5 post-mutation audits + the ?run=full one; the reconfigure's
			// distribution also ran the transient-CDG transition check.
			if sum.Runs < 6 {
				t.Errorf("runs = %d, want >= 6", sum.Runs)
			}
			if sum.ViolationsTotal != 0 {
				t.Errorf("clean lifecycle produced %d violations: %+v", sum.ViolationsTotal, sum.Last)
			}
			if sum.Dumps != 0 {
				t.Errorf("clean lifecycle dumped %d times", sum.Dumps)
			}
			if sum.Last == nil || sum.Last.Scope != "full" || sum.Last.LIDsChecked == 0 {
				t.Errorf("run=full report missing or wrong scope: %+v", sum.Last)
			}

			// The flight recorder retains the mutations even when clean.
			var fr flightBody
			doJSON(t, cl, "GET", ts.URL+"/v1/flightrecorder", nil, &fr)
			muts := 0
			for _, e := range fr.Entries {
				if e.Kind == "mutation" {
					muts++
					if e.RequestID == "" {
						t.Errorf("mutation entry without request id: %+v", e)
					}
				}
			}
			if muts != 5 {
				t.Errorf("flight ring holds %d mutations, want 5", muts)
			}
		})
	}
}

// TestAuditCatchesInjectedCorruption is the regression test for the whole
// observability chain: a seeded fault burst hits a migration configured
// with the invalidation mitigation, so the pre-pass points the VM's LID at
// port 255 (DropPort) and the dying distribution strands it there. The
// post-mutation audit must flag the black hole before the client even sees
// the error response, and the flight dump must carry the corrupting
// mutation and its span window.
func TestAuditCatchesInjectedCorruption(t *testing.T) {
	flightDir := t.TempDir()
	srv, ts := newTestServer(t, 6, 2, 2, sriov.VSwitchDynamic, Config{FlightDir: flightDir})
	cl := ts.Client()
	hyps := srv.Snapshot().Hyps()

	doJSON(t, cl, "POST", ts.URL+"/v1/vms", CreateVMRequest{Name: "victim"}, nil)
	var vm VMInfo
	doJSON(t, cl, "GET", ts.URL+"/v1/vms/victim", nil, &vm)
	dst := hyps[0].Node
	if vm.Node == dst {
		dst = hyps[1].Node
	}

	// The loop is idle between replies (happens-before via the reply
	// channel), so reconfiguring the SM here is race free. Invalidation
	// mitigation + seeded drops + a single-attempt retry budget: the
	// DropPort pre-pass lands, the LFT updates die, the migration aborts.
	srv.c.RC.Mitigation = core.MitigationInvalidate
	srv.c.SM.Dist.Retry.MaxAttempts = 1
	srv.c.SM.InjectFaults(smp.FaultConfig{Drop: 0.5, Seed: 7})

	probeCorruption(t, ts, flightDir, dst)
}

// TestAuditCatchesInjectedCorruptionSharded is the same probe through the
// sharded control plane, once zone-local (the owning actor runs the
// epilogue) and once cross-zone (the coordinator does, mid two-phase
// commit). On the parent of the change that unified the epilogue both rows
// failed with "auditor missed the stranded DropPort entries": the shard hook
// returned early on an error, so a failed sharded migration was recorded but
// never audited and the black hole sat there until the next full audit.
func TestAuditCatchesInjectedCorruptionSharded(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cross bool
	}{{"local", false}, {"cross-zone", true}} {
		t.Run(tc.name, func(t *testing.T) {
			flightDir := t.TempDir()
			srv, ts, ft := newPinServer(t, sriov.VSwitchDynamic, 2, Config{FlightDir: flightDir})
			hyps := srv.c.Hypervisors()
			home, dst := hyps[0], hyps[1]
			if tc.cross {
				dst = hyps[len(hyps)-1]
			}
			if st := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/vms", CreateVMRequest{Name: "victim", Hypervisor: &home}, nil); st != http.StatusCreated {
				t.Fatalf("create: status %d", st)
			}
			// The invalidation pre-pass is on (newPinServer): its first SMP
			// lands and every later one is lost, so it strands the column at
			// port 255 on its first switch.
			dropAfterFirstSwitch(srv, ft)
			probeCorruption(t, ts, flightDir, dst)
		})
	}
}

// probeCorruption migrates "victim" to dst on a fabric rigged to abandon the
// reconfiguration half-way, and checks the whole observability chain: the
// post-mutation audit flagged the black hole before the client saw the
// error, and the flight dump carries the corrupting mutation and its spans.
func probeCorruption(t *testing.T, ts *httptest.Server, flightDir string, dst topology.NodeID) {
	t.Helper()
	cl := ts.Client()
	body, err := json.Marshal(MigrateVMRequest{Destination: dst})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", ts.URL+"/v1/vms/victim/migrate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "req-corruption-probe")
	resp, err := cl.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("migration survived a 50% drop rate with one attempt per SMP; fault seam broken")
	}
	if got := resp.Header.Get("X-Request-ID"); got != "req-corruption-probe" {
		t.Fatalf("inbound request id not echoed: %q", got)
	}

	var sum auditSummary
	doJSON(t, cl, "GET", ts.URL+"/v1/audit", nil, &sum)
	if sum.Last == nil || sum.Last.ByKind["blackhole"] < 1 {
		t.Fatalf("auditor missed the stranded DropPort entries: %+v", sum.Last)
	}
	if sum.ViolationsTotal < 1 || sum.Dumps < 1 {
		t.Fatalf("violations_total=%d dumps=%d, want >= 1 each", sum.ViolationsTotal, sum.Dumps)
	}

	// The dump carries the corrupting mutation (found by request ID) and
	// the smp spans of its window.
	var fr flightBody
	doJSON(t, cl, "GET", ts.URL+"/v1/flightrecorder", nil, &fr)
	if fr.LastDump == nil || fr.LastDump.Reason == nil || fr.LastDump.Reason.Total < 1 {
		t.Fatalf("flight dump missing or empty")
	}
	var mut *audit.Entry
	for i := range fr.LastDump.Entries {
		if e := &fr.LastDump.Entries[i]; e.Kind == "mutation" && e.RequestID == "req-corruption-probe" {
			mut = e
		}
	}
	if mut == nil {
		t.Fatal("dump does not contain the corrupting mutation")
	}
	if mut.Status == http.StatusOK || mut.SpanFrom <= 0 || mut.SpanTo < mut.SpanFrom {
		t.Fatalf("corrupting mutation entry malformed: %+v", mut)
	}
	smps := 0
	for _, sp := range fr.LastDump.Spans {
		if sp.Kind == telemetry.SpanSMP && sp.ID >= mut.SpanFrom && sp.ID <= mut.SpanTo {
			smps++
		}
	}
	if smps == 0 {
		t.Fatal("dump span window does not cover the corrupting SMP spans")
	}

	// The dump also landed on disk, and the violation counters made it to
	// the Prometheus surface.
	files, err := filepath.Glob(filepath.Join(flightDir, "flight-*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no flight dump on disk in %s (%v)", flightDir, err)
	}
	prom := getText(t, cl, ts.URL+"/metrics")
	for _, want := range []string{"audit_violations_blackhole", "audit_runs", "audit_violations_total"} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestAuditCadenceLifecycle covers the ticker goroutine: it audits on its
// own while the API is idle, stops at Shutdown, and leaks nothing.
func TestAuditCadenceLifecycle(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, ts := newFatTreeServer(t, topology.XGFTSpec{M: []int{2, 2}, W: []int{1, 2}}, 1,
		sriov.VSwitchDynamic, Config{AuditInterval: 2 * time.Millisecond})
	deadline := time.Now().Add(2 * time.Second)
	for srv.Auditor().Runs() < 3 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if srv.Auditor().Runs() < 3 {
		t.Fatal("cadence auditor never ran")
	}
	if got := srv.Auditor().ViolationsTotal(); got != 0 {
		t.Fatalf("idle fabric produced %d violations", got)
	}
	if srv.Auditor().Last().Scope != "full" {
		t.Fatalf("cadence audits must be full scope, got %q", srv.Auditor().Last().Scope)
	}

	ts.Close()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	runsAtShutdown := srv.Auditor().Runs()
	time.Sleep(20 * time.Millisecond)
	if got := srv.Auditor().Runs(); got != runsAtShutdown {
		t.Fatalf("auditor kept running after Shutdown: %d -> %d", runsAtShutdown, got)
	}
	// Goroutine-leak check, with retries for runtime stragglers.
	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutine leak: %d before, %d after shutdown", before, runtime.NumGoroutine())
}

// TestAuditorRacesWithMutators runs the cadence auditor at full tilt while
// 8 mutators migrate VMs back and forth and readers pull audit and flight
// state — the -race acceptance test for snapshot-based auditing.
func TestAuditorRacesWithMutators(t *testing.T) {
	// 18 compute nodes under 6 leaf switches, 3 spines.
	srv, ts := newFatTreeServer(t, topology.XGFTSpec{M: []int{3, 6}, W: []int{1, 3}}, 2,
		sriov.VSwitchPrepopulated, Config{
			AuditInterval: time.Millisecond,
			QueueDepth:    256,
		})
	cl := ts.Client()
	hyps := srv.Snapshot().Hyps()
	if len(hyps) < 16 {
		t.Fatalf("need 16 hypervisors, got %d", len(hyps))
	}

	const mutators = 8
	const opsEach = 12
	var wg sync.WaitGroup
	errs := make(chan error, mutators)
	for m := 0; m < mutators; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			// Disjoint hypervisor pair per mutator: no capacity conflicts.
			a, b := hyps[2*m].Node, hyps[2*m+1].Node
			name := fmt.Sprintf("vm-%d", m)
			if st, err := doJSONE(cl, "POST", ts.URL+"/v1/vms", CreateVMRequest{Name: name, Hypervisor: &a}, nil); err != nil || st != http.StatusCreated {
				errs <- fmt.Errorf("create %s: st=%d err=%v", name, st, err)
				return
			}
			cur, next := a, b
			for i := 0; i < opsEach; i++ {
				st, err := doJSONE(cl, "POST", ts.URL+"/v1/vms/"+name+"/migrate", MigrateVMRequest{Destination: next}, nil)
				if err != nil || st != http.StatusOK {
					errs <- fmt.Errorf("migrate %s -> %d: st=%d err=%v", name, next, st, err)
					return
				}
				cur, next = next, cur
			}
		}(m)
	}
	stopRead := make(chan struct{})
	var rwg sync.WaitGroup
	for r := 0; r < 4; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-stopRead:
					return
				default:
					doJSONE(cl, "GET", ts.URL+"/v1/audit?run=full", nil, nil) //nolint:errcheck
					doJSONE(cl, "GET", ts.URL+"/v1/flightrecorder", nil, nil) //nolint:errcheck
				}
			}
		}()
	}
	wg.Wait()
	close(stopRead)
	rwg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := srv.Auditor().ViolationsTotal(); got != 0 {
		t.Fatalf("racing mutations produced %d audit violations: %+v", got, srv.Auditor().Last())
	}
	if srv.Auditor().Runs() < mutators*opsEach {
		t.Errorf("auditor runs %d < mutation count %d", srv.Auditor().Runs(), mutators*opsEach)
	}
}

// TestRequestIDsAssigned checks the generated-ID path: no inbound header,
// so the server mints req-%06d and echoes it on the response.
func TestRequestIDsAssigned(t *testing.T) {
	_, ts := newTestServer(t, 4, 1, 1, sriov.VSwitchDynamic, Config{})
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get("X-Request-ID")
	if len(id) != len("req-000001") || !strings.HasPrefix(id, "req-") {
		t.Fatalf("generated request id %q not in req-%%06d form", id)
	}
}

// TestTraceChromeFormat checks /v1/trace?format=chrome serves a loadable
// trace-event body and unknown formats are rejected.
func TestTraceChromeFormat(t *testing.T) {
	_, ts := newTestServer(t, 4, 1, 1, sriov.VSwitchDynamic, Config{})
	cl := ts.Client()
	var chrome struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Cat string `json:"cat"`
		} `json:"traceEvents"`
	}
	if st := doJSON(t, cl, "GET", ts.URL+"/v1/trace?format=chrome", nil, &chrome); st != http.StatusOK {
		t.Fatalf("chrome trace: %d", st)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("chrome trace empty after bootstrap")
	}
	if st := doJSON(t, cl, "GET", ts.URL+"/v1/trace?format=perfetto", nil, nil); st != http.StatusBadRequest {
		t.Fatalf("unknown format: %d, want 400", st)
	}
}
