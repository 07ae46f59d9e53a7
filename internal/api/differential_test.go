package api

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"testing"

	"ibvsim/internal/cloud"
	"ibvsim/internal/core"
	"ibvsim/internal/routing"
	"ibvsim/internal/smp"
	"ibvsim/internal/sriov"
	"ibvsim/internal/topology"
)

// newPinServer boots the paper's 324-node fat tree (2 VFs per hypervisor,
// port-255 invalidation on every migration, a fault-injecting transport that
// starts out perfect) behind a Server with the given shard count.
func newPinServer(t *testing.T, model sriov.Model, shards int, cfg Config) (*Server, *httptest.Server, *smp.FaultyTransport) {
	t.Helper()
	topo, err := topology.BuildPaperFatTree(324)
	if err != nil {
		t.Fatal(err)
	}
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
	c.RC.Mitigation = core.MitigationInvalidate
	c.SM.Dist.Workers = 1
	ft := c.SM.InjectFaults(smp.FaultConfig{Seed: 1})
	cfg.Shards = shards
	srv := NewServer(c, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown(context.Background()) //nolint:errcheck
	})
	return srv, ts, ft
}

// dropAfterFirstSwitch rigs the next migration to die half-way: its first
// LFT write is delivered, and every SMP after it is lost. Under the
// invalidation pre-pass that write points the VM's LID at port 255 on the
// plan's first switch, and nothing restores it — a black hole the switch
// really holds. The caller clears the hook and the profile when done.
func dropAfterFirstSwitch(srv *Server, ft *smp.FaultyTransport) {
	ft.SetProfile(smp.FaultProfile{})
	srv.c.RC.AfterUpdate = func() { ft.SetProfile(smp.FaultProfile{Drop: 1}) }
}

// scrub drops the fields the two control planes may legitimately disagree
// on — generations count publishes, trace_span counts spans — at any depth.
func scrub(v any) any {
	switch x := v.(type) {
	case map[string]any:
		delete(x, "trace_span")
		delete(x, "generation")
		for k, e := range x {
			x[k] = scrub(e)
		}
	case []any:
		for i, e := range x {
			x[i] = scrub(e)
		}
	}
	return v
}

// lftDigest fingerprints every switch's programmed table.
func lftDigest(srv *Server) string {
	d := sha256.New()
	for _, sw := range srv.c.SM.Topo.Switches() {
		fmt.Fprintf(d, "switch %d\n", sw)
		if lft := srv.c.SM.ProgrammedLFT(sw); lft != nil {
			d.Write(lft.Bytes())
		}
	}
	return hex.EncodeToString(d.Sum(nil))
}

// pinRun is everything one control plane answered and ended up with.
type pinRun struct {
	Replies    []string // "<status> <scrubbed body>" per step
	Raw        []string // "<status> <body>" per step, nothing scrubbed
	Placement  any
	LFTs       string
	Flight     []string // "<op> <name> <status>" per recorded mutation
	Violations int64    // cumulative, after a closing full audit
	Dumps      int
}

// TestControlPlanesAgree is the differential pin between zone counts: one
// serial command sequence — pinned creates, local and cross-zone migrations,
// destroys, a reconfigure, a dry-run and an applied defrag, and every failure
// class (duplicate, unknown VM, same node, non-hypervisor, full destination
// local and cross-zone, migrations the transport abandons half-way) — under
// both vSwitch models with the invalidation pre-pass on, through Shards 0, 1,
// 2, 4 and 8. Statuses, error texts, cost reports field by field, final
// placement, LFT digest, the flight recorder's op/status sequence and the
// audit's violation count must be identical; the error texts and statuses are
// additionally pinned to their literal values, so a retyped message cannot
// drift in all modes at once. Shards 0 and 1 are the same one zone: their
// replies agree with nothing scrubbed, span IDs and generations included.
func TestControlPlanesAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("boots ten 324-node fabrics")
	}
	for _, model := range []sriov.Model{sriov.VSwitchPrepopulated, sriov.VSwitchDynamic} {
		t.Run(model.String(), func(t *testing.T) {
			var ref pinRun
			for _, shards := range []int{0, 1, 2, 4, 8} {
				got := runPinSequence(t, model, shards)
				if shards == 0 {
					ref = got
					continue
				}
				for i := range ref.Raw {
					if shards == 1 && got.Raw[i] != ref.Raw[i] {
						t.Errorf("shards=1 step %d, unscrubbed:\n  shards=0: %s\n  shards=1: %s", i, ref.Raw[i], got.Raw[i])
					}
				}
				for i := range ref.Replies {
					if got.Replies[i] != ref.Replies[i] {
						t.Errorf("shards=%d step %d:\n  shards=0: %s\n  shards=%d: %s", shards, i, ref.Replies[i], shards, got.Replies[i])
					}
				}
				if !reflect.DeepEqual(got.Flight, ref.Flight) {
					t.Errorf("shards=%d flight recorder:\n  shards=0: %q\n  shards=%d: %q", shards, ref.Flight, shards, got.Flight)
				}
				if !reflect.DeepEqual(got.Placement, ref.Placement) {
					t.Errorf("shards=%d final placement:\n  shards=0: %v\n  shards=%d: %v", shards, ref.Placement, shards, got.Placement)
				}
				if got.LFTs != ref.LFTs {
					t.Errorf("shards=%d LFT digest %s, shards=0 %s", shards, got.LFTs, ref.LFTs)
				}
				if got.Violations != ref.Violations || got.Dumps != ref.Dumps {
					t.Errorf("shards=%d audit: %d violations, %d dumps; shards=0 %d, %d",
						shards, got.Violations, got.Dumps, ref.Violations, ref.Dumps)
				}
			}
			t.Logf("flight recorder, every zone count: %q", ref.Flight)
			// Two migrations were abandoned mid-plan and nothing repaired
			// the columns they stranded: every mode must have caught both.
			if ref.Violations == 0 || ref.Dumps < 2 {
				t.Errorf("abandoned migrations went unaudited: %d violations, %d dumps", ref.Violations, ref.Dumps)
			}
		})
	}
}

func runPinSequence(t *testing.T, model sriov.Model, shards int) pinRun {
	t.Helper()
	srv, ts, ft := newPinServer(t, model, shards, Config{})
	cl := ts.Client()
	hyps := srv.c.Hypervisors()
	// near and next share the first leaf (one zone under any partition); far
	// and far2 sit under the last leaf (another zone as soon as there are two).
	near, next, third := hyps[0], hyps[1], hyps[2]
	far, far2 := hyps[len(hyps)-1], hyps[len(hyps)-2]
	smNode := srv.c.SM.SMNode

	var run pinRun
	// step issues one request; wantErr, when non-empty, is the literal error
	// text the reply must carry.
	step := func(method, path string, body any, wantStatus int, wantErr string) map[string]any {
		t.Helper()
		var raw json.RawMessage
		st := doJSON(t, cl, method, ts.URL+path, body, &raw)
		var out, scrubbed map[string]any
		json.Unmarshal(raw, &out)      //nolint:errcheck // doJSON decoded it once already
		json.Unmarshal(raw, &scrubbed) //nolint:errcheck
		if st != wantStatus {
			t.Fatalf("shards=%d %s %s: status %d, want %d (%v)", shards, method, path, st, wantStatus, out)
		}
		if wantErr != "" && out["error"] != wantErr {
			t.Fatalf("shards=%d %s %s: error %q, want %q", shards, method, path, out["error"], wantErr)
		}
		b, _ := json.Marshal(scrub(scrubbed))
		run.Replies = append(run.Replies, fmt.Sprintf("%d %s", st, b))
		run.Raw = append(run.Raw, fmt.Sprintf("%d %s", st, raw))
		return out
	}
	create := func(name string, on topology.NodeID, st int, wantErr string) {
		t.Helper()
		step("POST", "/v1/vms", CreateVMRequest{Name: name, Hypervisor: &on}, st, wantErr)
	}
	migrate := func(name string, to topology.NodeID, st int, wantErr string) map[string]any {
		t.Helper()
		return step("POST", "/v1/vms/"+name+"/migrate", MigrateVMRequest{Destination: to}, st, wantErr)
	}

	create("a", near, 201, "")
	create("b", near, 201, "")
	create("c", far, 201, "")
	create("a", next, 409, `cloud: VM "a" already exists`)
	create("x", near, 409, fmt.Sprintf("cloud: hypervisor %d has no free VF", near))
	create("x", smNode, 400, fmt.Sprintf("cloud: node %d is not a hypervisor", smNode))
	first := migrate("a", next, 200, "")                                               // local
	create("e", next, 201, "")                                                         // next is now full
	migrate("b", next, 409, fmt.Sprintf("cloud: destination %d has no free VF", next)) // local, full
	migrate("c", next, 409, fmt.Sprintf("cloud: destination %d has no free VF", next)) // cross-zone, full
	cross := migrate("c", near, 200, "")                                               // cross-zone
	migrate("ghost", near, 404, `cloud: no VM "ghost"`)
	migrate("a", next, 409, fmt.Sprintf("cloud: VM \"a\" is already on node %d", next))
	migrate("a", smNode, 400, fmt.Sprintf("cloud: destination %d is not a hypervisor", smNode))
	step("DELETE", "/v1/vms/e", nil, 200, "")
	step("DELETE", "/v1/vms/ghost", nil, 404, `cloud: no VM "ghost"`)
	create("f", far, 201, "")
	create("g", far2, 201, "")
	step("POST", "/v1/reconfigure", nil, 200, "")
	dry := step("POST", "/v1/reconcile?goal=defrag&dry_run=1", nil, 200, "")
	if moves, _ := dry["moves"].([]any); len(moves) == 0 {
		t.Fatalf("shards=%d: fragmented fleet planned no moves", shards)
	}
	app := step("POST", "/v1/reconcile?goal=defrag", nil, 200, "")
	if app["aborted"] == true || app["audit_violations"] != nil || !reflect.DeepEqual(app["applied_total"], scrub(dry["predicted_total"])) {
		t.Fatalf("shards=%d: applied defrag diverged from its dry run:\n  dry %v\n  app %v", shards, dry, app)
	}

	// The cost report's span_smps is, in every mode, the operation's own
	// count of LFT plus invalidation SMPs — and the trace under trace_span
	// holds exactly that many: a migration's spans hang under its own span
	// whichever actor ran it.
	var dump struct {
		Spans []traceSpan `json:"spans"`
	}
	doJSON(t, cl, "GET", ts.URL+"/v1/trace", nil, &dump)
	for _, reply := range []map[string]any{first, cross} {
		cost := reply["cost"].(map[string]any)
		num := func(k string) int { f, _ := cost[k].(float64); return int(f) }
		if num("lft_smps") == 0 || num("invalidation_smps") == 0 || num("span_smps") != num("lft_smps")+num("invalidation_smps") {
			t.Errorf("shards=%d: span_smps is not lft_smps + invalidation_smps: %v", shards, cost)
		}
		if got := smpDescendants(dump.Spans, num("trace_span")); got != num("span_smps") {
			t.Errorf("shards=%d: %d smp spans under trace_span %d, cost report says %d", shards, got, num("trace_span"), num("span_smps"))
		}
	}

	// Before the fabric is broken on purpose, it must be clean everywhere.
	if v := srv.Auditor().ViolationsTotal(); v != 0 {
		t.Fatalf("shards=%d: %d violations before any fault", shards, v)
	}
	// Each migration below has its first invalidation SMP delivered and every
	// later one lost: the pre-pass points the VM's column at port 255 on its
	// first switch and dies on the second, stranding a black hole there. One
	// local migration ("a" moves within the first leaf) and one cross-zone
	// ("h", from the last leaf to the first); both must be audited before
	// their reply.
	create("h", far, 201, "")
	for _, mv := range []struct {
		vm string
		to topology.NodeID
	}{{"a", third}, {"h", hyps[3]}} {
		dropAfterFirstSwitch(srv, ft)
		before := srv.Auditor().ViolationsTotal()
		out := migrate(mv.vm, mv.to, 500, "")
		if srv.Auditor().ViolationsTotal() == before {
			t.Errorf("shards=%d: abandoned migration of %q answered %v with no violation counted", shards, mv.vm, out["error"])
		}
	}
	srv.c.RC.AfterUpdate = nil
	ft.SetProfile(smp.FaultProfile{})

	var listing map[string]any
	doJSON(t, cl, "GET", ts.URL+"/v1/vms", nil, &listing)
	run.Raw = append(run.Raw, fmt.Sprint(listing))
	run.Placement = scrub(listing)
	run.LFTs = lftDigest(srv)
	var fr flightBody
	doJSON(t, cl, "GET", ts.URL+"/v1/flightrecorder", nil, &fr)
	for _, e := range fr.Entries {
		if e.Kind == "mutation" {
			run.Flight = append(run.Flight, fmt.Sprintf("%s %s %d", e.Op, e.Name, e.Status))
		}
	}
	var sum auditSummary
	doJSON(t, cl, "GET", ts.URL+"/v1/audit?run=full", nil, &sum)
	run.Violations, run.Dumps = sum.ViolationsTotal, sum.Dumps
	return run
}
