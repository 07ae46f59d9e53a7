package api

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"ibvsim/internal/cloud"
	"ibvsim/internal/routing"
	"ibvsim/internal/sriov"
	"ibvsim/internal/topology"
)

// newShardedServer boots a 324-node paper fat tree (prepopulated, 2 VFs per
// hypervisor) behind a sharded Server.
func newShardedServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
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
		Model:            sriov.VSwitchPrepopulated,
		VFsPerHypervisor: 2,
		Engine:           eng,
		Scheduler:        cloud.Spread{},
		RouteWorkers:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(c, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown(context.Background()) //nolint:errcheck
	})
	return srv, ts
}

// TestShardedEndpoints exercises the full endpoint surface under two zones:
// every response shape matches one zone's, the topology reports per-shard
// stats and zones, and cross-shard migration keeps the audit clean.
func TestShardedEndpoints(t *testing.T) {
	_, ts := newShardedServer(t, Config{Shards: 2})
	client := ts.Client()

	var topoResp TopologyResponse
	if st := doJSON(t, client, "GET", ts.URL+"/v1/topology", nil, &topoResp); st != http.StatusOK {
		t.Fatalf("topology: status %d", st)
	}
	if topoResp.Shards != 2 || len(topoResp.ShardStats) != 2 {
		t.Fatalf("topology shards = %d, stats = %d, want 2/2", topoResp.Shards, len(topoResp.ShardStats))
	}
	// Find one hypervisor per zone for an explicit cross-shard migration.
	byZone := map[int]topology.NodeID{}
	for _, h := range topoResp.Hypervisors {
		if _, ok := byZone[h.Zone]; !ok {
			byZone[h.Zone] = h.Node
		}
	}
	if len(byZone) != 2 {
		t.Fatalf("hypervisors span %d zones, want 2", len(byZone))
	}

	var created VMResponse
	req := CreateVMRequest{Name: "vm0", Hypervisor: ptr(byZone[0])}
	if st := doJSON(t, client, "POST", ts.URL+"/v1/vms", req, &created); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	if created.Node != byZone[0] {
		t.Fatalf("created on node %d, want %d", created.Node, byZone[0])
	}

	var mig MigrateResponse
	if st := doJSON(t, client, "POST", ts.URL+"/v1/vms/vm0/migrate",
		MigrateVMRequest{Destination: byZone[1]}, &mig); st != http.StatusOK {
		t.Fatalf("cross-shard migrate: status %d", st)
	}
	if mig.To != byZone[1] {
		t.Fatalf("migrated to %d, want %d", mig.To, byZone[1])
	}
	if mig.Cost.SwitchesUpdated == 0 {
		t.Fatal("cross-shard migrate cost report is empty")
	}

	var got VMInfo
	if st := doJSON(t, client, "GET", ts.URL+"/v1/vms/vm0", nil, &got); st != http.StatusOK || got.Node != byZone[1] {
		t.Fatalf("get after migrate: status %d node %d", st, got.Node)
	}

	var audit map[string]any
	if st := doJSON(t, client, "GET", ts.URL+"/v1/audit?run=full", nil, &audit); st != http.StatusOK {
		t.Fatalf("audit: status %d", st)
	}
	if v := audit["violations_total"]; v != float64(0) {
		t.Fatalf("audit violations = %v, want 0", v)
	}

	var health map[string]any
	if st := doJSON(t, client, "GET", ts.URL+"/healthz", nil, &health); st != http.StatusOK {
		t.Fatalf("healthz: status %d", st)
	}
	if health["shards"] != float64(2) {
		t.Fatalf("healthz shards = %v, want 2", health["shards"])
	}

	if st := doJSON(t, client, "DELETE", ts.URL+"/v1/vms/vm0", nil, nil); st != http.StatusOK {
		t.Fatalf("destroy: status %d", st)
	}
	// Duplicate destroy surfaces 404 through the shard error mapping.
	if st := doJSON(t, client, "DELETE", ts.URL+"/v1/vms/vm0", nil, nil); st != http.StatusNotFound {
		t.Fatalf("double destroy: status %d, want 404", st)
	}
}

// TestShardedBackpressure429 pins the queue-saturation contract: a saturated
// shard queue answers 429 with a Retry-After header instead of blocking.
func TestShardedBackpressure429(t *testing.T) {
	srv, ts := newShardedServer(t, Config{Shards: 2, QueueDepth: 1})
	client := ts.Client()
	co := srv.Coordinator()
	hyp := co.Part.Zones[0].Hyps[0]

	frozen := make(chan struct{})
	thaw := make(chan struct{})
	go co.Freeze(func() { close(frozen); <-thaw }) //nolint:errcheck
	<-frozen

	firstDone := make(chan int, 1)
	go func() {
		st, _ := doJSONE(client, "POST", ts.URL+"/v1/vms", CreateVMRequest{Name: "a", Hypervisor: ptr(hyp)}, nil)
		firstDone <- st
	}()
	deadline := time.After(5 * time.Second)
	for co.QueueLen() == 0 {
		select {
		case <-deadline:
			t.Fatal("first create never queued")
		default:
			time.Sleep(time.Millisecond)
		}
	}

	reqBody := CreateVMRequest{Name: "b", Hypervisor: ptr(hyp)}
	resp := doRaw(t, client, "POST", ts.URL+"/v1/vms", reqBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated create: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}

	close(thaw)
	if st := <-firstDone; st != http.StatusCreated {
		t.Fatalf("queued create after thaw: status %d", st)
	}
}

// TestShardedReconfigure runs a fabric-wide reroute under the coordinator
// freeze and checks reads pick up the new generation.
func TestShardedReconfigure(t *testing.T) {
	_, ts := newShardedServer(t, Config{Shards: 2})
	client := ts.Client()

	var before TopologyResponse
	doJSON(t, client, "GET", ts.URL+"/v1/topology", nil, &before)

	var rec map[string]any
	if st := doJSON(t, client, "POST", ts.URL+"/v1/reconfigure", map[string]string{"engine": "minhop"}, &rec); st != http.StatusOK {
		t.Fatalf("reconfigure: status %d: %v", st, rec)
	}

	var after TopologyResponse
	doJSON(t, client, "GET", ts.URL+"/v1/topology", nil, &after)
	if after.Generation <= before.Generation {
		t.Fatalf("generation %d after reconfigure, want > %d", after.Generation, before.Generation)
	}
}

func ptr[T any](v T) *T { return &v }

// doRaw issues one JSON request and returns the raw response (body closed),
// for tests that need response headers.
func doRaw(t *testing.T, client *http.Client, method, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(method, url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	return resp
}

// TestShardedEventsSSEResume checks SSE reconnect semantics under a sharded
// control plane: a client that disconnects and resumes with Last-Event-ID
// receives every event it missed exactly once — no gaps (the tracer's event
// seqs are contiguous, so the first resumed id must directly follow the last
// one seen) and no duplicates.
func TestShardedEventsSSEResume(t *testing.T) {
	_, ts := newShardedServer(t, Config{Shards: 2})
	cl := ts.Client()

	create := func(name string) {
		t.Helper()
		if st := doJSON(t, cl, "POST", ts.URL+"/v1/vms", CreateVMRequest{Name: name}, nil); st != http.StatusCreated {
			t.Fatalf("create %s: status %d", name, st)
		}
	}

	// tail opens /v1/events (resuming after lastID when > 0) and reads
	// until an event's data mentions marker, returning the ids seen in order.
	tail := func(lastID int, marker string) []int {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		if lastID > 0 {
			req.Header.Set("Last-Event-ID", strconv.Itoa(lastID))
		}
		resp, err := cl.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ids []int
		id := -1
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if v, ok := strings.CutPrefix(line, "id: "); ok {
				if id, err = strconv.Atoi(v); err != nil {
					t.Fatalf("bad SSE id line %q: %v", line, err)
				}
				ids = append(ids, id)
			}
			if data, ok := strings.CutPrefix(line, "data: "); ok && strings.Contains(data, marker) {
				return ids
			}
		}
		t.Fatalf("stream ended before %q (scan err: %v, ctx err: %v)", marker, sc.Err(), ctx.Err())
		return nil
	}

	for i := 0; i < 3; i++ {
		create(fmt.Sprintf("sse-a%d", i))
	}
	first := tail(0, `created VM "sse-a2"`)
	last := first[len(first)-1]

	// Events produced while disconnected must all arrive on resume.
	for i := 0; i < 3; i++ {
		create(fmt.Sprintf("sse-b%d", i))
	}
	resumed := tail(last, `created VM "sse-b2"`)

	if resumed[0] != last+1 {
		t.Fatalf("resume gap: stream restarted at id %d, want %d", resumed[0], last+1)
	}
	for i, id := range resumed {
		if id <= last {
			t.Fatalf("duplicate event %d (already seen before Last-Event-ID %d)", id, last)
		}
		if i > 0 && id != resumed[i-1]+1 {
			t.Fatalf("gap in resumed stream: %d follows %d", id, resumed[i-1])
		}
	}
}

// TestShardedReadAfterWriteNeverStale pins the read-your-write contract of
// the lazily composed snapshot: once a migration has answered 200, every
// read issued afterwards — by anyone — sees the VM on its new hypervisor.
// One client migrates a VM back and forth inside a zone and reads its path
// after every 200; a second client hammers GET /v1/paths the whole time, so
// that its compose() keeps racing the shard's publish.
//
// Before compose keyed its cache on the shard snapshots it was built from,
// a shard bumped the coordinator generation and only then published its
// snapshot; a compose landing in between cached the pre-mutation snapshot
// under the new generation and served it until the next mutation. On that
// code this test failed 13 of 20 consecutive -race runs on a 2-vCPU box,
// with 31 stale reads in 30 000 migrations (about 1 in 1000).
func TestShardedReadAfterWriteNeverStale(t *testing.T) {
	if testing.Short() {
		t.Skip("1500 migrations against a hammering reader")
	}
	srv, _ := newShardedServer(t, Config{Shards: 2})
	h := srv.Handler()
	call := func(method, path string, body, out any) int {
		var rd io.Reader
		if body != nil {
			b, _ := json.Marshal(body) //nolint:errcheck // plain structs
			rd = bytes.NewReader(b)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, path, rd))
		if out != nil && w.Code/100 == 2 {
			if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
				t.Errorf("%s %s: %v", method, path, err)
			}
		}
		return w.Code
	}
	zone := srv.Coordinator().Part.Zones[0].Hyps
	if st := call("POST", "/v1/vms", CreateVMRequest{Name: "mover", Hypervisor: ptr(zone[0])}, nil); st != http.StatusCreated {
		t.Fatalf("create mover: status %d", st)
	}
	if st := call("POST", "/v1/vms", CreateVMRequest{Name: "peer", Hypervisor: ptr(zone[len(zone)-1])}, nil); st != http.StatusCreated {
		t.Fatalf("create peer: status %d", st)
	}

	stop := make(chan struct{})
	readerDone := make(chan int)
	go func() {
		reads := 0
		for {
			select {
			case <-stop:
				readerDone <- reads
				return
			default:
			}
			// No assertion here: a walk that races an in-flight migration
			// may legitimately see the LFTs half rewritten.
			call("GET", "/v1/paths/peer/mover", nil, nil)
			reads++
		}
	}()

	const migrations = 1500
	stale := 0
	for i := 1; i <= migrations; i++ {
		dst := zone[i%2]
		if st := call("POST", "/v1/vms/mover/migrate", MigrateVMRequest{Destination: dst}, nil); st != http.StatusOK {
			t.Fatalf("migration %d: status %d", i, st)
		}
		// A stale snapshot still places mover on the old hypervisor: the
		// walk either ends there or — the LFTs being live — fails.
		var p PathResponse
		if st := call("GET", "/v1/paths/peer/mover", nil, &p); st != http.StatusOK || p.DstNode != dst {
			stale++
		}
	}
	close(stop)
	reads := <-readerDone
	if stale > 0 {
		t.Fatalf("%d of %d reads issued after a 200 missed the write (%d concurrent reads)", stale, migrations, reads)
	}
}

// TestShardedReadsSeeWholeZonesDuringResync: a freeze parks mutations, not
// reads, so a GET served while a frozen command republishes every zone must
// see whole zones — the one from before or the one from after, never a zone
// caught between the two. Readers list the fleet through a run of
// reconfigures and miss no VM and no attached VF.
func TestShardedReadsSeeWholeZonesDuringResync(t *testing.T) {
	if testing.Short() {
		t.Skip("40 reconfigures against hammering readers")
	}
	srv, ts := newShardedServer(t, Config{Shards: 4})
	cl := ts.Client()
	const fleet = 240
	hyps := srv.c.Hypervisors()
	for i := 0; i < fleet; i++ {
		req := CreateVMRequest{Name: fmt.Sprintf("vm%03d", i), Hypervisor: ptr(hyps[i%len(hyps)])}
		if st := doJSON(t, cl, "POST", ts.URL+"/v1/vms", req, nil); st != http.StatusCreated {
			t.Fatalf("create %s: status %d", req.Name, st)
		}
	}

	stop := make(chan struct{})
	done := make(chan int)
	// One reader goes through the handler, one straight to the snapshot (many
	// more reads per republish).
	go func() {
		reads := 0
		defer func() { done <- reads }()
		for ; ; reads++ {
			select {
			case <-stop:
				return
			default:
			}
			w := httptest.NewRecorder()
			srv.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/v1/vms", nil))
			var list struct {
				VMs []VMInfo `json:"vms"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil || len(list.VMs) != fleet {
				t.Errorf("GET /v1/vms during a reconfigure lists %d VMs (err %v), want %d", len(list.VMs), err, fleet)
				return
			}
		}
	}()
	go func() {
		reads := 0
		defer func() { done <- reads }()
		for ; ; reads++ {
			select {
			case <-stop:
				return
			default:
			}
			sn := srv.Snapshot()
			attached := 0
			for _, h := range sn.Hyps() {
				attached += h.Attached
			}
			if sn.NumVMs() != fleet || attached != fleet || sn.vm("vm000") == nil {
				t.Errorf("snapshot gen %d during a reconfigure: %d VMs, %d attached VFs, want %d of each",
					sn.Gen, sn.NumVMs(), attached, fleet)
				return
			}
		}
	}()
	for i := 0; i < 40; i++ {
		if st := doJSON(t, cl, "POST", ts.URL+"/v1/reconfigure", nil, nil); st != http.StatusOK {
			t.Fatalf("reconfigure %d: status %d", i, st)
		}
	}
	close(stop)
	if reads := <-done + <-done; reads < 100 {
		t.Fatalf("only %d reads ran beside the reconfigures", reads)
	}
}

// TestRefusedCommandTakesNoGeneration: a command refused before it changed
// anything — a duplicate create, a migrate or destroy of an unknown VM, a
// create on a full hypervisor — leaves /healthz's generation where it was,
// and the next command takes the one after it, under one zone and under two.
func TestRefusedCommandTakesNoGeneration(t *testing.T) {
	for _, shards := range []int{0, 1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			srv, _ := newTestServer(t, 6, 2, 2, sriov.VSwitchDynamic, Config{Shards: shards})
			hyp := srv.Coordinator().Part.Zones[0].Hyps[0]
			for _, name := range []string{"a", "b"} { // hyp is full afterwards
				if st := serve(srv, "POST", "/v1/vms", CreateVMRequest{Name: name, Hypervisor: &hyp}).Code; st != http.StatusCreated {
					t.Fatalf("create %s: status %d", name, st)
				}
			}
			gen := func() uint64 {
				var h struct {
					Generation uint64 `json:"generation"`
				}
				if err := json.Unmarshal(serve(srv, "GET", "/healthz", nil).Body.Bytes(), &h); err != nil {
					t.Fatal(err)
				}
				return h.Generation
			}
			before := gen()
			for _, tc := range []struct {
				what, method, path string
				body               any
				want               int
			}{
				{"duplicate create", "POST", "/v1/vms", CreateVMRequest{Name: "a"}, http.StatusConflict},
				{"unknown migrate", "POST", "/v1/vms/ghost/migrate", MigrateVMRequest{Destination: hyp}, http.StatusNotFound},
				{"unknown destroy", "DELETE", "/v1/vms/ghost", nil, http.StatusNotFound},
				{"create on a full hypervisor", "POST", "/v1/vms", CreateVMRequest{Name: "c", Hypervisor: &hyp}, http.StatusConflict},
			} {
				if st := serve(srv, tc.method, tc.path, tc.body).Code; st != tc.want {
					t.Fatalf("%s: status %d, want %d", tc.what, st, tc.want)
				}
				if g := gen(); g != before {
					t.Errorf("%s moved the generation %d -> %d", tc.what, before, g)
				}
			}
			// Nor did any of them burn a number behind the scenes.
			other := srv.Coordinator().Part.Zones[0].Hyps[1]
			if st := serve(srv, "POST", "/v1/vms", CreateVMRequest{Name: "c", Hypervisor: &other}).Code; st != http.StatusCreated {
				t.Fatalf("create c: status %d", st)
			}
			if g := gen(); g != before+1 {
				t.Errorf("the next create published generation %d, want %d", g, before+1)
			}
		})
	}
}

// TestUnpinnedCreateFollowsTheScheduler: an unpinned create lands where the
// cloud's configured scheduler puts it among the hypervisors of the zone the
// coordinator picked — one zone being the whole fabric — for every policy,
// until the fleet is full.
func TestUnpinnedCreateFollowsTheScheduler(t *testing.T) {
	for _, sched := range []cloud.Scheduler{cloud.FirstFit{}, cloud.Spread{}, cloud.Pack{}} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%T/shards=%d", sched, shards), func(t *testing.T) {
				topo, err := topology.BuildRing(4, 2)
				if err != nil {
					t.Fatal(err)
				}
				cas := topo.CAs()
				c, _, err := cloud.New(topo, cas[0], cas[1:], cloud.Config{
					Model: sriov.VSwitchDynamic, VFsPerHypervisor: 2, Scheduler: sched, RouteWorkers: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				srv := NewServer(c, Config{Shards: shards})
				t.Cleanup(func() { srv.Shutdown(context.Background()) }) //nolint:errcheck
				part := srv.Coordinator().Part
				if len(part.Zones) != shards {
					t.Fatalf("%d zones, want %d", len(part.Zones), shards)
				}
				for i := 0; ; i++ {
					// The policy's pick in each zone, read while every actor is idle.
					want := map[int]topology.NodeID{}
					for _, z := range part.Zones {
						if h, err := sched.Place(c, z.Hyps); err == nil {
							want[z.ID] = h
						}
					}
					w := serve(srv, "POST", "/v1/vms", CreateVMRequest{Name: fmt.Sprintf("vm%02d", i)})
					if len(want) == 0 {
						if w.Code != http.StatusConflict {
							t.Fatalf("create into a full fleet: status %d, want 409", w.Code)
						}
						return
					}
					var vm VMResponse
					if err := json.Unmarshal(w.Body.Bytes(), &vm); err != nil || w.Code != http.StatusCreated {
						t.Fatalf("create %d: status %d (%v): %s", i, w.Code, err, w.Body)
					}
					if z := part.ZoneOfHyp(vm.Node); vm.Node != want[z] {
						t.Fatalf("create %d landed on %d, want %d in zone %d", i, vm.Node, want[z], z)
					}
				}
			})
		}
	}
}

// TestOneZoneServesAsAZone pins what a client sees now that Shards 0 is a
// one-zone coordinator: provenance and the migration's smp spans name zone 0,
// not ib.ShardNone; /healthz and /v1/topology report one shard and its stats;
// a second operation on a VM with one in flight is refused 409 busy instead
// of queueing behind it; and a reconfigure does not pass the admission
// queue, so a full queue does not refuse it.
func TestOneZoneServesAsAZone(t *testing.T) {
	srv, _ := newTestServer(t, 6, 2, 2, sriov.VSwitchDynamic, Config{QueueDepth: 1})
	hyps := srv.c.Hypervisors()
	for _, req := range []CreateVMRequest{{Name: "peer", Hypervisor: &hyps[0]}, {Name: "moved", Hypervisor: &hyps[2]}} {
		if st := serve(srv, "POST", "/v1/vms", req).Code; st != http.StatusCreated {
			t.Fatalf("create %s: status %d", req.Name, st)
		}
	}
	if st := serve(srv, "POST", "/v1/vms/moved/migrate", MigrateVMRequest{Destination: hyps[4]}).Code; st != http.StatusOK {
		t.Fatalf("migrate: status %d", st)
	}

	var ex ExplainResponse
	if err := json.Unmarshal(serve(srv, "GET", "/v1/explain?src=peer&dst=moved", nil).Body.Bytes(), &ex); err != nil {
		t.Fatal(err)
	}
	migrated := 0
	for _, h := range ex.Hops {
		if p := h.Provenance; p != nil && p.Engine == "migrate" {
			migrated++
			if p.Shard != 0 {
				t.Errorf("hop at switch %d: provenance shard %d, want zone 0", h.Switch, p.Shard)
			}
		}
	}
	if migrated == 0 {
		t.Fatalf("no hop attributed to the migration: %+v", ex.Hops)
	}
	var dump struct {
		Spans []traceSpan `json:"spans"`
	}
	if err := json.Unmarshal(serve(srv, "GET", "/v1/trace", nil).Body.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	smps := 0
	for _, sp := range dump.Spans {
		if sp.Kind == "smp" && sp.Attrs["shard"] != nil {
			smps++
			if sp.Attrs["shard"] != float64(0) {
				t.Fatalf("smp span %d: shard %v, want zone 0", sp.ID, sp.Attrs["shard"])
			}
		}
	}
	if smps == 0 {
		t.Fatal("no smp span carries a shard")
	}

	var health map[string]any
	if err := json.Unmarshal(serve(srv, "GET", "/healthz", nil).Body.Bytes(), &health); err != nil || health["shards"] != float64(1) {
		t.Fatalf("healthz shards = %v (%v), want 1", health["shards"], err)
	}
	var topo TopologyResponse
	if err := json.Unmarshal(serve(srv, "GET", "/v1/topology", nil).Body.Bytes(), &topo); err != nil || topo.Shards != 1 || len(topo.ShardStats) != 1 {
		t.Fatalf("topology shards = %d, stats = %d (%v), want 1/1", topo.Shards, len(topo.ShardStats), err)
	}

	co := srv.Coordinator()
	held, release := make(chan struct{}), make(chan struct{})
	thawed := make(chan error, 1)
	go func() { thawed <- co.Freeze(func() { close(held); <-release }) }()
	<-held
	queued := make(chan int, 1)
	go func() {
		queued <- serve(srv, "POST", "/v1/vms/moved/migrate", MigrateVMRequest{Destination: hyps[2]}).Code
	}()
	waitFor(t, func() bool { return co.QueueLen() == 1 }, "the migration to queue")
	w := serve(srv, "DELETE", "/v1/vms/moved", nil)
	if w.Code != http.StatusConflict || !strings.Contains(w.Body.String(), "is busy") {
		t.Fatalf("destroy of a VM with a migration queued: status %d %s, want 409 busy", w.Code, w.Body)
	}
	// The zone's queue is full; a reconfigure waits for the freeze instead.
	reconfigured := make(chan int, 1)
	go func() { reconfigured <- serve(srv, "POST", "/v1/reconfigure", nil).Code }()
	close(release)
	if err := <-thawed; err != nil {
		t.Fatal(err)
	}
	if st := <-queued; st != http.StatusOK {
		t.Fatalf("queued migration: status %d", st)
	}
	if st := <-reconfigured; st != http.StatusOK {
		t.Fatalf("reconfigure beside a full queue: status %d, want 200", st)
	}
}
