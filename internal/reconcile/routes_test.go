package reconcile_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"ibvsim/internal/api"
	"ibvsim/internal/audit"
	"ibvsim/internal/cdg"
	"ibvsim/internal/cloud"
	"ibvsim/internal/ib"
	"ibvsim/internal/reconcile"
	"ibvsim/internal/sriov"
	"ibvsim/internal/topology"
)

// handBuiltView is the fabric-wide audit view built from table and owner
// maps, the way code without a published snapshot builds it.
func handBuiltView(c *cloud.Cloud) *audit.View {
	lfts := map[topology.NodeID]*ib.LFT{}
	for _, sw := range c.SM.Topo.Switches() {
		lfts[sw] = c.SM.ProgrammedLFT(sw)
	}
	return &audit.View{Topo: c.SM.Topo, LFTs: lfts, NodeOfLID: c.SM.AddressView()}
}

// sameRoutes fails unless a and b answer LFT(sw).Get(l) and NodeOf(l) alike
// for every switch and every LID up to one past the SM's top LID.
func sameRoutes(t *testing.T, what string, c *cloud.Cloud, a, b cdg.Routes) {
	t.Helper()
	top := c.SM.TopLID() + 1
	for l := ib.LID(0); l <= top; l++ {
		if x, y := a.NodeOf(l), b.NodeOf(l); x != y {
			t.Fatalf("%s: LID %d is owned by %d and by %d", what, l, x, y)
		}
	}
	for _, sw := range c.SM.Topo.Switches() {
		x, y := a.LFT(sw), b.LFT(sw)
		if (x == nil) != (y == nil) {
			t.Fatalf("%s: switch %d has a table in one and not the other", what, sw)
		}
		if x == nil {
			continue
		}
		for l := ib.LID(0); l <= top; l++ {
			if p, q := x.Get(l), y.Get(l); p != q {
				t.Fatalf("%s: switch %d forwards LID %d to port %d and to %d", what, sw, l, p, q)
			}
		}
	}
}

// TestRoutesAgree is the differential pin on the cdg.Routes implementations
// of the installed routing: after every op of a seeded run on a small fat
// tree — creates, migrations, a defrag wave, a link flap with reroute — the
// SM's Programmed(), the published snapshot's audit view, a view built from
// maps and a reconcile shadow with nothing staged answer every switch × LID
// alike; after each full distribution, Target() equals Programmed().
func TestRoutesAgree(t *testing.T) {
	topo, err := topology.BuildXGFT(topology.XGFTSpec{M: []int{4, 4}, W: []int{1, 4}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	cas := topo.CAs()
	c, _, err := cloud.New(topo, cas[0], cas[1:], cloud.Config{
		Model: sriov.VSwitchPrepopulated, VFsPerHypervisor: 3, Scheduler: cloud.Spread{}, RouteWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := api.NewServer(c, api.Config{})
	defer srv.Shutdown(context.Background()) //nolint:errcheck // nothing in flight

	do := func(method, path string, body, out any) int {
		t.Helper()
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(b)))
		if out != nil {
			if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
				t.Fatalf("%s %s: %v", method, path, err)
			}
		}
		return w.Code
	}
	agree := func(what string) {
		t.Helper()
		live := c.SM.Programmed()
		sameRoutes(t, what+": snapshot", c, live, srv.Snapshot().AuditView())
		sameRoutes(t, what+": map view", c, live, handBuiltView(c))
		sameRoutes(t, what+": shadow", c, live, reconcile.NewShadow(c))
	}
	distributed := func(what string) {
		t.Helper()
		agree(what)
		sameRoutes(t, what+": target", c, c.SM.Programmed(), c.SM.Target())
	}
	distributed("boot")

	rng := rand.New(rand.NewSource(31))
	hyps := c.Hypervisors()
	for i := 0; i < 10; i++ {
		h := hyps[rng.Intn(len(hyps))]
		name := fmt.Sprintf("vm%d", i)
		if st := do("POST", "/v1/vms", api.CreateVMRequest{Name: name, Hypervisor: &h}, nil); st != http.StatusCreated {
			t.Fatalf("create %s on %d: status %d", name, h, st)
		}
		agree("create " + name)
	}
	moved := 0
	for i := 0; i < 8; i++ {
		name, to := fmt.Sprintf("vm%d", rng.Intn(10)), hyps[rng.Intn(len(hyps))]
		if do("POST", "/v1/vms/"+name+"/migrate", api.MigrateVMRequest{Destination: to}, nil) == http.StatusOK {
			moved++
		}
		agree(fmt.Sprintf("migrate %s to %d", name, to))
	}
	if moved < 4 {
		t.Fatalf("only %d of 8 migrations went through", moved)
	}
	var rec api.ReconcileResponse
	if st := do("POST", "/v1/reconcile?goal=defrag", nil, &rec); st != http.StatusOK || len(rec.Moves) == 0 {
		t.Fatalf("defrag: status %d, %d moves", st, len(rec.Moves))
	}
	agree("defrag wave")

	var sw topology.NodeID
	var port ib.PortNum
	for _, p := range topo.Node(topo.Switches()[0]).Ports {
		if p.Peer != topology.NoNode && topo.Node(p.Peer).IsSwitch() {
			sw, port = topo.Switches()[0], p.Num
			break
		}
	}
	for _, up := range []bool{false, true} {
		before := map[topology.NodeID]*ib.LFT{}
		for _, s := range topo.Switches() {
			before[s] = c.SM.ProgrammedLFT(s)
		}
		if err := topo.SetLinkState(sw, port, up); err != nil {
			t.Fatal(err)
		}
		if _, err := c.SM.LightSweep(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.SM.Resweep(); err != nil {
			t.Fatal(err)
		}
		if st := do("POST", "/v1/reconfigure", nil, nil); st != http.StatusOK {
			t.Fatalf("reconfigure with the link up=%v: status %d", up, st)
		}
		rerouted := 0
		for s, lft := range before {
			if c.SM.ProgrammedLFT(s) != lft {
				rerouted++
			}
		}
		if rerouted == 0 {
			t.Fatalf("the link up=%v rerouted no switch", up)
		}
		distributed(fmt.Sprintf("reroute, link up=%v", up))
	}
}
