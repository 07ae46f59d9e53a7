package api

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ibvsim/internal/ib"
	"ibvsim/internal/smp"
	"ibvsim/internal/sriov"
)

// TestPublishedTablesAreNeverWritten holds ib.LFT's ownership rule where the
// holders that share tables by pointer meet: the SM's target (which is the
// last routing result's tables, as ComputeRoutes installs them) and
// programmed views, the snapshot, the incremental index, the kept CDG and
// the zones. Before every command of a seeded sequence — boot, migrations
// in one zone and through four, a reconcile dry run then its apply, link
// flaps rerouted incrementally and one lossy distribution — it records each
// table the target, programmed and snapshot views hand out, with its
// entries. At the end every recorded table must still hold them: a table
// written in place after it was handed over shows up as changed.
func TestPublishedTablesAreNeverWritten(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { publishedTablesRun(t, shards) })
	}
}

func publishedTablesRun(t *testing.T, shards int) {
	srv, ts, _ := newPinServer(t, sriov.VSwitchPrepopulated, shards, Config{})
	c, cl := srv.c, ts.Client()
	c.SM.IncrementalRouting = true
	srv.WireTransitionMonitor()
	rng := rand.New(rand.NewSource(int64(shards)))

	held := map[*ib.LFT][]byte{}
	record := func() {
		snap := srv.Snapshot()
		for _, sw := range c.SM.Topo.Switches() {
			for _, lft := range []*ib.LFT{c.SM.TargetLFT(sw), c.SM.ProgrammedLFT(sw), snap.LFT(sw)} {
				if _, ok := held[lft]; lft != nil && !ok {
					held[lft] = lft.Bytes()
				}
			}
		}
	}
	do := func(method, path string, body any) int {
		t.Helper()
		record()
		return doJSON(t, cl, method, ts.URL+path, body, nil)
	}
	hyps := c.Hypervisors()
	migrated := 0
	migrations := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			to := hyps[rng.Intn(len(hyps))]
			if do("POST", fmt.Sprintf("/v1/vms/vm%d/migrate", rng.Intn(16)), MigrateVMRequest{Destination: to}) == 200 {
				migrated++
			}
		}
	}
	reconcile := func() {
		t.Helper()
		for _, path := range []string{"/v1/reconcile?goal=defrag&dry_run=1", "/v1/reconcile?goal=defrag"} {
			if st := do("POST", path, nil); st != 200 {
				t.Fatalf("%s: status %d", path, st)
			}
		}
	}
	link := strataLinks(c.SM.Topo)[0]
	reroute := func(up bool) {
		t.Helper()
		if err := srv.co.Freeze(func() {
			if err := c.SM.Topo.SetLinkState(link.sw, link.port, up); err != nil {
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
		if st := do("POST", "/v1/reconfigure", nil); st != 200 {
			t.Fatalf("reconfigure with the link up=%v: status %d", up, st)
		}
	}

	for i := 0; i < 16; i++ {
		on := hyps[rng.Intn(len(hyps))]
		do("POST", "/v1/vms", CreateVMRequest{Name: fmt.Sprintf("vm%d", i), Hypervisor: &on})
	}
	migrations(12)
	reconcile()
	reroute(false) // the incremental layer's cold start: a full compute
	reroute(true)  // its first delta
	migrations(8)

	// One lossy distribution: a third of the SMPs are lost and never
	// retried, so some switches keep their old tables. The manager is idle
	// between replies, so configuring it here is race free.
	dist := c.SM.Dist
	c.SM.Dist.Retry.MaxAttempts = 1
	c.SM.InjectFaults(smp.FaultConfig{Drop: 0.3, Seed: int64(shards)})
	reroute(false)
	if programmedIsTarget(c.SM) {
		t.Fatal("the lossy distribution completed: nothing is left half-programmed")
	}
	c.SM.ClearFaults()
	c.SM.Dist = dist
	reroute(false) // no delta: the cached tables, and the rest of the distribution
	migrations(8)
	reconcile()
	record()

	if migrated == 0 {
		t.Fatal("no migration succeeded")
	}
	if n := c.SM.Telemetry().Registry().Counter("routing.incremental.applied").Value(); n < 2 {
		t.Fatalf("%d reroutes applied incrementally, want the delta and the cached one", n)
	}
	changed := 0
	for lft, was := range held {
		if !bytes.Equal(lft.Bytes(), was) {
			changed++
		}
	}
	if changed > 0 {
		t.Fatalf("%d of the %d tables handed out were written afterwards", changed, len(held))
	}
	t.Logf("%d migrations; %d tables handed out, none written afterwards", migrated, len(held))
}
