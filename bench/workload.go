package main

import (
	"context"
	"fmt"
	"time"

	"ibvsim/internal/api"
	"ibvsim/internal/cloud"
	"ibvsim/internal/routing"
	"ibvsim/internal/sriov"
	"ibvsim/internal/topology"
)

// spanCap sizes the program's retained-span ring. The default (2^19, trimmed
// at twice that) takes ~700 paper-scale migrations to fill, so a 15 s window
// would sit on the ramp: the heap, and with it GC cost and latency, would
// still be growing when the window closes. At 2^16 the warm-up fills the
// ring and the window measures the steady state a long-lived daemon is in.
// Every operation's own span window (<= ~5k spans) still fits many times.
const spanCap = 1 << 16

type kind uint8

const (
	kindMigrate kind = iota
	kindFlap
	kindReconcile
)

// workload is one traffic mix on one fabric. Why is the reason it exists,
// repeated in BENCHMARK.json and the README.
type workload struct {
	Name   string
	Why    string
	Kind   kind
	Spec   topology.XGFTSpec
	Radix  int
	Model  sriov.Model
	Shards int
	Fleet  int
	// Clients is the number of op streams with disjoint VM and hypervisor
	// sets (migrate workloads): one client replays them interleaved in the
	// window, the traced run's concurrency reference runs one client each.
	Clients int
	// Aliases name this workload's end-to-end metrics after its own
	// operations (write_ms is migrate_ms here, flap_reroute_ms there): the
	// human report prints both.
	Aliases map[string]string
}

var (
	// The paper's 3-level shape (5832 = 18^3) at smaller radices. Migrations
	// run on 12^3 hosts (432 switches; ~4.6 ms each, ~4000 per 25 s window),
	// link flaps on 8^3 (192 switches; a fail+heal on each stratum with its
	// four full audits is ~1.1 s), reconcile batches on 10^3 (300 switches;
	// scatter+defrag of 256 VMs is ~0.9 s).
	xgft1728 = topology.XGFTSpec{M: []int{12, 12, 12}, W: []int{1, 12, 12}}
	xgft1000 = topology.XGFTSpec{M: []int{10, 10, 10}, W: []int{1, 10, 10}}
	xgft512  = topology.XGFTSpec{M: []int{8, 8, 8}, W: []int{1, 8, 8}}

	migrateAliases = map[string]string{
		"write_ms":   "migrate_ms",
		"visible_ms": "migrate_visible_ms", "read_ms": "read_after_write_ms",
		"smps_per_op": "smps_per_migration",
	}
)

// scale picks the fabrics. The driver's command runs scaleBench: fabrics
// sized so that a 25 s window holds thousands of migrations or some twenty
// flap or reconcile samples, and a run with its five set-ups and closing
// audit fits the driver's time budget (README, "Where this differs").
type scale uint8

const (
	scaleBench scale = iota
	scaleSmall       // -small: 324-node fabrics, the smoke test
	scalePaper       // -paper: the migrate workloads on the paper's 5832-node fat tree
)

// workloads returns the four workloads at the given scale.
func workloads(sc scale) []*workload {
	big, mid, flap := xgft1728, xgft1000, xgft512
	bigRadix, midRadix, flapRadix := 24, 20, 16
	migFleet, fleet := 1024, 256
	switch sc {
	case scaleSmall:
		big, mid, flap = topology.FatTree324, topology.FatTree324, topology.FatTree324
		bigRadix, midRadix, flapRadix = 36, 36, 36
		migFleet, fleet = 128, 64
	case scalePaper:
		big, bigRadix = topology.FatTree5832, 36
		flap, flapRadix = xgft1000, 20
	}
	return []*workload{
		{
			Name: "migrate-classic",
			Why:  "single-VM lifecycle through the one-actor loop: per-mutation O(fabric) snapshot and op-scoped audit dominate; routing, full audits and reconcile do nothing",
			Kind: kindMigrate, Spec: big, Radix: bigRadix, Model: sriov.VSwitchPrepopulated,
			Shards: 0, Fleet: migFleet, Clients: 2, Aliases: migrateAliases,
		},
		{
			Name: "migrate-sharded",
			Why:  "the same fabric, fleet and op sequence through 4 shard actors and lazily composed snapshots: shows cost moved from the write to the next read",
			Kind: kindMigrate, Spec: big, Radix: bigRadix, Model: sriov.VSwitchPrepopulated,
			Shards: 4, Fleet: migFleet, Clients: 2, Aliases: migrateAliases,
		},
		{
			Name: "fabric-events",
			Why:  "link fail/heal -> resweep -> incremental reroute -> full audit: routing, sm distribution, audit and cdg do all the work, cloud/core/shard/reconcile none",
			Kind: kindFlap, Spec: flap, Radix: flapRadix, Model: sriov.VSwitchPrepopulated,
			Shards: 0, Fleet: fleet, Clients: 1,
			Aliases: map[string]string{
				"write_ms":   "flap_reroute_ms",
				"visible_ms": "flap_audited_ms", "read_ms": "full_audit_ms",
				"smps_per_op": "smps_per_reroute",
			},
		},
		{
			Name: "reconcile-waves",
			Why:  "seeded scatter then defrag of 256 VMs under dynamic LIDs: planner, shadow coster, MigrateWave, MergePlans and coalesced distribution move ~190 VMs per batch; no routing",
			Kind: kindReconcile, Spec: mid, Radix: midRadix, Model: sriov.VSwitchDynamic,
			Shards: 0, Fleet: fleet, Clients: 1,
			Aliases: map[string]string{
				"write_ms":   "reconcile_apply_ms",
				"visible_ms": "reconcile_converged_ms", "read_ms": "reconcile_dry_ms",
				"smps_per_op": "smps_per_move",
			},
		},
	}
}

func findWorkload(name string, sc scale) (*workload, error) {
	for _, w := range workloads(sc) {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// env is one booted fabric. srv and cl are nil on a bare replica (a lower
// rung of the layer ladder, driven through cloud.Cloud directly).
type env struct {
	w     *workload
	topo  *topology.Topology
	c     *cloud.Cloud
	srv   *api.Server
	cl    *client
	setup time.Duration
}

// bootBare builds the topology, bootstraps the cloud (sweep, LIDs, routing,
// full distribution) and places the resident fleet directly on the cloud.
func bootBare(w *workload, p *plan) (*env, error) {
	e := &env{w: w}
	start := time.Now()
	topo, err := topology.BuildXGFT(w.Spec, w.Radix)
	if err != nil {
		return nil, err
	}
	eng, err := routing.New("minhop")
	if err != nil {
		return nil, err
	}
	cas := topo.CAs()
	c, _, err := cloud.New(topo, cas[0], cas[1:], cloud.Config{
		Model:            w.Model,
		VFsPerHypervisor: 2,
		Engine:           eng,
		Scheduler:        cloud.Spread{},
	})
	if err != nil {
		return nil, err
	}
	c.SM.IncrementalRouting = w.Kind == kindFlap
	c.SM.Telemetry().Tracer().SetSpanCap(spanCap)
	for _, pl := range p.Fleet {
		if _, err := c.CreateVMOn(pl.VM, pl.Hyp); err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
	}
	e.topo, e.c = topo, c
	e.setup = time.Since(start)
	return e, nil
}

// boot is bootBare plus the api.Server and the warm-up, all of it timed as
// set-up. AuditInterval stays 0: no cadence goroutine, nothing left running.
func boot(w *workload, p *plan) (*env, *tally, error) {
	e, err := bootBare(w, p)
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	e.srv = api.NewServer(e.c, api.Config{Shards: w.Shards})
	e.cl = newClient(e.srv.Handler())
	warm := &tally{}
	warmUp(e, p, warm)
	e.setup += time.Since(start)
	return e, warm, nil
}

// close shuts the server down (draining the actor or the shard actors) so
// no goroutine of this fabric outlives it.
func (e *env) close() error {
	if e.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return e.srv.Shutdown(ctx)
}
