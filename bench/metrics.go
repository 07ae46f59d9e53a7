package main

// e2eSpec is one end-to-end metric as BENCHMARK.json declares it; the test
// holds the two in step.
type e2eSpec struct {
	unit         string
	higherBetter bool
	bound        float64
}

// endToEnd is what a user of the control plane sees. Every workload reports
// every metric: write is the workload's mutating call (migrate, link flap to
// rerouted, reconcile apply), read the call that shows its effect (path
// lookup, full audit, dry run), visible the two back to back. The three
// latencies and ops_per_s are quiet figures (stats.go). The bounds are what
// ten seeds on a 2-vCPU sandbox support (README, "Bounds").
var endToEnd = map[string]e2eSpec{
	"setup_s":     {"s", false, 0.25},
	"write_ms":    {"ms", false, 0.25},
	"visible_ms":  {"ms", false, 0.25},
	"read_ms":     {"ms", false, 0.25},
	"ops_per_s":   {"1/s", true, 0.25},
	"smps_per_op": {"count", false, 0.15},
	"peak_mem_mb": {"MB", false, 0.15},
}

type layerSpec struct {
	name         string
	unit         string
	higherBetter bool
}

// perLayer is the layer ladder's output, outermost layer first. A traced run
// prints all of them; a layer that does no work in a workload reads 0, which
// is itself the prediction ("routing does nothing on migrate-classic").
var perLayer = []layerSpec{
	{"api.migrate_us", "us", false},
	{"api.migrate_p99_us", "us", false},
	{"api.create_us", "us", false},
	{"api.destroy_us", "us", false},
	{"api.self_us", "us", false},
	{"api.read_after_write_us", "us", false},
	{"api.wait_us", "us", false},
	{"api.rejects_429", "count", false},
	{"api.stale_reads", "count", false},
	{"api.reconfigure_us", "us", false},
	{"api.reconfigure_self_us", "us", false},
	{"api.audit_full_us", "us", false},
	{"api.reconcile_dry_us", "us", false},
	{"api.reconcile_dry_self_us", "us", false},
	{"api.reconcile_apply_us", "us", false},
	{"api.reconcile_self_us", "us", false},
	{"shard.migrate_local_us", "us", false},
	{"shard.migrate_cross_us", "us", false},
	{"shard.cross_share", "ratio", false},
	{"shard.freeze_us", "us", false},
	{"shard.self_us", "us", false},
	{"cloud.migrate_us", "us", false},
	{"cloud.create_us", "us", false},
	{"cloud.destroy_us", "us", false},
	{"cloud.wave_us", "us", false},
	{"cloud.moves_per_wave", "count", true},
	{"cloud.self_us", "us", false},
	{"core.plan_swap_us", "us", false},
	{"core.plan_copy_us", "us", false},
	{"core.apply_us", "us", false},
	{"core.apply_self_us", "us", false},
	{"core.merge_us", "us", false},
	{"core.switches_per_plan", "count", false},
	{"core.smps_per_plan", "count", false},
	{"sm.set_entries_us", "us", false},
	{"sm.set_entries_total_us", "us", false},
	{"sm.resweep_us", "us", false},
	{"sm.compute_routes_us", "us", false},
	{"sm.distribute_us", "us", false},
	{"sm.reconfigure_us", "us", false},
	{"sm.smps_per_reroute", "count", false},
	{"sm.blocks_coalesced", "count", true},
	{"routing.full_us", "us", false},
	{"routing.incremental_us", "us", false},
	{"routing.dests_recomputed", "count", false},
	{"routing.alloc_kb_per_reroute", "KB", false},
	{"audit.full_us", "us", false},
	{"audit.fast_us", "us", false},
	{"audit.op_scoped_us", "us", false},
	{"audit.transition_us", "us", false},
	{"audit.lids_checked", "count", false},
	{"cdg.build_us", "us", false},
	{"cdg.find_cycle_us", "us", false},
	{"cdg.channels", "count", false},
	{"cdg.edges", "count", false},
	{"reconcile.plan_us", "us", false},
	{"reconcile.moves", "count", false},
	{"reconcile.waves", "count", false},
	{"reconcile.cost_match", "ratio", true},
	{"ib.lft_set_us_per_k", "us", false},
	{"ib.lft_set_noprov_us_per_k", "us", false},
	{"ib.lft_diff_us", "us", false},
	{"ib.lft_clone_us", "us", false},
	{"topology.build_ms", "ms", false},
	{"proc.alloc_mb_per_kop", "MB", false},
	{"proc.gc_pause_ms", "ms", false},
	{"proc.gc_cycles", "count", false},
	{"proc.goroutines_end", "count", false},
	{"trace.overhead_pct", "%", false},
	{"trace.traced_p50_us", "us", false},
	{"ladder.sum_pct", "%", false},
	{"ladder.negative_ops", "count", false},
}
