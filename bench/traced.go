package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"ibvsim/internal/audit"
	"ibvsim/internal/cdg"
	"ibvsim/internal/cloud"
	"ibvsim/internal/core"
	"ibvsim/internal/ib"
	"ibvsim/internal/reconcile"
	"ibvsim/internal/routing"
	"ibvsim/internal/shard"
	"ibvsim/internal/sriov"
	"ibvsim/internal/topology"
)

// The traced run replays a fixed prefix of the seeded sequence serially and
// times every rung of the layer ladder from outside: the api handler on a
// fabric with an api.Server round it, every lower rung on an identical
// fabric driven through that layer's own public functions (so a lower rung
// pays for no snapshot, no cost window and no OnDistribute hook). Replicas
// start from the same state and receive the same operations, so span k of
// one rung and span k of the next describe the same operation, and a
// layer's self time is taken per operation: its span minus the spans of the
// rung below it.

const (
	// tracedMigrations and tracedCycles size the replayed prefix at the
	// contract's 15 s window; shorter windows scale them down.
	tracedMigrations = 200
	tracedCycles     = 6
	// selfTolerance is how far below zero (as a share of the outer span) a
	// self time may fall before the operation is counted as negative.
	selfTolerance = 0.10
)

// ladder collects samples (µs unless the name says otherwise) and exact
// counts by metric name.
type ladder struct {
	tr       *tracer
	samples  map[string][]float64
	values   map[string]float64
	negative int
}

func newLadder() *ladder {
	return &ladder{tr: newTracer(), samples: map[string][]float64{}, values: map[string]float64{}}
}

func (l *ladder) obs(name string, v float64) { l.samples[name] = append(l.samples[name], v) }

// self records a per-operation self time, counting impossible negatives.
func (l *ladder) self(name string, outer float64, inner ...float64) {
	s, ok := selfTime(outer, inner, selfTolerance)
	if !ok {
		l.negative++
	}
	l.obs(name, s)
}

// value resolves a metric: an explicit value wins, else the median of the
// samples, else 0 (the layer did no work in this workload).
func (l *ladder) value(name string) (float64, int) {
	if v, ok := l.values[name]; ok {
		return v, 1
	}
	return median(l.samples[name]), len(l.samples[name])
}

func scaled(base int, seconds float64, min int) int {
	n := int(math.Round(float64(base) * seconds / 15))
	if n < min {
		return min
	}
	if n > base {
		return base
	}
	return n
}

func runTraced(w *workload, opt options) (*result, error) {
	p, err := genPlan(w, opt.seed, planBudget(w, 15))
	if err != nil {
		return nil, err
	}
	res := &result{Workload: w.Name, Seed: opt.seed}
	l := newLadder()

	var builds []float64
	for i := 0; i < 3; i++ {
		_, took := l.tr.timed("topology", "BuildXGFT", 0, 0, func() {
			_, err = topology.BuildXGFT(w.Spec, w.Radix)
		})
		if err != nil {
			return nil, err
		}
		builds = append(builds, ms(took))
	}
	l.values["topology.build_ms"] = median(builds)

	switch w.Kind {
	case kindMigrate:
		err = tracedMigrate(w, p, opt, l, &res.tally)
	case kindFlap:
		err = tracedFlap(w, p, opt, l, &res.tally)
	case kindReconcile:
		err = tracedReconcile(w, p, opt, l, &res.tally)
	}
	if err != nil {
		return nil, err
	}
	l.values["ladder.negative_ops"] = float64(l.negative)
	for _, spec := range perLayer {
		v, n := l.value(spec.name)
		res.add(spec.name, v, spec.unit, n)
	}
	path, err := l.tr.write(opt.outDir, w.Name)
	if err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes, fmt.Sprintf("%d spans written to %s", len(l.tr.spans), path))
	return res, nil
}

// --- shared helpers ---------------------------------------------------------

// fullView hand-builds the view a fabric-wide audit checks, from a bare
// cloud: what api.Snapshot.AuditView assembles from a published snapshot.
func fullView(c *cloud.Cloud) *audit.View {
	topo := c.SM.Topo
	lfts := make(map[topology.NodeID]*ib.LFT, topo.NumSwitches())
	for _, sw := range topo.Switches() {
		lfts[sw] = c.SM.ProgrammedLFT(sw)
	}
	nodeOf := c.SM.AddressView()
	lids := make([]ib.LID, 0, len(nodeOf))
	for lid := range nodeOf {
		lids = append(lids, lid)
	}
	sort.Slice(lids, func(i, j int) bool { return lids[i] < lids[j] })
	var vms []audit.VMBinding
	for _, name := range c.VMs() {
		vm := c.VM(name)
		vms = append(vms, audit.VMBinding{Name: vm.Name, LID: vm.Addr.LID, Hyp: vm.Hyp})
	}
	return &audit.View{Topo: topo, LFTs: lfts, NodeOfLID: nodeOf, ActiveLIDs: lids, VMs: vms}
}

// opScopedView is the view the control plane audits after one lifecycle
// mutation: the touched LID columns plus the SM's own LID.
func opScopedView(c *cloud.Cloud, lids []ib.LID, vms []audit.VMBinding) *audit.View {
	if smLID := c.SM.LIDOf(c.SM.SMNode); smLID != ib.LIDUnassigned {
		lids = append(lids, smLID)
	}
	return &audit.View{
		Topo: c.SM.Topo, LFTOf: c.SM.ProgrammedLFT,
		NodeOfLID: c.SM.ResolveLIDs(lids), ActiveLIDs: lids, VMs: vms,
	}
}

// dataLIDs keeps the CA-owned destinations: the ones the CDG covers.
func dataLIDs(v *audit.View) []ib.LID {
	out := make([]ib.LID, 0, len(v.ActiveLIDs))
	for _, lid := range v.ActiveLIDs {
		if n := v.Topo.Node(v.NodeOf(lid)); n != nil && !n.IsSwitch() {
			out = append(out, lid)
		}
	}
	return out
}

func (l *ladder) auditClean(rep *audit.Report, t *tally, what string) {
	t.attempted++
	if rep.Total != 0 {
		t.fail("%s: %d audit violations", what, rep.Total)
	}
}

// ibRung times the LFT primitives on clones of one programmed table: 1000
// copy-on-write Sets with a provenance epoch open and with none, a Diff
// against a clone with 64 changed entries, and Clone itself.
func ibRung(l *ladder, base *ib.LFT) {
	if base == nil {
		return
	}
	top := base.NumBlocks() * ib.LFTBlockSize
	prov := &ib.Provenance{Mutation: ib.NextMutationID(), Engine: "ibvbench", Reason: "ib rung"}
	sets := func(t *ib.LFT) {
		for i := 0; i < 1000; i++ {
			lid := ib.LID(1 + (i*61)%(top-1))
			t.Set(lid, (t.Get(lid)+1)%200)
		}
	}
	for rep := 0; rep < 21; rep++ {
		c := base.Clone()
		c.SetProvenance(prov)
		_, took := l.tr.timed("ib", "LFT.Set x1000 (provenance)", rep, 0, func() { sets(c) })
		l.obs("ib.lft_set_us_per_k", us(took))

		c = base.Clone()
		c.SetProvenance(nil)
		_, took = l.tr.timed("ib", "LFT.Set x1000", rep, 0, func() { sets(c) })
		l.obs("ib.lft_set_noprov_us_per_k", us(took))

		c = base.Clone()
		for i := 0; i < 64; i++ {
			lid := ib.LID(1 + (i*997)%(top-1))
			c.Set(lid, (c.Get(lid)+1)%200)
		}
		_, took = l.tr.timed("ib", "LFT.Diff", rep, 0, func() { base.Diff(c) })
		l.obs("ib.lft_diff_us", us(took))

		_, took = l.tr.timed("ib", "LFT.Clone x1000", rep, 0, func() {
			for i := 0; i < 1000; i++ {
				base.Clone()
			}
		})
		l.obs("ib.lft_clone_us", us(took)/1000)
	}
}

// procDelta reports allocation and GC work between two MemStats readings.
func procDelta(l *ladder, before, after *runtime.MemStats, ops int) {
	if ops > 0 {
		l.values["proc.alloc_mb_per_kop"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) / float64(ops) * 1000
	}
	l.values["proc.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	l.values["proc.gc_cycles"] = float64(after.NumGC - before.NumGC)
}

// --- migrate-classic / migrate-sharded --------------------------------------

// serialOps interleaves the clients' sequences op by op: the warm-up prefix,
// then the measured prefix up to n migrations. The clients' sets are
// disjoint, so the serial order is as valid as any interleaving.
func serialOps(p *plan, n int) (warm, measured []op) {
	for i := 0; i < warmPerClient; i++ {
		for _, ops := range p.Clients {
			warm = append(warm, ops[i])
		}
	}
	migrations := 0
	for i := warmPerClient; migrations < n; i++ {
		for _, ops := range p.Clients {
			if i >= len(ops) {
				return warm, measured
			}
			measured = append(measured, ops[i])
			if ops[i].Kind == opMigrate {
				migrations++
			}
		}
	}
	return warm, measured
}

// lidPair is what the core rung needs to replay one migration: the VM's LID
// and the destination VF's (swap) or PF's (copy) LID.
type lidPair struct{ vm, peer ib.LID }

func tracedMigrate(w *workload, p *plan, opt options, l *ladder, t *tally) error {
	warm, ops := serialOps(p, scaled(tracedMigrations, opt.seconds, 20))
	sharded := w.Shards > 1

	// Concurrency reference: the same ops under the workload's two closed-
	// loop clients, untraced. wait = concurrent p50 - serial p50.
	e, warmTally, err := boot(w, p)
	if err != nil {
		return err
	}
	t.merge(warmTally)
	perClient := make([][]op, len(p.Clients))
	for i, o := range ops {
		perClient[i%len(p.Clients)] = append(perClient[i%len(p.Clients)], o)
	}
	conc := concurrentReplay(e, p, perClient)
	t.merge(&conc.tally)
	settle(e.cl, p, conc.parked, t)
	if err := e.close(); err != nil {
		return err
	}

	// One replica per rung, all alive at once: operation k runs on every
	// rung back to back, so a slow second on the machine hits all the spans
	// of one operation alike and the per-operation subtraction stays honest.
	if e, warmTally, err = boot(w, p); err != nil { // rung 1: api.Server
		return err
	}
	t.merge(warmTally)
	var co *shard.Coordinator
	if sharded { // rung 2: shard.Coordinator with no api round it
		bare, err := bootBare(w, p)
		if err != nil {
			return err
		}
		if co, err = shard.New(bare.c, w.Shards, shard.Config{}); err != nil {
			return err
		}
	}
	cloudEnv, err := bootBare(w, p) // rung 3: cloud.Cloud
	if err != nil {
		return err
	}
	c := cloudEnv.c
	aud := audit.New(c.SM.Telemetry(), nil, audit.Config{})
	coreEnv, err := bootBare(w, p) // rung 4: core.Reconfigurator (and sm below it)
	if err != nil {
		return err
	}
	rc := coreEnv.c.RC
	// AfterUpdate fires after each switch's LFT update: the gaps between
	// firings are the sm.SetLFTEntriesProv calls, seen from outside.
	var ticks []time.Time
	rc.AfterUpdate = func() { ticks = append(ticks, time.Now()) }

	planName, planMetric := "PlanSwap", "core.plan_swap_us"
	if w.Model == sriov.VSwitchDynamic {
		planName, planMetric = "PlanCopy", "core.plan_copy_us"
	}
	planOn := func(r *core.Reconfigurator, pr lidPair) (*core.MigrationPlan, error) {
		if w.Model == sriov.VSwitchDynamic {
			return r.PlanCopy(pr.vm, pr.peer)
		}
		return r.PlanSwap(pr.vm, pr.peer)
	}
	shardDo := func(o op) error {
		var err error
		switch o.Kind {
		case opCreate:
			_, err = co.CreateVM("", o.VM, o.Hyp)
		case opDestroy:
			_, err = co.DestroyVM("", o.VM)
		default:
			_, err = co.MigrateVM("", o.VM, o.Hyp)
		}
		return err
	}
	// lidsFor resolves, on the cloud rung's state, what the core rung needs.
	lidsFor := func(o op) (lidPair, error) {
		vm := c.VM(o.VM)
		if vm == nil {
			return lidPair{}, fmt.Errorf("cloud rung: no VM %q", o.VM)
		}
		if w.Model == sriov.VSwitchDynamic {
			return lidPair{vm.Addr.LID, c.SM.LIDOf(o.Hyp)}, nil
		}
		dstH := c.Hypervisor(o.Hyp)
		return lidPair{vm.Addr.LID, dstH.HCA.VFs[dstH.HCA.FreeVF()].LID}, nil
	}
	cloudDo := func(o op) error {
		var err error
		switch o.Kind {
		case opCreate:
			_, _, err = c.CreateVMOnVF(o.VM, o.Hyp, -1)
		case opDestroy:
			err = c.DestroyVM(o.VM)
		default:
			_, err = c.MigrateVMVF(o.VM, o.Hyp, -1)
		}
		return err
	}

	// The bare rungs replay the warm-up the api rung did inside boot.
	for _, o := range warm {
		if sharded {
			if err := shardDo(o); err != nil {
				return err
			}
		}
		if o.Kind == opMigrate {
			pr, err := lidsFor(o)
			if err != nil {
				return err
			}
			plan, err := planOn(rc, pr)
			if err != nil {
				return err
			}
			if _, err := rc.Apply(plan); err != nil {
				return err
			}
		}
		if err := cloudDo(o); err != nil {
			return err
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cross, migrations := 0, 0
	for k, o := range ops {
		// Rung 1: the api handler.
		start := time.Now()
		r := lifecycle(e, e.cl, p, o, t)
		if !r.ok && len(e.cl.parked) > 0 { // serial: no concurrent reader to blame
			t.fail("read after %s: write not visible with no other client running", o.VM)
		}
		apiSpan := l.tr.add("api", "POST "+o.Kind.String(), k, 0, start, r.write)
		l.tr.add("api", "GET paths (read-after-write)", k, 0, start.Add(r.write), r.read)
		apiUS := us(r.write)
		l.obs("api."+o.Kind.String()+"_us", apiUS)
		l.obs("api.read_after_write_us", us(r.read))

		// Rung 2: the shard coordinator.
		parent, shardUS := apiSpan, 0.0
		if sharded {
			isCross := o.Kind == opMigrate && co.Part.ZoneOfHyp(co.C.VM(o.VM).Hyp) != co.Part.ZoneOfHyp(o.Hyp)
			var took time.Duration
			parent, took = l.tr.timed("shard", "Coordinator "+o.Kind.String(), k, apiSpan, func() { err = shardDo(o) })
			if err != nil {
				return err
			}
			shardUS = us(took)
			if o.Kind == opMigrate {
				if isCross {
					cross++
					l.obs("shard.migrate_cross_us", shardUS)
				} else {
					l.obs("shard.migrate_local_us", shardUS)
				}
			}
		}

		// Rung 3: the cloud; creates and destroys end here (no LFT work
		// under prepopulated LIDs).
		if o.Kind != opMigrate {
			_, took := l.tr.timed("cloud", o.Kind.String(), k, parent, func() { err = cloudDo(o) })
			if err != nil {
				return err
			}
			l.obs("cloud."+o.Kind.String()+"_us", us(took))
			continue
		}
		migrations++
		pr, err := lidsFor(o)
		if err != nil {
			return err
		}
		vm := c.VM(o.VM)
		srcHyp, srcVF := vm.Hyp, vm.VF
		// Read-only, just before the real call, on the same state. Run twice
		// and keep the second: the planner inside MigrateVMVF runs right
		// after this one, on tables this one has pulled into the cache, so
		// the warm figure is the one that is inside the cloud span.
		var plan *core.MigrationPlan
		if _, err = planOn(c.RC, pr); err != nil {
			return err
		}
		_, took := l.tr.timed("core", planName, k, 0, func() { plan, err = planOn(c.RC, pr) })
		if err != nil {
			return err
		}
		planUS := us(took)
		l.obs(planMetric, planUS)
		l.obs("core.switches_per_plan", float64(plan.SwitchesTouched))
		l.obs("core.smps_per_plan", float64(plan.SMPs))
		var rep cloud.MigrationReport
		cloudSpan, took := l.tr.timed("cloud", "MigrateVMVF", k, parent, func() { rep, err = c.MigrateVMVF(o.VM, o.Hyp, -1) })
		if err != nil {
			return err
		}
		cloudUS := us(took)
		l.obs("cloud.migrate_us", cloudUS)
		t.attempted++
		if rep.Plan.SMPs != plan.SMPs || rep.Plan.SMPs != r.smps || rep.Plan.SMPs > maxSMPs(w.Model, p.Switches) {
			t.fail("migrate %s: api reported %d SMPs, cloud rung sent %d, plan said %d", o.VM, r.smps, rep.Plan.SMPs, plan.SMPs)
		}
		// The audit the control plane runs after the mutation, on a view
		// built by hand from the same state.
		lids := []ib.LID{vm.Addr.LID}
		if w.Model == sriov.VSwitchPrepopulated {
			lids = append(lids, c.Hypervisor(srcHyp).HCA.VFs[srcVF].LID)
		}
		view := opScopedView(c, lids, []audit.VMBinding{{Name: vm.Name, LID: vm.Addr.LID, Hyp: vm.Hyp}})
		var ar *audit.Report
		_, took = l.tr.timed("audit", "Run(reach, op-scoped)", k, apiSpan, func() { ar = aud.Run(view, audit.ScopeReach) })
		l.auditClean(ar, t, "op-scoped audit after "+o.VM)
		auditUS := us(took)
		l.obs("audit.op_scoped_us", auditUS)

		// Rung 4: core.Apply on its own fabric, fed the same LID pair; Apply
		// rebinds the LIDs inside the SM, so Plan+Apply keep it in step.
		if plan, err = planOn(rc, pr); err != nil {
			return err
		}
		plan.Prov = &ib.Provenance{Mutation: ib.NextMutationID(), Engine: "migrate", Reason: "ibvbench core rung", Shard: ib.ShardNone}
		ticks = ticks[:0]
		start = time.Now()
		_, err = rc.Apply(plan)
		applied := time.Since(start)
		if err != nil {
			return err
		}
		applySpan := l.tr.add("core", "Apply", k, cloudSpan, start, applied)
		applyUS := us(applied)
		l.obs("core.apply_us", applyUS)
		inSM, prev := 0.0, start // the first gap runs from Apply's start
		for _, tick := range ticks {
			gap := tick.Sub(prev)
			l.tr.add("sm", "SetLFTEntriesProv", k, applySpan, prev, gap)
			l.obs("sm.set_entries_us", us(gap))
			inSM += us(gap)
			prev = tick
		}
		l.obs("sm.set_entries_total_us", inSM)

		// Self times of this one migration.
		lower := cloudUS
		if sharded {
			lower = shardUS
			l.self("shard.self_us", shardUS, cloudUS)
		}
		l.self("api.self_us", apiUS, lower, auditUS)
		l.self("cloud.self_us", cloudUS, planUS, applyUS)
		l.self("core.apply_self_us", applyUS, inSM)
	}
	runtime.ReadMemStats(&after)
	procDelta(l, &before, &after, len(ops))

	fullAudit(e.cl, t)
	l.values["api.rejects_429"] = float64(e.cl.rejects)
	l.values["api.stale_reads"] = float64(conc.stale)
	if err := e.close(); err != nil {
		return err
	}
	if sharded {
		l.values["shard.cross_share"] = float64(cross) / float64(migrations)
		for i := 0; i < 21; i++ {
			_, took := l.tr.timed("shard", "Coordinator.Freeze (empty)", i, 0, func() { err = co.Freeze(func() {}) })
			if err != nil {
				return err
			}
			l.obs("shard.freeze_us", us(took))
		}
		t.attempted++
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := co.Shutdown(ctx); err != nil {
			t.fail("shard rung shutdown: %v", err)
		}
	}
	// The fabric the cloud rung leaves behind must audit clean too.
	full := aud.Run(fullView(c), audit.ScopeFull)
	l.auditClean(full, t, "full audit of the cloud rung")
	l.values["audit.lids_checked"] = float64(full.LIDsChecked)
	ibRung(l, coreEnv.c.SM.ProgrammedLFT(coreEnv.topo.Switches()[0]))

	serial := l.samples["api.migrate_us"]
	l.values["api.migrate_p99_us"] = percentile(sortedCopy(serial), 99)
	l.values["trace.traced_p50_us"] = median(serial)
	if cms := median(conc.write.v) * 1000; cms > 0 {
		l.values["api.wait_us"] = cms - median(serial)
		l.values["trace.overhead_pct"] = 100 * (median(serial)/cms - 1)
	}
	// The ladder must account for the result: the self times of every rung
	// plus the innermost spans, against the api span they were cut from.
	sum := 0.0
	for _, name := range []string{"api.self_us", "shard.self_us", "cloud.self_us", planMetric,
		"core.apply_self_us", "sm.set_entries_total_us", "audit.op_scoped_us"} {
		v, _ := l.value(name)
		sum += v
	}
	if m := median(serial); m > 0 {
		l.values["ladder.sum_pct"] = 100 * sum / m
	}
	return nil
}

// concurrentReplay runs each client's share of the measured prefix under the
// workload's real concurrency, with no deadline.
func concurrentReplay(e *env, p *plan, perClient [][]op) *window {
	parts := make([]*window, len(perClient))
	done := make(chan struct{})
	start := time.Now()
	for i := range perClient {
		parts[i] = newWindow(start)
		go func(i int) {
			defer func() { done <- struct{}{} }()
			cl := newClient(e.srv.Handler())
			for _, o := range perClient[i] {
				parts[i].record(o, lifecycle(e, cl, p, o, &parts[i].tally))
			}
			parts[i].parked = cl.parked
		}(i)
	}
	for range perClient {
		<-done
	}
	total := newWindow(start)
	for _, part := range parts {
		total.merge(part)
	}
	return total
}

// --- fabric-events -----------------------------------------------------------

func tracedFlap(w *workload, p *plan, opt options, l *ladder, t *tally) error {
	cycles := scaled(tracedCycles, opt.seconds, 2)
	if cycles >= len(p.Links) {
		cycles = len(p.Links) - 1
	}
	halves := [2]bool{false, true}

	// Rung 1: the operator's view, serial, spans on. The lower rungs run on
	// a second fabric, half-flap by half-flap right after the api rung's, so
	// machine noise hits both alike.
	e, warmTally, err := boot(w, p)
	if err != nil {
		return err
	}
	t.merge(warmTally)
	var apiUS, flapUS []float64
	apiHalf := func(link link, up bool, op int) {
		start := time.Now()
		r := reroute(e, e.cl, link, up, t)
		l.tr.add("sm", "SetLinkState+LightSweep+Resweep", op, 0, start, r.sweep)
		l.tr.add("api", "POST reconfigure", op, 0, start.Add(r.sweep), r.handler)
		apiUS = append(apiUS, us(r.handler))
		flapUS = append(flapUS, us(r.sweep+r.handler))
		l.obs("api.reconfigure_us", us(r.handler))
		start = time.Now()
		took := fullAudit(e.cl, t)
		l.tr.add("api", "GET audit?run=full", op, 0, start, took)
		l.obs("api.audit_full_us", us(took))
	}

	// Lower rungs: a bare cloud (no server, so no OnDistribute hook), the
	// same links. Read-only calls run just before the mutating call they
	// shadow, on the same state.
	bare, err := bootBare(w, p)
	if err != nil {
		return err
	}
	c, smgr := bare.c, bare.c.SM
	aud := audit.New(smgr.Telemetry(), nil, audit.Config{})
	full, err := routing.New("minhop")
	if err != nil {
		return err
	}
	shadowEng, err := routing.New("minhop")
	if err != nil {
		return err
	}
	inc := routing.NewIncremental(shadowEng)
	var sumUS []float64
	half := func(link link, up bool, op int, timed bool) error {
		if err := bare.topo.SetLinkState(link.A, link.Port, up); err != nil {
			return err
		}
		var err error
		_, sweep := l.tr.timed("sm", "LightSweep+Resweep", op, 0, func() {
			if _, err = smgr.LightSweep(); err == nil {
				_, err = smgr.Resweep()
			}
		})
		if err != nil {
			return err
		}
		req := &routing.Request{Topo: bare.topo, Targets: smgr.Targets(), Workers: smgr.RouteWorkers}
		var res *routing.Result
		_, fullTook := l.tr.timed("routing", "Engine.Compute (full)", op, 0, func() { _, err = full.Compute(req) })
		if err != nil {
			return err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, incTook := l.tr.timed("routing", "Incremental.Compute", op, 0, func() { res, err = inc.Compute(req) })
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&m1)
		id, compute := l.tr.timed("sm", "ComputeRoutes", op, 0, func() { _, err = smgr.ComputeRoutes() })
		if err != nil {
			return err
		}
		old := make(map[topology.NodeID]*ib.LFT, bare.topo.NumSwitches())
		target := make(map[topology.NodeID]*ib.LFT, bare.topo.NumSwitches())
		for _, sw := range bare.topo.Switches() {
			old[sw], target[sw] = smgr.ProgrammedLFT(sw), smgr.TargetLFT(sw)
		}
		dlids := make([]ib.LID, 0, len(req.Targets))
		for _, tg := range req.Targets {
			dlids = append(dlids, tg.LID)
		}
		var tr *audit.Report
		_, transition := l.tr.timed("audit", "CheckTransition", op, 0, func() {
			tr = aud.CheckTransition(bare.topo, old, target, smgr.NodeOfLID, dlids)
		})
		var smps, coalesced int
		_, distribute := l.tr.timed("sm", "DistributeDiff", op, id, func() {
			ds, derr := smgr.DistributeDiff()
			err, smps, coalesced = derr, ds.SMPs, ds.BlocksCoalesced
		})
		if err != nil {
			return err
		}
		view := fullView(c)
		var fast, fullRep *audit.Report
		_, fastTook := l.tr.timed("audit", "Run(fast)", op, 0, func() { fast = aud.Run(view, audit.ScopeFast) })
		var g *cdg.Graph
		dl := dataLIDs(view)
		_, build := l.tr.timed("cdg", "BuildSwitchCDG", op, 0, func() { g = cdg.BuildSwitchCDG(bare.topo, view, dl) })
		var cyc []cdg.Channel
		_, find := l.tr.timed("cdg", "FindCycle", op, 0, func() { cyc = g.FindCycle() })
		_, fullAuditTook := l.tr.timed("audit", "Run(full)", op, 0, func() { fullRep = aud.Run(view, audit.ScopeFull) })
		if !timed {
			return nil
		}
		l.auditClean(tr, t, "transition check")
		l.auditClean(fast, t, "fast audit after reroute")
		l.auditClean(fullRep, t, "full audit after reroute")
		t.attempted++
		if cyc != nil {
			t.fail("installed CDG has a cycle after reroute")
		}
		l.obs("sm.resweep_us", us(sweep))
		l.obs("routing.full_us", us(fullTook))
		l.obs("routing.incremental_us", us(incTook))
		l.obs("routing.dests_recomputed", float64(res.Stats.Incremental.DestsRecomputed))
		l.obs("routing.alloc_kb_per_reroute", float64(m1.TotalAlloc-m0.TotalAlloc)/1024)
		l.obs("sm.compute_routes_us", us(compute))
		l.obs("sm.distribute_us", us(distribute))
		l.obs("sm.reconfigure_us", us(compute+distribute))
		l.obs("sm.smps_per_reroute", float64(smps))
		l.obs("sm.blocks_coalesced", float64(coalesced))
		l.obs("audit.transition_us", us(transition))
		l.obs("audit.fast_us", us(fastTook))
		l.obs("audit.full_us", us(fullAuditTook))
		l.values["audit.lids_checked"] = float64(fullRep.LIDsChecked)
		l.obs("cdg.build_us", us(build))
		l.obs("cdg.find_cycle_us", us(find))
		l.values["cdg.channels"] = float64(g.NumChannels())
		l.values["cdg.edges"] = float64(g.NumEdges())
		l.self("api.reconfigure_self_us", apiUS[len(apiUS)-1], us(compute+distribute), us(transition), us(fastTook))
		sumUS = append(sumUS, us(sweep+compute+distribute+transition+fastTook))
		return nil
	}
	for _, up := range halves {
		if err := half(p.Links[0], up, 0, false); err != nil {
			return err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 1; k <= cycles; k++ {
		for h, up := range halves {
			apiHalf(p.Links[k], up, 2*k+h)
			if err := half(p.Links[k], up, 2*k+h, true); err != nil {
				return err
			}
		}
	}
	runtime.ReadMemStats(&after)
	procDelta(l, &before, &after, 2*cycles)
	l.values["api.rejects_429"] = float64(e.cl.rejects)
	l.values["trace.traced_p50_us"] = median(flapUS)
	if err := e.close(); err != nil {
		return err
	}
	ibRung(l, smgr.ProgrammedLFT(bare.topo.Switches()[0]))
	self, _ := l.value("api.reconfigure_self_us")
	if m := median(flapUS); m > 0 {
		l.values["ladder.sum_pct"] = 100 * (median(sumUS) + self) / m
	}
	return nil
}

// --- reconcile-waves ---------------------------------------------------------

func tracedReconcile(w *workload, p *plan, opt options, l *ladder, t *tally) error {
	cycles := scaled(tracedCycles, opt.seconds, 2)
	if cycles >= len(p.Scatters) {
		cycles = len(p.Scatters) - 1
	}

	// Rung 1: the api handler; the lower rungs follow batch by batch on a
	// second fabric.
	e, warmTally, err := boot(w, p)
	if err != nil {
		return err
	}
	t.merge(warmTally)
	var applyUS, dryUS []float64
	apiGoal := func(st reconcileStep, op int) {
		goal := st.label
		start := time.Now()
		r := reconcileBatch(e.cl, st, t)
		l.tr.add("api", "POST reconcile dry_run "+goal, op, 0, start, r.dry)
		l.tr.add("api", "POST reconcile "+goal, op, 0, start.Add(r.dry), r.apply)
		l.tr.add("api", "POST reconcile dry_run "+goal+" (confirm)", op, 0, start.Add(r.dry+r.apply), r.confirm)
		l.obs("api.reconcile_dry_us", us(r.dry))
		l.obs("api.reconcile_apply_us", us(r.apply))
		applyUS = append(applyUS, us(r.apply))
		dryUS = append(dryUS, us(r.dry))
	}

	// Lower rungs on a bare cloud: the planner, then per wave the read-only
	// per-move plans and their merge, then the wave itself and its audit.
	bare, err := bootBare(w, p)
	if err != nil {
		return err
	}
	c := bare.c
	aud := audit.New(c.SM.Telemetry(), nil, audit.Config{})
	planner := &reconcile.Planner{C: c}
	var sumUS []float64
	goalRun := func(st reconcileStep, op int, timed bool) error {
		goal := st.label
		spec := reconcile.Spec{Goal: reconcile.GoalPlacement, Placement: st.req.Placement}
		if st.req.Goal != "" {
			var err error
			if spec, err = reconcile.ParseGoal(st.req.Goal); err != nil {
				return err
			}
		}
		var err error
		var plan *reconcile.Plan
		pid, planTook := l.tr.timed("reconcile", "Planner.Plan "+goal, op, 0, func() { plan, err = planner.Plan(spec) })
		if err != nil {
			return err
		}
		inner := us(planTook)
		// The actor audits fabric-wide after every reconcile command, dry
		// runs included: time that pass on the still-unchanged state.
		var fast *audit.Report
		_, dryAudit := l.tr.timed("audit", "Run(fast) after dry run", op, pid, func() { fast = aud.Run(fullView(c), audit.ScopeFast) })
		if timed {
			l.auditClean(fast, t, "fast audit after dry run")
			l.obs("audit.fast_us", us(dryAudit))
			l.self("api.reconcile_dry_self_us", dryUS[len(dryUS)-1], us(planTook), us(dryAudit))
		}
		lastAudit := dryAudit
		applied := reconcile.StepCost{}
		for wi, wave := range plan.Waves {
			plans := make([]*core.MigrationPlan, 0, len(wave))
			for _, mv := range wave {
				vm := c.VM(mv.VM)
				var mp *core.MigrationPlan
				name := "PlanCopy"
				_, took := l.tr.timed("core", name, op, pid, func() {
					if w.Model == sriov.VSwitchDynamic {
						mp, err = c.RC.PlanCopy(vm.Addr.LID, c.SM.LIDOf(mv.To))
					} else {
						dstH := c.Hypervisor(mv.To)
						mp, err = c.RC.PlanSwap(vm.Addr.LID, dstH.HCA.VFs[dstH.HCA.FreeVF()].LID)
					}
				})
				if err != nil {
					return err
				}
				plans = append(plans, mp)
				if timed {
					l.obs("core.plan_copy_us", us(took))
				}
			}
			var merged *core.MigrationPlan
			_, mergeTook := l.tr.timed("core", "MergePlans", op, pid, func() { merged, err = core.MergePlans(plans...) })
			if err != nil {
				return err
			}
			prov := &ib.Provenance{
				Mutation: ib.NextMutationID(), Engine: "reconcile",
				Reason: fmt.Sprintf("ibvbench %s wave %d/%d", goal, wi+1, len(plan.Waves)), Shard: ib.ShardCoordinator,
			}
			var wr cloud.WaveReport
			_, waveTook := l.tr.timed("cloud", "MigrateWaveProv", op, pid, func() { wr, err = c.MigrateWaveProv(wave, prov) })
			if err != nil {
				return err
			}
			view := fullView(c)
			_, fastTook := l.tr.timed("audit", "Run(fast) after wave", op, pid, func() { fast = aud.Run(view, audit.ScopeFast) })
			lastAudit = fastTook
			applied.SwitchesUpdated += wr.Plan.SwitchesUpdated
			applied.LFTSMPs += wr.Plan.SMPs
			applied.InvalidationSMPs += wr.Plan.InvalidationSMPs
			applied.HostSMPs += wr.HostSMPs
			inner += us(waveTook + fastTook)
			if !timed {
				continue
			}
			l.auditClean(fast, t, "fast audit after wave")
			l.obs("core.merge_us", us(mergeTook))
			l.obs("core.switches_per_plan", float64(merged.SwitchesTouched))
			l.obs("core.smps_per_plan", float64(merged.SMPs))
			l.obs("cloud.wave_us", us(waveTook))
			l.obs("cloud.moves_per_wave", float64(len(wave)))
			l.obs("audit.fast_us", us(fastTook))
		}
		var again *reconcile.Plan
		_, confirmTook := l.tr.timed("reconcile", "Planner.Plan "+goal+" (confirm)", op, 0, func() { again, err = planner.Plan(spec) })
		if err != nil {
			return err
		}
		// ... plus the actor's own post-command pass, on the state the last
		// wave's audit has just seen.
		inner += us(confirmTook + lastAudit)
		if !timed {
			return nil
		}
		l.obs("reconcile.plan_us", us(planTook))
		l.obs("reconcile.moves", float64(len(plan.Moves)))
		l.obs("reconcile.waves", float64(len(plan.Waves)))
		match := applied.SwitchesUpdated == plan.Total.SwitchesUpdated && applied.LFTSMPs == plan.Total.LFTSMPs &&
			applied.InvalidationSMPs == plan.Total.InvalidationSMPs && applied.HostSMPs == plan.Total.HostSMPs
		t.attempted++
		if !match || !again.Converged {
			t.fail("reconcile rung %s: predicted %+v, applied %+v, converged=%v", goal, plan.Total, applied, again.Converged)
			l.obs("reconcile.cost_match", 0)
		} else {
			l.obs("reconcile.cost_match", 1)
		}
		l.self("api.reconcile_self_us", applyUS[len(applyUS)-1], inner)
		sumUS = append(sumUS, inner)
		return nil
	}
	for _, st := range reconcileCycle(p, 0) {
		if err := goalRun(st, -1, false); err != nil {
			return err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 1; k <= cycles; k++ {
		for g, st := range reconcileCycle(p, k) {
			apiGoal(st, 2*k+g)
			if err := goalRun(st, 2*k+g, true); err != nil {
				return err
			}
		}
	}
	runtime.ReadMemStats(&after)
	procDelta(l, &before, &after, 2*cycles)
	fullAudit(e.cl, t)
	l.values["api.rejects_429"] = float64(e.cl.rejects)
	l.values["trace.traced_p50_us"] = median(applyUS)
	if err := e.close(); err != nil {
		return err
	}
	full := aud.Run(fullView(c), audit.ScopeFull)
	l.auditClean(full, t, "full audit of the reconcile rung")
	l.values["audit.lids_checked"] = float64(full.LIDsChecked)
	l.values["reconcile.cost_match"] = mean(l.samples["reconcile.cost_match"])
	ibRung(l, c.SM.ProgrammedLFT(bare.topo.Switches()[0]))
	self, _ := l.value("api.reconcile_self_us")
	if m := median(applyUS); m > 0 {
		l.values["ladder.sum_pct"] = 100 * (median(sumUS) + self) / m
	}
	return nil
}
