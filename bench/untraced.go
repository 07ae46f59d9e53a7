package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"ibvsim/internal/api"
	"ibvsim/internal/topology"
)

const (
	// setupReps is how often a run boots its fabric; setup_s is the median.
	setupReps = 5
	// warmPerClient lifecycle ops precede a migrate window (100 in all).
	warmPerClient = 50
	// memEvery is the number of completed ops between memory samples.
	memEvery = 64
)

// reconcileStep is one batch handed to POST /v1/reconcile.
type reconcileStep struct {
	label string
	req   api.ReconcileRequest
}

// reconcileCycle is cycle k of the reconcile workload: scatter the fleet to
// the cycle's seeded placement (an explicit placement map, packed into as
// many waves as destination VFs allow), then defragment it again.
func reconcileCycle(p *plan, k int) [2]reconcileStep {
	want := make(map[string]topology.NodeID, len(p.Scatters[k]))
	for _, pl := range p.Scatters[k] {
		want[pl.VM] = pl.Hyp
	}
	return [2]reconcileStep{
		{"scatter", api.ReconcileRequest{Placement: want}},
		{"defrag", api.ReconcileRequest{Goal: "defrag"}},
	}
}

// window is what one measured window (or one client's share of it) yields.
// write/visible/read hold one sample in ms, stamped with its completion
// time, per migration or per cycle; a cycle's sample is the mean over its
// halves (fail+heal on a link of every stratum, scatter+defrag) so that the
// figure does not flip between two modes. done holds the units of work each
// sample completed: the numerator of ops_per_s.
type window struct {
	tally
	start                time.Time
	write, visible, read series
	done                 series
	create, destroy      []float64
	smps, smpsDen        float64
	stratumSMPs          map[int][]float64
	rejects, stale       int
	parked               []pendingRead
	elapsed              time.Duration
	mem                  *memSampler
	exhausted            bool
}

func newWindow(start time.Time) *window {
	return &window{start: start, mem: newMemSampler(), stratumSMPs: map[int][]float64{}}
}

// now is the stamp of a sample completing at this moment.
func (w *window) now() float64 { return time.Since(w.start).Seconds() }

func (w *window) merge(o *window) {
	w.tally.merge(&o.tally)
	w.write.merge(&o.write)
	w.visible.merge(&o.visible)
	w.read.merge(&o.read)
	w.done.merge(&o.done)
	w.create = append(w.create, o.create...)
	w.destroy = append(w.destroy, o.destroy...)
	w.smps += o.smps
	w.smpsDen += o.smpsDen
	w.rejects += o.rejects
	w.stale += o.stale
	w.parked = append(w.parked, o.parked...)
	w.exhausted = w.exhausted || o.exhausted
	if o.mem.peak > w.mem.peak {
		w.mem.peak = o.mem.peak
	}
}

// record files one lifecycle result.
func (w *window) record(o op, r lifecycleResult) {
	w.stale += r.stale
	if !r.ok {
		return
	}
	at := w.now()
	w.done.add(at, 1)
	w.read.add(at, ms(r.read))
	switch o.Kind {
	case opMigrate:
		w.write.add(at, ms(r.write))
		w.visible.add(at, ms(r.write+r.read))
		w.smps += float64(r.smps)
		w.smpsDen++
	case opCreate:
		w.create = append(w.create, ms(r.write))
	case opDestroy:
		w.destroy = append(w.destroy, ms(r.write))
	}
}

// warmUp runs the untimed lead-in through the API: the first ops of the
// migrate sequence, one fail/heal of the first flap link (which also builds
// the incremental router's dependency index), or one scatter/defrag cycle.
func warmUp(e *env, p *plan, t *tally) {
	switch e.w.Kind {
	case kindMigrate:
		for i := 0; i < warmPerClient; i++ {
			for _, ops := range p.Clients {
				if i < len(ops) {
					lifecycle(e, e.cl, p, ops[i], t)
				}
			}
		}
	case kindFlap:
		reroute(e, e.cl, p.Links[0], false, t)
		reroute(e, e.cl, p.Links[0], true, t)
	case kindReconcile:
		for _, st := range reconcileCycle(p, 0) {
			reconcileBatch(e.cl, st, t)
		}
	}
}

// rerouted is one half of a flap as the operator sees it: the link state
// change with its light sweep and resweep, then POST /v1/reconfigure
// answered. The flap took sweep+handler.
type rerouted struct {
	sweep, handler time.Duration
	smps           int // as the reconfigure reply reports them
}

func reroute(e *env, cl *client, l link, up bool, t *tally) rerouted {
	var r rerouted
	t.attempted++
	start := time.Now()
	err := setLink(e, l, up)
	r.sweep = time.Since(start)
	if err != nil {
		t.fail("link %d<->%d up=%v: %v", l.A, l.B, up, err)
		return r
	}
	var resp api.ReconfigureResponse
	if r.handler, err = cl.do("POST", "/v1/reconfigure", nil, &resp); err != nil {
		t.fail("%v", err)
	}
	r.smps = resp.SMPs
	return r
}

// reconcileResult is one batch's dry run, apply and confirming dry run.
type reconcileResult struct {
	dry, apply, confirm time.Duration
	moves, waves, smps  int
	costMatch           bool
}

// sameCost holds the planner to its prediction field for field.
func sameCost(a, b api.CostReport) bool {
	return a.SwitchesUpdated == b.SwitchesUpdated && a.LFTSMPs == b.LFTSMPs &&
		a.InvalidationSMPs == b.InvalidationSMPs && a.HostSMPs == b.HostSMPs &&
		a.SpanSMPs == b.SpanSMPs && a.ModelledUS == b.ModelledUS
}

// reconcileBatch is what an operator does with one batch: dry run, apply,
// and a second dry run that must report the goal reached with no move left.
func reconcileBatch(cl *client, st reconcileStep, t *tally) reconcileResult {
	var r reconcileResult
	var dry, applied, again api.ReconcileResponse
	var err error
	goal := st.label
	dryReq, applyReq := st.req, st.req
	dryReq.DryRun = true
	t.attempted += 3
	if r.dry, err = cl.do("POST", "/v1/reconcile", dryReq, &dry); err != nil {
		t.fail("%v", err)
		return r
	}
	if r.apply, err = cl.do("POST", "/v1/reconcile", applyReq, &applied); err != nil {
		t.fail("%v", err)
		return r
	}
	r.moves, r.waves = len(applied.Moves), applied.Waves
	switch {
	case applied.Aborted || applied.AuditViolations != 0 || applied.AppliedTotal == nil:
		t.fail("reconcile %s: aborted=%v violations=%d %s", goal, applied.Aborted, applied.AuditViolations, applied.Error)
		return r
	case len(dry.Moves) != len(applied.Moves) || !sameCost(dry.PredictedTotal, *applied.AppliedTotal):
		t.fail("reconcile %s: dry run predicted %+v for %d moves, apply paid %+v for %d",
			goal, dry.PredictedTotal, len(dry.Moves), *applied.AppliedTotal, len(applied.Moves))
	default:
		r.costMatch = true
	}
	r.smps = applied.AppliedTotal.LFTSMPs
	if r.confirm, err = cl.do("POST", "/v1/reconcile", dryReq, &again); err != nil {
		t.fail("%v", err)
	} else if !again.Converged || len(again.Moves) != 0 {
		t.fail("reconcile %s: not converged after apply (%d moves left)", goal, len(again.Moves))
	}
	return r
}

// migrateWindow is one closed-loop client (next request only after the
// previous reply) replaying the op streams interleaved op by op: the order
// the warm-up began and the traced run replays. One client, because the box
// has two vCPUs and the control plane's actor and the garbage collector need
// the other one: a second client measures the scheduler.
func migrateWindow(e *env, p *plan, seconds float64) *window {
	start := time.Now()
	w := newWindow(start)
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	cl := newClient(e.srv.Handler())
	w.mem.sample()
	done := 0
loop:
	for i := warmPerClient; ; i++ {
		for _, ops := range p.Clients {
			if !time.Now().Before(deadline) {
				break loop
			}
			if i >= len(ops) {
				w.exhausted = true
				break loop
			}
			w.record(ops[i], lifecycle(e, cl, p, ops[i], &w.tally))
			if done++; done%memEvery == 0 {
				w.mem.sample()
			}
		}
	}
	w.mem.sample()
	w.elapsed = time.Since(start)
	w.rejects, w.parked = cl.rejects, cl.parked
	return w
}

func flapWindow(e *env, p *plan, seconds float64) *window {
	start := time.Now()
	w := newWindow(start)
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	w.mem.sample()
	// One sample is one link of every stratum failed and healed (a
	// leaf-to-middle flap reroutes a different share of the fabric than a
	// middle-to-top one), each half with its full audit: the mean per half.
	group := p.Strata
	if group < 1 {
		group = 1
	}
	for k := 1; time.Now().Before(deadline); k += group {
		if k+group > len(p.Links) {
			w.exhausted = true
			break
		}
		var flap, audit time.Duration
		before := w.failed
		for _, l := range p.Links[k : k+group] {
			for _, up := range [2]bool{false, true} {
				r := reroute(e, e.cl, l, up, &w.tally)
				flap += r.sweep + r.handler
				audit += fullAudit(e.cl, &w.tally)
				if w.failed == before {
					w.stratumSMPs[l.Stratum] = append(w.stratumSMPs[l.Stratum], float64(r.smps))
				}
			}
		}
		w.mem.sample()
		if w.failed != before {
			continue
		}
		at, halves := w.now(), float64(2*group)
		w.write.add(at, ms(flap)/halves)
		w.read.add(at, ms(audit)/halves)
		w.visible.add(at, ms(flap+audit)/halves)
		w.done.add(at, halves)
	}
	w.elapsed = time.Since(start)
	// Mean of the per-stratum means.
	for _, s := range w.stratumSMPs {
		w.smps += mean(s)
		w.smpsDen++
	}
	w.rejects = e.cl.rejects
	return w
}

func reconcileWindow(e *env, p *plan, seconds float64) *window {
	start := time.Now()
	w := newWindow(start)
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	w.mem.sample()
	for k := 1; time.Now().Before(deadline); k++ {
		if k >= len(p.Scatters) {
			w.exhausted = true
			break
		}
		var r [2]reconcileResult
		before := w.failed
		for i, st := range reconcileCycle(p, k) {
			r[i] = reconcileBatch(e.cl, st, &w.tally)
		}
		w.mem.sample()
		if w.failed != before {
			continue
		}
		at := w.now()
		w.write.add(at, ms(r[0].apply+r[1].apply)/2)
		w.read.add(at, ms(r[0].dry+r[1].dry)/2)
		w.visible.add(at, ms(r[0].apply+r[0].confirm+r[1].apply+r[1].confirm)/2)
		w.done.add(at, float64(r[0].moves+r[1].moves))
		w.smps += float64(r[0].smps + r[1].smps)
		w.smpsDen += float64(r[0].moves + r[1].moves)
	}
	w.elapsed = time.Since(start)
	w.rejects = e.cl.rejects
	return w
}

func runWindow(e *env, p *plan, seconds float64) *window {
	switch e.w.Kind {
	case kindFlap:
		return flapWindow(e, p, seconds)
	case kindReconcile:
		return reconcileWindow(e, p, seconds)
	}
	return migrateWindow(e, p, seconds)
}

// planBudget is how many ops per client (or flap cycles) to generate for a
// window: ten times what the seed-state program completes, so a much faster
// program still never runs dry.
func planBudget(w *workload, seconds float64) int {
	if w.Kind != kindMigrate {
		return 2 + int(40*seconds)
	}
	return warmPerClient + 200 + int(1500*seconds)
}

// runUntraced is one end-to-end run: boot setupReps times (the last fabric
// is the one measured), run the window with tracing off, then audit.
func runUntraced(w *workload, seed int64, seconds float64) (*result, error) {
	p, err := genPlan(w, seed, planBudget(w, seconds))
	if err != nil {
		return nil, err
	}
	res := &result{Workload: w.Name, Seed: seed}
	var setups []float64
	var e *env
	for rep := 0; rep < setupReps; rep++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
		}
		var warm *tally
		if e, warm, err = boot(w, p); err != nil {
			return nil, err
		}
		setups = append(setups, e.setup.Seconds())
		res.tally.merge(warm)
	}
	runtime.GC()
	debug.FreeOSMemory()
	win := runWindow(e, p, seconds)
	res.tally.merge(&win.tally)
	win.mem.sample()
	// Outside the timed window: parked reads must have become visible, and
	// the fabric must audit clean after the load.
	if w.Kind == kindMigrate {
		settle(e.cl, p, win.parked, &res.tally)
	}
	fullAudit(e.cl, &res.tally)
	if err := e.close(); err != nil {
		return nil, err
	}
	if win.exhausted {
		res.Notes = append(res.Notes, "generated inputs ran out before the window closed; raise planBudget")
	}
	if win.write.len() == 0 {
		return nil, fmt.Errorf("%s: no operation completed in %.1fs", w.Name, seconds)
	}

	res.add("setup_s", median(setups), "s", len(setups))
	units := 0.0
	for _, u := range win.done.v {
		units += u
	}
	sw := sortedCopy(win.write.v)
	res.add("write_ms", win.write.quietLatency(), "ms", len(sw))
	res.add("visible_ms", win.visible.quietLatency(), "ms", win.visible.len())
	res.add("read_ms", win.read.quietLatency(), "ms", win.read.len())
	res.add("ops_per_s", win.done.quietRate(), "1/s", int(units))
	res.add("smps_per_op", win.smps/win.smpsDen, "count", int(win.smpsDen))
	res.add("peak_mem_mb", win.mem.peakMB(), "MB", 1)
	res.Aliases = w.Aliases
	// The tail is printed, not gated: between two runs of the same code it
	// moves by more than any bound the driver accepts.
	res.Notes = append(res.Notes, fmt.Sprintf("whole window, interference included: write p50 = %.3f ms, visible p50 = %.3f ms, read p50 = %.3f ms, %.2f ops/s over %.1f s",
		median(win.write.v), median(win.visible.v), median(win.read.v), units/win.elapsed.Seconds(), win.elapsed.Seconds()))
	res.Notes = append(res.Notes, fmt.Sprintf("write p%g = %.3f ms (highest percentile with >=10 of %d samples beyond it; 50 means too few for a tail)",
		highestTail(len(sw)), percentile(sw, highestTail(len(sw))), len(sw)))
	if len(win.create) > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("create p50 = %.3f ms (n=%d), destroy p50 = %.3f ms (n=%d)",
			median(win.create), len(win.create), median(win.destroy), len(win.destroy)))
	}
	res.Notes = append(res.Notes, fmt.Sprintf("failed_share = %d/%d, honoured 429s = %d, stale reads repeated = %d", res.failed, res.attempted, win.rejects, win.stale))
	return res, nil
}
