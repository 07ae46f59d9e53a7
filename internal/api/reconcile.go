package api

import (
	"fmt"
	"maps"
	"net/http"
	"time"

	"ibvsim/internal/audit"
	"ibvsim/internal/cloud"
	"ibvsim/internal/core"
	"ibvsim/internal/ib"
	"ibvsim/internal/reconcile"
	"ibvsim/internal/sm"
	"ibvsim/internal/smp"
	"ibvsim/internal/telemetry"
	"ibvsim/internal/topology"
)

// ReconcileRequest is the body of POST /v1/reconcile. The goal DSL is also
// accepted on the query string (?goal=defrag&dry_run=1, ?goal=drain:12), so
// a curl one-liner needs no body. An explicit placement map implies
// goal=placement when the goal is omitted.
type ReconcileRequest struct {
	Goal      string                     `json:"goal,omitempty"`
	Host      *topology.NodeID           `json:"host,omitempty"`
	Placement map[string]topology.NodeID `json:"placement,omitempty"`
	DryRun    bool                       `json:"dry_run,omitempty"`
}

// ReconcileMove is one planned migration in a reconcile response.
type ReconcileMove struct {
	VM        string          `json:"vm"`
	From      topology.NodeID `json:"from"`
	To        topology.NodeID `json:"to"`
	Wave      int             `json:"wave"`
	LeafLocal bool            `json:"leaf_local"`
}

// ReconcileResponse answers POST /v1/reconcile. Predicted costs come from
// the planner's shadow simulation; Applied (absent on dry runs) holds the
// per-wave costs the fabric actually paid, in the same vocabulary, so a
// client can hold the planner to its prediction field by field.
type ReconcileResponse struct {
	Goal            string          `json:"goal"`
	DryRun          bool            `json:"dry_run"`
	Converged       bool            `json:"converged"`
	Moves           []ReconcileMove `json:"moves"`
	Waves           int             `json:"waves"`
	Predicted       []CostReport    `json:"predicted,omitempty"`
	PredictedTotal  CostReport      `json:"predicted_total"`
	Applied         []CostReport    `json:"applied,omitempty"`
	AppliedTotal    *CostReport     `json:"applied_total,omitempty"`
	Generation      uint64          `json:"generation,omitempty"`
	AuditViolations int             `json:"audit_violations,omitempty"`
	Aborted         bool            `json:"aborted,omitempty"`
	Error           string          `json:"error,omitempty"`
	TraceSpan       int             `json:"trace_span,omitempty"`
}

func (s *Server) handleReconcile(w http.ResponseWriter, r *http.Request) {
	var req ReconcileRequest
	q := r.URL.Query()
	if g := q.Get("goal"); g != "" {
		req.Goal = g
		req.DryRun = q.Get("dry_run") == "1" || q.Get("dry_run") == "true"
	} else if r.Body != nil && !decodeBody(w, r, &req) {
		return
	}

	var spec reconcile.Spec
	switch {
	case req.Goal == "" && len(req.Placement) > 0,
		req.Goal == string(reconcile.GoalPlacement):
		if len(req.Placement) == 0 {
			writeErr(w, http.StatusBadRequest, "goal %q needs a placement map", req.Goal)
			return
		}
		spec = reconcile.Spec{Goal: reconcile.GoalPlacement, Placement: req.Placement}
	case req.Goal == string(reconcile.GoalDrain) && req.Host != nil:
		spec = reconcile.Spec{Goal: reconcile.GoalDrain, Host: *req.Host}
	default:
		var err error
		spec, err = reconcile.ParseGoal(req.Goal)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	s.dispatch(w, r, &command{kind: opReconcile, name: string(spec.Goal), spec: spec, dryRun: req.DryRun})
}

// costFromStep converts a predicted StepCost into the wire vocabulary.
func costFromStep(c reconcile.StepCost) CostReport {
	return costOf(core.PlanStats{
		SwitchesUpdated:  c.SwitchesUpdated,
		SMPs:             c.LFTSMPs,
		InvalidationSMPs: c.InvalidationSMPs,
		ModelledTime:     c.Modelled,
	}, c.HostSMPs, 0)
}

// planKey is what a reconcile plan was computed from besides its spec: the
// cloud as of a generation, and what a generation does not count — the
// subnet manager (a handover swaps it), its sweeps (which may (re)assign
// LIDs), the links' state (ScopeMinimal walks the links) and the cost knobs
// of the reconfigurator and the SM.
type planKey struct {
	gen, sweeps, links uint64
	mgr                *sm.SubnetManager
	mode               smp.Mode
	scope              core.Scope
	mitigation         core.Mitigation
	drain              time.Duration
	cost               smp.CostModel
	maxBlocks          int
}

// planSlot is the last plan the server computed — a dry run's, or an
// apply's closing re-plan — and what it was computed from. Only a command
// holding the coordinator freeze reads or writes it.
type planSlot struct {
	spec reconcile.Spec
	key  planKey
	plan *reconcile.Plan
}

// planKey reads the key of a plan computed now. Call under the freeze.
func (s *Server) planKey() planKey {
	rc, mgr := s.c.RC, s.c.SM
	return planKey{
		gen: s.co.Gen(), sweeps: mgr.Sweeps(), links: mgr.Topo.LinkChanges(),
		mgr: mgr, mode: rc.Mode, scope: rc.Scope, mitigation: rc.Mitigation, drain: rc.DrainTime,
		cost: mgr.Cost, maxBlocks: mgr.Dist.MaxBlocksPerSMP,
	}
}

// cached is the slot's plan if it was computed from spec at key, else nil.
func (sl *planSlot) cached(spec reconcile.Spec, key planKey) *reconcile.Plan {
	if sl.plan == nil || sl.key != key || sl.spec.Goal != spec.Goal || sl.spec.Host != spec.Host ||
		!maps.Equal(sl.spec.Placement, spec.Placement) {
		return nil
	}
	return sl.plan
}

// execReconcile plans against live state and — unless the client asked for
// a dry run — executes the waves in order. A dry run, like a plan that is
// already converged, is a read: it touches nothing and skips the epilogue.
// Each applied wave is a mutation of its own and takes the epilogue itself
// (publish, flight record, op-scoped audit of the columns it moved) before
// the next wave is released; a violation (or wave error) aborts the
// remainder, with everything already applied reported faithfully. The
// command then closes on the last wave's generation with the fabric as its
// touched set, so every applied batch is audited fabric-wide once before its
// reply.
//
// A plan is computed once per state: a dry run keeps its plan in the
// server's slot, and so does an apply's closing re-plan, and the next
// command for the same spec at the same key runs that plan instead of
// planning again. An apply takes the slot's plan and empties it; what it
// binds is what the dry run reported, and BindWave still refuses a wave
// whose members drifted.
func (s *Server) execReconcile(cmd *command, d *done) {
	span := s.tr.Start(telemetry.SpanReconcile, string(cmd.spec.Goal))
	s.tr.PushScope(span)
	defer func() {
		s.tr.PopScope()
		span.End()
	}()

	// Planning is a phase of its own: on a large batch it is where a dry run's
	// whole time, and a good part of an apply's, goes — unless the plan was
	// computed already.
	p := &reconcile.Planner{C: s.c}
	key := s.planKey()
	ps := span.Child(telemetry.SpanPhase, "plan")
	plan := s.lastPlan.cached(cmd.spec, key)
	reused := plan != nil
	if !cmd.dryRun {
		s.lastPlan = planSlot{}
	}
	var err error
	if !reused {
		plan, err = p.Plan(cmd.spec)
	}
	if err == nil {
		ps.SetAttrs("moves", len(plan.Moves), "waves", len(plan.Waves), "edits", plan.Edits, "reused", reused)
	}
	ps.End()
	source := "planned"
	if reused {
		source = "reused"
	}
	s.reg.Counter(telemetry.Labeled("api.reconcile.plans", "source", source)).Inc()
	if err != nil {
		d.read = cmd.dryRun
		d.fail(err)
		return
	}
	if cmd.dryRun {
		s.lastPlan = planSlot{spec: cmd.spec, key: key, plan: plan}
	}

	resp := ReconcileResponse{
		Goal:           string(plan.Goal),
		DryRun:         cmd.dryRun,
		Converged:      plan.Converged,
		Moves:          make([]ReconcileMove, len(plan.Moves)),
		Waves:          len(plan.Waves),
		PredictedTotal: costFromStep(plan.Total),
		TraceSpan:      span.ID(),
	}
	for i, mv := range plan.Moves {
		resp.Moves[i] = ReconcileMove{VM: mv.VM, From: mv.From, To: mv.To, Wave: mv.Wave, LeafLocal: mv.LeafLocal}
	}
	for _, c := range plan.Predicted {
		resp.Predicted = append(resp.Predicted, costFromStep(c))
	}
	span.SetAttr("goal", string(plan.Goal))
	span.SetAttr("moves", len(plan.Moves))
	span.SetAttr("waves", len(plan.Waves))
	span.SetAttr("dry_run", cmd.dryRun)
	span.SetModelled(plan.Total.Modelled)

	d.status = http.StatusOK
	if cmd.dryRun || plan.Converged {
		d.read, d.body = true, resp
		return
	}

	d.fabric = true
	var total CostReport
	resp.AppliedTotal = &total
	for wi, wave := range plan.Waves {
		wd := done{op: opReconcileWave, reqID: cmd.reqID, status: http.StatusOK, shard: ib.ShardNone,
			name:     fmt.Sprintf("%s %d/%d", plan.Goal, wi+1, len(plan.Waves)),
			spanFrom: s.tr.LastSpanID() + 1}
		// Each wave's merged distribution gets its own provenance epoch, so
		// /v1/explain attributes a hop to "which wave of which goal" rather
		// than a generic migration.
		prov := &ib.Provenance{
			Mutation: ib.NextMutationID(),
			Span:     span.ID(),
			Engine:   "reconcile",
			Reason:   fmt.Sprintf("reconcile %s wave %d/%d (%d moves)", plan.Goal, wi+1, len(plan.Waves), len(wave)),
			Shard:    ib.ShardCoordinator,
		}
		// The rows a wave touches are its members' and their hypervisors',
		// before and after — whether or not the wave gets that far.
		for _, mv := range wave {
			wd.rowVMs = append(wd.rowVMs, mv.VM)
			wd.rowHyps = append(wd.rowHyps, mv.To)
			if vm := s.c.VM(mv.VM); vm != nil {
				wd.rowHyps = append(wd.rowHyps, vm.Hyp)
			}
		}
		// A wave is a phase too, epilogue included: binding the staged
		// members emits no span of its own, and with it under one the
		// reconcile span's children account for its wall time. The wave runs
		// as the planner staged and merged it — the plan it costed — once
		// its members are bound to the live VFs; a member whose VM or VFs
		// changed since refuses the wave before anything is held or sent.
		ws := span.Child(telemetry.SpanPhase, "wave")
		ws.SetAttrs("wave", wi+1, "moves", len(wave))
		s.tr.PushScope(ws)
		var wr cloud.WaveReport
		werr := s.c.BindWave(plan.Staged[wi])
		if werr == nil {
			wr, werr = s.c.RunWave(plan.Staged[wi], prov)
		}
		// Even a failed wave may have moved VMs or stranded columns before
		// erroring: publish and audit what it names either way.
		wd.lids = wr.LIDs
		for _, mr := range wr.Reports {
			vm := s.c.VM(mr.VM)
			wd.vms = append(wd.vms, audit.VMBinding{Name: vm.Name, LID: vm.Addr.LID, Hyp: vm.Hyp})
		}
		if werr != nil {
			wd.status = classifyErr(werr)
		}
		gen, viol := s.finish(&wd)
		s.tr.PopScope()
		ws.End()
		// The close publishes nothing of its own: the waves' rows are every
		// row the batch changed, each already read again by its wave.
		resp.Generation, d.gen = gen, gen
		resp.AuditViolations += viol
		if werr != nil {
			resp.Aborted, resp.Error = true, werr.Error()
			d.status, d.body = wd.status, resp
			return
		}
		applied := costOf(wr.Plan, wr.HostSMPs, 0)
		resp.Applied = append(resp.Applied, applied)
		total.SwitchesUpdated += applied.SwitchesUpdated
		total.LFTSMPs += applied.LFTSMPs
		total.InvalidationSMPs += applied.InvalidationSMPs
		total.HostSMPs += applied.HostSMPs
		total.SpanSMPs += applied.SpanSMPs
		total.ModelledUS += applied.ModelledUS
		if viol > 0 {
			resp.Aborted = true
			resp.Error = "fast audit found violations; remaining waves aborted"
			d.status, d.body = http.StatusInternalServerError, resp
			return
		}
	}

	// Confirm convergence: re-planning the achieved state must be a no-op.
	// An operator's confirming dry run asks for this very plan.
	key = s.planKey()
	if again, err := p.Plan(cmd.spec); err == nil {
		resp.Converged = again.Converged
		s.lastPlan = planSlot{spec: cmd.spec, key: key, plan: again}
	}
	d.body = resp
}
