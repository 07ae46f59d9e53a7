package api

import (
	"context"
	"errors"
	"net/http"
	"slices"
	"strconv"
	"time"

	"ibvsim/internal/audit"
	"ibvsim/internal/cloud"
	"ibvsim/internal/core"
	"ibvsim/internal/ib"
	"ibvsim/internal/reconcile"
	"ibvsim/internal/shard"
	"ibvsim/internal/sriov"
	"ibvsim/internal/topology"
)

// opKind names a command, in the spelling logs and flight-recorder entries
// use (and the shard layer reports its own commands under).
type opKind string

const (
	opCreateVM    opKind = "create_vm"
	opDestroyVM   opKind = "destroy_vm"
	opMigrateVM   opKind = "migrate_vm"
	opReconfigure opKind = "reconfigure"
	opReconcile   opKind = "reconcile"
	// opReconcileWave is not a command of its own: each wave of an applied
	// reconcile passes through the epilogue under it.
	opReconcileWave opKind = "reconcile_wave"
)

// command is one mutation request.
type command struct {
	kind   opKind
	name   string          // VM name (create/destroy/migrate) or goal (reconcile)
	hyp    topology.NodeID // placement (create) or destination (migrate); NoNode = scheduler
	spec   reconcile.Spec  // desired placement (reconcile)
	dryRun bool            // plan only, mutate nothing (reconcile)
	reqID  string          // request ID assigned by the handler chain
}

// done is a finished command on its way through the epilogue (finish) to
// its client: what it was, what to answer, and which of three sets it says
// it touched —
//
//   - nothing (read): a dry run or an already-converged plan. No generation,
//     no snapshot, no flight entry, no audit.
//   - LID columns and bindings (lids, vms) and snapshot rows (rowVMs,
//     rowHyps): create, destroy, migrate — failed ones included, a
//     half-applied migration strands exactly its columns — and every
//     reconcile wave. The columns are empty when the command was refused
//     before it changed anything or its column is gone (a destroy under
//     dynamic LIDs): still recorded, nothing to audit. The rows are what
//     publish reads again; naming a row that did not change is free. A
//     shard actor reads its own rows (gen); a command refused before it
//     changed anything names none and takes no generation.
//   - the fabric: reconfigure, and the close of an applied reconcile. The
//     audit is fabric-wide. A reconfigure has every row read again; the
//     close of a reconcile publishes on its last wave's generation (gen),
//     whose rows are all the batch changed.
type done struct {
	op     opKind
	name   string
	reqID  string
	status int
	body   any
	shard  int // the shard actor that ran it; ib.ShardNone for a frozen command
	// spanFrom is the first span ID the command can have emitted.
	spanFrom int
	// gen is the generation the command's rows are already published at —
	// by a shard actor, or by the waves of a reconcile the close follows; 0
	// for any other frozen command, whose rows publish reads.
	gen uint64

	read    bool
	fabric  bool
	lids    []ib.LID
	vms     []audit.VMBinding
	rowVMs  []string
	rowHyps []topology.NodeID
}

// CostReport states what one operation cost the fabric, in the paper's
// vocabulary: n' switches had LFT entries updated with a total of LFTSMPs
// block-write SMPs (section VI's n' x m'), plus per-hypervisor address SMPs.
// SpanSMPs is the number of smp spans the operation emitted into the
// telemetry trace — LFTSMPs + InvalidationSMPs, one span per SMP — and
// TraceSpan lets a client verify that against /v1/trace independently.
type CostReport struct {
	SwitchesUpdated  int   `json:"switches_updated"`
	LFTSMPs          int   `json:"lft_smps"`
	InvalidationSMPs int   `json:"invalidation_smps,omitempty"`
	HostSMPs         int   `json:"host_smps,omitempty"`
	SpanSMPs         int   `json:"span_smps"`
	TraceSpan        int   `json:"trace_span,omitempty"`
	ModelledUS       int64 `json:"modelled_us"`
}

// VMResponse answers create and get requests.
type VMResponse struct {
	VMInfo
	Cost CostReport `json:"cost"`
}

// DestroyResponse answers destroy requests.
type DestroyResponse struct {
	Name string     `json:"name"`
	Cost CostReport `json:"cost"`
}

// MigrateResponse answers migrate requests with the section VII-B report.
type MigrateResponse struct {
	Name             string          `json:"name"`
	From             topology.NodeID `json:"from"`
	To               topology.NodeID `json:"to"`
	LID              uint16          `json:"lid"`
	AddressesChanged bool            `json:"addresses_changed"`
	DowntimeUS       int64           `json:"downtime_us"`
	Cost             CostReport      `json:"cost"`
}

// ReconfigureResponse answers reconfiguration requests. With the SM's
// IncrementalRouting enabled, Incremental reports whether the delta path
// applied (paths then counts only the destination trees actually re-run)
// and the distribution is a block diff rather than a full push.
type ReconfigureResponse struct {
	Engine            string `json:"engine"`
	Paths             int    `json:"paths"`
	Incremental       bool   `json:"incremental,omitempty"`
	DestsRecomputed   int    `json:"dests_recomputed,omitempty"`
	SwitchesUpdated   int    `json:"switches_updated"`
	SwitchesCancelled int    `json:"switches_cancelled,omitempty"`
	SMPs              int    `json:"smps"`
	BlocksCoalesced   int    `json:"blocks_coalesced,omitempty"`
	ModelledUS        int64  `json:"modelled_us"`
	Cancelled         bool   `json:"cancelled,omitempty"`
}

// dispatch runs one command on the request goroutine and writes its reply.
// A lifecycle command goes through the coordinator to the shard that owns
// what it touches, whose hook takes it through the epilogue (shardDone)
// before its results come back here to be rendered. Rerouting and
// reconciliation need the whole fabric quiesced (waves move VMs without going
// through the shards): they run, epilogue included, under a freeze.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, cmd *command) {
	cmd.reqID = requestID(r)
	var d done
	var err error
	switch cmd.kind {
	case opReconfigure, opReconcile:
		err = s.co.Freeze(func() { d = s.execute(cmd) })
	default:
		var res shard.Result
		switch cmd.kind {
		case opCreateVM:
			res, err = s.co.CreateVM(cmd.reqID, cmd.name, cmd.hyp)
		case opDestroyVM:
			res, err = s.co.DestroyVM(cmd.reqID, cmd.name)
		case opMigrateVM:
			res, err = s.co.MigrateVM(cmd.reqID, cmd.name, cmd.hyp)
		}
		d = done{op: cmd.kind, name: cmd.name}
		s.lifecycle(&d, res, err)
	}
	switch {
	case errors.Is(err, shard.ErrBackpressure):
		s.reg.Counter("api.admission_rejects").Inc()
		w.Header().Set("Retry-After", strconv.Itoa(int(RetryAfter/time.Second)))
		writeErr(w, http.StatusTooManyRequests, "admission queue full (shard queue saturated)")
	case errors.Is(err, shard.ErrShutdown):
		writeErr(w, http.StatusServiceUnavailable, "server is shutting down")
	default:
		writeJSON(w, d.status, d.body)
	}
}

// shardDone takes a command a shard (or the coordinator) finished through
// the epilogue. It runs where shard.Mutation says — on the owning actor, or
// with the VM still claimed — so the epilogue is over before the reply.
func (s *Server) shardDone(m shard.Mutation) {
	d := done{op: opKind(m.Op), name: m.Name, reqID: m.ReqID,
		shard: m.Shard, spanFrom: m.SpanFrom, gen: m.Gen}
	s.lifecycle(&d, m.Result, m.Err)
	s.finish(&d)
}

// execute runs a fabric-wide command — reconfigure or reconcile — and takes
// it through the epilogue, on the request goroutine holding the coordinator
// freeze.
func (s *Server) execute(cmd *command) done {
	d := done{op: cmd.kind, name: cmd.name, reqID: cmd.reqID,
		shard: ib.ShardNone, spanFrom: s.tr.LastSpanID() + 1}
	switch cmd.kind {
	case opReconfigure:
		rs, ds, err := s.c.SM.ReconfigureCtx(s.opCtx)
		resp := ReconfigureResponse{
			Engine:            s.c.SM.Engine.Name(),
			Paths:             rs.PathsComputed,
			Incremental:       rs.Incremental.Applied,
			SwitchesUpdated:   ds.SwitchesUpdated,
			SwitchesCancelled: ds.SwitchesCancelled,
			SMPs:              ds.SMPs,
			BlocksCoalesced:   ds.BlocksCoalesced,
			ModelledUS:        ds.ModelledTime.Microseconds(),
		}
		if rs.Incremental.Applied {
			resp.DestsRecomputed = rs.Incremental.DestsRecomputed
		}
		d.fabric = true
		switch {
		case errors.Is(err, context.Canceled):
			resp.Cancelled = true
			d.status, d.body = http.StatusServiceUnavailable, resp
		case err != nil:
			d.fail(err)
		default:
			d.status, d.body = http.StatusOK, resp
		}

	case opReconcile:
		s.execReconcile(cmd, &d)
	}
	s.finish(&d)
	return d
}

// lifecycle fills in what a finished create, destroy or migrate — succeeded
// or not — answers its client and says it touched.
func (s *Server) lifecycle(d *done, res shard.Result, err error) {
	// A migration's report names the columns it rewrote even when it died
	// half-way, stranding exactly those: audit them before the client hears.
	d.lids = res.Rep.LIDs
	if err != nil {
		d.fail(err)
		return
	}
	vm := &res.VM
	boot := core.PlanStats{SwitchesUpdated: res.Boot.SwitchesUpdated, SMPs: res.Boot.SMPs, ModelledTime: res.Boot.ModelledTime}
	d.status = http.StatusOK
	switch d.op {
	case opCreateVM:
		d.status = http.StatusCreated
		d.body = VMResponse{VMInfo: vmInfo(s.c.SM.Topo, vm), Cost: costOf(boot, 0, 0)}
		d.lids = []ib.LID{vm.Addr.LID}
	case opDestroyVM:
		d.body = DestroyResponse{Name: d.name, Cost: costOf(boot, 0, 0)}
		// Under prepopulated LIDs the VF keeps its LID after teardown, so
		// the freed column is still auditable; under dynamic assignment the
		// LID is gone and there is no column left to check.
		if s.c.Model == sriov.VSwitchPrepopulated {
			d.lids = []ib.LID{vm.Addr.LID}
		}
		return
	case opMigrateVM:
		rep := res.Rep
		d.body = MigrateResponse{
			Name:             d.name,
			From:             rep.From,
			To:               rep.To,
			LID:              uint16(vm.Addr.LID),
			AddressesChanged: rep.AddressesChanged,
			DowntimeUS:       rep.Downtime.Microseconds(),
			Cost:             costOf(rep.Plan, rep.HostSMPs, rep.Span),
		}
	}
	d.vms = []audit.VMBinding{{Name: vm.Name, LID: vm.Addr.LID, Hyp: vm.Hyp}}
}

// costOf is the one place an operation's own statistics — boot stats, a
// migration or wave report, a planner prediction — become a CostReport. The
// trace agrees by construction: the SM emits one smp span per LFT block
// write and one per invalidation write.
func costOf(st core.PlanStats, hostSMPs, span int) CostReport {
	return CostReport{
		SwitchesUpdated:  st.SwitchesUpdated,
		LFTSMPs:          st.SMPs,
		InvalidationSMPs: st.InvalidationSMPs,
		HostSMPs:         hostSMPs,
		SpanSMPs:         st.SMPs + st.InvalidationSMPs,
		TraceSpan:        span,
		ModelledUS:       st.ModelledTime.Microseconds(),
	}
}

// fail answers with the error, under the status its class maps to.
func (d *done) fail(err error) {
	d.status, d.body = classifyErr(err), map[string]string{"error": err.Error()}
}

// classifyErr maps the cloud's error classes onto HTTP statuses; anything
// unrecognised is a 500.
func classifyErr(err error) int {
	switch {
	case errors.Is(err, cloud.ErrExists),
		errors.Is(err, cloud.ErrSameNode),
		errors.Is(err, cloud.ErrBusy),
		errors.Is(err, cloud.ErrNoFreeVF),
		errors.Is(err, cloud.ErrStale):
		return http.StatusConflict
	case errors.Is(err, cloud.ErrNoVM):
		return http.StatusNotFound
	case errors.Is(err, cloud.ErrNotHypervisor):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// finish is the mutation epilogue: the one path every finished command takes
// between doing its work and answering its client — a shard actor's, a
// cross-shard commit, a frozen fabric-wide command and each reconcile wave
// alike. Publish what the command left behind, put it in the black box, log
// it, then audit what it says it touched: if the mutation corrupted the
// fabric, the violation is counted and the dump already holds this mutation
// by the time the client hears back. Returns the generation published and
// the violations found, for callers that gate on them.
func (s *Server) finish(d *done) (gen uint64, violations int) {
	if d.read {
		return 0, 0
	}
	gen = s.publish(d)
	s.rec.RecordMutation(audit.Mutation{
		Op: string(d.op), Name: d.name, RequestID: d.reqID,
		Status: d.status, Gen: gen,
		SpanFrom: d.spanFrom, SpanTo: s.tr.LastSpanID(),
	})
	s.log.Info("mutation",
		"op", d.op, "name", d.name, "request_id", d.reqID,
		"status", d.status, "generation", gen, "shard", d.shard)

	var v *audit.View
	scope := audit.ScopeReach
	switch {
	case d.fabric:
		v, scope = s.Snapshot().AuditView(), audit.ScopeFast
	case len(d.lids) > 0:
		v = s.opScopedView(gen, d.lids, d.vms)
	default:
		return gen, 0
	}
	rep := s.aud.Run(v, scope)
	if rep.Total > 0 {
		s.log.Warn("audit violations after mutation",
			"generation", rep.Gen, "violations", rep.Total, "by_kind", rep.ByKind)
	}
	return gen, rep.Total
}

// publish makes the state a command left behind visible to reads, before its
// client hears back, and returns the command's generation. A shard actor, or
// a reconcile's waves, have already derived the rows (gen). Any other frozen
// command has every zone it touched read again the rows it names — or every
// row, for a reconfigure — at a fresh generation; one refused before it
// changed anything names no row and takes none. Then compose puts the zones'
// current rows under one root.
func (s *Server) publish(d *done) uint64 {
	start := time.Now()
	if d.gen == 0 && (d.fabric || len(d.rowVMs)+len(d.rowHyps) > 0) {
		vms, hyps := d.rowVMs, d.rowHyps
		if d.fabric {
			vms, hyps = nil, nil
		}
		if err := s.co.Resync(vms, hyps); err != nil {
			s.log.Warn("shard resync failed", "err", err)
		}
	}
	sn := s.compose()
	s.reg.WallHistogram("api.publish_wall_us", nil).ObserveDuration(time.Since(start))
	if d.gen != 0 {
		return d.gen
	}
	return sn.Gen
}

// compose stores the fabric snapshot over the zones' current snapshots and
// returns it: the stored one while none of them changed, else the next one —
// the new parts as their actors derived them, the unchanged ones the stored
// snapshot's by pointer, plus the fabric-level state next captures. Calls are
// serialised, so concurrent finishes store snapshots in order.
//
// The stored snapshot is keyed on the identity of the zone snapshots it was
// built from, and its generation is the newest one they carry rather than the
// coordinator's counter: a shard bumps that counter before it publishes, so a
// snapshot labelled with it could hold the state from before a mutation under
// the generation after it. Every publish installs a fresh *shard.Snap, so
// pointer equality is exact. A subnet manager swapped in since (an SM
// handover publishes nothing) also ends the stored snapshot's life: its
// fabric-level state was the old manager's.
func (s *Server) compose() *Snapshot {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	snaps := s.co.Snaps()
	prev := s.snap.Load()
	if prev != nil && prev.mgr == s.c.SM && slices.Equal(prev.parts, snaps) {
		return prev
	}
	var gen uint64
	for _, ss := range snaps {
		gen = max(gen, ss.Gen)
	}
	sn := s.next(prev, gen, snaps)
	s.snap.Store(sn)
	return sn
}

// published counts one stored set of a zone's rows (shard.Config.Published):
// the rows read again for it, and whether it was a full rebuild.
func (s *Server) published(rows int, rebuild bool) {
	s.reg.Counter("api.snapshot.rows_patched").Add(int64(rows))
	if rebuild {
		s.reg.Counter("api.snapshot.full_rebuilds").Inc()
	}
}
