package api

import (
	"errors"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"time"

	"ibvsim/internal/audit"
	"ibvsim/internal/ib"
	"ibvsim/internal/shard"
	"ibvsim/internal/topology"
)

// This file is the sharded control-plane mode of the server: instead of one
// actor goroutine owning the whole cloud, a shard.Coordinator routes
// mutations to per-zone actors and the server composes its read snapshot
// from the shards' own copy-on-write snapshots. Every endpoint, audit hook
// and CostReport field behaves as in single-actor mode; the differences are
// purely architectural:
//
//   - Mutations run on the request goroutine through the coordinator; the
//     admission queue that backpressures (429 + Retry-After) is the owning
//     shard's, not a global one.
//   - The post-mutation audit is the same op-scoped pass (audit.ScopeReach
//     over exactly the LID columns the mutation touched) both modes run;
//     full hygiene runs at quiesce points (?run=full, the audit cadence),
//     here under a coordinator freeze.
//   - Cost reports come from the operation's own statistics (BootStats,
//     PlanStats) rather than the tracer window, which is not attributable
//     to one operation while shards mutate concurrently.

// startSharded builds the coordinator and wires the after-mutation hook
// (flight recorder + op-scoped audit). Called from NewServer.
func (s *Server) startSharded(shards, queueDepth int) error {
	co, err := shard.New(s.c, shards, shard.Config{
		QueueDepth:    queueDepth,
		AfterMutation: s.afterShardMutation,
	})
	if err != nil {
		return err
	}
	s.co = co
	return nil
}

// afterShardMutation is the sharded analogue of the single-actor loop's
// post-mutation tail: record the mutation in the flight recorder, log it,
// and audit the LID columns it touched. For zone-local mutations it runs on
// the owning actor (the reply is not sent until it returns, preserving the
// "violation counted before the client hears back" ordering); for
// cross-shard migrations it runs once on the coordinator's goroutine.
func (s *Server) afterShardMutation(m shard.Mutation) {
	status := http.StatusOK
	switch {
	case m.Err != nil:
		status = classifyErr(m.Err)
	case m.Op == "create_vm":
		status = http.StatusCreated
	}
	s.rec.RecordMutation(audit.Mutation{
		Op: m.Op, Name: m.Name, RequestID: m.ReqID, Status: status, Gen: m.Gen,
	})
	s.log.Info("mutation",
		"op", m.Op, "name", m.Name, "request_id", m.ReqID,
		"status", status, "generation", m.Gen, "shard", m.Shard)
	if m.Err != nil || len(m.AuditLIDs) == 0 {
		return
	}
	var vms []audit.VMBinding
	if m.Binding != nil {
		vms = []audit.VMBinding{{Name: m.Binding.Name, LID: m.Binding.LID, Hyp: m.Binding.Hyp}}
	}
	s.auditOpScoped(m.Gen, m.AuditLIDs, vms)
}

// snapshot returns the current read snapshot: the loop-published one in
// single-actor mode, the lazily composed one in sharded mode.
func (s *Server) snapshot() *Snapshot {
	if s.co == nil {
		return s.snap.Load()
	}
	return s.compose()
}

// compose builds (or returns the cached) fabric-wide snapshot from the
// shards' snapshots. Shards publish O(zone) snapshots per mutation; the
// O(fabric) composition cost is paid lazily, only when a read arrives after
// one of them changed. The LFT "clones" are the SM's atomically published
// immutable active tables — captured by pointer, never copied.
//
// The cache key is the identity of the shard snapshots the composition was
// built from, not the coordinator's generation counter: a shard bumps that
// counter before it publishes, so a generation-keyed cache filled in
// between would hold the pre-mutation state under the post-mutation
// generation and serve it until the next mutation. Every publish installs
// a fresh *shard.Snap, so pointer equality is exact; the composed
// generation is the newest one a composed-from snapshot carries.
func (s *Server) compose() *Snapshot {
	snaps := s.co.Snaps()
	if sn := s.snap.Load(); sn != nil && slices.Equal(sn.from, snaps) {
		return sn
	}
	var gen uint64
	for _, ss := range snaps {
		gen = max(gen, ss.Gen)
	}
	start := time.Now()
	defer func() {
		s.c.SM.Telemetry().Registry().
			WallHistogram("api.compose_wall_us", nil).
			ObserveDuration(time.Since(start))
	}()
	topo := s.c.SM.Topo
	sn := &Snapshot{
		Gen:       gen,
		from:      snaps,
		Fabric:    topo.String(),
		Model:     s.c.Model.String(),
		SMNode:    s.c.SM.SMNode,
		topo:      topo,
		lidOf:     map[topology.NodeID]ib.LID{},
		nodeOfLID: s.c.SM.AddressView(),
		lfts:      map[topology.NodeID]*ib.LFT{},
	}
	for _, id := range topo.Switches() {
		if lid := s.c.SM.LIDOf(id); lid != ib.LIDUnassigned {
			sn.lidOf[id] = lid
		}
		if lft := s.c.SM.ProgrammedLFT(id); lft != nil {
			sn.lfts[id] = lft
		}
	}
	for _, id := range topo.CAs() {
		if lid := s.c.SM.LIDOf(id); lid != ib.LIDUnassigned {
			sn.lidOf[id] = lid
		}
	}
	for _, ss := range snaps {
		zone := ss.Shard
		for _, h := range ss.Hyps {
			sn.Hyps = append(sn.Hyps, HypInfo{
				Node:     h.Node,
				Desc:     topo.Node(h.Node).Desc,
				LID:      uint16(s.c.SM.LIDOf(h.Node)),
				VFs:      h.VFs,
				Attached: h.Attached,
				Zone:     zone,
			})
		}
		for _, vm := range ss.VMs {
			sn.VMs = append(sn.VMs, VMInfo{
				Name:    vm.Name,
				Node:    vm.Hyp,
				HypDesc: topo.Node(vm.Hyp).Desc,
				VF:      vm.VF,
				LID:     uint16(vm.Addr.LID),
				GUID:    vm.Addr.GUID.String(),
				GID:     vm.Addr.GID.String(),
			})
		}
	}
	sort.Slice(sn.Hyps, func(i, j int) bool { return sn.Hyps[i].Node < sn.Hyps[j].Node })
	sort.Slice(sn.VMs, func(i, j int) bool { return sn.VMs[i].Name < sn.VMs[j].Name })
	s.snap.Store(sn)
	return sn
}

// writeShardErr maps coordinator errors onto the HTTP surface: shard
// backpressure keeps the single-actor 429 + Retry-After contract.
func (s *Server) writeShardErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, shard.ErrBackpressure):
		s.reg.Counter("api.admission_rejects").Inc()
		w.Header().Set("Retry-After", strconv.Itoa(int((s.retryAfter+time.Second-1)/time.Second)))
		writeErr(w, http.StatusTooManyRequests, "admission queue full (shard queue saturated)")
	case errors.Is(err, shard.ErrShutdown):
		writeErr(w, http.StatusServiceUnavailable, "server is shutting down")
	default:
		writeErr(w, classifyErr(err), "%v", err)
	}
}

func (s *Server) shardCreate(w http.ResponseWriter, r *http.Request, req CreateVMRequest) {
	hyp := topology.NoNode
	if req.Hypervisor != nil {
		hyp = *req.Hypervisor
	}
	res, err := s.co.CreateVM(requestID(r), req.Name, hyp)
	if err != nil {
		s.writeShardErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, VMResponse{
		VMInfo: vmInfoOf(s, res.VM),
		Cost: CostReport{
			SwitchesUpdated: res.Boot.SwitchesUpdated,
			LFTSMPs:         res.Boot.SMPs,
			SpanSMPs:        res.Boot.SMPs,
			ModelledUS:      res.Boot.ModelledTime.Microseconds(),
		},
	})
}

func (s *Server) shardDestroy(w http.ResponseWriter, r *http.Request, name string) {
	res, err := s.co.DestroyVM(requestID(r), name)
	if err != nil {
		s.writeShardErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, DestroyResponse{
		Name: name,
		Cost: CostReport{
			SwitchesUpdated: res.Boot.SwitchesUpdated,
			LFTSMPs:         res.Boot.SMPs,
			SpanSMPs:        res.Boot.SMPs,
			ModelledUS:      res.Boot.ModelledTime.Microseconds(),
		},
	})
}

func (s *Server) shardMigrate(w http.ResponseWriter, r *http.Request, name string, dst topology.NodeID) {
	res, err := s.co.MigrateVM(requestID(r), name, dst)
	if err != nil {
		s.writeShardErr(w, err)
		return
	}
	rep := res.Rep
	writeJSON(w, http.StatusOK, MigrateResponse{
		Name:             name,
		From:             rep.From,
		To:               rep.To,
		LID:              uint16(res.VM.Addr.LID),
		AddressesChanged: rep.AddressesChanged,
		DowntimeUS:       rep.Downtime.Microseconds(),
		Cost: CostReport{
			SwitchesUpdated:  rep.Plan.SwitchesUpdated,
			LFTSMPs:          rep.Plan.SMPs,
			InvalidationSMPs: rep.Plan.InvalidationSMPs,
			HostSMPs:         rep.HostSMPs,
			SpanSMPs:         rep.Plan.SMPs,
			TraceSpan:        rep.Span,
			ModelledUS:       rep.Plan.ModelledTime.Microseconds(),
		},
	})
}

// vmInfoOf converts a shard VM record for the wire.
func vmInfoOf(s *Server, vm shard.VMState) VMInfo {
	desc := ""
	if n := s.c.SM.Topo.Node(vm.Hyp); n != nil {
		desc = n.Desc
	}
	return VMInfo{
		Name:    vm.Name,
		Node:    vm.Hyp,
		HypDesc: desc,
		VF:      vm.VF,
		LID:     uint16(vm.Addr.LID),
		GUID:    vm.Addr.GUID.String(),
		GID:     vm.Addr.GID.String(),
	}
}

// Coordinator exposes the shard coordinator (nil in single-actor mode) for
// tests and embedding drivers (ibsimload's in-process mode, the chaos
// engine's commit-gate hook).
func (s *Server) Coordinator() *shard.Coordinator { return s.co }

// runFrozen executes a fabric-wide command (reconfigure, reconcile) under a
// coordinator freeze, mirroring the single-actor loop's post-mutation tail
// (flight record + mutation log). resync republishes the shard snapshots
// afterwards so composed reads pick up state the command changed outside
// the shards.
func (s *Server) runFrozen(w http.ResponseWriter, cmd *command, resync bool) {
	var rep cmdReply
	if err := s.co.Freeze(func() {
		rep = s.execute(cmd)
		if resync {
			if err := s.co.Resync(); err != nil {
				s.log.Warn("shard resync failed", "err", err)
			}
		}
	}); err != nil {
		s.writeShardErr(w, err)
		return
	}
	gen := s.co.Gen()
	s.rec.RecordMutation(audit.Mutation{
		Op: cmd.kind.opName(), Name: cmd.name, RequestID: cmd.reqID,
		Status: rep.status, Gen: gen,
	})
	s.log.Info("mutation",
		"op", cmd.kind.opName(), "name", cmd.name, "request_id", cmd.reqID,
		"status", rep.status, "generation", gen)
	writeJSON(w, rep.status, rep.body)
}

// snapAudit publishes post-wave state and runs the fast audit: in
// single-actor mode via the loop's snapshot path, in sharded mode (running
// under a coordinator freeze) by resyncing the shards from the cloud and
// auditing the recomposed view. Returns the published generation and the
// violation count.
func (s *Server) snapAudit() (uint64, int) {
	if s.co != nil {
		if err := s.co.Resync(); err != nil {
			s.log.Warn("shard resync after wave failed", "err", err)
		}
		sn := s.compose()
		rep := s.aud.Run(sn.AuditView(), audit.ScopeFast)
		if rep.Total > 0 {
			s.log.Warn("audit violations after mutation",
				"generation", rep.Gen, "violations", rep.Total, "by_kind", rep.ByKind)
		}
		return sn.Gen, rep.Total
	}
	sn := s.buildSnapshot(s.snap.Load())
	s.snap.Store(sn)
	return sn.Gen, s.auditAfterMutation(sn)
}

// frozenFullAudit runs a full-scope audit with the control plane frozen: a
// consistent composition is guaranteed because no actor is mid-mutation.
func (s *Server) frozenFullAudit() {
	s.co.Freeze(func() { //nolint:errcheck // freeze fails only at shutdown
		rep := s.aud.Run(s.compose().AuditView(), audit.ScopeFull)
		if rep.Total > 0 {
			s.log.Warn("full audit violations (frozen)",
				"generation", rep.Gen, "violations", rep.Total, "by_kind", rep.ByKind)
		}
	})
}
