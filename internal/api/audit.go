package api

import (
	"cmp"
	"net/http"
	"slices"
	"time"

	"ibvsim/internal/audit"
	"ibvsim/internal/cloud"
	"ibvsim/internal/ib"
	"ibvsim/internal/topology"
)

// AuditView adapts the snapshot for the auditor: the fabric-scope view, whose
// checks want a LID map and a list — materialised here, from the snapshot's
// address table, only when a fabric-wide audit asks. Everything handed over
// is immutable (the view's own map and the published tables are never written
// after publication), so views may be audited concurrently with mutations.
func (sn *Snapshot) AuditView() *audit.View {
	lids := make([]ib.LID, 0, sn.addrs.Len())
	sn.addrs.Each(func(l ib.LID, _ topology.NodeID, _ bool) { lids = append(lids, l) })
	vms := make([]audit.VMBinding, 0, sn.NumVMs())
	for _, p := range sn.parts {
		p.EachVM(func(vm *cloud.VM) {
			vms = append(vms, audit.VMBinding{Name: vm.Name, LID: vm.Addr.LID, Hyp: vm.Hyp})
		})
	}
	if len(sn.parts) > 1 {
		slices.SortFunc(vms, func(a, b audit.VMBinding) int { return cmp.Compare(a.Name, b.Name) })
	}
	return &audit.View{
		Topo:       sn.topo,
		Gen:        sn.Gen,
		LFTOf:      sn.LFT,
		NodeOfLID:  sn.addrs.Map(),
		BaseLIDs:   sn.lidOf,
		ActiveLIDs: lids,
		VMs:        vms,
	}
}

// Auditor exposes the server's auditor (for tests and embedding daemons).
func (s *Server) Auditor() *audit.Auditor { return s.aud }

// opScopedView is the view the op-scoped reachability audit runs on: prove
// the LID columns a mutation touched still route to their owners from the
// SM's leaf, and that the new bindings (if any) agree with the address map.
// O(touched LIDs x path length), not O(fabric) — the per-mutation audit
// discipline that lets the control plane scale (DESIGN.md section 10). It
// reads the SM's published tables and address map directly, so it is valid
// on the goroutine that just finished the mutation and nowhere else.
func (s *Server) opScopedView(gen uint64, lids []ib.LID, vms []audit.VMBinding) *audit.View {
	if smLID := s.c.SM.LIDOf(s.c.SM.SMNode); smLID != ib.LIDUnassigned {
		lids = append(append(make([]ib.LID, 0, len(lids)+1), lids...), smLID)
	}
	return &audit.View{
		Topo:       s.c.SM.Topo,
		Gen:        gen,
		LFTOf:      s.c.SM.ProgrammedLFT,
		NodeOfLID:  s.c.SM.ResolveLIDs(lids),
		BaseLIDs:   s.c.SM.BaseLIDs(),
		ActiveLIDs: lids,
		VMs:        vms,
	}
}

// fullAudit runs one full-scope pass (reachability + hygiene +
// installed-routing CDG) over a consistent fabric-wide view: with the zones
// quiesced, composed afresh — which is also what notices a subnet manager
// swapped in since the last command.
func (s *Server) fullAudit() {
	s.co.Freeze(func() { //nolint:errcheck // a freeze fails only at shutdown
		rep := s.aud.Run(s.compose().AuditView(), audit.ScopeFull)
		if rep.Total > 0 {
			s.log.Warn("full audit violations",
				"generation", rep.Gen, "violations", rep.Total, "by_kind", rep.ByKind)
		}
	})
}

// auditLoop is the cadence goroutine: one fullAudit every interval, until
// Shutdown.
func (s *Server) auditLoop(interval time.Duration) {
	defer close(s.auditDone)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.auditStop:
			return
		case <-tick.C:
			s.fullAudit()
		}
	}
}

// handleAudit answers GET /v1/audit: cumulative audit counters plus the
// most recent report. ?run=full first runs a synchronous full-scope audit
// (fullAudit) — what the CI smoke test calls after its load run.
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("run") == "full" {
		s.fullAudit()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"runs":             s.aud.Runs(),
		"violations_total": s.aud.ViolationsTotal(),
		"dumps":            s.rec.Dumps(),
		"last":             s.aud.Last(),
	})
}

// handleFlightRecorder answers GET /v1/flightrecorder: the retained ring
// and the last violation dump (dumps also land on disk when the server was
// configured with a flight directory).
func (s *Server) handleFlightRecorder(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"dumps":     s.rec.Dumps(),
		"entries":   s.rec.Entries(),
		"last_dump": s.rec.LastDump(),
	})
}
