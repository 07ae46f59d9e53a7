package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sort"
	"time"

	"ibvsim/internal/ib"
	"ibvsim/internal/routing"
	"ibvsim/internal/sm"
	"ibvsim/internal/smp"
	"ibvsim/internal/topology"
)

// do drives one request through the real HTTP surface (mux, handler chain,
// admission queue, zone actor) and returns the status plus the decoded JSON
// body. Request IDs are scenario-sequenced so flight-recorder entries line
// up across replays.
func (h *Harness) do(method, path string, body any) (int, map[string]any) {
	var rd *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			panic(err) // request bodies are harness-built structs; cannot fail
		}
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	h.reqSeq++
	req := httptest.NewRequest(method, path, rd)
	req.Header.Set("X-Request-ID", fmt.Sprintf("scn-%06d", h.reqSeq))
	w := httptest.NewRecorder()
	h.Srv.Handler().ServeHTTP(w, req)
	out := map[string]any{}
	json.Unmarshal(w.Body.Bytes(), &out) //nolint:errcheck // non-JSON bodies just leave the map empty
	return w.Code, out
}

// num plucks a numeric field from a decoded JSON body (0 when absent).
func num(m map[string]any, key string) int64 {
	f, _ := m[key].(float64)
	return int64(f)
}

// CreateVM creates a VM through the scheduler and logs the outcome.
func (h *Harness) CreateVM(name string) int {
	st, body := h.do("POST", "/v1/vms", map[string]string{"name": name})
	h.E.Logf("create %s: status=%d lid=%d", name, st, num(body, "lid"))
	return st
}

// CreateVMOn creates a VM pinned to a hypervisor.
func (h *Harness) CreateVMOn(name string, hyp topology.NodeID) int {
	st, body := h.do("POST", "/v1/vms", map[string]any{"name": name, "hypervisor": hyp})
	h.E.Logf("create %s on node %d: status=%d lid=%d", name, hyp, st, num(body, "lid"))
	return st
}

// DestroyVM destroys a VM.
func (h *Harness) DestroyVM(name string) int {
	st, _ := h.do("DELETE", "/v1/vms/"+name, nil)
	h.E.Logf("destroy %s: status=%d", name, st)
	return st
}

// MigrateVM live-migrates a VM.
func (h *Harness) MigrateVM(name string, dst topology.NodeID) int {
	st, body := h.do("POST", "/v1/vms/"+name+"/migrate", map[string]any{"destination": dst})
	cost, _ := body["cost"].(map[string]any)
	h.E.Logf("migrate %s -> node %d: status=%d lid=%d switches=%d lft_smps=%d",
		name, dst, st, num(body, "lid"), num(cost, "switches_updated"), num(cost, "lft_smps"))
	return st
}

// Reconcile posts a declarative placement goal to /v1/reconcile and logs the
// deterministic plan summary (move/wave counts and the modelled SMP bill; no
// wall-clock fields). Dry runs plan without mutating.
func (h *Harness) Reconcile(goal string, dryRun bool) int {
	st, body := h.do("POST", "/v1/reconcile", map[string]any{"goal": goal, "dry_run": dryRun})
	moves, _ := body["moves"].([]any)
	pred, _ := body["predicted_total"].(map[string]any)
	converged, _ := body["converged"].(bool)
	h.E.Logf("reconcile %s (dry_run=%v): status=%d moves=%d waves=%d lft_smps=%d converged=%v",
		goal, dryRun, st, len(moves), num(body, "waves"), num(pred, "lft_smps"), converged)
	return st
}

// Reconfigure runs a full routing recomputation + distribution through the
// API. Its post-mutation audit runs against the rerouted fabric, so call it
// immediately after a resweep that changed the topology.
func (h *Harness) Reconfigure() int {
	st, body := h.do("POST", "/v1/reconfigure", nil)
	h.E.Logf("reconfigure: status=%d paths=%d switches=%d smps=%d",
		st, num(body, "paths"), num(body, "switches_updated"), num(body, "smps"))
	return st
}

// resweep runs the light sweep (port-state diff) and, when it reports
// changes, the full rediscovery. Direct SM access is safe here: the engine
// goroutine is the only mutator and no API command is in flight.
func (h *Harness) resweep(why string) error {
	ls, err := h.Cloud.SM.LightSweep()
	if err != nil {
		return err
	}
	st, err := h.Cloud.SM.Resweep()
	if err != nil {
		return err
	}
	h.E.Logf("%s: lightsweep changes=%d, resweep reached %d/%d nodes",
		why, len(ls.Changes), st.Nodes, h.Topo.NumNodes())
	return nil
}

// FailLink takes the a<->b link down and resweeps. It refuses (returns
// false) when the cut would partition the fabric: campaigns that must stay
// violation-free cannot reroute around a partition, and the engine treats a
// skipped flap as a legitimate deterministic outcome, not an error.
// Follow with Reconfigure before the next mutation — until the fabric is
// rerouted, installed LFTs still point over the dead link and any audit
// would (correctly) report blackholes.
func (h *Harness) FailLink(a, b topology.NodeID) (bool, error) {
	ap, ok := h.portToward(a, b)
	if !ok {
		return false, fmt.Errorf("scenario: no link %d<->%d", a, b)
	}
	if err := h.Topo.SetLinkState(a, ap, false); err != nil {
		return false, err
	}
	if !h.Topo.Connected() {
		if err := h.Topo.SetLinkState(a, ap, true); err != nil {
			return false, err
		}
		h.E.Logf("fail link %d<->%d: skipped (would partition)", a, b)
		return false, nil
	}
	if err := h.resweep(fmt.Sprintf("fail link %d<->%d", a, b)); err != nil {
		return false, err
	}
	return true, nil
}

// RestoreLink brings the a<->b link back and resweeps.
func (h *Harness) RestoreLink(a, b topology.NodeID) error {
	ap, ok := h.portToward(a, b)
	if !ok {
		return fmt.Errorf("scenario: no link %d<->%d", a, b)
	}
	if err := h.Topo.SetLinkState(a, ap, true); err != nil {
		return err
	}
	return h.resweep(fmt.Sprintf("restore link %d<->%d", a, b))
}

// portToward finds a's port whose peer is b.
func (h *Harness) portToward(a, b topology.NodeID) (ib.PortNum, bool) {
	n := h.Topo.Node(a)
	if n == nil {
		return 0, false
	}
	for i := 1; i < len(n.Ports); i++ {
		if n.Ports[i].Peer == b {
			return ib.PortNum(i), true
		}
	}
	return 0, false
}

// TrunkLinks lists the switch-to-switch links (each once, lower node ID
// first) in deterministic order — the flap candidates that cannot strand a
// CA on its own.
func (h *Harness) TrunkLinks() [][2]topology.NodeID {
	var out [][2]topology.NodeID
	for _, sw := range h.Topo.Switches() {
		n := h.Topo.Node(sw)
		for i := 1; i < len(n.Ports); i++ {
			p := n.Ports[i]
			if p.Peer == topology.NoNode || p.Peer <= sw {
				continue
			}
			if h.Topo.Node(p.Peer).IsSwitch() {
				out = append(out, [2]topology.NodeID{sw, p.Peer})
			}
		}
	}
	return out
}

// SpineSwitches lists the switches with no CA attached, in deterministic
// order — reboot candidates that leave every CA reachable through siblings.
func (h *Harness) SpineSwitches() []topology.NodeID {
	var out []topology.NodeID
	for _, sw := range h.Topo.Switches() {
		n := h.Topo.Node(sw)
		hasCA := false
		for i := 1; i < len(n.Ports); i++ {
			if p := n.Ports[i]; p.Peer != topology.NoNode && !h.Topo.Node(p.Peer).IsSwitch() {
				hasCA = true
				break
			}
		}
		if !hasCA {
			out = append(out, sw)
		}
	}
	return out
}

// RebootSwitch models a switch power cycle: every link drops at once, the
// SM detects and rediscovers, the links return, and a full reconfiguration
// restores routing. While the switch is down it is unreachable and its LID
// is unroutable, so the primitive performs no API mutation (and therefore
// no audit) until after restoration — the outage window is dark, exactly
// like a real reboot.
func (h *Harness) RebootSwitch(sw topology.NodeID) error {
	n := h.Topo.Node(sw)
	if n == nil || !n.IsSwitch() {
		return fmt.Errorf("scenario: node %d is not a switch", sw)
	}
	ports := n.ConnectedPorts()
	for _, p := range ports {
		if err := h.Topo.SetLinkState(sw, p, false); err != nil {
			return err
		}
	}
	if err := h.resweep(fmt.Sprintf("switch %d down", sw)); err != nil {
		return err
	}
	for _, p := range ports {
		if err := h.Topo.SetLinkState(sw, p, true); err != nil {
			return err
		}
	}
	if err := h.resweep(fmt.Sprintf("switch %d up", sw)); err != nil {
		return err
	}
	h.Reconfigure()
	return nil
}

// SetFaultProfile swaps the network-fault rates on the live transport.
func (h *Harness) SetFaultProfile(p smp.FaultProfile) {
	h.FT.SetProfile(p)
	h.E.Logf("fault profile: drop=%.2f delay=%.2f dup=%.2f", p.Drop, p.Delay, p.Duplicate)
}

// FaultWindow schedules a fault profile to open at start and close (back to
// lossless) at start+d.
func (h *Harness) FaultWindow(start, d time.Duration, p smp.FaultProfile) {
	h.E.At(start, "fault-window-open", func() { h.SetFaultProfile(p) })
	h.E.At(start+d, "fault-window-close", func() { h.SetFaultProfile(smp.FaultProfile{}) })
}

// Handover fails the running master over to a standby SM on another CA:
// sweep, SMInfo negotiation (the standby runs at higher priority), fabric
// state adoption, then the cloud and the server's transition monitor are
// re-pointed at the new master. The fault profile survives the swap on a
// fresh transport whose dice seed is drawn from the engine PRNG.
func (h *Harness) Handover() error {
	cur := h.Cloud.SM
	cas := h.Topo.CAs()
	node := cas[len(cas)-1]
	if node == cur.SMNode {
		node = cas[0]
	}
	eng, err := routing.New(h.Opts.Engine)
	if err != nil {
		return err
	}
	stby, err := sm.New(h.Topo, node, eng)
	if err != nil {
		return err
	}
	stby.SetTelemetry(cur.Telemetry())
	stby.Dist = cur.Dist
	stby.RouteWorkers = 1
	stby.LMC = cur.LMC
	if _, err := stby.Sweep(); err != nil {
		return err
	}
	master, err := sm.Negotiate(cur, stby, 1, 2)
	if err != nil {
		return err
	}
	if master != stby {
		return fmt.Errorf("scenario: negotiation kept the old master")
	}
	st, err := stby.AdoptFabricState(cur)
	if err != nil {
		return err
	}
	profile := h.FT.Config().Profile()
	h.Cloud.SM = stby
	h.Cloud.RC.SM = stby
	h.Srv.WireTransitionMonitor()
	h.FT = stby.InjectFaults(smp.FaultConfig{Seed: h.E.Rand().Int63()})
	h.FT.SetProfile(profile)
	h.handovers++
	h.E.Logf("handover #%d: master now on node %d (%d PortInfo reads, %d LFT block reads, %d reconciliation SMPs)",
		h.handovers, node, st.PortInfoReads, st.LFTBlockReads, st.DistributionSMPs)
	return nil
}

// Quiesce runs a synchronous full-scope audit through the API and logs a
// deterministic summary (violation kinds sorted; no wall-clock fields).
// Campaigns call it at every point the fabric should be healthy.
func (h *Harness) Quiesce(label string) *QuiesceReport {
	st, _ := h.do("GET", "/v1/audit?run=full", nil)
	rep := h.Srv.Auditor().Last()
	q := &QuiesceReport{Label: label}
	if rep != nil {
		q.Gen = rep.Gen
		q.LIDs = rep.LIDsChecked
		q.Switches = rep.SwitchesChecked
		q.Violations = rep.Total
		q.ByKind = rep.ByKind
	}
	q.Dumps = h.Srv.Auditor().Recorder().Dumps()
	kinds := make([]string, 0, len(q.ByKind))
	for k := range q.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	detail := ""
	for _, k := range kinds {
		detail += fmt.Sprintf(" %s=%d", k, q.ByKind[k])
	}
	h.E.Logf("quiesce %q: status=%d gen=%d lids=%d switches=%d violations=%d%s dumps=%d",
		label, st, q.Gen, q.LIDs, q.Switches, q.Violations, detail, q.Dumps)
	return q
}

// QuiesceReport is the deterministic summary of one quiesce-point audit.
type QuiesceReport struct {
	Label      string         `json:"label"`
	Gen        uint64         `json:"generation"`
	LIDs       int            `json:"lids_checked"`
	Switches   int            `json:"switches_checked"`
	Violations int            `json:"violations"`
	ByKind     map[string]int `json:"by_kind,omitempty"`
	Dumps      int            `json:"dumps"`
}

// LFTDigest hashes every switch's programmed (active) forwarding table in
// switch order into one SHA-256: the fabric's forwarding-state fingerprint.
// Two runs that end with identical digests forward every LID identically,
// which is how the incremental-routing campaign proves it converged to the
// same final state as a full-recompute run.
func (h *Harness) LFTDigest() string {
	d := sha256.New()
	for _, sw := range h.Topo.Switches() {
		fmt.Fprintf(d, "switch %d\n", sw)
		if lft := h.Cloud.SM.ProgrammedLFT(sw); lft != nil {
			d.Write(lft.Bytes())
		}
	}
	return hex.EncodeToString(d.Sum(nil))
}
