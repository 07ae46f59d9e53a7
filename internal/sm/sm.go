// Package sm implements the subnet manager: the OpenSM analogue that
// discovers the fabric with directed-route SMPs, assigns LIDs, runs a
// routing engine, and distributes linear forwarding tables to the switches
// in 64-LID blocks (one SMP per run of adjacent changed blocks, up to
// DistributionConfig.MaxBlocksPerSMP; one block per SMP by default).
//
// The manager keeps two views per switch: the target LFT computed by the
// routing engine and the programmed LFT it believes the physical switch
// holds. The two views may be one table: a distribution publishes the
// target itself, and nobody writes a table once it is published.
// Distribution sends exactly the SMPs needed to reconcile them, which is
// how both the traditional full reconfiguration of section VI-A and the
// paper's minimal vSwitch reconfiguration (implemented on top of this
// package by internal/core) are accounted.
package sm

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ibvsim/internal/cdg"
	"ibvsim/internal/ib"
	"ibvsim/internal/routing"
	"ibvsim/internal/smp"
	"ibvsim/internal/telemetry"
	"ibvsim/internal/topology"
)

// lftStripes is the size of the per-switch lock stripe set guarding
// SetLFTEntriesProv. Sharded control planes update different switches (and
// different LID columns of the same switch) from concurrent actors; a
// stripe serializes the clone→send→commit read-modify-write per switch.
const lftStripes = 256

// SubnetManager manages one IB subnet.
type SubnetManager struct {
	Topo      *topology.Topology
	SMNode    topology.NodeID // the CA hosting the SM
	Transport *smp.Transport
	Engine    routing.Engine
	Cost      smp.CostModel
	// Dist configures the concurrent LFT distribution engine (worker count
	// and retry policy).
	Dist DistributionConfig
	// RouteWorkers bounds the routing engines' path-computation worker
	// pool; 0 means one worker per CPU (GOMAXPROCS). Results are
	// bit-identical for every value.
	RouteWorkers int
	// IncrementalRouting routes ComputeRoutes through a dependency-tracked
	// delta-recompute wrapper: after a topology change only the destination
	// trees the change can affect are re-run, and the merged tables are
	// byte-identical to a from-scratch run (engines that cannot support
	// deltas fall back to a full recompute, honestly reported in the stats).
	IncrementalRouting bool
	// LMC is the LID Mask Control value applied to CAs at AssignLIDs time:
	// each CA receives 2^LMC consecutive, aligned LIDs, every one routed
	// independently (the multipathing the prepopulated vSwitch model
	// imitates without the contiguity constraint, section V-A).
	LMC uint8
	// OnDistribute, when set, is called synchronously at the moment a
	// non-trivial LFT distribution fans out — after planning, before the
	// first SMP — with the programmed (Rold) and target (Rnew) routing,
	// Programmed() and Target(). The fabric is about to hold a mixture of
	// both routing functions, which is exactly when the section VI-C
	// transient-CDG monitor must look. The callback runs on the
	// distributing goroutine and must only read.
	OnDistribute func(old, next cdg.Routes)

	pool *ib.LIDPool
	// lidOf is each node's base LID, dense by node ID. A slice once installed
	// is never written again — AssignLIDs and AdoptFabricState install a new
	// one — so BaseLIDs hands it out as is.
	lidOf []ib.LID
	// addr is the LID → node table, base and additional (VF) LIDs alike, as
	// a persistent value: a writer installs a new table, a reader loads the
	// current one and needs no lock.
	addr atomic.Pointer[AddressTable]
	// dirPath is the directed path to each node the last complete sweep
	// reached, by node ID (the SM's own is empty); reachable says which
	// those are. A sweep installs both together when it completes.
	dirPath   [][]ib.PortNum
	reachable []bool

	// addrMu serializes the writers of the LID state that concurrent shard
	// actors mutate after bootstrap: the allocation pool and the address
	// table. lidOf and dirPath are static once AssignLIDs/Sweep complete;
	// sweeps and full reconfigurations only run with the control plane
	// quiesced.
	addrMu sync.Mutex
	// lftMu stripes per-switch locks over SetLFTEntriesProv so concurrent
	// actors updating different LID columns of one switch serialize their
	// clone→send→commit cycles instead of losing each other's entries.
	lftMu [lftStripes]sync.Mutex

	// target is each switch's table from the routing engine, dense by node
	// ID like programmed: an entry write stores a new pointer, it never
	// patches the table in place.
	target []atomic.Pointer[ib.LFT]
	// programmed is the per-switch view of what the physical switch holds,
	// one atomic pointer each: readers (the SMP router, the auditor, the API
	// snapshot layer) always see a complete, immutable-by-convention table,
	// and a distribution publishes its outcome with one pointer swap per
	// switch — never an in-place, half-merged mutation. Dense by node ID
	// (every plan reads every switch's slot) and sized by New, so workers
	// publish without growing it; a slot is nil until first programmed.
	programmed []atomic.Pointer[ib.LFT]
	// portState is Up per port of each node reachable at the last (light)
	// sweep, by node ID; a node not reached has an empty row.
	portState [][]bool

	swept  bool
	routed bool
	state  SMState
	// sweeps counts the full sweeps and LID assignments run: a cached
	// computation that read LIDs compares it to know no sweep has
	// (re)assigned them since.
	sweeps atomic.Uint64

	// inc is the cached incremental wrapper around Engine; it is recreated
	// whenever Engine is swapped and dropped when IncrementalRouting is off,
	// so its dependency index always matches the engine it fronts.
	inc *routing.Incremental

	// sender, when set, replaces the raw transport for LFT distribution
	// SMPs (the path that owns a retry policy). Discovery, LID assignment
	// and vGUID programming keep perfect delivery: they have no retry loop.
	sender smp.Sender

	tel *telemetry.Hub
	log *EventLog
}

// New creates a subnet manager hosted on the given CA node, using the given
// routing engine. The default cost model applies; replace Cost to change k,
// r or the pipeline depth.
func New(topo *topology.Topology, smNode topology.NodeID, engine routing.Engine) (*SubnetManager, error) {
	n := topo.Node(smNode)
	if n == nil {
		return nil, fmt.Errorf("sm: SM node %d does not exist", smNode)
	}
	if n.IsSwitch() {
		return nil, fmt.Errorf("sm: the SM must run on a CA (OpenSM style), got switch %q", n.Desc)
	}
	hub := telemetry.NewHub()
	mgr := &SubnetManager{
		Topo:       topo,
		SMNode:     smNode,
		Transport:  smp.NewTransport(topo),
		Engine:     engine,
		Cost:       smp.DefaultCostModel(),
		Dist:       DefaultDistributionConfig(),
		pool:       ib.NewLIDPool(),
		programmed: make([]atomic.Pointer[ib.LFT], topo.NumNodes()),
		target:     make([]atomic.Pointer[ib.LFT], topo.NumNodes()),
		tel:        hub,
		log:        newEventLogOver(hub.Trace, 4096),
	}
	mgr.Transport.Counters.AttachRegistry(hub.Metrics)
	return mgr, nil
}

// Log exposes the event log.
func (s *SubnetManager) Log() *EventLog { return s.log }

// Telemetry exposes the SM's telemetry hub (metrics registry + trace). It
// is never nil: every SM starts with a private hub.
func (s *SubnetManager) Telemetry() *telemetry.Hub { return s.tel }

// SetTelemetry replaces the SM's telemetry hub, re-pointing the SMP
// counters and the event-log view at it. The orchestration layer uses this
// to share one hub (and so one trace/metrics export) across a whole run.
func (s *SubnetManager) SetTelemetry(h *telemetry.Hub) {
	if h == nil {
		h = telemetry.NewHub()
	}
	s.tel = h
	s.log = newEventLogOver(h.Trace, 4096)
	s.Transport.Counters.AttachRegistry(h.Metrics)
}

// InjectFaults routes LFT distribution SMPs through a fault-injecting
// transport with the given drop/delay/duplicate probabilities, returning it
// so callers can read its verdict stats. The distribution engine's retry
// policy (Dist.Retry) decides how many losses a block survives.
func (s *SubnetManager) InjectFaults(cfg smp.FaultConfig) *smp.FaultyTransport {
	ft := smp.NewFaultyTransport(s.Transport, cfg)
	s.sender = ft
	return ft
}

// ClearFaults restores perfect delivery for LFT distribution SMPs.
func (s *SubnetManager) ClearFaults() { s.sender = nil }

// lftSender returns the transport LFT distribution SMPs travel through.
func (s *SubnetManager) lftSender() smp.Sender {
	if s.sender != nil {
		return s.sender
	}
	return s.Transport
}

// SweepStats reports the cost of a discovery sweep.
type SweepStats struct {
	Nodes, Switches, CAs int
	SMPs                 int
	Duration             time.Duration
}

// Sweep performs directed-route topology discovery from the SM node,
// recording a directed path to every node and counting the SMPs a real
// OpenSM would send (NodeInfo per port probe, NodeDescription and
// SwitchInfo per node, PortInfo per connected port). Sweep demands full
// coverage (initial bring-up of a healthy fabric); after link failures use
// Resweep, which tolerates unreachable nodes.
func (s *SubnetManager) Sweep() (SweepStats, error) {
	st, err := s.sweep()
	if err != nil {
		return st, err
	}
	if st.Nodes != s.Topo.NumNodes() {
		return st, fmt.Errorf("sm: sweep found %d of %d nodes (disconnected fabric?)", st.Nodes, s.Topo.NumNodes())
	}
	return st, nil
}

// Resweep rediscovers the fabric after a topology change. Nodes that have
// become unreachable keep their LIDs (they may return) but stop being
// routing targets and are skipped by LFT distribution until a later
// Resweep finds them again.
func (s *SubnetManager) Resweep() (SweepStats, error) {
	st, err := s.sweep()
	if err != nil {
		return st, err
	}
	missing := s.Topo.NumNodes() - st.Nodes
	s.log.Addf(EvSweep, "resweep: %d nodes reachable, %d unreachable", st.Nodes, missing)
	return st, nil
}

// Sweeps counts the full sweeps and the LID assignments run so far. Two
// equal readings bracket a span in which no sweep ran.
func (s *SubnetManager) Sweeps() uint64 { return s.sweeps.Load() }

// Reachable reports whether the most recent sweep could reach the node.
func (s *SubnetManager) Reachable(n topology.NodeID) bool {
	return n >= 0 && int(n) < len(s.reachable) && s.reachable[n]
}

// pathTo is the directed path to n found by the most recent sweep: nil for
// the SM itself and for a node it did not reach.
func (s *SubnetManager) pathTo(n topology.NodeID) []ib.PortNum {
	if n < 0 || int(n) >= len(s.dirPath) {
		return nil
	}
	return s.dirPath[n]
}

func (s *SubnetManager) sweep() (SweepStats, error) {
	start := time.Now()
	var st SweepStats
	span := s.tel.Tracer().Start(telemetry.SpanSweep, "full")
	defer func() {
		span.SetAttr("nodes", st.Nodes)
		span.SetAttr("switches", st.Switches)
		span.SetAttr("cas", st.CAs)
		span.SetAttr("smps", st.SMPs)
		span.End()
	}()
	s.tel.Registry().Counter("sm.sweeps").Inc()
	s.sweeps.Add(1)

	// Discovery counts its SMPs here and adds them to the transport's
	// counters once, however the sweep ends.
	var tally smp.Tally
	defer s.Transport.Counters.Add(&tally)
	probe := func(path []ib.PortNum, attr smp.Attr) (topology.NodeID, error) {
		p := smp.SMP{Attr: attr, Path: path}
		return s.Transport.SendDirectedTally(s.SMNode, &p, &tally)
	}

	type qe struct {
		node topology.NodeID
		path []ib.PortNum
	}
	seen := make([]bool, s.Topo.NumNodes())
	paths := make([][]ib.PortNum, len(seen))
	seen[s.SMNode] = true
	queue := append(make([]qe, 0, len(seen)), qe{node: s.SMNode})
	var npath []ib.PortNum // the NodeInfo probes' path, reused

	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		n := s.Topo.Node(cur.node)
		st.Nodes++
		if n.IsSwitch() {
			st.Switches++
		} else {
			st.CAs++
		}
		// NodeDescription for the node itself; SwitchInfo for switches.
		if _, err := probe(cur.path, smp.AttrNodeDesc); err != nil {
			return st, fmt.Errorf("sm: sweep NodeDesc at %q: %w", n.Desc, err)
		}
		if n.IsSwitch() {
			if _, err := probe(cur.path, smp.AttrSwitchInfo); err != nil {
				return st, err
			}
		}
		for pi := 1; pi < len(n.Ports); pi++ {
			pt := n.Ports[pi]
			if pt.Peer == topology.NoNode || !pt.Up {
				continue
			}
			// PortInfo for every connected port of the node.
			if _, err := probe(cur.path, smp.AttrPortInfo); err != nil {
				return st, err
			}
			// NodeInfo probe through the port to identify the neighbour.
			npath = append(append(npath[:0], cur.path...), ib.PortNum(pi))
			peer, err := probe(npath, smp.AttrNodeInfo)
			if err != nil {
				return st, fmt.Errorf("sm: sweep NodeInfo via %q port %d: %w", n.Desc, pi, err)
			}
			if !seen[peer] {
				seen[peer] = true
				paths[peer] = slices.Clone(npath)
				queue = append(queue, qe{node: peer, path: paths[peer]})
			}
		}
	}
	st.SMPs = tally.Sent
	st.Duration = time.Since(start)
	s.swept = true
	s.dirPath, s.reachable = paths, seen
	s.snapshotPortState()
	s.log.Addf(EvSweep, "sweep: %d nodes (%d switches, %d CAs), %d SMPs",
		st.Nodes, st.Switches, st.CAs, st.SMPs)
	return st, nil
}

// AssignLIDs gives every CA and then every switch LIDs in
// discovery-independent (node ID) order, sending one PortInfo Set per node.
// CAs receive 2^LMC aligned consecutive LIDs each; switches always get a
// single LID (the IBA forbids LMC on switch port 0 in this configuration).
// It must follow Sweep.
func (s *SubnetManager) AssignLIDs() error {
	if !s.swept {
		return fmt.Errorf("sm: AssignLIDs before Sweep")
	}
	s.sweeps.Add(1)
	s.addrMu.Lock()
	defer s.addrMu.Unlock()
	lidOf := make([]ib.LID, s.Topo.NumNodes())
	copy(lidOf, s.lidOf)
	addr := s.addr.Load()
	defer func() { s.lidOf = lidOf; s.addr.Store(addr) }()
	assign := func(id topology.NodeID, lmc uint8) error {
		if lidOf[id] != ib.LIDUnassigned {
			return nil
		}
		base, err := s.pool.AllocAligned(lmc)
		if err != nil {
			return err
		}
		lidOf[id] = base
		for l := base; l < base+(ib.LID(1)<<lmc); l++ {
			addr = addr.with(l, id, false)
		}
		p := &smp.SMP{Attr: smp.AttrPortInfo, IsSet: true, Path: append([]ib.PortNum(nil), s.pathTo(id)...)}
		if _, err := s.Transport.SendDirected(s.SMNode, p); err != nil {
			return err
		}
		return nil
	}
	for _, ca := range s.Topo.CAs() {
		if err := assign(ca, s.LMC); err != nil {
			return err
		}
	}
	for _, sw := range s.Topo.Switches() {
		if err := assign(sw, 0); err != nil {
			return err
		}
	}
	s.tel.Registry().Gauge("sm.lids_assigned").Set(int64(s.pool.Count()))
	s.log.Addf(EvLIDs, "assigned %d LIDs (top %d, LMC %d)", s.pool.Count(), s.pool.TopUsed(), s.LMC)
	return nil
}

// LIDOf returns the base LID of a node (0 if unassigned).
func (s *SubnetManager) LIDOf(n topology.NodeID) ib.LID {
	if n < 0 || int(n) >= len(s.lidOf) {
		return ib.LIDUnassigned
	}
	return s.lidOf[n]
}

// BaseLIDs returns every node's base LID, dense by node ID (0: unassigned).
// The slice is the SM's own and immutable: the SM installs a new one rather
// than reassign a base LID in place, so holders compare it by identity.
func (s *SubnetManager) BaseLIDs() []ib.LID { return s.lidOf }

// Addresses returns the current LID → node table: an immutable value, O(1)
// to take, that later address changes do not touch.
func (s *SubnetManager) Addresses() *AddressTable { return s.addr.Load() }

// NodeOfLID resolves any LID — base or extra — to its owning node.
func (s *SubnetManager) NodeOfLID(l ib.LID) topology.NodeID { return s.addr.Load().NodeOf(l) }

// ResolveLIDs resolves a small set of LIDs to their owning nodes against one
// table — the shape an op-scoped audit view needs.
func (s *SubnetManager) ResolveLIDs(lids []ib.LID) map[ib.LID]topology.NodeID {
	out := make(map[ib.LID]topology.NodeID, len(lids))
	addr := s.addr.Load()
	for _, l := range lids {
		if n := addr.NodeOf(l); n != topology.NoNode {
			out[l] = n
		}
	}
	return out
}

// AddressView materialises the complete LID→node map (base + extra) of the
// current table, for consumers that need a map: fabric-scope audit views and
// the benchmark. Nothing on a per-mutation path calls it.
func (s *SubnetManager) AddressView() map[ib.LID]topology.NodeID { return s.addr.Load().Map() }

// AllocExtraLID allocates and binds an additional LID (a vSwitch VF LID) to
// an existing CA node, returning it. Used by the dynamic-assignment model.
func (s *SubnetManager) AllocExtraLID(node topology.NodeID) (ib.LID, error) {
	if s.Topo.Node(node) == nil {
		return 0, fmt.Errorf("sm: no node %d", node)
	}
	s.addrMu.Lock()
	defer s.addrMu.Unlock()
	lid, err := s.pool.Alloc()
	if err != nil {
		return 0, err
	}
	s.addr.Store(s.addr.Load().with(lid, node, true))
	return lid, nil
}

// ReserveExtraLID binds a specific additional LID to a CA node (the
// prepopulated model reserves VF LIDs up front).
func (s *SubnetManager) ReserveExtraLID(lid ib.LID, node topology.NodeID) error {
	if s.Topo.Node(node) == nil {
		return fmt.Errorf("sm: no node %d", node)
	}
	s.addrMu.Lock()
	defer s.addrMu.Unlock()
	if err := s.pool.Reserve(lid); err != nil {
		return err
	}
	s.addr.Store(s.addr.Load().with(lid, node, true))
	return nil
}

// ReleaseExtraLID unbinds and frees an additional LID.
func (s *SubnetManager) ReleaseExtraLID(lid ib.LID) {
	s.addrMu.Lock()
	defer s.addrMu.Unlock()
	addr := s.addr.Load()
	if !addr.isExtra(lid) {
		return
	}
	s.addr.Store(addr.with(lid, topology.NoNode, false))
	s.pool.Release(lid)
}

// RebindExtraLID points an existing extra LID at a different node (the LID
// follows a migrating VM).
func (s *SubnetManager) RebindExtraLID(lid ib.LID, node topology.NodeID) error {
	if s.Topo.Node(node) == nil {
		return fmt.Errorf("sm: no node %d", node)
	}
	s.addrMu.Lock()
	defer s.addrMu.Unlock()
	addr := s.addr.Load()
	if !addr.isExtra(lid) {
		return fmt.Errorf("sm: LID %d is not an extra LID", lid)
	}
	s.addr.Store(addr.with(lid, node, true))
	return nil
}

// ExtraLIDsOf lists the extra LIDs currently bound to a node, ascending.
func (s *SubnetManager) ExtraLIDsOf(node topology.NodeID) []ib.LID {
	var out []ib.LID
	s.addr.Load().Each(func(l ib.LID, n topology.NodeID, extra bool) {
		if extra && n == node {
			out = append(out, l)
		}
	})
	return out
}

// LIDCount returns the number of assigned LIDs (base + extra).
func (s *SubnetManager) LIDCount() int {
	s.addrMu.Lock()
	defer s.addrMu.Unlock()
	return s.pool.Count()
}

// TopLID returns the highest assigned LID.
func (s *SubnetManager) TopLID() ib.LID {
	s.addrMu.Lock()
	defer s.addrMu.Unlock()
	return s.pool.TopUsed()
}

// Targets builds the routing-engine target list from the current LID
// state, excluding nodes the latest sweep could not reach.
func (s *SubnetManager) Targets() []routing.Target {
	addr := s.addr.Load()
	out := make([]routing.Target, 0, addr.Len())
	// Ascending LID order keeps engines reproducible.
	addr.Each(func(l ib.LID, n topology.NodeID, _ bool) {
		if s.Reachable(n) {
			out = append(out, routing.Target{LID: l, Node: n})
		}
	})
	return out
}

// routingEngine returns the engine ComputeRoutes should run: the raw Engine,
// or — with IncrementalRouting on — a cached incremental wrapper around it.
// The wrapper owns a dependency index keyed to one engine instance, so it is
// recreated whenever Engine is swapped out from under it.
func (s *SubnetManager) routingEngine() routing.Engine {
	if !s.IncrementalRouting {
		s.inc = nil
		return s.Engine
	}
	if s.inc == nil || s.inc.Inner() != s.Engine {
		s.inc = routing.NewIncremental(s.Engine)
	}
	return s.inc
}

// ComputeRoutes runs the routing engine over all current targets and
// installs the result as the target LFT state. The returned stats carry the
// measured path-computation time PCt of equation 1.
func (s *SubnetManager) ComputeRoutes() (routing.Stats, error) {
	if !s.swept {
		return routing.Stats{}, fmt.Errorf("sm: ComputeRoutes before Sweep")
	}
	eng := s.routingEngine()
	span := s.tel.Tracer().Start(telemetry.SpanPathCompute, s.Engine.Name())
	req := &routing.Request{
		Topo: s.Topo, Targets: s.Targets(), Workers: s.RouteWorkers,
		Prov: &ib.Provenance{
			Mutation: ib.NextMutationID(),
			Span:     span.ID(),
			Engine:   s.Engine.Name(),
			Reason:   "compute_routes",
			Shard:    ib.ShardNone,
		},
	}
	res, err := eng.Compute(req)
	if err != nil {
		span.SetAttr("error", err.Error())
		span.End()
		return routing.Stats{}, err
	}
	span.SetAttr("engine", s.Engine.Name())
	span.SetAttr("workers", res.Stats.Workers)
	span.SetAttr("paths", res.Stats.PathsComputed)
	span.SetAttr("vls", res.Stats.VLsUsed)
	// Engine phases and per-worker busy time become wall-only child spans;
	// the phase wall durations also feed a wall-marked histogram so the
	// distribution of phase costs is queryable across many runs.
	phaseHist := s.tel.Registry().WallHistogram("routing.phase_wall_us", nil)
	for _, ph := range res.Stats.Phases {
		c := span.Child(telemetry.SpanPhase, ph.Name)
		c.EndWithWall(ph.Duration)
		phaseHist.ObserveDuration(ph.Duration)
	}
	for w, busy := range res.Stats.WorkerBusy {
		c := span.Child(telemetry.SpanPhase, fmt.Sprintf("worker-%d", w))
		c.EndWithWall(busy)
	}
	if inc := res.Stats.Incremental; inc.Attempted {
		span.SetAttr("incremental_applied", inc.Applied)
		reg := s.tel.Registry()
		if inc.Applied {
			reg.Counter("routing.incremental.applied").Inc()
			reg.Counter("routing.incremental.dests_recomputed").Add(int64(inc.DestsRecomputed))
			reg.Counter("routing.incremental.dests_patched").Add(int64(inc.DestsPatched))
			reg.Counter("routing.incremental.dests_total").Add(int64(inc.DestsTotal))
			span.SetAttr("dests_recomputed", inc.DestsRecomputed)
			span.SetAttr("dests_total", inc.DestsTotal)
		} else {
			reg.Counter("routing.incremental.fallback").Inc()
			span.SetAttr("incremental_fallback", inc.FallbackReason)
		}
	}
	span.EndWithWall(res.Stats.Duration)
	s.tel.Registry().Counter("sm.route_computes").Inc()
	for i := range s.target {
		s.target[i].Store(res.LFTs[topology.NodeID(i)])
	}
	s.routed = true
	s.log.Addf(EvRoute, "routing (%s): %d paths in %v", s.Engine.Name(),
		res.Stats.PathsComputed, res.Stats.Duration)
	return res.Stats, nil
}

// Programmed is the routing the switches hold: each switch's programmed
// table (nil before its first distribution) and each LID's current owner.
// It reads live state, so one value serves every read; the planner, the
// LID-routed SMP walk and the fabric simulator all read it.
func (s *SubnetManager) Programmed() cdg.Routes { return programmedRoutes{s} }

// Target is the routing the engine last computed: each switch's target
// table and each LID's current owner. After a distribution that completed,
// it holds Programmed's tables.
func (s *SubnetManager) Target() cdg.Routes { return targetRoutes{s} }

// programmedRoutes and targetRoutes are the SM's two cdg.Routes. Each is one
// pointer, so handing it out as an interface does not allocate.
type (
	programmedRoutes struct{ s *SubnetManager }
	targetRoutes     struct{ s *SubnetManager }
)

func (r programmedRoutes) LFT(sw topology.NodeID) *ib.LFT  { return r.s.ProgrammedLFT(sw) }
func (r programmedRoutes) NodeOf(l ib.LID) topology.NodeID { return r.s.NodeOfLID(l) }
func (r targetRoutes) LFT(sw topology.NodeID) *ib.LFT      { return r.s.TargetLFT(sw) }
func (r targetRoutes) NodeOf(l ib.LID) topology.NodeID     { return r.s.NodeOfLID(l) }

// ProgrammedLFT returns the LFT the SM believes the switch holds (nil
// before first distribution), as published atomically by the last commit.
func (s *SubnetManager) ProgrammedLFT(sw topology.NodeID) *ib.LFT {
	if int(sw) < len(s.programmed) {
		return s.programmed[sw].Load()
	}
	return nil
}

// commitProgrammed publishes t as the switch's programmed table with one
// atomic swap.
func (s *SubnetManager) commitProgrammed(sw topology.NodeID, t *ib.LFT) { s.programmed[sw].Store(t) }

// TargetLFT returns the switch's target table: the routing engine's, with
// every entry write since. It must not be written: edit a clone and hand it
// back with SetTargetLFT.
func (s *SubnetManager) TargetLFT(sw topology.NodeID) *ib.LFT {
	if int(sw) < len(s.target) {
		return s.target[sw].Load()
	}
	return nil
}

// SetTargetLFT hands t over as the switch's target table, for the next
// distribution to send what it differs in. Nobody writes t afterwards.
func (s *SubnetManager) SetTargetLFT(sw topology.NodeID, t *ib.LFT) { s.target[sw].Store(t) }
