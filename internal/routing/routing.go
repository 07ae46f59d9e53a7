// Package routing implements the subnet routing engines the paper's Fig. 7
// compares: Fat-Tree, Min-Hop, DFSSSP and LASH, plus Up*/Down* as an extra
// baseline. Every engine consumes a Request (topology + the set of LIDs to
// route, each bound to a physical node) and produces one linear forwarding
// table per switch.
//
// A LID-to-node binding may repeat the node: in the paper's prepopulated
// vSwitch model every VF of a hypervisor carries its own LID, and the
// engines deliberately route each LID independently so different VFs of the
// same HCA can use different paths (the LMC-like property of section V-A).
package routing

import (
	"fmt"
	"sort"
	"time"

	"ibvsim/internal/cdg"
	"ibvsim/internal/ib"
	"ibvsim/internal/topology"
)

// Target binds one LID to the physical node that terminates it. For a
// vSwitch VF the node is the hypervisor's HCA.
type Target struct {
	LID  ib.LID
	Node topology.NodeID
}

// Request is the input to a routing engine.
type Request struct {
	Topo    *topology.Topology
	Targets []Target
	// Workers bounds the number of goroutines the engine may fan its
	// per-destination SSSP/BFS computations over. 0 (the default) means one
	// worker per available CPU; 1 forces a fully serial computation. Every
	// engine guarantees the produced LFTs (and VL assignments) are
	// bit-identical for every worker count.
	Workers int

	// Prov, when non-nil, is the provenance epoch stamped onto every LFT
	// block the computation writes: all five engines allocate their output
	// tables through one helper, so one field attributes every entry of a
	// full computation (and the incremental patcher stamps only the blocks
	// it actually replays).
	Prov *ib.Provenance

	// capture, when non-nil, records each destination's BFS distances and
	// candidate-port structure as the per-destination fan-out computes them.
	// Set only by the Incremental wrapper; every capture slot is written by
	// exactly one task, so the hooks are race-free under any worker count.
	capture *depCapture
}

// Validate checks the request is routable at all.
func (r *Request) Validate() error {
	if r.Topo == nil {
		return fmt.Errorf("routing: nil topology")
	}
	if len(r.Targets) == 0 {
		return fmt.Errorf("routing: no targets")
	}
	seen := map[ib.LID]bool{}
	for _, t := range r.Targets {
		if !t.LID.IsUnicast() {
			return fmt.Errorf("routing: target LID %d not unicast", t.LID)
		}
		if seen[t.LID] {
			return fmt.Errorf("routing: duplicate target LID %d", t.LID)
		}
		seen[t.LID] = true
		if r.Topo.Node(t.Node) == nil {
			return fmt.Errorf("routing: target LID %d bound to missing node %d", t.LID, t.Node)
		}
	}
	return nil
}

// PhaseTiming is the wall time one named phase of an engine run consumed.
// Phase names are stable per engine (e.g. "setup", "bfs-fanout", "fold");
// windowed engines accumulate all windows of a phase into one entry.
type PhaseTiming struct {
	Name     string
	Duration time.Duration
}

// Stats reports the cost of a routing computation; the Fig. 7 experiment is
// built from Stats.Duration.
type Stats struct {
	Duration      time.Duration
	PathsComputed int // destination trees or pairs, engine-dependent
	VLsUsed       int
	Workers       int // goroutines the computation fanned out over
	// Phases breaks Duration into the engine's named phases, in first-use
	// order. Wall-clock: reproducible in shape, not in magnitude.
	Phases []PhaseTiming
	// WorkerBusy is the wall time each worker slot spent inside parallel
	// fan-out phases (indexed by worker). Busy-time imbalance across slots
	// is the window-scheduling overhead Fig. 7's parallel PCt pays.
	WorkerBusy []time.Duration
	// Incremental reports what the incremental recompute layer did, when
	// one wrapped the engine. The zero value means the computation ran
	// without an incremental layer at all.
	Incremental IncrementalStats
}

// IncrementalStats describes one Incremental.Compute decision: whether the
// delta path applied, how much of the destination set it re-ran, and — when
// it fell back to a full recompute — an explicit human-readable reason, so
// callers can tell an honest fallback from a silent one.
type IncrementalStats struct {
	// Attempted is true whenever the request went through an Incremental
	// wrapper (delta path or fallback alike).
	Attempted bool
	// Applied is true when the dependency index was used to recompute only
	// the affected destinations. False means a full recompute ran; see
	// FallbackReason.
	Applied bool
	// FallbackReason explains a full recompute ("" when Applied).
	FallbackReason string
	// DestsTotal and DestsRecomputed count destination trees (destination-
	// switch groups): DestsRecomputed/DestsTotal is the fraction of SSSP/BFS
	// work a delta actually re-ran.
	DestsTotal      int
	DestsRecomputed int
	// DestsPatched counts destination trees whose distance field was provably
	// unchanged by the delta and whose candidate-port segments at the changed
	// links' endpoints were recomputed locally, without any BFS.
	DestsPatched int
	// SwitchesReplayed counts switches whose LFT column was re-folded (the
	// rest were carried over from the previous result byte-for-byte).
	SwitchesReplayed int
	// LinksDown/LinksUp count physical links that disappeared/appeared in
	// the delta; TargetsChanged reports any change to the LID target set.
	LinksDown      int
	LinksUp        int
	TargetsChanged bool
}

// Result is the output of a routing engine.
type Result struct {
	// LFTs maps each switch to its forwarding table. The tables are handed
	// over: nobody writes them again (ib.LFT's ownership rule), so an
	// incremental result shares its unchanged tables with the last one.
	LFTs map[topology.NodeID]*ib.LFT
	// DestVL optionally assigns a virtual lane per destination LID
	// (DFSSSP-style layering at destination granularity).
	DestVL map[ib.LID]uint8
	// PairVL optionally assigns a virtual lane per (source switch,
	// destination switch) pair (LASH-style layering).
	PairVL map[[2]topology.NodeID]uint8
	Stats  Stats
}

// Engine computes forwarding tables for a subnet.
type Engine interface {
	// Name returns the engine's OpenSM-style identifier.
	Name() string
	// Compute routes all target LIDs.
	Compute(req *Request) (*Result, error)
}

// New returns the engine with the given OpenSM-style name: "minhop",
// "updn", "ftree", "dfsssp" or "lash".
func New(name string) (Engine, error) {
	switch name {
	case "minhop":
		return NewMinHop(), nil
	case "updn":
		return NewUpDown(), nil
	case "ftree":
		return NewFatTree(), nil
	case "dfsssp":
		return NewDFSSSP(), nil
	case "lash":
		return NewLASH(), nil
	default:
		return nil, fmt.Errorf("routing: unknown engine %q (have %v)", name, Names())
	}
}

// Names lists the available engine names in a stable order.
func Names() []string { return []string{"ftree", "minhop", "updn", "dfsssp", "lash"} }

// fabricView is the preprocessed switch graph every engine works on.
type fabricView struct {
	topo     *topology.Topology
	switches []topology.NodeID
	swIdx    map[topology.NodeID]int // switch node -> dense index

	// adjacency between switches: for switch i, a list of (port, peer index)
	adj [][]swEdge

	// portSlot[i][p] is the adjacency slot of switch i whose egress port is
	// p, or -1 when port p does not lead to another switch. Hot loops use it
	// to map an LFT entry back into the switch graph without scanning adj.
	portSlot [][]int32

	// attach[t] for each target: the switch the LID hangs off and the port
	// on that switch toward the node (0 when the target IS the switch).
	attach []attachPoint
}

type swEdge struct {
	port ib.PortNum
	peer int // dense switch index
	rev  int // index of the reverse edge within adj[peer]
}

type attachPoint struct {
	sw   int        // dense switch index
	port ib.PortNum // egress on that switch toward the CA; 0 if target is the switch
}

func newFabricView(req *Request) (*fabricView, error) {
	fv := &fabricView{
		topo:  req.Topo,
		swIdx: map[topology.NodeID]int{},
	}
	for _, id := range req.Topo.Switches() {
		fv.swIdx[id] = len(fv.switches)
		fv.switches = append(fv.switches, id)
	}
	if len(fv.switches) == 0 {
		return nil, fmt.Errorf("routing: topology has no switches")
	}
	fv.adj = make([][]swEdge, len(fv.switches))
	for i, id := range fv.switches {
		n := req.Topo.Node(id)
		for p := 1; p < len(n.Ports); p++ {
			pt := n.Ports[p]
			if pt.Peer == topology.NoNode || !pt.Up {
				continue
			}
			if j, ok := fv.swIdx[pt.Peer]; ok {
				fv.adj[i] = append(fv.adj[i], swEdge{port: ib.PortNum(p), peer: j})
			}
		}
	}
	// Fill reverse-edge slots: adj[i][k] <-> adj[peer][rev] describe the
	// same physical link. Matched via the peer's port number.
	for i, id := range fv.topo.Switches() {
		n := fv.topo.Node(id)
		for k := range fv.adj[i] {
			e := &fv.adj[i][k]
			peerPort := n.Ports[e.port].PeerPort
			for k2, e2 := range fv.adj[e.peer] {
				if e2.port == peerPort {
					e.rev = k2
					break
				}
			}
		}
	}
	fv.portSlot = make([][]int32, len(fv.switches))
	for i, id := range fv.switches {
		slots := make([]int32, len(fv.topo.Node(id).Ports))
		for p := range slots {
			slots[p] = -1
		}
		for k, e := range fv.adj[i] {
			slots[e.port] = int32(k)
		}
		fv.portSlot[i] = slots
	}
	fv.attach = make([]attachPoint, len(req.Targets))
	for ti, t := range req.Targets {
		n := req.Topo.Node(t.Node)
		if n.IsSwitch() {
			fv.attach[ti] = attachPoint{sw: fv.swIdx[t.Node], port: 0}
			continue
		}
		leaf := req.Topo.LeafSwitchOf(t.Node)
		if leaf == topology.NoNode {
			return nil, fmt.Errorf("routing: target LID %d on %q has no attached switch", t.LID, n.Desc)
		}
		fv.attach[ti] = attachPoint{
			sw:   fv.swIdx[leaf],
			port: req.Topo.PortToward(leaf, t.Node),
		}
	}
	return fv, nil
}

// newLFTs allocates one forwarding table per switch sized for the topmost
// target LID, with the request's provenance epoch opened on each table so
// every entry the engine folds in is attributed to this computation.
func (fv *fabricView) newLFTs(req *Request) map[topology.NodeID]*ib.LFT {
	var top ib.LID
	for _, t := range req.Targets {
		if t.LID > top {
			top = t.LID
		}
	}
	out := make(map[topology.NodeID]*ib.LFT, len(fv.switches))
	for _, id := range fv.switches {
		lft := ib.NewLFT(top)
		if req.Prov != nil {
			lft.SetProvenance(req.Prov)
		}
		out[id] = lft
	}
	return out
}

// bfsScratch bundles the dist/queue buffers the BFS-based engines reuse
// across destination groups: one allocation per engine run (one per worker
// under parallel computation), not one per source switch.
type bfsScratch struct {
	dist  []int
	queue []int
}

func newBFSScratch(nsw int) *bfsScratch {
	return &bfsScratch{dist: make([]int, nsw), queue: make([]int, 0, nsw)}
}

// bfs fills s.dist (len = #switches, -1 = unreachable) with hop counts over
// the switch graph from the given dense index. The queue buffer — including
// any growth — is retained in the scratch for the next call.
func (fv *fabricView) bfs(src int, s *bfsScratch) {
	dist := s.dist
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	q := append(s.queue[:0], src)
	for qi := 0; qi < len(q); qi++ {
		u := q[qi]
		for _, e := range fv.adj[u] {
			if dist[e.peer] < 0 {
				dist[e.peer] = dist[u] + 1
				q = append(q, e.peer)
			}
		}
	}
	s.queue = q[:0]
}

// groupTargetsBySwitch returns target indices grouped by attach switch, in
// ascending LID order within each group, and the group keys in ascending
// dense-index order. Engines that compute one tree per destination switch
// use this to share work between LIDs of the same leaf.
func (fv *fabricView) groupTargetsBySwitch(targets []Target) ([][]int, []int) {
	groups := map[int][]int{}
	for ti := range targets {
		sw := fv.attach[ti].sw
		groups[sw] = append(groups[sw], ti)
	}
	keys := make([]int, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([][]int, 0, len(keys))
	for _, k := range keys {
		g := groups[k]
		sort.Slice(g, func(a, b int) bool { return targets[g[a]].LID < targets[g[b]].LID })
		out = append(out, g)
	}
	return out, keys
}

// Verify traces every (switch, target LID) pair through the computed LFTs
// by cdg.Trace and reports the first packet not delivered to its target
// node: a drop, a forwarding loop, or delivery to the wrong node. It is
// O(switches x LIDs x pathlen) — meant for tests and moderate subnets.
func Verify(req *Request, res *Result) error {
	return VerifySampled(req, res, 0)
}

// VerifySampled is Verify over every target LID but only from the given
// number of evenly spaced source switches (0: all of them).
func VerifySampled(req *Request, res *Result, sources int) error {
	sw, step := req.Topo.Switches(), 1
	if sources > 0 && sources < len(sw) {
		step = len(sw) / sources
	}
	r := routes(req, res)
	for i := 0; i < len(sw); i += step {
		for _, t := range req.Targets {
			if end := cdg.Trace(req.Topo, r, sw[i], t.LID, nil); end.Fate != cdg.Delivered {
				return fmt.Errorf("routing: from switch %d: %w", sw[i], end)
			}
		}
	}
	return nil
}

// routes is res's tables with req's targets as the owners of their LIDs.
func routes(req *Request, res *Result) cdg.Tables {
	nodeOf := make(map[ib.LID]topology.NodeID, len(req.Targets))
	for _, t := range req.Targets {
		nodeOf[t.LID] = t.Node
	}
	return cdg.Tables{
		Table: func(sw topology.NodeID) *ib.LFT { return res.LFTs[sw] },
		Owner: func(l ib.LID) topology.NodeID {
			if n, ok := nodeOf[l]; ok {
				return n
			}
			return topology.NoNode
		},
	}
}
