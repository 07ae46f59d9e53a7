// Package smp models InfiniBand subnet management packets (SMPs): their
// attributes, their two routing modes (directed-route and destination/LID
// routed), a transport that walks them across a fabric, and the cost model
// the paper uses in its reconfiguration-time analysis (section VI):
//
//	RCt        = PCt + n*m*(k+r)   traditional full reconfiguration (eq. 3)
//	vSwitchRCt = n'*m'*(k+r)       vSwitch reconfig, directed SMPs  (eq. 4)
//	vSwitchRCt = n'*m'*k           vSwitch reconfig, destination-routed (eq. 5)
//
// where k is the average network traversal time per SMP and r the extra
// per-SMP cost of directed routing (every intermediate switch rewrites the
// hop pointer and reverse path).
package smp

import (
	"fmt"
	"sync"
	"time"

	"ibvsim/internal/cdg"
	"ibvsim/internal/ib"
	"ibvsim/internal/telemetry"
	"ibvsim/internal/topology"
)

// Attr identifies the management attribute an SMP carries, mirroring the
// subset of IBA attributes the simulator needs.
type Attr uint16

// Management attributes used by the subnet manager.
const (
	AttrNodeInfo     Attr = 0x0011 // discovery: node type, GUID, port count
	AttrNodeDesc     Attr = 0x0010 // discovery: human-readable description
	AttrPortInfo     Attr = 0x0015 // port state, LID assignment
	AttrSwitchInfo   Attr = 0x0012 // switch capabilities (LFT cap etc.)
	AttrLinearFwdTbl Attr = 0x0019 // one 64-entry LFT block
	AttrGUIDInfo     Attr = 0x0014 // alias GUID (vGUID) programming
	AttrSMInfo       Attr = 0x0020 // SM-to-SM negotiation
)

// String implements fmt.Stringer.
func (a Attr) String() string {
	switch a {
	case AttrNodeInfo:
		return "NodeInfo"
	case AttrNodeDesc:
		return "NodeDescription"
	case AttrPortInfo:
		return "PortInfo"
	case AttrSwitchInfo:
		return "SwitchInfo"
	case AttrLinearFwdTbl:
		return "LinearForwardingTable"
	case AttrGUIDInfo:
		return "GUIDInfo"
	case AttrSMInfo:
		return "SMInfo"
	default:
		return fmt.Sprintf("Attr(0x%04x)", uint16(a))
	}
}

// Mode is the SMP routing mode.
type Mode uint8

const (
	// DirectedRoute SMPs carry an explicit output-port vector and work
	// before any LFTs exist; every hop rewrites the header (cost r).
	DirectedRoute Mode = iota
	// DestinationRouted (LID-routed) SMPs are forwarded by the switches'
	// LFTs like any unicast packet.
	DestinationRouted
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == DirectedRoute {
		return "directed"
	}
	return "lid-routed"
}

// SMP is one subnet management packet.
type SMP struct {
	Attr    Attr
	AttrMod uint32 // attribute modifier; for LFTs this is the block index
	Mode    Mode
	IsSet   bool // Set() vs Get()

	// DirectedRoute only: the initial path — output port at each hop
	// starting from the SM node.
	Path []ib.PortNum
	// DestinationRouted only.
	DLID ib.LID

	// Hops is filled in by the transport on delivery.
	Hops int

	// Blocks is the number of adjacent LFT blocks this SMP programs
	// (AttrMod..AttrMod+Blocks-1). 0 and 1 both mean the classical
	// single-block SMP; values above 1 model the coalesced multi-block
	// send the distribution engine can batch adjacent dirty blocks into.
	Blocks int
}

// Counters aggregates SMP traffic by attribute and mode; the experiments
// report these (Table I is purely SMP counting). Recording is guarded by a
// mutex so the concurrent distribution engine's workers may share one
// transport, and takes it once per SMP; a sender of many SMPs from one
// goroutine — discovery — counts them in a Tally and adds that with one
// acquisition instead. Reading the fields directly is safe once the senders
// have been joined (every distribution call returns only after its workers
// exit).
type Counters struct {
	mu        sync.Mutex
	Sent      int
	Set       int
	Get       int
	ByAttr    map[Attr]int
	ByMode    map[Mode]int
	TotalHops int

	// Mirrors into an attached telemetry registry (nil when detached).
	// Handles are cached so the hot Add path takes no registry locks, and
	// held where Add finds them without a map operation: a mode's
	// by its value, an attribute's in the list of those seen (a transport
	// carries a handful of attributes).
	reg     *telemetry.Registry
	mSent   *telemetry.Counter
	mSet    *telemetry.Counter
	mGet    *telemetry.Counter
	mHops   *telemetry.Counter
	attrCtr []attrCounter
	modeCtr [2]*telemetry.Counter // indexed by Mode
}

// attrCounter is an attribute's registry counter.
type attrCounter struct {
	attr Attr
	ctr  *telemetry.Counter
}

// NewCounters returns zeroed counters.
func NewCounters() *Counters {
	return &Counters{ByAttr: map[Attr]int{}, ByMode: map[Mode]int{}}
}

// AttachRegistry mirrors every future observation into the registry under
// the smp.* namespace (smp.sent, smp.set, smp.get, smp.hops, plus
// smp.attr.<Attr> and smp.mode.<mode> breakdowns). Attaching nil detaches.
func (c *Counters) AttachRegistry(r *telemetry.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reg = r
	c.attrCtr = nil
	c.modeCtr = [2]*telemetry.Counter{}
	if r == nil {
		c.mSent, c.mSet, c.mGet, c.mHops = nil, nil, nil, nil
		return
	}
	c.mSent = r.Counter("smp.sent")
	c.mSet = r.Counter("smp.set")
	c.mGet = r.Counter("smp.get")
	c.mHops = r.Counter("smp.hops")
}

// observe counts one SMP: a tally of one, added.
func (c *Counters) observe(p *SMP) {
	var one Tally
	one.count(p)
	c.Add(&one)
}

// Tally counts SMPs for one goroutine, with no lock, until Counters.Add
// merges it. It is the one counting rule: Counters observe an SMP as a tally
// of one.
type Tally struct {
	Sent, Set, Get, Hops int
	modes                [2]int       // indexed by Mode
	attrs                [8]attrTally // the first nattr in the order first counted
	nattr                int
}

type attrTally struct {
	attr Attr
	n    int
}

// count adds p to t. A tally holds at most len(t.attrs) attributes, more
// than this package defines.
func (t *Tally) count(p *SMP) {
	t.Sent++
	if p.IsSet {
		t.Set++
	} else {
		t.Get++
	}
	t.Hops += p.Hops
	t.modes[p.Mode]++
	for i := range t.attrs[:t.nattr] {
		if t.attrs[i].attr == p.Attr {
			t.attrs[i].n++
			return
		}
	}
	if t.nattr == len(t.attrs) {
		panic(fmt.Sprintf("smp: a tally counts at most %d attributes", len(t.attrs)))
	}
	t.attrs[t.nattr] = attrTally{attr: p.Attr, n: 1}
	t.nattr++
}

// Add merges what t counted into c and its registry, under one lock: the
// fields read as if each SMP had been observed on its own.
func (c *Counters) Add(t *Tally) {
	if t.Sent == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.Sent += t.Sent
	c.Set += t.Set
	c.Get += t.Get
	c.TotalHops += t.Hops
	for _, a := range t.attrs[:t.nattr] {
		c.ByAttr[a.attr] += a.n
	}
	for m, n := range t.modes {
		if n > 0 {
			c.ByMode[Mode(m)] += n
		}
	}
	if c.reg == nil {
		return
	}
	c.mSent.Add(int64(t.Sent))
	c.mSet.Add(int64(t.Set))
	c.mGet.Add(int64(t.Get))
	c.mHops.Add(int64(t.Hops))
	for _, a := range t.attrs[:t.nattr] {
		c.attrCounter(a.attr).Add(int64(a.n))
	}
	for m, n := range t.modes {
		if n > 0 {
			c.modeCounter(Mode(m)).Add(int64(n))
		}
	}
}

// attrCounter returns the registry counter of attribute a, registering it
// the first time a is seen. Caller holds c.mu with a registry attached.
func (c *Counters) attrCounter(a Attr) *telemetry.Counter {
	for _, ac := range c.attrCtr {
		if ac.attr == a {
			return ac.ctr
		}
	}
	ctr := c.reg.Counter("smp.attr." + a.String())
	c.attrCtr = append(c.attrCtr, attrCounter{attr: a, ctr: ctr})
	return ctr
}

// modeCounter returns the registry counter of mode m, registering it the
// first time m is seen. Caller holds c.mu with a registry attached.
func (c *Counters) modeCounter(m Mode) *telemetry.Counter {
	if int(m) >= len(c.modeCtr) {
		return c.reg.Counter("smp.mode." + m.String())
	}
	if c.modeCtr[m] == nil {
		c.modeCtr[m] = c.reg.Counter("smp.mode." + m.String())
	}
	return c.modeCtr[m]
}

// Reset zeroes the counters in place.
func (c *Counters) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.Sent, c.Set, c.Get, c.TotalHops = 0, 0, 0, 0
	c.ByAttr = map[Attr]int{}
	c.ByMode = map[Mode]int{}
}

// String summarises the counters.
func (c *Counters) String() string {
	return fmt.Sprintf("SMPs{sent=%d set=%d get=%d hops=%d}", c.Sent, c.Set, c.Get, c.TotalHops)
}

// Transport walks SMPs across a topology, validating deliverability and
// counting hops. It is deliberately synchronous: the experiments care about
// counts and modelled latency, not wall-clock interleaving.
type Transport struct {
	Topo     *topology.Topology
	Counters *Counters
}

// NewTransport returns a transport over the given fabric.
func NewTransport(t *topology.Topology) *Transport {
	return &Transport{Topo: t, Counters: NewCounters()}
}

// SendDirected walks a directed-route SMP from src along p.Path, returning
// the node it lands on.
func (t *Transport) SendDirected(src topology.NodeID, p *SMP) (topology.NodeID, error) {
	var one Tally
	end, err := t.SendDirectedTally(src, p, &one)
	t.Counters.Add(&one)
	return end, err
}

// SendDirectedTally is SendDirected counted in tally, to be added to the
// transport's Counters later: a sender of many SMPs from one goroutine takes
// their lock once. The transport keeps nothing of p.
func (t *Transport) SendDirectedTally(src topology.NodeID, p *SMP, tally *Tally) (topology.NodeID, error) {
	p.Mode = DirectedRoute
	end, err := t.pathEnd(src, p.Path)
	if err == nil {
		p.Hops = len(p.Path)
		tally.count(p)
	}
	return end, err
}

// pathEnd is the node a directed path from src leads to. The path's port
// numbers are interpreted at each successive node; an empty path addresses
// src itself.
func (t *Transport) pathEnd(src topology.NodeID, path []ib.PortNum) (topology.NodeID, error) {
	cur := src
	for i, out := range path {
		n := t.Topo.Node(cur)
		if n == nil {
			return topology.NoNode, fmt.Errorf("smp: directed route hop %d: no node %d", i, cur)
		}
		if int(out) < 1 || int(out) >= len(n.Ports) {
			return topology.NoNode, fmt.Errorf("smp: directed route hop %d: %q has no port %d", i, n.Desc, out)
		}
		link := n.Ports[out]
		if link.Peer == topology.NoNode || !link.Up {
			return topology.NoNode, fmt.Errorf("smp: directed route hop %d: %q port %d down", i, n.Desc, out)
		}
		cur = link.Peer
	}
	return cur, nil
}

// SendLIDRouted forwards the SMP from the CA or switch src toward p.DLID
// through r's tables by cdg.Trace, the forwarding rule the auditor proves.
// It returns the delivering node, or an error wrapping the cdg.End of an
// SMP that was not delivered.
func (t *Transport) SendLIDRouted(src topology.NodeID, p *SMP, r cdg.Routes) (topology.NodeID, error) {
	p.Mode = DestinationRouted
	if t.Topo.Node(src) == nil {
		return topology.NoNode, fmt.Errorf("smp: lid route: no node %d", src)
	}
	end := cdg.Trace(t.Topo, r, src, p.DLID, nil)
	if end.Fate != cdg.Delivered {
		return topology.NoNode, fmt.Errorf("smp: lid route: %w", end)
	}
	p.Hops = end.Hops
	t.Counters.observe(p)
	return end.At, nil
}

// CostModel carries the latency parameters of the paper's analysis.
type CostModel struct {
	// K is the average time for one SMP to traverse the network and reach a
	// switch (the paper's k).
	K time.Duration
	// R is the average extra time per SMP added by directed routing (the
	// paper's r).
	R time.Duration
	// PipelineDepth is how many in-flight SMPs the SM keeps (OpenSM
	// pipelines LFT block updates); 1 means fully serial, matching the
	// "assuming no pipelining" equations.
	PipelineDepth int
	// ExtraBlock is the marginal wire time of each additional LFT block
	// carried by a coalesced multi-block SMP: the header/route cost is paid
	// once, every extra 64-entry payload only adds serialisation time. Zero
	// means extra blocks are free (pure header-cost model).
	ExtraBlock time.Duration
}

// DefaultCostModel uses QDR-era magnitudes: ~5us wire+switch time per SMP
// and ~2.5us directed-route processing overhead, serial distribution.
func DefaultCostModel() CostModel {
	return CostModel{K: 5 * time.Microsecond, R: 2500 * time.Nanosecond, PipelineDepth: 1,
		ExtraBlock: 1250 * time.Nanosecond}
}

// SMPTime returns the modelled delivery time of one SMP in the given mode.
func (c CostModel) SMPTime(m Mode) time.Duration {
	if m == DirectedRoute {
		return c.K + c.R
	}
	return c.K
}

// MultiBlockSMPTime returns the modelled delivery time of one SMP carrying
// nBlocks adjacent LFT blocks: the per-SMP header/route cost plus the
// marginal serialisation cost of every block beyond the first.
func (c CostModel) MultiBlockSMPTime(m Mode, nBlocks int) time.Duration {
	t := c.SMPTime(m)
	if nBlocks > 1 {
		t += time.Duration(nBlocks-1) * c.ExtraBlock
	}
	return t
}

// DistributionTime models sending nSMPs of the given mode, honouring the
// pipeline depth: ceil(n/depth) serialised rounds.
func (c CostModel) DistributionTime(nSMPs int, m Mode) time.Duration {
	if nSMPs <= 0 {
		return 0
	}
	depth := c.PipelineDepth
	if depth < 1 {
		depth = 1
	}
	rounds := (nSMPs + depth - 1) / depth
	return time.Duration(rounds) * c.SMPTime(m)
}
