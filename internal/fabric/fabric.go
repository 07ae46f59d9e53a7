// Package fabric is a flow-level simulator of a lossless InfiniBand
// fabric: output-buffered channels with credit-based flow control, virtual
// lanes, and the IB timeout mechanism. It exists to *demonstrate* the
// deadlock behaviour the paper argues about in section VI-C — a cyclic
// channel dependency really does stall forever in a lossless network, IB
// timeouts really do break the stall by dropping packets, and the proposed
// mitigations (draining, port-255 invalidation) really do avoid it — and to
// validate routed fabrics end to end (delivery, loops, black holes).
//
// The model is synchronous: Step advances every channel by at most one
// packet. It is intentionally not cycle-accurate; deadlock is a property of
// the dependency structure, not of timing detail.
package fabric

import (
	"fmt"

	"ibvsim/internal/cdg"
	"ibvsim/internal/ib"
	"ibvsim/internal/topology"
)

// VLSelector maps a packet (by source node and destination LID) to a
// virtual lane. Nil means VL 0 for everything.
type VLSelector func(src topology.NodeID, dlid ib.LID) uint8

// Config tunes the simulator.
type Config struct {
	// BufferCredits is the per-channel, per-VL queue capacity (>= 1).
	BufferCredits int
	// NumVLs is the number of virtual lanes (>= 1).
	NumVLs int
	// TimeoutRounds drops a packet after it has waited this many rounds at
	// the head of a queue (0 disables timeouts — a strictly lossless
	// network that can deadlock forever).
	TimeoutRounds int
	// VL selects the virtual lane per packet.
	VL VLSelector
}

// DefaultConfig returns a small lossless configuration without timeouts.
func DefaultConfig() Config { return Config{BufferCredits: 2, NumVLs: 1} }

type packet struct {
	src  topology.NodeID
	dst  ib.LID
	vl   uint8
	age  int // rounds spent waiting at the head of the current queue
	born int // round the packet was injected
}

// channel is one (node, egress port, VL) output queue.
type channel struct {
	from topology.NodeID
	port ib.PortNum
	to   topology.NodeID
	q    []packet

	forwarded int // packets that transited this channel
	maxQueue  int // high-water mark of the queue
}

// Simulator holds the fabric state.
type Simulator struct {
	topo   *topology.Topology
	routes cdg.Routes
	cfg    Config

	chans  []*channel
	chanIx map[chanKey]int

	pending  []packet // injected but not yet entered the first channel
	round    int
	inflight int

	// Stats
	Delivered int
	Dropped   int
	Stalled   int // rounds with traffic but zero progress

	latencySum int
	latencyMax int
}

type chanKey struct {
	node topology.NodeID
	port ib.PortNum
	vl   uint8
}

// New builds a simulator over the topology and routing state, typically
// the subnet manager's Programmed(). The simulator reads routes on every
// hop, so live changes (a reconfiguration between Steps) take effect
// immediately — exactly the Rold/Rnew mix of a transition.
func New(topo *topology.Topology, routes cdg.Routes, cfg Config) (*Simulator, error) {
	if cfg.BufferCredits < 1 {
		return nil, fmt.Errorf("fabric: BufferCredits must be >= 1")
	}
	if cfg.NumVLs < 1 {
		return nil, fmt.Errorf("fabric: NumVLs must be >= 1")
	}
	s := &Simulator{topo: topo, routes: routes, cfg: cfg, chanIx: map[chanKey]int{}}
	for _, n := range topo.Nodes() {
		for p := 1; p < len(n.Ports); p++ {
			pt := n.Ports[p]
			if pt.Peer == topology.NoNode || !pt.Up {
				continue
			}
			for vl := 0; vl < cfg.NumVLs; vl++ {
				s.chanIx[chanKey{n.ID, ib.PortNum(p), uint8(vl)}] = len(s.chans)
				s.chans = append(s.chans, &channel{from: n.ID, port: ib.PortNum(p), to: pt.Peer})
			}
		}
	}
	return s, nil
}

// InFlight returns the number of packets buffered in the network (including
// pending injections).
func (s *Simulator) InFlight() int { return s.inflight + len(s.pending) }

// Round returns the current round number.
func (s *Simulator) Round() int { return s.round }

// Inject queues count packets from the CA src toward destination LID dst.
func (s *Simulator) Inject(src topology.NodeID, dst ib.LID, count int) error {
	n := s.topo.Node(src)
	if n == nil || n.IsSwitch() {
		return fmt.Errorf("fabric: injection source must be a CA")
	}
	vl := uint8(0)
	if s.cfg.VL != nil {
		vl = s.cfg.VL(src, dst)
		if int(vl) >= s.cfg.NumVLs {
			return fmt.Errorf("fabric: VL %d out of range (%d VLs)", vl, s.cfg.NumVLs)
		}
	}
	for i := 0; i < count; i++ {
		s.pending = append(s.pending, packet{src: src, dst: dst, vl: vl, born: s.round})
	}
	return nil
}

// nextChannel returns the output channel a packet at node at enters next,
// or -1 for delivery and -2 for a drop. A packet still pending at its source
// CA leaves by cdg.Inject; at every other node cdg.Forward decides, so a CA
// that receives a packet for a LID it does not own drops it.
func (s *Simulator) nextChannel(at topology.NodeID, p packet, pending bool) int {
	step := cdg.Forward
	if pending {
		step = cdg.Inject
	}
	out, _, f := step(s.routes, s.topo.Node(at), p.dst, s.routes.NodeOf(p.dst))
	switch f {
	case cdg.Delivered:
		return -1
	case cdg.Forwarded:
		if ix, ok := s.chanIx[chanKey{at, out, p.vl}]; ok {
			return ix
		}
	}
	return -2
}

// StepResult reports one round's progress.
type StepResult struct {
	Moved     int // packets advanced one hop (or injected)
	Delivered int
	Dropped   int
}

// Step advances the simulation one round: every channel may forward its
// head packet if the downstream queue has a free credit (based on the
// occupancy at the start of the round, so a full cycle stays stalled), and
// pending injections enter their first channel under the same rule. With
// timeouts enabled, a head packet that has waited too long is dropped,
// freeing its credit — the IB recovery the paper's implementation relies
// on.
func (s *Simulator) Step() StepResult {
	var res StepResult
	occ := make([]int, len(s.chans))
	for i, c := range s.chans {
		occ[i] = len(c.q)
	}
	// Reserve credits as moves claim them so a single free slot admits
	// only one packet per round.
	free := make([]int, len(s.chans))
	for i := range free {
		free[i] = s.cfg.BufferCredits - occ[i]
	}

	// Forward head packets.
	for _, c := range s.chans {
		if len(c.q) == 0 {
			continue
		}
		head := &c.q[0]
		nx := s.nextChannel(c.to, *head, false)
		switch {
		case nx == -1:
			s.recordLatency(c.q[0])
			c.q = c.q[1:]
			s.inflight--
			s.Delivered++
			res.Delivered++
			res.Moved++
		case nx == -2:
			c.q = c.q[1:]
			s.inflight--
			s.Dropped++
			res.Dropped++
		case free[nx] > 0:
			free[nx]--
			pk := c.q[0]
			pk.age = 0
			c.q = c.q[1:]
			dst := s.chans[nx]
			dst.q = append(dst.q, pk)
			dst.forwarded++
			if len(dst.q) > dst.maxQueue {
				dst.maxQueue = len(dst.q)
			}
			res.Moved++
		default:
			head.age++
			if s.cfg.TimeoutRounds > 0 && head.age >= s.cfg.TimeoutRounds {
				c.q = c.q[1:]
				s.inflight--
				s.Dropped++
				res.Dropped++
			}
		}
	}

	// Injections.
	kept := s.pending[:0]
	for _, pk := range s.pending {
		nx := s.nextChannel(pk.src, pk, true)
		switch {
		case nx == -1:
			s.recordLatency(pk) // self-delivery
			s.Delivered++
			res.Delivered++
			res.Moved++
		case nx == -2:
			s.Dropped++
			res.Dropped++
		case free[nx] > 0:
			free[nx]--
			dst := s.chans[nx]
			dst.q = append(dst.q, pk)
			dst.forwarded++
			if len(dst.q) > dst.maxQueue {
				dst.maxQueue = len(dst.q)
			}
			s.inflight++
			res.Moved++
		default:
			kept = append(kept, pk)
		}
	}
	s.pending = kept

	s.round++
	if res.Moved == 0 && res.Dropped == 0 && s.InFlight() > 0 {
		s.Stalled++
	}
	return res
}

// RunResult summarises a bounded run.
type RunResult struct {
	Rounds    int
	Delivered int
	Dropped   int
	Stalled   int
	// Deadlocked is true when the run ended with traffic in flight and no
	// possible progress (a genuine routing deadlock under disabled
	// timeouts).
	Deadlocked bool
}

// Run steps until the network drains or maxRounds elapse.
func (s *Simulator) Run(maxRounds int) RunResult {
	startDelivered, startDropped, startStalled := s.Delivered, s.Dropped, s.Stalled
	r := 0
	for ; r < maxRounds && s.InFlight() > 0; r++ {
		s.Step()
	}
	return RunResult{
		Rounds:     r,
		Delivered:  s.Delivered - startDelivered,
		Dropped:    s.Dropped - startDropped,
		Stalled:    s.Stalled - startStalled,
		Deadlocked: s.InFlight() > 0 && s.isDeadlocked(),
	}
}

func (s *Simulator) recordLatency(pk packet) {
	lat := s.round - pk.born
	s.latencySum += lat
	if lat > s.latencyMax {
		s.latencyMax = lat
	}
}

// AvgLatency returns the mean delivery latency in rounds (0 when nothing
// has been delivered yet).
func (s *Simulator) AvgLatency() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return float64(s.latencySum) / float64(s.Delivered)
}

// MaxLatency returns the largest delivery latency observed, in rounds.
func (s *Simulator) MaxLatency() int { return s.latencyMax }

// ChannelStats describes one directed channel's traffic history.
type ChannelStats struct {
	From      topology.NodeID
	Port      ib.PortNum
	Forwarded int
	MaxQueue  int
}

// HottestChannels returns the n channels with the most forwarded packets,
// descending — the congestion view used to spot hotspots after (for
// example) a consolidation burst.
func (s *Simulator) HottestChannels(n int) []ChannelStats {
	out := make([]ChannelStats, 0, len(s.chans))
	for _, c := range s.chans {
		if c.forwarded == 0 {
			continue
		}
		out = append(out, ChannelStats{From: c.from, Port: c.port, Forwarded: c.forwarded, MaxQueue: c.maxQueue})
	}
	// partial selection sort: n is small
	if n > len(out) {
		n = len(out)
	}
	for i := 0; i < n; i++ {
		best := i
		for j := i + 1; j < len(out); j++ {
			if out[j].Forwarded > out[best].Forwarded {
				best = j
			}
		}
		out[i], out[best] = out[best], out[i]
	}
	return out[:n]
}

// isDeadlocked reports whether no in-flight packet can ever advance:
// every head packet's next queue is full, transitively, with no timeouts
// to break the wait.
func (s *Simulator) isDeadlocked() bool {
	if s.cfg.TimeoutRounds > 0 {
		return false // timeouts always eventually free credits
	}
	for _, c := range s.chans {
		if len(c.q) == 0 {
			continue
		}
		nx := s.nextChannel(c.to, c.q[0], false)
		if nx < 0 {
			return false // deliverable or droppable head
		}
		if len(s.chans[nx].q) < s.cfg.BufferCredits {
			return false
		}
	}
	// Pending injections alone do not constitute deadlock if channels are
	// drained; require at least one blocked in-network packet.
	return s.inflight > 0
}
