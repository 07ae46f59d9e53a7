package fabric

import (
	"testing"

	"ibvsim/internal/ib"
	"ibvsim/internal/routing"
	"ibvsim/internal/sm"
	"ibvsim/internal/topology"
)

// ringRoutes routes everything clockwise (port 1), delivering locally —
// the canonical deadlocking routing function.
type ringRoutes struct {
	topo  *topology.Topology
	owner map[ib.LID]topology.NodeID
}

func (r *ringRoutes) NodeOf(l ib.LID) topology.NodeID {
	if n, ok := r.owner[l]; ok {
		return n
	}
	return topology.NoNode
}

// LFT builds sw's table from the owners as they are now, so a test that
// moves an owner changes the routing.
func (r *ringRoutes) LFT(sw topology.NodeID) *ib.LFT {
	lft := ib.NewLFT(0)
	for l, dst := range r.owner {
		p := r.topo.PortToward(sw, dst)
		if p == 0 {
			p = 1 // clockwise
		}
		lft.Set(l, p)
	}
	return lft
}

func ringSetup(t *testing.T) (*topology.Topology, *ringRoutes, []topology.NodeID, []ib.LID) {
	t.Helper()
	topo, err := topology.BuildRing(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	rr := &ringRoutes{topo: topo, owner: map[ib.LID]topology.NodeID{}}
	cas := make([]topology.NodeID, 4)
	lids := make([]ib.LID, 4)
	for i, sw := range topo.Switches() {
		for _, c := range topo.CAs() {
			if topo.LeafSwitchOf(c) == sw {
				cas[i] = c
				lids[i] = ib.LID(i + 1)
				rr.owner[lids[i]] = c
			}
		}
	}
	return topo, rr, cas, lids
}

func TestConfigValidation(t *testing.T) {
	topo, rr, _, _ := ringSetup(t)
	if _, err := New(topo, rr, Config{BufferCredits: 0, NumVLs: 1}); err == nil {
		t.Error("zero credits should fail")
	}
	if _, err := New(topo, rr, Config{BufferCredits: 1, NumVLs: 0}); err == nil {
		t.Error("zero VLs should fail")
	}
}

func TestDeliveryOnRing(t *testing.T) {
	topo, rr, cas, lids := ringSetup(t)
	sim, err := New(topo, rr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// One flow: no contention, everything delivers.
	if err := sim.Inject(cas[0], lids[2], 5); err != nil {
		t.Fatal(err)
	}
	res := sim.Run(100)
	if res.Delivered != 5 || res.Dropped != 0 || res.Deadlocked {
		t.Errorf("run = %+v", res)
	}
	if sim.InFlight() != 0 {
		t.Errorf("in flight = %d", sim.InFlight())
	}
	// Self-delivery counts immediately.
	if err := sim.Inject(cas[1], lids[1], 1); err != nil {
		t.Fatal(err)
	}
	res = sim.Run(10)
	if res.Delivered != 1 {
		t.Errorf("self delivery = %+v", res)
	}
}

// patched is a Routes with one entry of one switch's table overridden.
type patched struct {
	*ringRoutes
	sw   topology.NodeID
	lid  ib.LID
	port ib.PortNum
}

func (p patched) LFT(sw topology.NodeID) *ib.LFT {
	lft := p.ringRoutes.LFT(sw)
	if sw == p.sw {
		lft.Set(p.lid, p.port)
	}
	return lft
}

// TestWrongCADrops: a packet a switch delivers to a CA that does not own
// its DLID is dropped at that CA. The simulator used to re-inject it, so it
// ping-ponged between the CA and its leaf forever: never delivered, never
// dropped, never reported as a deadlock.
func TestWrongCADrops(t *testing.T) {
	topo, rr, cas, lids := ringSetup(t)
	sw0 := topo.LeafSwitchOf(cas[0])
	r := patched{ringRoutes: rr, sw: sw0, lid: lids[2], port: topo.PortToward(sw0, cas[0])}
	sim, err := New(topo, r, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Inject(cas[3], lids[2], 1); err != nil {
		t.Fatal(err)
	}
	res := sim.Run(200)
	if res.Delivered != 0 || res.Dropped != 1 || sim.InFlight() != 0 || res.Deadlocked {
		t.Errorf("run = %+v, in flight %d; want the packet dropped at cas[0]", res, sim.InFlight())
	}
}

func TestInjectValidation(t *testing.T) {
	topo, rr, _, lids := ringSetup(t)
	sim, _ := New(topo, rr, DefaultConfig())
	if err := sim.Inject(topo.Switches()[0], lids[0], 1); err == nil {
		t.Error("injection at a switch should fail")
	}
	cfg := DefaultConfig()
	cfg.VL = func(topology.NodeID, ib.LID) uint8 { return 5 }
	sim2, _ := New(topo, rr, cfg)
	if err := sim2.Inject(topo.CAs()[0], lids[0], 1); err == nil {
		t.Error("out-of-range VL should fail")
	}
}

func TestUnroutableDrops(t *testing.T) {
	topo, rr, cas, _ := ringSetup(t)
	sim, _ := New(topo, rr, DefaultConfig())
	if err := sim.Inject(cas[0], 99, 3); err != nil {
		t.Fatal(err)
	}
	res := sim.Run(50)
	if res.Dropped != 3 || res.Delivered != 0 {
		t.Errorf("unroutable: %+v", res)
	}
}

func TestRingDeadlocksWithoutTimeouts(t *testing.T) {
	// Section VI-C premise: cyclic channel dependencies stall a lossless
	// network forever. Every CA sends to the CA two hops clockwise; the
	// four inter-switch channels fill and form a waiting cycle.
	topo, rr, cas, lids := ringSetup(t)
	sim, err := New(topo, rr, Config{BufferCredits: 1, NumVLs: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cas {
		if err := sim.Inject(cas[i], lids[(i+2)%4], 8); err != nil {
			t.Fatal(err)
		}
	}
	res := sim.Run(500)
	if !res.Deadlocked {
		t.Fatalf("expected deadlock, got %+v", res)
	}
	if sim.InFlight() == 0 {
		t.Error("deadlock should leave packets in flight")
	}
	if res.Stalled == 0 {
		t.Error("deadlock rounds should be counted as stalled")
	}
}

func TestTimeoutsRecoverFromDeadlock(t *testing.T) {
	// "deadlocks ... will be resolved by IB timeouts, the mechanism which
	// is available in IBA" — the same scenario drains once packets time
	// out.
	topo, rr, cas, lids := ringSetup(t)
	sim, err := New(topo, rr, Config{BufferCredits: 1, NumVLs: 1, TimeoutRounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Symmetric flows deadlock and shed load through timeouts; flow 0
	// carries extra packets so its tail drains alone once the other flows
	// exhaust, proving delivery resumes after recovery.
	for i := range cas {
		count := 8
		if i == 0 {
			count = 20
		}
		if err := sim.Inject(cas[i], lids[(i+2)%4], count); err != nil {
			t.Fatal(err)
		}
	}
	res := sim.Run(5000)
	if res.Deadlocked {
		t.Fatal("timeouts must break the deadlock")
	}
	if sim.InFlight() != 0 {
		t.Fatalf("network did not drain: %d in flight", sim.InFlight())
	}
	if res.Dropped == 0 {
		t.Error("recovery must have dropped packets")
	}
	if res.Delivered == 0 {
		t.Error("some packets should still deliver")
	}
}

func TestVirtualLanesAvoidDeadlock(t *testing.T) {
	// DFSSSP/LASH escape: split the two "halves" of the clockwise traffic
	// across two VLs so neither lane's dependency graph is cyclic.
	topo, rr, cas, lids := ringSetup(t)
	cfg := Config{
		BufferCredits: 1,
		NumVLs:        2,
		VL: func(src topology.NodeID, dst ib.LID) uint8 {
			// Flows crossing the s3 -> s0 wraparound link go on VL 1.
			if dst <= 2 {
				return 1
			}
			return 0
		},
	}
	sim, err := New(topo, rr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cas {
		if err := sim.Inject(cas[i], lids[(i+2)%4], 8); err != nil {
			t.Fatal(err)
		}
	}
	res := sim.Run(2000)
	if res.Deadlocked {
		t.Fatal("VL split should avoid deadlock")
	}
	if sim.InFlight() != 0 || res.Delivered != 32 {
		t.Fatalf("expected full delivery, got %+v (in flight %d)", res, sim.InFlight())
	}
}

func TestFatTreeUnderSMRoutesDrains(t *testing.T) {
	// End-to-end: a real SM bootstrap on a fat-tree, all-to-all traffic,
	// lossless, no timeouts — must drain with zero drops and no deadlock.
	topo, err := topology.BuildXGFT(topology.XGFTSpec{M: []int{4, 4}, W: []int{1, 4}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := sm.New(topo, topo.CAs()[0], routing.NewMinHop())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := mgr.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	sim, err := New(topo, mgr.Programmed(), Config{BufferCredits: 2, NumVLs: 1})
	if err != nil {
		t.Fatal(err)
	}
	cas := topo.CAs()
	total := 0
	for i, src := range cas {
		dst := mgr.LIDOf(cas[(i+7)%len(cas)])
		if src == mgr.NodeOfLID(dst) {
			continue
		}
		if err := sim.Inject(src, dst, 4); err != nil {
			t.Fatal(err)
		}
		total += 4
	}
	res := sim.Run(10000)
	if res.Deadlocked || res.Dropped != 0 || res.Delivered != total {
		t.Fatalf("fat-tree run = %+v (want %d delivered)", res, total)
	}
}

func TestLatencyAndChannelStats(t *testing.T) {
	topo, rr, cas, lids := ringSetup(t)
	sim, err := New(topo, rr, Config{BufferCredits: 2, NumVLs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sim.AvgLatency() != 0 || sim.MaxLatency() != 0 {
		t.Error("fresh simulator should have zero latency stats")
	}
	// Single flow over 2 switch hops: latency = 4 rounds for the first
	// packet (inject + 3 forwards), growing slightly with queueing.
	if err := sim.Inject(cas[0], lids[2], 6); err != nil {
		t.Fatal(err)
	}
	res := sim.Run(200)
	if res.Delivered != 6 {
		t.Fatalf("delivered %d", res.Delivered)
	}
	if sim.AvgLatency() < 3 {
		t.Errorf("avg latency %.1f implausibly low", sim.AvgLatency())
	}
	if sim.MaxLatency() < int(sim.AvgLatency()) {
		t.Error("max < avg")
	}
	hot := sim.HottestChannels(3)
	if len(hot) == 0 {
		t.Fatal("no hot channels recorded")
	}
	if hot[0].Forwarded < hot[len(hot)-1].Forwarded {
		t.Error("hot channels not sorted descending")
	}
	// The clockwise trunk channels carried all 6 packets.
	if hot[0].Forwarded != 6 {
		t.Errorf("hottest channel forwarded %d, want 6", hot[0].Forwarded)
	}
	if hot[0].MaxQueue < 1 || hot[0].MaxQueue > 2 {
		t.Errorf("hottest MaxQueue = %d, want within credits", hot[0].MaxQueue)
	}
	// Asking for more than exist clamps.
	if got := sim.HottestChannels(1000); len(got) == 0 {
		t.Error("clamped request returned nothing")
	}
}

func TestCongestionRaisesLatency(t *testing.T) {
	topo, rr, cas, lids := ringSetup(t)
	quiet, _ := New(topo, rr, Config{BufferCredits: 2, NumVLs: 1})
	quiet.Inject(cas[0], lids[1], 2)
	quiet.Run(100)

	busy, _ := New(topo, rr, Config{BufferCredits: 2, NumVLs: 1, TimeoutRounds: 100})
	// Everyone hammers the same destination: the shared access channel
	// serialises deliveries.
	for i := 0; i < 4; i++ {
		busy.Inject(cas[i], lids[1], 8)
	}
	busy.Run(2000)
	if busy.AvgLatency() <= quiet.AvgLatency() {
		t.Errorf("congested latency %.1f should exceed quiet %.1f",
			busy.AvgLatency(), quiet.AvgLatency())
	}
}

func TestLiveReconfigurationMidFlight(t *testing.T) {
	// The routes view is consulted per hop, so rewriting it mid-run models
	// the Rold/Rnew transition. Move LID 3's owner mid-flight and verify
	// all traffic still drains (the fat path stays acyclic here).
	topo, rr, cas, lids := ringSetup(t)
	sim, err := New(topo, rr, Config{BufferCredits: 2, NumVLs: 1, TimeoutRounds: 50})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Inject(cas[0], lids[2], 20); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		sim.Step()
	}
	// Migrate LID 3 from cas[2] to cas[1] (intra-analysis rebind).
	rr.owner[lids[2]] = cas[1]
	res := sim.Run(5000)
	if sim.InFlight() != 0 {
		t.Fatalf("network did not drain after live rebind: %+v", res)
	}
	if res.Delivered+res.Dropped == 0 {
		t.Error("expected progress after rebind")
	}
}
