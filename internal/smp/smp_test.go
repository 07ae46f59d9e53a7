package smp

import (
	"errors"
	"strings"
	"testing"
	"time"

	"ibvsim/internal/cdg"
	"ibvsim/internal/ib"
	"ibvsim/internal/topology"
)

// lineTopo builds ca0 - s0 - s1 - ca1 and returns (topo, ca0, s0, s1, ca1).
func lineTopo(t *testing.T) (*topology.Topology, topology.NodeID, topology.NodeID, topology.NodeID, topology.NodeID) {
	t.Helper()
	topo := topology.New("line")
	s0 := topo.AddSwitch(4, "s0")
	s1 := topo.AddSwitch(4, "s1")
	ca0 := topo.AddCA("ca0")
	ca1 := topo.AddCA("ca1")
	if err := topo.Connect(s0, 1, s1, 1); err != nil {
		t.Fatal(err)
	}
	if err := topo.Connect(ca0, 1, s0, 2); err != nil {
		t.Fatal(err)
	}
	if err := topo.Connect(ca1, 1, s1, 2); err != nil {
		t.Fatal(err)
	}
	return topo, ca0, s0, s1, ca1
}

func TestSendDirected(t *testing.T) {
	topo, ca0, _, s1, ca1 := lineTopo(t)
	tr := NewTransport(topo)
	p := &SMP{Attr: AttrNodeInfo, Path: []ib.PortNum{1, 1}}
	got, err := tr.SendDirected(ca0, p)
	if err != nil {
		t.Fatal(err)
	}
	if got != s1 {
		t.Errorf("directed SMP landed on %d, want %d", got, s1)
	}
	if p.Hops != 2 {
		t.Errorf("Hops = %d, want 2", p.Hops)
	}
	// Empty path addresses the source.
	p2 := &SMP{Attr: AttrNodeInfo}
	got, err = tr.SendDirected(ca1, p2)
	if err != nil || got != ca1 {
		t.Errorf("empty path: got %d, %v", got, err)
	}
	if tr.Counters.Sent != 2 || tr.Counters.ByMode[DirectedRoute] != 2 {
		t.Errorf("counters: %+v", tr.Counters)
	}
}

func TestSendDirectedErrors(t *testing.T) {
	topo, ca0, s0, _, _ := lineTopo(t)
	tr := NewTransport(topo)
	if _, err := tr.SendDirected(ca0, &SMP{Path: []ib.PortNum{9}}); err == nil {
		t.Error("bad port should fail")
	}
	if _, err := tr.SendDirected(topology.NodeID(99), &SMP{Path: []ib.PortNum{1}}); err == nil {
		t.Error("bad source should fail")
	}
	if _, err := tr.SendDirected(ca0, &SMP{Path: []ib.PortNum{1, 3}}); err == nil {
		t.Error("unconnected port should fail")
	}
	if err := topo.SetLinkState(s0, 1, false); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.SendDirected(ca0, &SMP{Path: []ib.PortNum{1, 1}}); err == nil {
		t.Error("down link should fail")
	}
}

// staticResolver implements cdg.Routes from maps.
type staticResolver struct {
	lids   map[topology.NodeID]ib.LID
	routes map[topology.NodeID]map[ib.LID]ib.PortNum
}

func (r *staticResolver) NodeOf(l ib.LID) topology.NodeID {
	for n, lid := range r.lids {
		if lid == l {
			return n
		}
	}
	return topology.NoNode
}

func (r *staticResolver) LFT(sw topology.NodeID) *ib.LFT {
	m := r.routes[sw]
	if m == nil {
		return nil
	}
	lft := ib.NewLFT(0)
	for l, p := range m {
		lft.Set(l, p)
	}
	return lft
}

func TestSendLIDRouted(t *testing.T) {
	topo, ca0, s0, s1, ca1 := lineTopo(t)
	res := &staticResolver{
		lids: map[topology.NodeID]ib.LID{ca0: 1, s0: 2, s1: 3, ca1: 4},
		routes: map[topology.NodeID]map[ib.LID]ib.PortNum{
			s0: {4: 1, 1: 2},
			s1: {4: 2, 1: 1},
		},
	}
	tr := NewTransport(topo)
	p := &SMP{Attr: AttrLinearFwdTbl, DLID: 4, IsSet: true}
	got, err := tr.SendLIDRouted(ca0, p, res)
	if err != nil {
		t.Fatal(err)
	}
	if got != ca1 {
		t.Errorf("landed on %d, want %d", got, ca1)
	}
	if p.Hops != 3 {
		t.Errorf("Hops = %d, want 3 (ca0->s0->s1->ca1)", p.Hops)
	}
	if tr.Counters.Set != 1 || tr.Counters.ByAttr[AttrLinearFwdTbl] != 1 {
		t.Errorf("counters: %+v", tr.Counters)
	}
	// Delivery to self is zero hops.
	p2 := &SMP{DLID: 1}
	if got, err := tr.SendLIDRouted(ca0, p2, res); err != nil || got != ca0 {
		t.Errorf("self delivery: %d, %v", got, err)
	}
	if p2.Hops != 0 {
		t.Errorf("self delivery hops = %d", p2.Hops)
	}
}

func TestSendLIDRoutedDropAndLoop(t *testing.T) {
	topo, ca0, s0, s1, _ := lineTopo(t)
	res := &staticResolver{
		lids: map[topology.NodeID]ib.LID{ca0: 1},
		routes: map[topology.NodeID]map[ib.LID]ib.PortNum{
			s0: {7: 1}, // toward s1
			s1: {7: 1}, // back toward s0: loop
		},
	}
	tr := NewTransport(topo)
	if _, err := tr.SendLIDRouted(ca0, &SMP{DLID: 7}, res); err == nil ||
		!strings.Contains(err.Error(), "hop limit") {
		t.Errorf("loop should hit hop limit, got %v", err)
	}
	// Unknown LID drops at s0.
	if _, err := tr.SendLIDRouted(ca0, &SMP{DLID: 9}, res); err == nil ||
		!strings.Contains(err.Error(), "drops") {
		t.Errorf("unroutable LID should drop, got %v", err)
	}
}

// TestSendLIDRoutedMisdelivery: an SMP a switch hands to a CA that does not
// own its DLID is dropped there. The walk used to let that CA send it back
// out as if it were its own, so s0 and ca0 ping-ponged it until the hop
// limit and the report blamed a forwarding loop.
func TestSendLIDRoutedMisdelivery(t *testing.T) {
	topo, ca0, s0, _, ca1 := lineTopo(t)
	res := &staticResolver{
		lids:   map[topology.NodeID]ib.LID{ca0: 1, ca1: 7},
		routes: map[topology.NodeID]map[ib.LID]ib.PortNum{s0: {7: 2}}, // back to ca0
	}
	_, err := NewTransport(topo).SendLIDRouted(ca0, &SMP{DLID: 7}, res)
	var end cdg.End
	if !errors.As(err, &end) || end.Fate != cdg.WrongCA || end.At != ca0 || end.Hops != 2 {
		t.Fatalf("got %v (%+v), want LID 7 misdelivered to ca0 after 2 hops", err, end)
	}
	if strings.Contains(err.Error(), "hop limit") {
		t.Errorf("misdelivery reported as a loop: %v", err)
	}
}

func TestCountersReset(t *testing.T) {
	a := NewCounters()
	a.observe(&SMP{Attr: AttrPortInfo, IsSet: true, Hops: 2})
	a.observe(&SMP{Attr: AttrPortInfo, Hops: 3})
	if a.Sent != 2 || a.Set != 1 || a.Get != 1 || a.TotalHops != 5 {
		t.Errorf("after two observations: %+v", a)
	}
	if a.ByAttr[AttrPortInfo] != 2 {
		t.Errorf("ByAttr = %v", a.ByAttr)
	}
	if !strings.Contains(a.String(), "sent=2") {
		t.Errorf("String = %s", a)
	}
	a.Reset()
	if a.Sent != 0 || len(a.ByAttr) != 0 {
		t.Errorf("after Reset: %+v", a)
	}
}

func TestCostModelEquations(t *testing.T) {
	m := CostModel{K: 10 * time.Microsecond, R: 4 * time.Microsecond, PipelineDepth: 1}
	if got := m.SMPTime(DirectedRoute); got != 14*time.Microsecond {
		t.Errorf("directed SMPTime = %v", got)
	}
	if got := m.SMPTime(DestinationRouted); got != 10*time.Microsecond {
		t.Errorf("lid-routed SMPTime = %v", got)
	}
	// eq. 2: LFTDt = n*m*(k+r); n*m = 216 SMPs for the 324-node fabric.
	if got := m.DistributionTime(216, DirectedRoute); got != 216*14*time.Microsecond {
		t.Errorf("DistributionTime = %v", got)
	}
	if got := m.DistributionTime(0, DirectedRoute); got != 0 {
		t.Errorf("zero SMPs should cost 0, got %v", got)
	}
}

func TestCostModelPipelining(t *testing.T) {
	m := CostModel{K: 10 * time.Microsecond, PipelineDepth: 4}
	// 10 SMPs at depth 4 -> 3 rounds.
	if got := m.DistributionTime(10, DestinationRouted); got != 30*time.Microsecond {
		t.Errorf("pipelined DistributionTime = %v", got)
	}
	m.PipelineDepth = 0 // treated as 1
	if got := m.DistributionTime(2, DestinationRouted); got != 20*time.Microsecond {
		t.Errorf("depth-0 DistributionTime = %v", got)
	}
}

func TestStringers(t *testing.T) {
	if AttrLinearFwdTbl.String() != "LinearForwardingTable" {
		t.Error("Attr stringer")
	}
	if Attr(0x9999).String() != "Attr(0x9999)" {
		t.Error("unknown Attr stringer")
	}
	if DirectedRoute.String() != "directed" || DestinationRouted.String() != "lid-routed" {
		t.Error("Mode stringer")
	}
	for _, a := range []Attr{AttrNodeInfo, AttrNodeDesc, AttrPortInfo, AttrSwitchInfo, AttrGUIDInfo, AttrSMInfo} {
		if strings.HasPrefix(a.String(), "Attr(") {
			t.Errorf("missing name for %d", a)
		}
	}
}

func TestDefaultCostModel(t *testing.T) {
	m := DefaultCostModel()
	if m.K <= 0 || m.R <= 0 || m.PipelineDepth != 1 {
		t.Errorf("DefaultCostModel = %+v", m)
	}
	if m.SMPTime(DirectedRoute) <= m.SMPTime(DestinationRouted) {
		t.Error("directed SMPs must cost more than destination-routed")
	}
}
