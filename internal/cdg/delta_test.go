package cdg

import (
	"math/rand"
	"slices"
	"testing"

	"ibvsim/internal/ib"
	"ibvsim/internal/topology"
)

// step is what a switch's forwarding step for one LID reads: whether it has
// a table, its entry, and whether the port that entry names is up.
type step struct {
	table bool
	port  ib.PortNum
	up    bool
}

// steps records every (switch, LID) step of e, by switch and then by LID.
func steps(e *editable, lids []ib.LID) map[topology.NodeID][]step {
	out := map[topology.NodeID][]step{}
	for _, sw := range e.topo.Switches() {
		n, lft := e.topo.Node(sw), e.lfts[sw]
		for _, l := range lids {
			s := step{table: lft != nil, port: ib.DropPort}
			if lft != nil {
				s.port = lft.Get(l)
			}
			if s.port > 0 && int(s.port) < len(n.Ports) {
				p := n.Ports[s.port]
				s.up = p.Peer != topology.NoNode && p.Up
			}
			out[sw] = append(out[sw], s)
		}
	}
	return out
}

// TestBaseNamesSwitches holds Base.Update to the step it stands for: after
// each seeded edit — an entry, a link of either kind, a table lost or
// regained, an owner moved — a LID whose owner changed is named whole, and
// any other is named with exactly the switches whose step reads differently.
// The fabric's 48 switches do not divide a 64-bit word, so columns straddle
// words of the pair set.
func TestBaseNamesSwitches(t *testing.T) {
	topo, err := topology.BuildXGFT(topology.XGFTSpec{M: []int{4, 4, 4}, W: []int{1, 4, 4}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(34))
	e := newEditable(topo, rng)
	b := NewBase(NewIndex(topo))
	if err := b.Load(e.routes(), e.dlids); err != nil {
		t.Fatal(err)
	}
	sws, cas := topo.Switches(), topo.CAs()
	defer func() {
		for _, sw := range sws {
			for _, p := range topo.Node(sw).Ports {
				if p.Peer != topology.NoNode && !p.Up {
					topo.SetLinkState(sw, p.Num, true) //nolint:errcheck // connected
				}
			}
		}
	}()
	var buf []topology.NodeID
	for i := 0; i < 300; i++ {
		owner := map[ib.LID]topology.NodeID{}
		for l, n := range e.owner {
			owner[l] = n
		}
		before := steps(e, e.dlids)
		switch i % 5 {
		case 0:
			edit(topo, e.lfts, e.dlids, rng)
		case 1:
			flipLink(topo, rng)
		case 2: // a delivery link
			ca := topo.Node(cas[rng.Intn(len(cas))])
			topo.SetLinkState(ca.ID, ca.Ports[1].Num, !ca.Ports[1].Up) //nolint:errcheck // connected
		case 3:
			sw := sws[rng.Intn(len(sws))]
			if lft, ok := e.gone[sw]; ok {
				e.lfts[sw] = lft
				delete(e.gone, sw)
			} else {
				e.gone[sw], e.lfts[sw] = e.lfts[sw], nil
			}
		case 4:
			l := e.dlids[rng.Intn(len(e.dlids))]
			e.owner[l] = cas[rng.Intn(len(cas))]
		}
		if _, err := b.Update(e.routes(), e.dlids); err != nil {
			t.Fatal(err)
		}
		after := steps(e, e.dlids)
		for k, l := range e.dlids {
			var want []topology.NodeID
			for _, sw := range sws {
				if before[sw][k] != after[sw][k] {
					want = append(want, sw)
				}
			}
			got, whole := b.Switches(buf[:0], l)
			buf = got
			if moved := owner[l] != e.owner[l]; whole != moved {
				t.Fatalf("op %d: LID %d named whole=%v, its owner moved=%v", i, l, whole, moved)
			}
			if whole {
				continue
			}
			if !slices.Equal(got, want) {
				t.Fatalf("op %d: LID %d names switches %v, its step changed at %v", i, l, got, want)
			}
			if b.Changed(l) != (len(want) > 0) {
				t.Fatalf("op %d: LID %d Changed=%v with %d switches", i, l, b.Changed(l), len(want))
			}
		}
	}
}
