package cdg

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ibvsim/internal/ib"
	"ibvsim/internal/topology"
)

// editable is a routed fabric whose tables and owners are replaced, never
// written in place, between steps: what a Maintained may assume of the
// tables it was loaded from.
type editable struct {
	topo  *topology.Topology
	lfts  map[topology.NodeID]*ib.LFT
	owner map[ib.LID]topology.NodeID
	dlids []ib.LID
	gone  map[topology.NodeID]*ib.LFT // tables taken away, to give back
}

func newEditable(t *topology.Topology, rng *rand.Rand) *editable {
	r, dlids := randomRoutes(t, rng, 0)
	e := &editable{topo: t, lfts: map[topology.NodeID]*ib.LFT{}, owner: map[ib.LID]topology.NodeID{},
		dlids: dlids, gone: map[topology.NodeID]*ib.LFT{}}
	for _, sw := range t.Switches() {
		e.lfts[sw] = r.LFT(sw)
	}
	for _, l := range dlids {
		e.owner[l] = r.NodeOf(l)
	}
	return e
}

func (e *editable) routes() Tables {
	return tablesOver(e.lfts, e.owner)
}

func tablesOver(lfts map[topology.NodeID]*ib.LFT, owner map[ib.LID]topology.NodeID) Tables {
	return Tables{
		Table: func(sw topology.NodeID) *ib.LFT { return lfts[sw] },
		Owner: func(l ib.LID) topology.NodeID {
			if n, ok := owner[l]; ok {
				return n
			}
			return topology.NoNode
		},
	}
}

// edit rewrites one random entry of a copy of one switch's table: a real
// port, the management port, DropPort or a port the switch does not have.
func edit(t *topology.Topology, lfts map[topology.NodeID]*ib.LFT, dlids []ib.LID, rng *rand.Rand) {
	sws := t.Switches()
	sw := sws[rng.Intn(len(sws))]
	if lfts[sw] == nil {
		return
	}
	next := lfts[sw].Clone()
	port := ib.PortNum(rng.Intn(len(t.Node(sw).Ports) + 1))
	if rng.Intn(6) == 0 {
		port = ib.DropPort
	}
	next.Set(dlids[rng.Intn(len(dlids))], port)
	lfts[sw] = next
}

// flipLink takes a random switch-to-switch link down, or brings it back.
func flipLink(t *topology.Topology, rng *rand.Rand) {
	for {
		sws := t.Switches()
		sw := t.Node(sws[rng.Intn(len(sws))])
		p := sw.Ports[1+rng.Intn(len(sw.Ports)-1)]
		if p.Peer != topology.NoNode && t.Node(p.Peer).IsSwitch() {
			t.SetLinkState(sw.ID, p.Num, !p.Up) //nolint:errcheck // the port was just seen connected
			return
		}
	}
}

// multiset reads an Ordered's dependencies with their multiplicities from
// its dense store, and fails unless NumEdges counts them and its order
// agrees with them.
func multiset(t *testing.T, o *Ordered) map[Dep]int32 {
	t.Helper()
	out := map[Dep]int32{}
	stride := int(o.ix.stride)
	for k, m := range o.mult {
		if m == 0 {
			continue
		}
		d := Dep{A: int32(k / stride), B: o.ix.next[k/stride] + int32(k%stride)}
		if m < 0 || o.ix.next[d.A] < 0 {
			t.Fatalf("slot %d holds %d", k, m)
		}
		out[d] = m
		if o.ord[d.A] >= o.ord[d.B] {
			t.Fatalf("%v -> %v goes against the topological order", o.ix.Channel(d.A), o.ix.Channel(d.B))
		}
	}
	if len(out) != o.NumEdges() {
		t.Fatalf("%d distinct dependencies, NumEdges %d", len(out), o.NumEdges())
	}
	return out
}

// sameMultiset fails unless m holds what a graph loaded from r from nothing
// holds, multiplicities included.
func sameMultiset(t *testing.T, what string, m *Maintained, r Tables, dlids []ib.LID) {
	t.Helper()
	fresh := NewMaintained(m.ix)
	if err := fresh.Load(r, dlids); err != nil {
		t.Fatalf("%s: a fresh load fails (%v) where the maintained graph holds", what, err)
	}
	got, want := multiset(t, m.g), multiset(t, fresh.g)
	for d, n := range want {
		if got[d] != n {
			t.Fatalf("%s: %v -> %v held %d times, a fresh load %d", what, m.ix.Channel(d.A), m.ix.Channel(d.B), got[d], n)
		}
	}
	for d, n := range got {
		if want[d] == 0 {
			t.Fatalf("%s: %v -> %v held %d times, not in a fresh load", what, m.ix.Channel(d.A), m.ix.Channel(d.B), n)
		}
	}
}

// runMaintained drives one maintained graph through the edits ops names and
// holds it, after every one, to the cold builders: the same cycle verdict,
// the same multiset as a fresh load, and for a transition the same verdict
// and edge counts as Graph.CheckTransition.
func runMaintained(t *testing.T, seed int64, ops []byte) {
	topo, err := topology.BuildXGFT(topology.XGFTSpec{M: []int{4, 4}, W: []int{1, 4}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	e := newEditable(topo, rng)
	m := NewMaintained(NewIndex(topo))
	held := false
	sync := func(what string) {
		t.Helper()
		var err error
		if held {
			_, err = m.Update(e.routes(), e.dlids)
		} else {
			err = m.Load(e.routes(), e.dlids)
		}
		cold := BuildSwitchCDG(topo, e.routes(), e.dlids)
		if cyclic := cold.HasCycle(); errors.Is(err, ErrCyclic) != cyclic || err != nil && !cyclic {
			t.Fatalf("%s: maintained graph says %v, the cold one cyclic=%v", what, err, cyclic)
		}
		if held = err == nil; held {
			sameMultiset(t, what, m, e.routes(), e.dlids)
		}
	}
	sync("load")
	sws := topo.Switches()
	for step, op := range ops {
		what := fmt.Sprintf("step %d (op %d)", step, op%6)
		switch op % 6 {
		case 0: // entry edits
			for n := 1 + rng.Intn(3); n > 0; n-- {
				edit(topo, e.lfts, e.dlids, rng)
			}
		case 1:
			flipLink(topo, rng)
		case 2: // a destination moves, leaves the set or joins it
			l := e.dlids[rng.Intn(len(e.dlids))]
			switch nodes := topo.Nodes(); rng.Intn(3) {
			case 0:
				delete(e.owner, l)
			default:
				e.owner[l] = nodes[rng.Intn(len(nodes))].ID
			}
		case 3: // a switch loses its table, or gets it back
			sw := sws[rng.Intn(len(sws))]
			if lft, ok := e.gone[sw]; ok {
				e.lfts[sw] = lft
				delete(e.gone, sw)
			} else {
				e.gone[sw] = e.lfts[sw]
				delete(e.lfts, sw)
			}
		case 4, 5: // a transition to a few edits away that never lands
			if !held {
				continue
			}
			next := map[topology.NodeID]*ib.LFT{}
			for sw, lft := range e.lfts {
				next[sw] = lft
			}
			for n := 1 + rng.Intn(4); n > 0; n-- {
				edit(topo, next, e.dlids, rng)
			}
			if rng.Intn(4) == 0 {
				delete(next, sws[rng.Intn(len(sws))])
			}
			nr := tablesOver(next, e.owner)
			oldEdges, unionEdges, _, err := m.Union(nr)
			tr := CheckTransition(topo, e.routes(), nr, e.dlids)
			if errors.Is(err, ErrCyclic) == tr.UnionAcyclic {
				t.Fatalf("%s: union refused=%v, cold union acyclic=%v", what, err != nil, tr.UnionAcyclic)
			}
			if err != nil {
				sameMultiset(t, what+" (refused)", m, e.routes(), e.dlids)
			} else {
				if oldEdges != tr.OldEdges || unionEdges != tr.UnionEdges {
					t.Fatalf("%s: edges old %d union %d, cold %d/%d", what, oldEdges, unionEdges, tr.OldEdges, tr.UnionEdges)
				}
				sameMultiset(t, what+" (kept next)", m, nr, e.dlids)
				if op%6 == 5 {
					writeBack(sws, next, e.lfts)
				}
			}
			what += " (never landed)"
		}
		sync(what)
	}
}

// writeBack writes one entry that a transition edited in a table of next
// back to old's value, in a clone that replaces the table in next: what the
// subnet manager does to a target table after the union checked it. The
// graph kept next's table as it was checked, so the delta back to old must
// still re-walk that entry's pair.
func writeBack(sws []topology.NodeID, next, old map[topology.NodeID]*ib.LFT) {
	for _, sw := range sws {
		lft, was := next[sw], old[sw]
		if lft == nil || was == nil || lft == was {
			continue
		}
		edited := lft.Clone()
		for blk, _, _, ok := lft.NextDiff(was, 0); ok; blk, _, _, ok = lft.NextDiff(was, blk+1) {
			for l := ib.LID(blk * ib.LFTBlockSize); int(l) < (blk+1)*ib.LFTBlockSize; l++ {
				if edited.Set(l, was.Get(l)) {
					next[sw] = edited
					return
				}
			}
		}
	}
}

// FuzzMaintainedCDG lets the fuzzer choose the edits — entries, links,
// owners, whole tables, transitions — a maintained graph must follow.
func FuzzMaintainedCDG(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 0, 4, 1, 4})
	f.Add(int64(2), []byte{1, 1, 4, 1, 4, 1, 0, 0, 4})
	f.Add(int64(3), []byte{2, 2, 4, 2, 0, 2, 4})
	f.Add(int64(4), []byte{3, 4, 3, 0, 4, 3, 3, 4})
	f.Add(int64(5), []byte{0, 0, 0, 0, 4, 0, 0, 0, 0, 4, 0, 0, 0, 4})
	f.Add(int64(7), []byte{5, 0, 5, 1, 5, 0, 5, 3, 5, 0, 5})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		runMaintained(t, seed, ops[:min(len(ops), 48)])
	})
}

// TestMaintainedFollowsEdits runs the fuzz target's body over seeded random
// edit sequences, so every rule is exercised without the fuzzer.
func TestMaintainedFollowsEdits(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 30)
		for i := range ops {
			ops[i] = byte(rng.Intn(6))
		}
		runMaintained(t, seed, ops)
	}
}
