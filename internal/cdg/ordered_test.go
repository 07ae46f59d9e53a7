package cdg

import (
	"fmt"
	"math/rand"
	"testing"

	"ibvsim/internal/topology"
)

// ring links n switches in a cycle, switch i to switch i+1 (mod n), plus the
// given chords, and returns the index with hop(s, d): the channel from switch
// s toward its neighbour d. Every dependency hop(s, v) -> hop(v, d) is
// physical.
func ring(t testing.TB, n int, chords ...[2]int) (*Index, func(s, d int) Channel) {
	t.Helper()
	links := make([][2]int, 0, n+len(chords))
	for i := range n {
		links = append(links, [2]int{i, (i + 1) % n})
	}
	links = append(links, chords...)
	radix := make([]int, n)
	for _, l := range links {
		radix[l[0]]++
		radix[l[1]]++
	}
	topo := topology.New("ring")
	for i := range n {
		topo.AddSwitch(radix[i], fmt.Sprintf("s%d", i))
	}
	for _, l := range links {
		if _, _, err := topo.Link(topology.NodeID(l[0]), topology.NodeID(l[1])); err != nil {
			t.Fatal(err)
		}
	}
	return NewIndex(topo), func(s, d int) Channel {
		return Channel{Node: topology.NodeID(s), Port: topo.PortToward(topology.NodeID(s), topology.NodeID(d))}
	}
}

func TestOrderedBasic(t *testing.T) {
	ix, hop := ring(t, 3)
	o := NewOrdered(ix)
	a, b, c := hop(0, 1), hop(1, 2), hop(2, 0)
	if ins, ok := o.AddDepChecked(a, b); !ins || !ok {
		t.Fatal("first insert should succeed")
	}
	if ins, ok := o.AddDepChecked(a, b); ins || !ok {
		t.Fatal("duplicate insert bumps multiplicity, not structure")
	}
	if ins, ok := o.AddDepChecked(b, c); !ins || !ok {
		t.Fatal("chain insert should succeed")
	}
	// c -> a closes the cycle and must be refused.
	if ins, ok := o.AddDepChecked(c, a); ins || ok {
		t.Fatal("cycle-closing edge must be refused")
	}
	if held := multiset(t, o); o.NumEdges() != 2 || len(held) != 2 {
		t.Errorf("edges %d, slots held %d, want 2/2 (the refused edge must leave no trace)", o.NumEdges(), len(held))
	}
}

func TestOrderedSelfLoop(t *testing.T) {
	ix, hop := ring(t, 3)
	o := NewOrdered(ix)
	a := hop(0, 1)
	if ins, ok := o.AddDepChecked(a, a); ins || ok {
		t.Fatal("self loop must be refused")
	}
}

func TestOrderedRemoveAllowsReinsert(t *testing.T) {
	ix, hop := ring(t, 3)
	o := NewOrdered(ix)
	a, b, c := hop(0, 1), hop(1, 2), hop(2, 0)
	o.AddDepChecked(a, b)
	o.AddDepChecked(b, c)
	// Multiplicity handling: add a->b again, then remove once; edge stays.
	o.AddDepChecked(a, b)
	o.RemoveDepChecked(a, b)
	if _, ok := o.AddDepChecked(c, a); ok {
		t.Fatal("a->b must still exist; c->a should be refused")
	}
	o.RemoveDepChecked(a, b)
	// Now a->b is gone; c->a is fine.
	if ins, ok := o.AddDepChecked(c, a); !ins || !ok {
		t.Fatal("after removal, c->a should insert")
	}
	// Removing dependencies never added, or already removed, is a no-op.
	o.RemoveDepChecked(a, b)
	o.RemoveDepChecked(a, hop(1, 0))
	o.RemoveDepChecked(hop(1, 0), hop(0, 2))
	if o.NumEdges() != 2 {
		t.Errorf("edges %d after no-op removals, want 2", o.NumEdges())
	}
}

func TestOrderedRefusesNonPhysical(t *testing.T) {
	ix, hop := ring(t, 4)
	o := NewOrdered(ix)
	defer func() {
		if recover() == nil {
			t.Fatal("a dependency between channels of unrelated switches must panic")
		}
	}()
	o.AddDepChecked(hop(0, 1), hop(2, 3))
}

func TestOrderedAgainstReference(t *testing.T) {
	// Randomised differential test: Ordered must accept exactly the edges
	// that keep the reference Graph (full DFS per insertion) acyclic. The
	// edges are random two-hop walks over a full mesh, the shape real
	// dependencies have.
	rng := rand.New(rand.NewSource(7))
	const n = 6
	for trial := 0; trial < 20; trial++ {
		ix, hop := fullMesh(t, n)
		o := NewOrdered(ix)
		g := NewGraph(ix)
		for i := 0; i < 150; i++ {
			s, via := rng.Intn(n), rng.Intn(n-1)
			if via >= s {
				via++
			}
			d := rng.Intn(n - 1)
			if d >= via {
				d++
			}
			a, b := hop(s, via), hop(via, d)
			_, ok := o.AddDepChecked(a, b)
			if ok {
				g.AddDep(a, b)
				if g.HasCycle() {
					t.Fatalf("trial %d: Ordered accepted a cycle-closing edge %v->%v", trial, a, b)
				}
			} else {
				// Refused: verify it truly closes a cycle in the reference.
				g.AddDep(a, b)
				if !g.HasCycle() {
					t.Fatalf("trial %d: Ordered refused a safe edge %v->%v", trial, a, b)
				}
				g.RemoveDep(a, b)
			}
		}
	}
}

func TestOrderedLargeChain(t *testing.T) {
	// A long chain round a ring, inserted in reverse order, exercises the
	// reorder path. The chord 1-(n-1) gives the chain a detour.
	const n = 500
	ix, hop := ring(t, n, [2]int{1, n - 1})
	o := NewOrdered(ix)
	c := func(i int) Channel { return hop(i, (i+1)%n) }
	for i := n - 2; i >= 0; i-- {
		if _, ok := o.AddDepChecked(c(i), c(i+1)); !ok {
			t.Fatalf("chain edge %d refused", i)
		}
	}
	if _, ok := o.AddDepChecked(c(n-1), c(0)); ok {
		t.Fatal("closing the long chain must be refused")
	}
	chord := hop(1, n-1)
	if _, ok := o.AddDepChecked(c(0), chord); !ok {
		t.Fatal("forward shortcut should be fine")
	}
	if _, ok := o.AddDepChecked(chord, c(n-1)); !ok {
		t.Fatal("forward shortcut should be fine")
	}
}

// physicalDeps lists every dependency a packet can have on ix's fabric: from
// each switch channel to each connected egress of the switch it leads to.
func physicalDeps(ix *Index) []Dep {
	var deps []Dep
	for a, to := range ix.next {
		if to < 0 {
			continue
		}
		for _, p := range ix.nodes[to/ix.stride].Ports[1:] {
			if p.Peer != topology.NoNode {
				deps = append(deps, Dep{A: int32(a), B: to + int32(p.Num)})
			}
		}
	}
	return deps
}

// FuzzOrdered runs random insert/remove sequences of physical dependencies,
// with multiplicities, on a small XGFT and a ring with a chord, and after
// each op holds the Ordered to a reference multiset: every verdict equals
// Graph.FindCycle on the same set, NumEdges counts its distinct
// dependencies, and the order is topological.
func FuzzOrdered(f *testing.F) {
	xgft, err := topology.BuildXGFT(topology.XGFTSpec{M: []int{4, 4}, W: []int{1, 4}}, 8)
	if err != nil {
		f.Fatal(err)
	}
	ringIx, _ := ring(f, 5, [2]int{0, 2})
	fabrics := []*Index{NewIndex(xgft), ringIx}
	deps := [][]Dep{physicalDeps(fabrics[0]), physicalDeps(fabrics[1])}
	f.Add(uint8(0), []byte{0, 3, 0, 9, 1, 3, 0, 3, 0, 40, 2, 9, 0, 17})
	f.Add(uint8(1), []byte{0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 1, 2, 0, 2})
	f.Add(uint8(1), []byte{0, 7, 0, 7, 1, 7, 0, 11, 0, 13, 0, 19, 1, 7, 0, 23})
	f.Fuzz(func(t *testing.T, which uint8, ops []byte) {
		ix, all := fabrics[which%2], deps[which%2]
		o, g := NewOrdered(ix), NewGraph(ix)
		held := map[Dep]int32{}
		for len(ops) >= 2 {
			op, d := ops[0], all[int(ops[1])%len(all)]
			ops = ops[2:]
			if op%3 == 2 {
				o.remove(d.A, d.B)
				if held[d]--; held[d] <= 0 {
					delete(held, d)
				}
			} else {
				g.Reset()
				for h := range held {
					g.add(h.A, h.B)
				}
				fresh := g.add(d.A, d.B)
				want := g.FindCycle() == nil
				ins, ok := o.insert(d.A, d.B)
				if ok != want || ins != (ok && fresh) {
					t.Fatalf("insert %v -> %v over %d held: (%v, %v), reference acyclic %v, new %v",
						ix.Channel(d.A), ix.Channel(d.B), len(held), ins, ok, want, fresh)
				}
				if ok {
					held[d]++
				}
			}
			if got := multiset(t, o); fmt.Sprint(got) != fmt.Sprint(held) {
				t.Fatalf("Ordered holds %v, want %v", got, held)
			}
		}
	})
}
