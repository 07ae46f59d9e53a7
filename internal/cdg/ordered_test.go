package cdg

import (
	"math/rand"
	"testing"
)

func TestOrderedBasic(t *testing.T) {
	o := NewOrdered(bareIndex(4, 2))
	a, b, c := ch(1, 1), ch(2, 1), ch(3, 1)
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
	if o.out.edges != 2 || o.in.edges != 2 {
		t.Errorf("edges out=%d in=%d, want 2/2 (the refused edge must leave no trace)", o.out.edges, o.in.edges)
	}
}

func TestOrderedSelfLoop(t *testing.T) {
	o := NewOrdered(bareIndex(4, 2))
	a := ch(1, 1)
	if ins, ok := o.AddDepChecked(a, a); ins || ok {
		t.Fatal("self loop must be refused")
	}
}

func TestOrderedRemoveAllowsReinsert(t *testing.T) {
	o := NewOrdered(bareIndex(10, 9))
	a, b, c := ch(1, 1), ch(2, 1), ch(3, 1)
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
	// Removing unknown edges / channels is a no-op.
	o.RemoveDepChecked(ch(9, 9), a)
	o.RemoveDepChecked(a, ch(9, 9))
	o.RemoveDepChecked(b, a)
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
	// A long chain inserted in reverse order exercises the reorder path.
	const n = 500
	o := NewOrdered(bareIndex(n+1, 1))
	for i := n - 1; i > 0; i-- {
		if _, ok := o.AddDepChecked(ch(i, 1), ch(i+1, 1)); !ok {
			t.Fatalf("chain edge %d refused", i)
		}
	}
	if _, ok := o.AddDepChecked(ch(n, 1), ch(1, 1)); ok {
		t.Fatal("closing the long chain must be refused")
	}
	if _, ok := o.AddDepChecked(ch(1, 1), ch(n, 1)); !ok {
		t.Fatal("forward shortcut should be fine")
	}
}
