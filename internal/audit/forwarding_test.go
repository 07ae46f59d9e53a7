package audit

import (
	"errors"
	"math/rand"
	"testing"

	"ibvsim/internal/cdg"
	"ibvsim/internal/fabric"
	"ibvsim/internal/ib"
	"ibvsim/internal/smp"
	"ibvsim/internal/topology"
)

// forwardingAgrees asks four walkers for the fate of a packet for every
// (entry switch, active LID) of v and fails unless they agree: cdg.Trace,
// the auditor's memoised walk, the LID-routed SMP walk and the fabric
// simulator. The simulator only tells delivered, dropped and still
// circling apart, and only CAs inject, so it answers for an entry switch
// through one of its CAs that does not own the LID (a switch without one
// is left to the other three).
func forwardingAgrees(tb testing.TB, v *View) {
	tb.Helper()
	s := &scratch{}
	s.begin(v.Topo.NumNodes())
	defer s.end()
	s.entrySwitches(v)
	tr := smp.NewTransport(v.Topo)
	for i, dlid := range v.ActiveLIDs {
		dst := s.dsts[i]
		if dst == topology.NoNode {
			continue
		}
		s.dest = s.nextStamp(s.dest)
		for _, entry := range s.entries {
			want := cdg.Trace(v.Topo, v, entry, dlid, nil)
			if o := s.classify(v, dlid, dst, entry); o.fate != want.Fate {
				tb.Fatalf("from switch %d: Trace: %v; the auditor: %s", entry, want, o.msg(v.Topo))
			}
			got := cdg.Delivered
			if _, err := tr.SendLIDRouted(entry, &smp.SMP{DLID: dlid}, v); err != nil {
				var end cdg.End
				if !errors.As(err, &end) {
					tb.Fatalf("from switch %d: SMP walk failed without a fate: %v", entry, err)
				}
				got = end.Fate
			}
			if got != want.Fate {
				tb.Fatalf("from switch %d: Trace: %v; the SMP walk: fate %d", entry, want, got)
			}
			if ca := injectorAt(v, entry, dlid, dst); ca != topology.NoNode {
				if got, want := simulate(tb, v, ca, dlid), simClass(want.Fate); got != want {
					tb.Fatalf("LID %d from CA %d at switch %d: Trace says %s, the simulator %s", dlid, ca, entry, want, got)
				}
			}
		}
	}
}

// injectorAt returns a CA whose traffic for dlid enters the fabric at
// switch sw and that does not own it (dst does), or NoNode.
func injectorAt(v *View, sw topology.NodeID, dlid ib.LID, dst topology.NodeID) topology.NodeID {
	for _, p := range v.Topo.Node(sw).Ports {
		if ca := v.Topo.Node(p.Peer); p.Peer != topology.NoNode && p.Peer != dst && !ca.IsSwitch() {
			if _, next, f := cdg.Inject(v, ca, dlid, dst); f == cdg.Forwarded && next == sw {
				return ca.ID
			}
		}
	}
	return topology.NoNode
}

// simulate injects one packet from ca toward dlid and runs the simulator
// for twice the hop limit: long enough to deliver or drop anything that
// does not circle.
func simulate(tb testing.TB, v *View, ca topology.NodeID, dlid ib.LID) string {
	sim, err := fabric.New(v.Topo, v, fabric.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	if err := sim.Inject(ca, dlid, 1); err != nil {
		tb.Fatal(err)
	}
	res := sim.Run(2 * cdg.MaxHops)
	switch {
	case res.Delivered == 1:
		return "delivered"
	case res.Dropped == 1:
		return "dropped"
	}
	return "circling"
}

// simClass is what the simulator can see of a fate.
func simClass(f cdg.Fate) string {
	switch f {
	case cdg.Delivered:
		return "delivered"
	case cdg.Loop:
		return "circling"
	}
	return "dropped"
}

// FuzzForwardingAgrees is the cross-walker differential: the fuzzer piles
// the audit's corruptions onto one of its test fabrics, and forwardingAgrees
// holds every walker to one fate per (entry switch, active LID). The seeds
// apply each corruption alone, then a few together.
func FuzzForwardingAgrees(f *testing.F) {
	for i := range corruptions {
		f.Add(int64(i), byte(i), []byte{byte(i)})
	}
	f.Add(int64(7), byte(1), []byte{4, 5, 6, 4})
	f.Add(int64(42), byte(0), []byte{8, 7, 0, 6, 2, 3})
	f.Fuzz(func(t *testing.T, seed int64, which byte, picks []byte) {
		r := testFabrics(t)[forwardingFabrics[int(which)%len(forwardingFabrics)]]
		rng := rand.New(rand.NewSource(seed))
		v := r.fullView()
		var undos []func()
		for _, p := range picks[:min(len(picks), 12)] {
			if undo := corruptions[int(p)%len(corruptions)].apply(r, v, rng); undo != nil {
				undos = append(undos, undo)
			}
		}
		forwardingAgrees(t, v)
		for _, undo := range undos {
			undo()
		}
	})
}

// forwardingFabrics are the test fabrics FuzzForwardingAgrees corrupts.
var forwardingFabrics = []string{"xgft-2x4-fuz", "xgft3-level"}
