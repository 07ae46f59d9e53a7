package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"ibvsim/internal/cdg"
	"ibvsim/internal/ib"
	"ibvsim/internal/topology"
)

// waveFabric is the 324-node fat tree with two VF LIDs a host, booted once
// per process: every FuzzPlanWave input plans against it, and none writes it.
var waveFabric struct {
	once sync.Once
	rc   *Reconfigurator
	lids [][]ib.LID
}

func waveRC(t testing.TB) (*Reconfigurator, [][]ib.LID) {
	waveFabric.once.Do(func() {
		topo, err := topology.BuildPaperFatTree(324)
		if err != nil {
			t.Fatal(err)
		}
		waveFabric.rc, waveFabric.lids = refFabric(t, topo, 2)
	})
	if waveFabric.rc == nil {
		t.Fatal("the 324-node fabric did not boot")
	}
	return waveFabric.rc, waveFabric.lids
}

// waveHosts is how many hosts a fuzzed wave draws its LIDs from: few, so
// repeated LIDs, shared blocks and shared destinations are common.
const waveHosts = 12

// waveFromBytes decodes a fuzz payload into a wave. Byte 0 picks the kind
// (bit 0), the scope (bit 1) and whether the wave is planned on an overlay a
// swap ahead of the SM (bit 2). Each further pair of bytes is a member: its
// VM LID, one of the first hosts' VF LIDs, and its peer — a VF LID for a
// swap, a PF LID for a copy. A byte of 0xff names a LID nobody holds.
func waveFromBytes(rc *Reconfigurator, lids [][]ib.LID, data []byte) (PlanKind, Scope, bool, []LIDPair) {
	kind, scope := PlanCopy, ScopeAllSwitches
	if len(data) == 0 {
		return kind, scope, false, nil
	}
	if data[0]&1 != 0 {
		kind = PlanSwap
	}
	if data[0]&2 != 0 {
		scope = ScopeMinimal
	}
	cas := rc.SM.Topo.CAs()
	vf := func(b byte) ib.LID { return lids[1+int(b>>1)%waveHosts][b&1] }
	var pairs []LIDPair
	for i := 1; i+1 < len(data); i += 2 {
		p := LIDPair{VM: vf(data[i]), Peer: vf(data[i+1])}
		if kind == PlanCopy {
			p.Peer = rc.SM.LIDOf(cas[1+int(data[i+1])%waveHosts])
		}
		if data[i] == 0xff {
			p.VM = 4000
		}
		if data[i+1] == 0xff {
			p.Peer = 4000
		}
		pairs = append(pairs, p)
	}
	return kind, scope, data[0]&4 != 0, pairs
}

// editsShared reports whether two members edit one LID: their VM LIDs, and
// under an all-switches swap their peer LIDs too.
func editsShared(kind PlanKind, scope Scope, pairs []LIDPair) bool {
	seen := map[ib.LID]bool{}
	for _, p := range pairs {
		edited := []ib.LID{p.VM}
		if kind == PlanSwap && scope == ScopeAllSwitches {
			edited = append(edited, p.Peer)
		}
		for _, l := range edited {
			if seen[l] {
				return true
			}
			seen[l] = true
		}
	}
	return false
}

// checkWave plans pairs as one wave and as one plan a member, merged, and
// fails unless they agree: the first member's refusal, a refusal of a wave
// two members of which edit one LID, or the same edits — run for run, with
// the same counts — and each member's counts its own plan's.
func checkWave(t testing.TB, rc *Reconfigurator, v cdg.Routes, kind PlanKind, pairs []LIDPair) {
	t.Helper()
	got, counts, gerr := rc.PlanWaveOn(v, kind, pairs)
	plans := make([]*MigrationPlan, len(pairs))
	for i, p := range pairs {
		var err error
		if plans[i], err = rc.planOne(v, kind, p.VM, p.Peer); err != nil {
			if gerr == nil || gerr.Error() != err.Error() {
				t.Fatalf("member %d %+v is refused (%v); the wave: %v", i, p, err, gerr)
			}
			return
		}
	}
	merged, merr := MergePlans(plans...)
	if editsShared(kind, rc.Scope, pairs) {
		if gerr == nil || !strings.Contains(gerr.Error(), "both edit LID") {
			t.Fatalf("two members of %+v edit one LID, yet the wave planned: %v", pairs, gerr)
		}
		return
	}
	if merr != nil || gerr != nil {
		t.Fatalf("disjoint members %+v: the wave's error %v, the merge's %v", pairs, gerr, merr)
	}
	checkSorted(t, got)
	if got.Kind != merged.Kind || got.VMLID != merged.VMLID || got.PeerLID != merged.PeerLID ||
		got.SwitchesTouched != merged.SwitchesTouched || got.SMPs != merged.SMPs ||
		!slices.Equal(got.Switches, merged.Switches) || !slices.Equal(got.Entries, merged.Entries) {
		t.Fatalf("wave %+v:\n planned  %+v\n merged   %+v", pairs, got, merged)
	}
	for i := range got.Switches {
		if !slices.Equal(got.Run(i), merged.Run(i)) {
			t.Fatalf("switch %d: the wave's run %v, merged %v", got.Switches[i], got.Run(i), merged.Run(i))
		}
	}
	for i, p := range plans {
		if want := (PlanCounts{p.SwitchesTouched, p.SMPs}); counts[i] != want {
			t.Fatalf("member %d %+v: counts %+v, its own plan's %+v", i, pairs[i], counts[i], want)
		}
	}
}

// FuzzPlanWave: a wave planned in one walk over the switches is the merge of
// its members planned one by one — on the 324-node tree, both kinds, both
// scopes, on the live SM and on an overlay a swap ahead of it.
func FuzzPlanWave(f *testing.F) {
	f.Add([]byte{0, 2, 7, 9, 4, 21, 1})                     // copies to three hosts, two to one
	f.Add([]byte{1, 2, 7, 9, 4, 21, 1})                     // the same LIDs as swaps
	f.Add([]byte{3, 2, 7, 9, 4, 21, 1, 5, 16})              // minimal swaps
	f.Add([]byte{2, 0, 3, 1, 3, 2, 3})                      // minimal copies, intra-leaf
	f.Add([]byte{5, 2, 7, 9, 4})                            // swaps on the overlay
	f.Add([]byte{0, 2, 7, 2, 9})                            // one VM twice
	f.Add([]byte{1, 2, 7, 7, 9})                            // a swap's peer is another's VM
	f.Add([]byte{3, 2, 7, 9, 7})                            // minimal swaps sharing a peer
	f.Add([]byte{1, 2, 2})                                  // VM and peer one LID
	f.Add([]byte{0, 2, 7, 0xff, 1})                         // a LID nobody holds
	f.Add([]byte{4, 2, 7})                                  // a wave of one on the overlay
	f.Add([]byte{1, 0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20}) // five swaps, blocks shared
	f.Fuzz(func(t *testing.T, data []byte) {
		rc, lids := waveRC(t)
		kind, scope, overlay, pairs := waveFromBytes(rc, lids, data)
		if len(pairs) == 0 {
			return
		}
		var v cdg.Routes = rc.SM.Programmed()
		if overlay {
			rc.Scope = ScopeAllSwitches
			ov := &overlayView{base: v, lfts: map[topology.NodeID]*ib.LFT{}, owner: map[ib.LID]topology.NodeID{}}
			p, err := rc.planOne(ov, PlanSwap, lids[40][0], lids[41][1]) // hosts no member draws from
			if err != nil {
				t.Fatal(err)
			}
			ov.apply(p)
			v = ov
		}
		rc.Scope = scope
		checkWave(t, rc, v, kind, pairs)
	})
}

// TestPlanWaveRefusesSharedLID: two members that edit one LID are refused
// before the walk, naming both; a copy's peer, read but not written, may be
// shared.
func TestPlanWaveRefusesSharedLID(t *testing.T) {
	rc, lids := waveRC(t)
	rc.Scope = ScopeAllSwitches
	pf := rc.SM.LIDOf(rc.SM.Topo.CAs()[5])
	v := rc.SM.Programmed()
	_, _, err := rc.PlanWaveOn(v, PlanSwap, []LIDPair{{lids[1][0], lids[2][0]}, {lids[3][0], lids[4][0]}, {lids[5][0], lids[2][0]}})
	if want := fmt.Sprintf("core: members 0 and 2 both edit LID %d", lids[2][0]); err == nil || err.Error() != want {
		t.Fatalf("swaps to one VF: %v, want %q", err, want)
	}
	if _, _, err := rc.PlanWaveOn(v, PlanCopy, []LIDPair{{lids[1][0], pf}, {lids[2][0], pf}}); err != nil {
		t.Fatalf("two copies to one PF: %v", err)
	}
	if _, _, err := rc.PlanWaveOn(v, PlanCopy, nil); err == nil {
		t.Fatal("an empty wave planned")
	}
}
