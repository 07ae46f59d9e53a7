package routing

import (
	"slices"
	"testing"

	"ibvsim/internal/ib"
	"ibvsim/internal/topology"
)

// fuzzSpec is a deliberately small fat tree so each fuzz execution stays in
// the microsecond range: 24 compute nodes, 6 leaves, 4 spines.
var fuzzSpec = topology.XGFTSpec{M: []int{4, 6}, W: []int{1, 4}}

// fuzzTargets assigns sequential LIDs to every CA and switch, mirroring the
// SM's dense assignment.
func fuzzTargets(topo *topology.Topology) []Target {
	var targets []Target
	lid := ib.LID(1)
	for _, ca := range topo.CAs() {
		targets = append(targets, Target{LID: lid, Node: ca})
		lid++
	}
	for _, sw := range topo.Switches() {
		targets = append(targets, Target{LID: lid, Node: sw})
		lid++
	}
	return targets
}

// fuzzLinks enumerates the switch-switch links of a topology, one per
// physical link.
func fuzzLinks(topo *topology.Topology) []fuzzLink {
	var links []fuzzLink
	for _, sw := range topo.Switches() {
		n := topo.Node(sw)
		for _, p := range n.Ports[1:] {
			if p.Peer == topology.NoNode || !topo.Node(p.Peer).IsSwitch() || p.Peer < sw {
				continue
			}
			links = append(links, fuzzLink{a: sw, ap: p.Num, up: true})
		}
	}
	return links
}

// groupDists computes, per destination-switch group, the candidate
// structure a fresh engine run would produce — the naive oracle the
// incremental layer's affected/patched sets are checked against.
func groupDists(engine string, fv *fabricView, targets []Target) (keys []int, dists [][]int, cands []*candSet, ok bool) {
	nsw := len(fv.switches)
	_, keys = fv.groupTargetsBySwitch(targets)
	dists = make([][]int, len(keys))
	cands = make([]*candSet, len(keys))
	if engine == "minhop" {
		s := newBFSScratch(nsw)
		for gi, k := range keys {
			cs := newCandSet(nsw)
			minhopCands(fv, k, s, cs)
			dists[gi] = append([]int(nil), s.dist...)
			cands[gi] = cs
		}
		return keys, dists, cands, true
	}
	e := NewUpDown()
	_, rank, err := e.rankFabric(fv)
	if err != nil {
		return nil, nil, nil, false
	}
	up := updnUp(rank)
	s := newUpdownScratch(nsw)
	for gi, k := range keys {
		cs := newCandSet(nsw)
		updnCands(fv, up, k, s, cs)
		d := make([]int, 2*nsw)
		copy(d, s.distD)
		copy(d[nsw:], s.distU)
		dists[gi] = d
		cands[gi] = cs
	}
	return keys, dists, cands, true
}

// FuzzDeltaRecompute mutates random switch-switch links and cross-checks the
// incremental layer against a naive full-diff oracle: the result must be
// byte-identical to a from-scratch run, every group whose distance field
// moved must be in the recomputed set, and every group whose candidate
// structure changed must be in the recomputed-or-patched set.
func FuzzDeltaRecompute(f *testing.F) {
	f.Add(byte(0), []byte{0})
	f.Add(byte(1), []byte{3, 3})
	f.Add(byte(0), []byte{1, 7, 1})
	f.Add(byte(1), []byte{0, 5, 9, 2})
	f.Fuzz(func(t *testing.T, engineSel byte, toggles []byte) {
		name := "minhop"
		if engineSel%2 == 1 {
			name = "updn"
		}
		topo, err := topology.BuildXGFT(fuzzSpec, 0)
		if err != nil {
			t.Fatal(err)
		}
		targets := fuzzTargets(topo)
		links := fuzzLinks(topo)
		req := func(w int) *Request {
			return &Request{Topo: topo, Targets: targets, Workers: w}
		}

		inner, _ := New(name)
		inc := NewIncremental(inner)
		if _, err := inc.Compute(req(1)); err != nil {
			t.Fatal(err)
		}

		// Snapshot the pre-delta view (adjacency is copied at construction,
		// so the view survives topology mutation) and apply the toggles.
		fvOld, err := newFabricView(req(1))
		if err != nil {
			t.Fatal(err)
		}
		if len(toggles) > 8 {
			toggles = toggles[:8]
		}
		for _, b := range toggles {
			l := &links[int(b)%len(links)]
			l.up = !l.up
			if err := topo.SetLinkState(l.a, l.ap, l.up); err != nil {
				t.Fatal(err)
			}
		}

		full, fullErr := func() (*Result, error) {
			e, _ := New(name)
			return e.Compute(req(1))
		}()
		res, err := inc.Compute(req(1))
		if fullErr != nil {
			if err == nil {
				t.Fatalf("full recompute failed (%v) but incremental succeeded", fullErr)
			}
			return
		}
		if err != nil {
			t.Fatalf("incremental: %v", err)
		}

		for sw, want := range full.LFTs {
			if !res.LFTs[sw].Equal(want) {
				t.Fatalf("%s: switch %d LFT diverges after toggles %v (applied=%v reason=%q)",
					name, sw, toggles, res.Stats.Incremental.Applied, res.Stats.Incremental.FallbackReason)
			}
		}
		if !res.Stats.Incremental.Applied {
			return // honest fallback: nothing else to cross-check
		}

		affected := map[topology.NodeID]bool{}
		for _, sw := range inc.LastAffected() {
			affected[sw] = true
		}
		patched := map[topology.NodeID]bool{}
		for _, sw := range inc.LastPatched() {
			patched[sw] = true
		}

		fvNew, err := newFabricView(req(1))
		if err != nil {
			t.Fatal(err)
		}
		keys, oldD, oldC, ok1 := groupDists(name, fvOld, targets)
		_, newD, newC, ok2 := groupDists(name, fvNew, targets)
		if !ok1 || !ok2 {
			return // updn rank became uncomputable; Applied would have been false
		}
		for gi := range keys {
			sw := fvNew.switches[keys[gi]]
			distMoved := !slices.Equal(oldD[gi], newD[gi])
			candsMoved := false
			for i := 0; i < len(fvNew.switches); i++ {
				if !slices.Equal(oldC[gi].at(i), newC[gi].at(i)) {
					candsMoved = true
					break
				}
			}
			if distMoved && !affected[sw] {
				t.Fatalf("%s: dest switch %d distance field moved but was not recomputed (toggles %v)", name, sw, toggles)
			}
			if candsMoved && !affected[sw] && !patched[sw] {
				t.Fatalf("%s: dest switch %d candidates moved but group neither recomputed nor patched (toggles %v)", name, sw, toggles)
			}
		}
	})
}
