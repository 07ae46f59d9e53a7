package routing

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ibvsim/internal/ib"
	"ibvsim/internal/topology"
)

// deltaFuzzer drives a seeded sequence of topology/target deltas against a
// live topology: switch-switch link flaps and CA LID churn (targets leaving
// and rejoining the fabric), mirroring what the SM sees across resweeps.
type deltaFuzzer struct {
	topo  *topology.Topology
	rng   *rand.Rand
	links []fuzzLink
	// full target universe, CAs first (reqFor order); present masks churn.
	targets []Target
	present []bool
	nCAs    int
}

type fuzzLink struct {
	a  topology.NodeID
	ap ib.PortNum
	up bool
}

func newDeltaFuzzer(t *testing.T, topo *topology.Topology, seed int64) *deltaFuzzer {
	t.Helper()
	f := &deltaFuzzer{topo: topo, rng: rand.New(rand.NewSource(seed))}
	for _, sw := range topo.Switches() {
		n := topo.Node(sw)
		for _, p := range n.Ports[1:] {
			if p.Peer == topology.NoNode || !topo.Node(p.Peer).IsSwitch() {
				continue
			}
			if p.Peer < sw { // record each physical link once
				continue
			}
			f.links = append(f.links, fuzzLink{a: sw, ap: p.Num, up: true})
		}
	}
	lid := ib.LID(1)
	for _, ca := range topo.CAs() {
		f.targets = append(f.targets, Target{LID: lid, Node: ca})
		lid++
		f.nCAs++
	}
	for _, sw := range topo.Switches() {
		f.targets = append(f.targets, Target{LID: lid, Node: sw})
		lid++
	}
	f.present = make([]bool, len(f.targets))
	for i := range f.present {
		f.present[i] = true
	}
	return f
}

// step applies one random delta and returns a description of it.
func (f *deltaFuzzer) step(t *testing.T) string {
	t.Helper()
	switch f.rng.Intn(3) {
	case 0, 1: // link flap (2x weight)
		li := f.rng.Intn(len(f.links))
		l := &f.links[li]
		l.up = !l.up
		if err := f.topo.SetLinkState(l.a, l.ap, l.up); err != nil {
			t.Fatalf("SetLinkState: %v", err)
		}
		return fmt.Sprintf("link %d/%d -> up=%v", l.a, l.ap, l.up)
	default: // CA LID churn
		ti := f.rng.Intn(f.nCAs)
		f.present[ti] = !f.present[ti]
		return fmt.Sprintf("target LID %d -> present=%v", f.targets[ti].LID, f.present[ti])
	}
}

func (f *deltaFuzzer) request(workers int) *Request {
	req := &Request{Topo: f.topo, Workers: workers}
	for i, t := range f.targets {
		if f.present[i] {
			req.Targets = append(req.Targets, t)
		}
	}
	return req
}

// TestIncrementalEquivalence is the tentpole property: for every engine, a
// seeded sequence of random deltas recomputed through the Incremental
// wrapper yields LFTs byte-identical (in the forwarding domain) to a
// from-scratch run of the inner engine — for worker counts 1, 2 and 8 alike
// — or an honest fallback that is itself a full recompute. minhop must take
// the delta path; ftree, dfsssp and lash have none and must say so.
func TestIncrementalEquivalence(t *testing.T) {
	steps := 12
	names := []string{"minhop", "updn", "ftree"}
	if !testing.Short() {
		names = append(names, "dfsssp", "lash")
	}
	for _, name := range names {
		steps := steps
		if name == "dfsssp" || name == "lash" {
			steps = 3 // slow always-full fallback engines; just prove honesty
		}
		t.Run(name, func(t *testing.T) {
			testIncrementalEquivalence(t, name, 324, steps, 1)
		})
	}
}

func testIncrementalEquivalence(t *testing.T, name string, size, steps int, seed int64) {
	topo, err := topology.BuildPaperFatTree(size)
	if err != nil {
		t.Fatal(err)
	}
	fz := newDeltaFuzzer(t, topo, seed)

	workerCounts := []int{1, 2, 8}
	incs := make(map[int]*Incremental, len(workerCounts))
	for _, w := range workerCounts {
		e, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		incs[w] = NewIncremental(e)
	}
	fullEngine, err := New(name)
	if err != nil {
		t.Fatal(err)
	}

	applied := 0
	lastReason := ""
	for step := 0; step <= steps; step++ {
		desc := "initial"
		if step > 0 {
			desc = fz.step(t)
		}

		full, fullErr := fullEngine.Compute(fz.request(0))
		results := make(map[int]*Result, len(workerCounts))
		for _, w := range workerCounts {
			res, err := incs[w].Compute(fz.request(w))
			if fullErr != nil {
				if err == nil {
					t.Fatalf("step %d (%s) workers=%d: full recompute failed (%v) but incremental succeeded", step, desc, w, fullErr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("step %d (%s) workers=%d: incremental: %v", step, desc, w, err)
			}
			results[w] = res
		}
		if fullErr != nil {
			continue
		}

		base := results[workerCounts[0]]
		if base.Stats.Incremental.Applied {
			applied++
		}
		lastReason = base.Stats.Incremental.FallbackReason
		for _, w := range workerCounts {
			res := results[w]
			if !res.Stats.Incremental.Attempted {
				t.Fatalf("step %d workers=%d: Incremental stats not attempted", step, w)
			}
			if res.Stats.Incremental.Applied != base.Stats.Incremental.Applied {
				t.Fatalf("step %d: Applied disagrees across worker counts", step)
			}
			if !res.Stats.Incremental.Applied && res.Stats.Incremental.FallbackReason == "" {
				t.Fatalf("step %d workers=%d: fallback without a reason", step, w)
			}
			if len(res.LFTs) != len(full.LFTs) {
				t.Fatalf("step %d (%s) workers=%d: %d LFTs, full has %d", step, desc, w, len(res.LFTs), len(full.LFTs))
			}
			for sw, want := range full.LFTs {
				got := res.LFTs[sw]
				if got == nil {
					t.Fatalf("step %d (%s) workers=%d: missing LFT for switch %d", step, desc, w, sw)
				}
				if !got.Equal(want) {
					t.Fatalf("step %d (%s) workers=%d: switch %q LFT diverges from full recompute (incremental applied=%v reason=%q)",
						step, desc, w, topo.Node(sw).Desc, res.Stats.Incremental.Applied, res.Stats.Incremental.FallbackReason)
				}
				// Worker-count determinism must hold byte for byte.
				if w != workerCounts[0] {
					if !got.Equal(base.LFTs[sw]) {
						t.Fatalf("step %d (%s): switch %q differs between workers=%d and workers=%d",
							step, desc, topo.Node(sw).Desc, w, workerCounts[0])
					}
				}
			}
		}
	}

	switch name {
	case "minhop":
		if applied == 0 {
			t.Fatalf("no step applied the incremental path for %s; delta rules never engaged", name)
		}
	case "ftree", "dfsssp", "lash":
		if applied != 0 {
			t.Fatalf("%s must always fall back to full recompute", name)
		}
		if !strings.Contains(lastReason, name) {
			t.Fatalf("%s fallback reason %q does not name the engine", name, lastReason)
		}
	}
}

// TestIncrementalEquivalenceMultiWindow re-runs the equivalence property on
// a fabric whose destination groups span several fold windows (486 switches
// = 8 windows of 64), exercising the window-scoped load replay: a bug that
// wrongly carries a column segment over, or replays a window from the wrong
// load state, is invisible on one-window fabrics.
func TestIncrementalEquivalenceMultiWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-window fabric is slow")
	}
	for _, name := range []string{"minhop", "updn"} {
		name := name
		t.Run(name, func(t *testing.T) {
			testIncrementalEquivalence(t, name, 5832, 6, 2)
		})
	}
}

// TestIncrementalNoDelta checks the fast path: recomputing with zero delta
// serves the cached tables without re-running any destination.
func TestIncrementalNoDelta(t *testing.T) {
	topo, err := topology.BuildPaperFatTree(324)
	if err != nil {
		t.Fatal(err)
	}
	fz := newDeltaFuzzer(t, topo, 1)
	inc := NewIncremental(NewMinHop())
	first, err := inc.Compute(fz.request(0))
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.Incremental.Applied {
		t.Fatal("first compute cannot be incremental")
	}
	second, err := inc.Compute(fz.request(0))
	if err != nil {
		t.Fatal(err)
	}
	st := second.Stats.Incremental
	if !st.Applied || st.DestsRecomputed != 0 || st.SwitchesReplayed != 0 {
		t.Fatalf("no-delta recompute should apply trivially: %+v", st)
	}
	for sw, want := range first.LFTs {
		if !second.LFTs[sw].Equal(want) {
			t.Fatalf("cached result diverges at switch %d", sw)
		}
	}
	// The cached result shares the index's tables, never written again, in
	// a map of its own: a holder that replaces one of its tables cannot
	// poison the index.
	for sw, lft := range second.LFTs {
		edited := lft.Clone()
		edited.Set(1, 42)
		second.LFTs[sw] = edited
		break
	}
	third, err := inc.Compute(fz.request(0))
	if err != nil {
		t.Fatal(err)
	}
	for sw, want := range first.LFTs {
		if !third.LFTs[sw].Equal(want) {
			t.Fatalf("index state was aliased to a returned map (switch %d)", sw)
		}
	}
}

// TestIncrementalAffectedFraction pins the perf contract behind the
// acceptance criterion: a single link flap on a paper fat tree re-runs path
// computation for a small fraction of destinations only.
func TestIncrementalAffectedFraction(t *testing.T) {
	for _, name := range []string{"minhop", "updn"} {
		t.Run(name, func(t *testing.T) {
			topo, err := topology.BuildPaperFatTree(648)
			if err != nil {
				t.Fatal(err)
			}
			fz := newDeltaFuzzer(t, topo, 1)
			e, _ := New(name)
			inc := NewIncremental(e)
			if _, err := inc.Compute(fz.request(0)); err != nil {
				t.Fatal(err)
			}
			// Flap a leaf<->spine link not incident to the updn auto-root
			// (the lowest-index spine), so the rank orientation is stable.
			link := pickNonRootLink(t, topo)
			if err := topo.SetLinkState(link.a, link.ap, false); err != nil {
				t.Fatal(err)
			}
			res, err := inc.Compute(fz.request(0))
			if err != nil {
				t.Fatal(err)
			}
			st := res.Stats.Incremental
			if !st.Applied {
				t.Fatalf("single link flap must take the incremental path: %+v", st)
			}
			if st.DestsRecomputed*10 >= st.DestsTotal {
				t.Fatalf("link flap recomputed %d/%d destinations (>= 10%%)", st.DestsRecomputed, st.DestsTotal)
			}
		})
	}
}

// pickNonRootLink returns a switch-switch link whose endpoints exclude the
// updn auto-selected root (the first switch with the maximum level/degree
// key), so flapping it cannot move the rank orientation.
func pickNonRootLink(t *testing.T, topo *topology.Topology) fuzzLink {
	t.Helper()
	req := &Request{Topo: topo}
	fv, err := newFabricView(req)
	if err != nil && len(fv.switches) == 0 {
		t.Fatal(err)
	}
	best, bestKey := 0, -1
	for i, id := range fv.switches {
		n := topo.Node(id)
		key := n.Level*1000 + len(fv.adj[i])
		if key > bestKey {
			best, bestKey = i, key
		}
	}
	root := fv.switches[best]
	for _, sw := range topo.Switches() {
		if sw == root {
			continue
		}
		n := topo.Node(sw)
		for _, p := range n.Ports[1:] {
			if p.Peer == topology.NoNode || !topo.Node(p.Peer).IsSwitch() || p.Peer == root {
				continue
			}
			return fuzzLink{a: sw, ap: p.Num, up: true}
		}
	}
	t.Fatal("no non-root switch link found")
	return fuzzLink{}
}
