package api

import (
	"fmt"
	"net/http"
	"slices"
	"testing"

	"ibvsim/internal/cdg"
	"ibvsim/internal/ib"
	"ibvsim/internal/sriov"
	"ibvsim/internal/topology"
)

// TestSnapshotFollowsProgrammedObjectSwap is the regression test for a
// copy-on-write staleness bug the chaos campaigns caught when snapshots
// still cloned tables and cached the clones by revision counter: the SM
// *replaces* the programmed LFT object on every fully-successful
// distribution, so such a cache could keep serving the pre-reroute clone.
// After a link failure + reconfigure, the published snapshot then walked
// paths out the dead port while the SM itself was healthy. Snapshots now
// capture the published objects themselves; the test stays as the pin.
//
// The sequence below reproduces the hazard: reconfigure (programmed objects
// swapped once), fail a trunk link and resweep directly on the SM, then
// reconfigure again (swapped again). The snapshot must track the programmed
// tables exactly.
func TestSnapshotFollowsProgrammedObjectSwap(t *testing.T) {
	spec := topology.XGFTSpec{M: []int{3, 3}, W: []int{1, 3}}
	srv, ts := newFatTreeServer(t, spec, 2, sriov.VSwitchDynamic, Config{})
	cl := ts.Client()
	topo := srv.c.SM.Topo

	if st := doJSON(t, cl, "POST", ts.URL+"/v1/reconfigure", nil, nil); st != http.StatusOK {
		t.Fatalf("first reconfigure: status %d", st)
	}
	before := srv.Snapshot()

	// Fail one switch-to-switch link directly on the fabric, as the chaos
	// harness does between API commands. The loop is idle (the previous
	// reply was sent after its snapshot was published), so this does not
	// race the server.
	a, b, ap := trunkLink(t, topo)
	if err := topo.SetLinkState(a, ap, false); err != nil {
		t.Fatal(err)
	}
	if !topo.Connected() {
		t.Fatalf("link %d<->%d was the only path; pick a redundant fabric", a, b)
	}
	if _, err := srv.c.SM.LightSweep(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.c.SM.Resweep(); err != nil {
		t.Fatal(err)
	}
	if st := doJSON(t, cl, "POST", ts.URL+"/v1/reconfigure", nil, nil); st != http.StatusOK {
		t.Fatalf("reconfigure after link failure: status %d", st)
	}

	// The reroute must have moved at least one table, otherwise this test
	// exercises nothing.
	sn := srv.Snapshot()
	moved := false
	for _, sw := range topo.Switches() {
		prog := srv.c.SM.ProgrammedLFT(sw)
		if prog == nil {
			t.Fatalf("switch %d has no programmed LFT", sw)
		}
		if sn.lfts[sw] == nil {
			t.Fatalf("snapshot has no LFT for switch %d", sw)
		}
		if !sn.lfts[sw].Equal(prog) {
			t.Errorf("switch %d: snapshot LFT diverges from programmed table", sw)
		}
		if before.lfts[sw] != nil && !before.lfts[sw].Equal(prog) {
			moved = true
		}
	}
	if !moved {
		t.Fatal("reconfigure after link failure changed no table; test is vacuous")
	}

	// The user-visible symptom: a stale snapshot walks paths out the dead
	// port. Every CA pair must still resolve through the snapshot walker.
	cas := topo.CAs()
	for _, src := range cas {
		for _, dst := range cas {
			if src == dst {
				continue
			}
			url := fmt.Sprintf("%s/v1/paths/%d/%d", ts.URL, src, dst)
			var pr PathResponse
			if st := doJSON(t, cl, "GET", url, nil, &pr); st != http.StatusOK {
				t.Fatalf("path %d->%d: status %d (snapshot walks a dead route)", src, dst, st)
			}
		}
	}
}

// TestPathToOwnLeaf: a CA's path to any switch, its own leaf included, is
// served. The walk used to start at the leaf and read the leaf's entry for
// its own LID — port 0 — as a down port before asking whether the leaf owns
// the LID, so the path to it was a 404.
func TestPathToOwnLeaf(t *testing.T) {
	srv, ts := newFatTreeServer(t, topology.XGFTSpec{M: []int{3, 3}, W: []int{1, 3}}, 2, sriov.VSwitchDynamic, Config{})
	cl, topo := ts.Client(), srv.c.SM.Topo
	for _, ca := range topo.CAs() {
		for _, sw := range topo.Switches() {
			var pr PathResponse
			if st := doJSON(t, cl, "GET", fmt.Sprintf("%s/v1/paths/%d/%d", ts.URL, ca, sw), nil, &pr); st != http.StatusOK {
				t.Fatalf("path %d->%d: status %d", ca, sw, st)
			}
			if own := sw == topo.LeafSwitchOf(ca); own != (len(pr.Hops) == 0) {
				t.Errorf("path %d->%d: %d hops (own leaf %v)", ca, sw, len(pr.Hops), own)
			}
		}
	}
}

// TestPathAgreesWithTrace: where /v1/paths serves a path, it is the walk
// cdg.Trace takes through the snapshot — delivered to the owner of the LID,
// through the same switches — and where it serves none, Trace delivers
// nothing either. Taking a trunk link down under the programmed tables
// breaks some paths.
func TestPathAgreesWithTrace(t *testing.T) {
	srv, _ := newFatTreeServer(t, topology.XGFTSpec{M: []int{3, 3}, W: []int{1, 3}}, 2, sriov.VSwitchDynamic, Config{})
	topo := srv.c.SM.Topo
	check := func(what string) (broken int) {
		sn := srv.Snapshot()
		for _, src := range topo.CAs() {
			for _, dst := range topo.Nodes() {
				pr, err := sn.Path(fmt.Sprint(src), fmt.Sprint(dst.ID))
				var hops []PathHop
				end := cdg.Trace(topo, sn, src, ib.LID(pr.DstLID), func(at topology.NodeID, out ib.PortNum) bool {
					if n := topo.Node(at); n.IsSwitch() {
						hops = append(hops, PathHop{Switch: at, Desc: n.Desc, Egress: out})
					}
					return true
				})
				switch {
				case err != nil && end.Fate == cdg.Delivered:
					t.Errorf("%s: path %d->%d refused (%v), Trace delivers", what, src, dst.ID, err)
				case err != nil:
					broken++
				case end.Fate != cdg.Delivered || end.At != pr.DstNode || !slices.Equal(hops, pr.Hops):
					t.Errorf("%s: path %d->%d: %v, Trace: %v %v", what, src, dst.ID, pr.Hops, end, hops)
				}
			}
		}
		return broken
	}
	if n := check("programmed"); n != 0 {
		t.Fatalf("%d paths broken on a routed fabric", n)
	}
	a, _, ap := trunkLink(t, topo)
	if err := topo.SetLinkState(a, ap, false); err != nil {
		t.Fatal(err)
	}
	defer topo.SetLinkState(a, ap, true) //nolint:errcheck // restores the link taken down above
	if check("trunk down") == 0 {
		t.Fatal("no path crosses the downed trunk; test is vacuous")
	}
}

// trunkLink returns the first switch-to-switch link (and a's port toward b).
func trunkLink(t *testing.T, topo *topology.Topology) (a, b topology.NodeID, ap ib.PortNum) {
	t.Helper()
	for _, sw := range topo.Switches() {
		n := topo.Node(sw)
		for i := 1; i < len(n.Ports); i++ {
			p := n.Ports[i]
			if p.Peer != topology.NoNode && p.Peer > sw && topo.Node(p.Peer).IsSwitch() {
				return sw, p.Peer, ib.PortNum(i)
			}
		}
	}
	t.Fatal("fabric has no switch-to-switch link")
	return 0, 0, 0
}
