package routing

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"testing"

	"ibvsim/internal/ib"
	"ibvsim/internal/topology"
)

// resultDigest hashes everything a layered engine decides: every switch's
// LFT bytes in ascending switch order, the DestVL and PairVL assignments in
// sorted key order, and VLsUsed.
func resultDigest(topo *topology.Topology, res *Result) string {
	h := sha256.New()
	for _, sw := range topo.Switches() {
		h.Write(res.LFTs[sw].Bytes())
	}
	lids := make([]ib.LID, 0, len(res.DestVL))
	for l := range res.DestVL {
		lids = append(lids, l)
	}
	sort.Slice(lids, func(i, j int) bool { return lids[i] < lids[j] })
	for _, l := range lids {
		binary.Write(h, binary.LittleEndian, uint16(l)) //nolint:errcheck // hash.Hash never fails
		h.Write([]byte{res.DestVL[l]})
	}
	pairs := make([][2]topology.NodeID, 0, len(res.PairVL))
	for p := range res.PairVL {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	for _, p := range pairs {
		binary.Write(h, binary.LittleEndian, [2]int32{int32(p[0]), int32(p[1])}) //nolint:errcheck // hash.Hash never fails
		h.Write([]byte{res.PairVL[p]})
	}
	h.Write([]byte{byte(res.Stats.VLsUsed)})
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// TestLayeredEngineDigests pins the complete output of the two VL-layering
// engines. The constants were recorded while dfsssp still layered over a
// private counting-sort graph and lash over a map-backed cdg.Ordered, and
// held when both moved onto the shared dense cdg types: dfsssp's DestVL
// depends on *which* cycle the layer graph's DFS reports, so any change to
// cdg.Graph.FindCycle's visiting order shows up here.
func TestLayeredEngineDigests(t *testing.T) {
	fabrics := []struct {
		name  string
		build func() (*topology.Topology, error)
	}{
		{"fattree324", func() (*topology.Topology, error) { return topology.BuildPaperFatTree(324) }},
		{"fattree648", func() (*topology.Topology, error) { return topology.BuildPaperFatTree(648) }},
		{"ring8", func() (*topology.Topology, error) { return topology.BuildRing(8, 2) }},
		{"torus4x4", func() (*topology.Topology, error) { return topology.BuildTorus2D(4, 4, 1) }},
		{"random16", func() (*topology.Topology, error) { return topology.BuildRandom(16, 8, 10, 2, 3) }},
	}
	want := map[string]string{
		"dfsssp/fattree324": "693b362f02df29d98b4a7227 vls=2",
		"lash/fattree324":   "ad5de4583ce7d8a1bd653ad8 vls=1",
		"dfsssp/fattree648": "912956a3590bc7c416389670 vls=2",
		"lash/fattree648":   "a979e5b2860f7b4c78240f21 vls=1",
		"dfsssp/ring8":      "d17025965e16dad27a11b621 vls=2",
		"lash/ring8":        "657e5e83d81e9098672ebca8 vls=2",
		"dfsssp/torus4x4":   "c1bb5812f16cc5a3d208e741 vls=3",
		"lash/torus4x4":     "6ca96989515c71d78b6d1c53 vls=3",
		"dfsssp/random16":   "06a43860dcef815e1f72d2c0 vls=2",
		"lash/random16":     "fcc27a055f386e81ea761c90 vls=1",
	}
	for _, f := range fabrics {
		topo, err := f.build()
		if err != nil {
			t.Fatal(err)
		}
		req := reqFor(t, topo)
		for _, e := range []Engine{NewDFSSSP(), NewLASH()} {
			res, err := e.Compute(req)
			if err != nil {
				t.Fatalf("%s on %s: %v", e.Name(), f.name, err)
			}
			key := e.Name() + "/" + f.name
			got := fmt.Sprintf("%s vls=%d", resultDigest(topo, res), res.Stats.VLsUsed)
			if got != want[key] {
				t.Errorf("%s: got %q, want %q", key, got, want[key])
			}
		}
	}
}
