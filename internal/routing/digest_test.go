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

// TestLayeredEngineDigests pins the complete output of every engine. The
// dfsssp and lash constants were recorded while dfsssp still layered over a
// private counting-sort graph and lash over a map-backed cdg.Ordered, and
// held when both moved onto the shared dense cdg types: dfsssp's DestVL
// depends on *which* cycle the layer graph's DFS reports, so any change to
// cdg.Graph.FindCycle's visiting order shows up here. The minhop, updn and
// ftree constants were recorded while minhop and updn each had their own
// LID-major serial fold; they pin the tables against a fold shared by the
// full engines and the incremental replay, which the incremental-vs-full
// tests cannot (a shared fold moves both sides at once). xgft216 has 108
// destination-switch groups, so its minhop and updn tables cross a
// groupWindow boundary.
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
		{"xgft216", func() (*topology.Topology, error) {
			return topology.BuildXGFT(topology.XGFTSpec{M: []int{6, 6, 6}, W: []int{1, 6, 6}}, 0)
		}},
	}
	want := map[string]string{
		"minhop/fattree324": "c05bac04280bc3f9783a7dc9 vls=0",
		"updn/fattree324":   "ec7e686cbb416cce0b45c05f vls=0",
		"ftree/fattree324":  "b7cee48033def2532953366f vls=0",
		"dfsssp/fattree324": "693b362f02df29d98b4a7227 vls=2",
		"lash/fattree324":   "ad5de4583ce7d8a1bd653ad8 vls=1",
		"minhop/fattree648": "3c78e154f9b7a115a57c11d6 vls=0",
		"updn/fattree648":   "c8c661c6a34582fe866bb0f7 vls=0",
		"ftree/fattree648":  "aacc729271894d8f36ec0be2 vls=0",
		"dfsssp/fattree648": "912956a3590bc7c416389670 vls=2",
		"lash/fattree648":   "a979e5b2860f7b4c78240f21 vls=1",
		"minhop/ring8":      "0879548b7f33008e3f4cda79 vls=0",
		"updn/ring8":        "abab618313b24e78c3abcdf2 vls=0",
		"dfsssp/ring8":      "d17025965e16dad27a11b621 vls=2",
		"lash/ring8":        "657e5e83d81e9098672ebca8 vls=2",
		"minhop/torus4x4":   "37685423c24204a1f0e1dc2d vls=0",
		"updn/torus4x4":     "53634f1ba8dfcf80fdfc093b vls=0",
		"dfsssp/torus4x4":   "c1bb5812f16cc5a3d208e741 vls=3",
		"lash/torus4x4":     "6ca96989515c71d78b6d1c53 vls=3",
		"minhop/random16":   "ff1b9fbce39b6f3ec98d1d99 vls=0",
		"updn/random16":     "8f062623380161e4a8753b2d vls=0",
		"dfsssp/random16":   "06a43860dcef815e1f72d2c0 vls=2",
		"lash/random16":     "fcc27a055f386e81ea761c90 vls=1",
		"minhop/xgft216":    "0047126aca5ef26d52329247 vls=0",
		"updn/xgft216":      "a600cf4f81ebd626875dcaa6 vls=0",
		"ftree/xgft216":     "ce9b71b05ec168e03b2eabcd vls=0",
		"dfsssp/xgft216":    "9d7572c3f01c4fa742b9053a vls=8",
		"lash/xgft216":      "dab81f76fcad5e3f998faa14 vls=1",
	}
	levelled := map[string]bool{"fattree324": true, "fattree648": true, "xgft216": true}
	for _, f := range fabrics {
		topo, err := f.build()
		if err != nil {
			t.Fatal(err)
		}
		req := reqFor(t, topo)
		for _, e := range engines() {
			if _, ok := e.(*FatTree); ok && !levelled[f.name] {
				continue // ftree needs a levelled fat-tree
			}
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
