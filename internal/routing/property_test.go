package routing

import (
	"testing"

	"ibvsim/internal/cdg"
	"ibvsim/internal/ib"
	"ibvsim/internal/topology"
)

// TestAgnosticEnginesOnRandomFabricsProperty fuzzes the topology-agnostic
// engines over a family of random connected fabrics: every engine must
// produce loop-free, fully delivering LFTs, and updn/dfsssp/lash must also
// be deadlock free (per lane).
func TestAgnosticEnginesOnRandomFabricsProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("routes 8 random fabrics with 4 engines")
	}
	for seed := int64(0); seed < 8; seed++ {
		topo, err := topology.BuildRandom(10+int(seed), 10, int(seed)%7+2, 2, seed)
		if err != nil {
			t.Fatal(err)
		}
		req := reqFor(t, topo)
		for _, e := range []Engine{NewMinHop(), NewUpDown(), NewDFSSSP(), NewLASH()} {
			res, err := e.Compute(req)
			if err != nil {
				t.Fatalf("seed %d, %s: %v", seed, e.Name(), err)
			}
			if err := Verify(req, res); err != nil {
				t.Fatalf("seed %d, %s: %v", seed, e.Name(), err)
			}
			if e.Name() == "updn" {
				var dlids []ib.LID
				for _, tg := range req.Targets {
					dlids = append(dlids, tg.LID)
				}
				g := cdg.BuildSwitchCDG(topo, newLFTRoutes(req, res), dlids)
				if cyc := g.FindCycle(); cyc != nil {
					t.Fatalf("seed %d: updn CDG cyclic: %v", seed, cyc)
				}
			}
			if e.Name() == "dfsssp" {
				byVL := map[uint8][]ib.LID{}
				for _, tg := range req.Targets {
					byVL[res.DestVL[tg.LID]] = append(byVL[res.DestVL[tg.LID]], tg.LID)
				}
				for vl, dlids := range byVL {
					g := cdg.BuildSwitchCDG(topo, newLFTRoutes(req, res), dlids)
					if cyc := g.FindCycle(); cyc != nil {
						t.Fatalf("seed %d: dfsssp VL %d cyclic: %v", seed, vl, cyc)
					}
				}
			}
		}
	}
}

// TestEnginesHandleSparseLIDsProperty routes targets with deliberately
// sparse, shuffled LIDs (holes, high blocks) — the layout dynamic VM churn
// produces (Fig. 4) — and verifies delivery.
func TestEnginesHandleSparseLIDsProperty(t *testing.T) {
	topo, err := topology.BuildXGFT(topology.XGFTSpec{M: []int{4, 4}, W: []int{1, 4}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	req := &Request{Topo: topo}
	lid := ib.LID(1)
	stride := ib.LID(97) // prime stride spreads LIDs across blocks
	for _, ca := range topo.CAs() {
		req.Targets = append(req.Targets, Target{LID: lid, Node: ca})
		lid += stride
	}
	for _, sw := range topo.Switches() {
		req.Targets = append(req.Targets, Target{LID: lid, Node: sw})
		lid += stride
	}
	for _, e := range engines() {
		res, err := e.Compute(req)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if err := Verify(req, res); err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
	}
}

// TestEnginesDeterministic reruns each engine twice on the same request
// and requires byte-identical LFTs — reproducibility is what lets the
// experiments and the SM's diff distribution work.
func TestEnginesDeterministic(t *testing.T) {
	topo, err := topology.BuildRandom(12, 10, 6, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	req := reqFor(t, topo)
	for _, name := range []string{"minhop", "updn", "dfsssp", "lash"} {
		e1, _ := New(name)
		e2, _ := New(name)
		r1, err := e1.Compute(req)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := e2.Compute(req)
		if err != nil {
			t.Fatal(err)
		}
		for sw, lft1 := range r1.LFTs {
			if d := lft1.Diff(r2.LFTs[sw]); len(d) != 0 {
				t.Errorf("%s: switch %d differs between runs (blocks %v)", name, sw, d)
			}
		}
	}
}
