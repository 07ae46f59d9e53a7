package sm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"ibvsim/internal/routing"
	"ibvsim/internal/telemetry"
	"ibvsim/internal/topology"
)

// sweepCounts renders what the SM's SMP counters and its registry's smp.*
// counters hold, in one line.
func sweepCounts(t *testing.T, s *SubnetManager) string {
	t.Helper()
	c := s.Transport.Counters
	var attrs []string
	for a, n := range c.ByAttr {
		attrs = append(attrs, fmt.Sprintf("%v:%d", a, n))
	}
	slices.Sort(attrs)
	var modes []string
	for m, n := range c.ByMode {
		modes = append(modes, fmt.Sprintf("%v:%d", m, n))
	}
	slices.Sort(modes)
	var buf bytes.Buffer
	if err := s.Telemetry().Metrics.WriteJSON(&buf, telemetry.Options{}); err != nil {
		t.Fatal(err)
	}
	var metrics struct {
		Counters []struct {
			Name  string
			Value int64
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &metrics); err != nil {
		t.Fatal(err)
	}
	var reg []string
	for _, ctr := range metrics.Counters {
		if strings.HasPrefix(ctr.Name, "smp.") {
			reg = append(reg, fmt.Sprintf("%s=%d", strings.TrimPrefix(ctr.Name, "smp."), ctr.Value))
		}
	}
	return fmt.Sprintf("sent=%d set=%d get=%d hops=%d attr=%v mode=%v | %s",
		c.Sent, c.Set, c.Get, c.TotalHops, attrs, modes, strings.Join(reg, " "))
}

// TestSweepCounts pins what discovery counts — the SMPs a sweep reports, the
// transport's counters and the registry's smp.* — after a full sweep, a clean
// light sweep, a light sweep that sees one trunk link down and the resweep
// after it, on the paper's 324-node fat tree and on an 8x8x8 XGFT. The
// figures were recorded when every discovery SMP was counted on its own.
func TestSweepCounts(t *testing.T) {
	fabrics := []struct {
		name  string
		build func() (*topology.Topology, error)
		want  []string
	}{
		{"fattree324", func() (*topology.Topology, error) { return topology.BuildPaperFatTree(324) }, []string{
			"sweep smps=2988 sent=2988 set=0 get=2988 hops=10286 attr=[NodeDescription:360 NodeInfo:1296 PortInfo:1296 SwitchInfo:36] mode=[directed:2988] | attr.NodeDescription=360 attr.NodeInfo=1296 attr.PortInfo=1296 attr.SwitchInfo=36 get=2988 hops=10286 mode.directed=2988 sent=2988 set=0",
			"light smps=36 sent=3024 set=0 get=3024 hops=10374 attr=[NodeDescription:360 NodeInfo:1296 PortInfo:1332 SwitchInfo:36] mode=[directed:3024] | attr.NodeDescription=360 attr.NodeInfo=1296 attr.PortInfo=1332 attr.SwitchInfo=36 get=3024 hops=10374 mode.directed=3024 sent=3024 set=0",
			"light changes=2 smps=35 sent=3059 set=0 get=3059 hops=10459 attr=[NodeDescription:360 NodeInfo:1296 PortInfo:1367 SwitchInfo:36] mode=[directed:3059] | attr.NodeDescription=360 attr.NodeInfo=1296 attr.PortInfo=1367 attr.SwitchInfo=36 get=3059 hops=10459 mode.directed=3059 sent=3059 set=0",
			"resweep nodes=360 smps=2984 sent=6043 set=0 get=6043 hops=20733 attr=[NodeDescription:720 NodeInfo:2590 PortInfo:2661 SwitchInfo:72] mode=[directed:6043] | attr.NodeDescription=720 attr.NodeInfo=2590 attr.PortInfo=2661 attr.SwitchInfo=72 get=6043 hops=20733 mode.directed=6043 sent=6043 set=0",
		}},
		{"xgft512", func() (*topology.Topology, error) {
			return topology.BuildXGFT(topology.XGFTSpec{M: []int{8, 8, 8}, W: []int{1, 8, 8}}, 16)
		}, []string{
			"sweep smps=7040 sent=7040 set=0 get=7040 hops=33734 attr=[NodeDescription:704 NodeInfo:3072 PortInfo:3072 SwitchInfo:192] mode=[directed:7040] | attr.NodeDescription=704 attr.NodeInfo=3072 attr.PortInfo=3072 attr.SwitchInfo=192 get=7040 hops=33734 mode.directed=7040 sent=7040 set=0",
			"light smps=192 sent=7232 set=0 get=7232 hops=34468 attr=[NodeDescription:704 NodeInfo:3072 PortInfo:3264 SwitchInfo:192] mode=[directed:7232] | attr.NodeDescription=704 attr.NodeInfo=3072 attr.PortInfo=3264 attr.SwitchInfo=192 get=7232 hops=34468 mode.directed=7232 sent=7232 set=0",
			"light changes=2 smps=191 sent=7423 set=0 get=7423 hops=35197 attr=[NodeDescription:704 NodeInfo:3072 PortInfo:3455 SwitchInfo:192] mode=[directed:7423] | attr.NodeDescription=704 attr.NodeInfo=3072 attr.PortInfo=3455 attr.SwitchInfo=192 get=7423 hops=35197 mode.directed=7423 sent=7423 set=0",
			"resweep nodes=704 smps=7036 sent=14459 set=0 get=14459 hops=68911 attr=[NodeDescription:1408 NodeInfo:6142 PortInfo:6525 SwitchInfo:384] mode=[directed:14459] | attr.NodeDescription=1408 attr.NodeInfo=6142 attr.PortInfo=6525 attr.SwitchInfo=384 get=14459 hops=68911 mode.directed=14459 sent=14459 set=0",
		}},
	}
	for _, f := range fabrics {
		t.Run(f.name, func(t *testing.T) {
			topo, err := f.build()
			if err != nil {
				t.Fatal(err)
			}
			s := newSM(t, topo, routing.NewMinHop())
			var got []string
			record := func(step string, smps int, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				got = append(got, fmt.Sprintf("%s smps=%d %s", step, smps, sweepCounts(t, s)))
			}
			st, err := s.Sweep()
			record("sweep", st.SMPs, err)
			ls, err := s.LightSweep()
			record("light", ls.SMPs, err)
			// One trunk link of the leaf farthest from the SM goes down.
			cas := topo.CAs()
			leaf := topo.LeafSwitchOf(cas[len(cas)-1])
			for _, p := range topo.Node(leaf).Ports[1:] {
				if p.Peer != topology.NoNode && topo.Node(p.Peer).IsSwitch() {
					if err := topo.SetLinkState(leaf, p.Num, false); err != nil {
						t.Fatal(err)
					}
					break
				}
			}
			ls, err = s.LightSweep()
			record(fmt.Sprintf("light changes=%d", len(ls.Changes)), ls.SMPs, err)
			st, err = s.Resweep()
			record(fmt.Sprintf("resweep nodes=%d", st.Nodes), st.SMPs, err)
			for i, line := range got {
				t.Log(line)
				if line != f.want[i] {
					t.Errorf("after %s\n got %s\nwant %s", strings.Fields(line)[0], line, f.want[i])
				}
			}
		})
	}
}
