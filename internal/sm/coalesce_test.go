package sm

import (
	"testing"

	"ibvsim/internal/ib"
	"ibvsim/internal/routing"
	"ibvsim/internal/smp"
	"ibvsim/internal/topology"
)

// TestPlanRuns pins the run planner: adjacent blocks coalesce up to
// the cap, gaps break runs, and a cap of 0/1 degenerates to one block per
// SMP (the classical wire format).
func TestPlanRuns(t *testing.T) {
	cases := []struct {
		blocks []int
		max    int
		want   []blockRun
	}{
		{[]int{0, 1, 2, 3}, 1, []blockRun{{0, 1}, {1, 1}, {2, 1}, {3, 1}}},
		{[]int{0, 1, 2, 3}, 0, []blockRun{{0, 1}, {1, 1}, {2, 1}, {3, 1}}},
		{[]int{0, 1, 2, 3}, 64, []blockRun{{0, 4}}},
		{[]int{0, 1, 2, 3}, 2, []blockRun{{0, 2}, {2, 2}}},
		{[]int{0, 2, 3, 7}, 64, []blockRun{{0, 1}, {2, 2}, {7, 1}}},
		{nil, 64, []blockRun{}},
	}
	for _, c := range cases {
		got := planRuns(c.blocks, c.max)
		if len(got) != len(c.want) || CoalescedSMPs(c.blocks, c.max) != len(c.want) {
			t.Fatalf("planRuns(%v, %d) = %v, want %v", c.blocks, c.max, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("planRuns(%v, %d) = %v, want %v", c.blocks, c.max, got, c.want)
			}
		}
	}
}

// TestDistributeCoalescingSMPCounts is the coalescing regression: on the
// paper's 324-node fat tree the initial full distribution is exactly 216
// single-block SMPs (Table I's full-RC wire count) with coalescing off, and
// exactly one 6-block SMP per switch (36 SMPs for the same 216 blocks) with
// a generous cap — with byte-identical programmed state either way.
func TestDistributeCoalescingSMPCounts(t *testing.T) {
	bootstrap := func(maxBlocks int) (*SubnetManager, DistributionStats) {
		t.Helper()
		topo, err := topology.BuildPaperFatTree(324)
		if err != nil {
			t.Fatal(err)
		}
		s := newSM(t, topo, routing.NewMinHop())
		s.Dist.MaxBlocksPerSMP = maxBlocks
		_, _, ds, err := s.Bootstrap()
		if err != nil {
			t.Fatal(err)
		}
		return s, ds
	}

	plain, dsPlain := bootstrap(0)
	nsw := plain.Topo.NumSwitches()
	if dsPlain.SMPs != 216 || dsPlain.Blocks != 216 || dsPlain.BlocksCoalesced != 0 {
		t.Fatalf("classical bootstrap: SMPs=%d Blocks=%d Coalesced=%d, want 216/216/0",
			dsPlain.SMPs, dsPlain.Blocks, dsPlain.BlocksCoalesced)
	}

	coal, dsCoal := bootstrap(64)
	if dsCoal.SMPs != nsw || dsCoal.Blocks != 216 || dsCoal.BlocksCoalesced != 216-nsw {
		t.Fatalf("coalesced bootstrap: SMPs=%d Blocks=%d Coalesced=%d, want %d/216/%d",
			dsCoal.SMPs, dsCoal.Blocks, dsCoal.BlocksCoalesced, nsw, 216-nsw)
	}
	if dsCoal.ModelledTime >= dsPlain.ModelledTime {
		t.Errorf("coalescing did not reduce the modelled distribution time: %v >= %v",
			dsCoal.ModelledTime, dsPlain.ModelledTime)
	}
	for _, sw := range plain.Topo.Switches() {
		if !plain.ProgrammedLFT(sw).Equal(coal.ProgrammedLFT(sw)) {
			t.Fatalf("switch %d programmed state differs between coalesced and classical distribution", sw)
		}
	}
}

// TestSetLFTEntriesCoalescing pins the sparse-delta SMP counts of the
// reconfiguration primitive: two entries in adjacent blocks merge into one
// SMP when coalescing is on and stay two SMPs when it is off; blocks
// separated by a gap never merge.
func TestSetLFTEntriesCoalescing(t *testing.T) {
	topo, err := topology.BuildPaperFatTree(324)
	if err != nil {
		t.Fatal(err)
	}
	s := newSM(t, topo, routing.NewMinHop())
	if _, _, _, err := s.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	sw := topo.Switches()[0]

	// Default config: classical one SMP per touched block.
	n, err := s.SetLFTEntriesProv(sw, []ib.LFTEntry{{LID: 10, Port: 1}, {LID: 70, Port: 1}}, smp.DestinationRouted, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("adjacent-block delta with coalescing off sent %d SMPs, want 2", n)
	}

	s.Dist.MaxBlocksPerSMP = 64
	n, err = s.SetLFTEntriesProv(sw, []ib.LFTEntry{{LID: 10, Port: 2}, {LID: 70, Port: 2}}, smp.DestinationRouted, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("adjacent-block delta with coalescing on sent %d SMPs, want 1", n)
	}
	if got := s.Programmed().LFT(sw).Get(10); got != 2 {
		t.Fatalf("entry not applied through coalesced SMP: port %d", got)
	}

	// Blocks 0 and 2 are not adjacent: the gap forces two SMPs.
	n, err = s.SetLFTEntriesProv(sw, []ib.LFTEntry{{LID: 10, Port: 3}, {LID: 140, Port: 3}}, smp.DestinationRouted, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("gapped delta sent %d SMPs, want 2", n)
	}
}

// TestProgrammedBufferSwap checks the publish-by-pointer-swap contract at
// the SM level: the programmed table object observed before a distribution
// is untouched by it (readers holding the old active keep a complete
// table), and the new active is published as a different object.
func TestProgrammedBufferSwap(t *testing.T) {
	topo := smallFT(t)
	s := newSM(t, topo, routing.NewMinHop())
	if _, _, _, err := s.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	sw := topo.Switches()[0]
	before := s.ProgrammedLFT(sw)
	snapshot := before.Clone()

	// Reroute around a failed CA link and redistribute.
	ca := topo.CAs()[3]
	if err := topo.SetLinkState(ca, 1, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resweep(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DistributeDiff(); err != nil {
		t.Fatal(err)
	}

	if !before.Equal(snapshot) {
		t.Fatal("old active table mutated in place; a commit must swap, not patch")
	}
	after := s.ProgrammedLFT(sw)
	if after == before {
		t.Fatal("distribution committed without publishing a new active table")
	}
}
