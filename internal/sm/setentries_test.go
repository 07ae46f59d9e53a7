package sm

import (
	"slices"
	"sync"
	"testing"

	"ibvsim/internal/cdg"
	"ibvsim/internal/ib"
	"ibvsim/internal/routing"
	"ibvsim/internal/smp"
	"ibvsim/internal/telemetry"
	"ibvsim/internal/topology"
)

// dropSender passes SMPs through to the real transport except the send
// attempts drop picks (numbered from 1): those never reach the switch, and
// the sender times out exactly as under a faulty fabric.
type dropSender struct {
	inner smp.Sender
	sent  int
	drop  func(n int) bool
}

func (d *dropSender) lost() bool {
	d.sent++
	return d.drop(d.sent)
}

func (d *dropSender) SendDirected(src topology.NodeID, p *smp.SMP) (topology.NodeID, error) {
	if d.lost() {
		return topology.NoNode, smp.ErrTimeout
	}
	return d.inner.SendDirected(src, p)
}

func (d *dropSender) SendLIDRouted(src topology.NodeID, p *smp.SMP, r cdg.Routes) (topology.NodeID, error) {
	if d.lost() {
		return topology.NoNode, smp.ErrTimeout
	}
	return d.inner.SendLIDRouted(src, p, r)
}

// bootedSM is a bootstrapped SM on the small fat tree.
func bootedSM(t testing.TB) *SubnetManager {
	t.Helper()
	topo, err := topology.BuildXGFT(topology.XGFTSpec{M: []int{4, 4}, W: []int{1, 4}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(topo, topo.CAs()[0], routing.NewMinHop())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	return s
}

// smpSpansSince counts the smp spans emitted after span ID after.
func smpSpansSince(s *SubnetManager, after int) int {
	n := 0
	for _, sp := range s.Telemetry().Tracer().SpansSince(after) {
		if sp.Kind == telemetry.SpanSMP {
			n++
		}
	}
	return n
}

// other returns a port different from p.
func other(p ib.PortNum) ib.PortNum { return p%4 + 1 }

// TestLostSMPIsNotCommitted pins the write rule SetLFTEntriesProv shares
// with the distribution engine: edit a clone, send, then publish only what
// the switch acknowledged. A lost SMP left the switch as it was, so the SM's
// programmed view — the simulator's physical truth — must not hold it.
func TestLostSMPIsNotCommitted(t *testing.T) {
	prov := &ib.Provenance{Mutation: ib.NextMutationID(), Engine: "test", Reason: "lost smp", Shard: ib.ShardNone}

	t.Run("everything-dropped", func(t *testing.T) {
		s := bootedSM(t)
		sw := s.Topo.Switches()[0]
		before := s.ProgrammedLFT(sw)
		target := s.TargetLFT(sw).Clone()
		s.sender = &dropSender{inner: s.Transport, drop: func(int) bool { return true }}
		first := s.Telemetry().Tracer().LastSpanID()

		n, err := s.SetLFTEntriesProv(sw, []ib.LFTEntry{{LID: 10, Port: other(before.Get(10))}}, smp.DirectedRoute, prov, nil)
		if err == nil {
			t.Fatal("write with every SMP lost returned no error")
		}
		if n != 0 {
			t.Errorf("acknowledged SMPs = %d, want 0", n)
		}
		if s.ProgrammedLFT(sw) != before {
			t.Error("programmed table replaced although nothing was delivered")
		}
		if !s.TargetLFT(sw).Equal(target) {
			t.Error("target view patched by a write that never landed")
		}
		if got := smpSpansSince(s, first); got != 1 {
			t.Errorf("%d smp spans, want 1 (one per attempted run)", got)
		}
	})

	t.Run("second-run-dropped", func(t *testing.T) {
		s := bootedSM(t)
		s.Dist.MaxBlocksPerSMP = 1
		s.Dist.Retry.MaxAttempts = 1
		sw := s.Topo.Switches()[0]
		before := s.ProgrammedLFT(sw)
		target := s.TargetLFT(sw).Clone()
		p0, p2 := other(before.Get(10)), other(before.Get(140))
		s.sender = &dropSender{inner: s.Transport, drop: func(n int) bool { return n == 2 }}
		first := s.Telemetry().Tracer().LastSpanID()

		n, err := s.SetLFTEntriesProv(sw, []ib.LFTEntry{{LID: 10, Port: p0}, {LID: 140, Port: p2}}, smp.DirectedRoute, prov, nil)
		if err == nil {
			t.Fatal("write with its second SMP lost returned no error")
		}
		if n != 1 {
			t.Errorf("acknowledged SMPs = %d, want 1", n)
		}
		prog := s.ProgrammedLFT(sw)
		if prog.Get(10) != p0 || prog.ProvenanceOf(10) != prov {
			t.Errorf("block 0 edit: port %d stamp %v, want port %d stamped %v", prog.Get(10), prog.ProvenanceOf(10), p0, prov)
		}
		if prog.Get(140) != before.Get(140) {
			t.Errorf("block 2 edit published although its SMP was lost: port %d", prog.Get(140))
		}
		if before.Get(10) == p0 {
			t.Error("old programmed table mutated in place")
		}
		if !s.TargetLFT(sw).Equal(target) {
			t.Error("target view patched by a write that failed")
		}
		if got := smpSpansSince(s, first); got != 2 {
			t.Errorf("%d smp spans, want 2 (one per attempted run)", got)
		}
	})

	// A lost run in the middle abandons only its own blocks: the runs after
	// it are still sent and published, as a distribution sends them.
	t.Run("middle-run-dropped", func(t *testing.T) {
		s := bootedSM(t)
		s.Dist.MaxBlocksPerSMP = 1
		s.Dist.Retry.MaxAttempts = 1
		sw := s.Topo.Switches()[0]
		before := s.ProgrammedLFT(sw)
		target := s.TargetLFT(sw).Clone()
		p0, p2, p3 := other(before.Get(10)), other(before.Get(140)), other(before.Get(200))
		s.sender = &dropSender{inner: s.Transport, drop: func(n int) bool { return n == 2 }}
		first := s.Telemetry().Tracer().LastSpanID()

		n, err := s.SetLFTEntriesProv(sw, []ib.LFTEntry{{LID: 10, Port: p0}, {LID: 140, Port: p2}, {LID: 200, Port: p3}}, smp.DirectedRoute, prov, nil)
		if err == nil {
			t.Fatal("write with its second SMP lost returned no error")
		}
		if n != 2 {
			t.Errorf("acknowledged SMPs = %d, want 2", n)
		}
		prog := s.ProgrammedLFT(sw)
		for _, e := range []ib.LFTEntry{{LID: 10, Port: p0}, {LID: 200, Port: p3}} {
			if prog.Get(e.LID) != e.Port || prog.ProvenanceOf(e.LID) != prov {
				t.Errorf("LID %d: port %d stamp %v, want port %d stamped %v", e.LID, prog.Get(e.LID), prog.ProvenanceOf(e.LID), e.Port, prov)
			}
		}
		if prog.Get(140) != before.Get(140) || prog.ProvenanceOf(140) != before.ProvenanceOf(140) {
			t.Errorf("block 2 published although its SMP was lost: port %d", prog.Get(140))
		}
		if !s.TargetLFT(sw).Equal(target) {
			t.Error("target view patched by a write that failed")
		}
		if got := smpSpansSince(s, first); got != 3 {
			t.Errorf("%d smp spans, want 3 (one per attempted run)", got)
		}
	})
}

// TestEntryWriteMatchesDistribution pins the entry write to the distribution
// it shares its routine with: on twin fabrics with the same lossy transport,
// writing entries of one switch with SetLFTEntriesProv and distributing the
// same entries from the target must send the same runs, meet the same
// faults and publish the same table.
func TestEntryWriteMatchesDistribution(t *testing.T) {
	lids := []ib.LID{5, 70, 140, 200}
	for seed := int64(1); seed <= 30; seed++ {
		twin := func() *SubnetManager {
			s := bootedSM(t)
			s.Dist.Workers = 1
			s.Dist.Retry.MaxAttempts = 1
			s.InjectFaults(smp.FaultConfig{Drop: 0.4, Seed: seed})
			return s
		}
		write, dist := twin(), twin()
		sw := write.Topo.Switches()[0]
		var entries []ib.LFTEntry
		for _, l := range lids {
			entries = append(entries, ib.LFTEntry{LID: l, Port: other(write.ProgrammedLFT(sw).Get(l))})
		}

		wrote, _ := write.SetLFTEntriesProv(sw, entries, smp.DirectedRoute, nil, nil)
		tgt := dist.TargetLFT(sw).Clone()
		for _, e := range entries {
			tgt.Set(e.LID, e.Port)
		}
		dist.SetTargetLFT(sw, tgt)
		st, err := dist.DistributeDiff()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if wrote != st.SMPs {
			t.Errorf("seed %d: entry write acknowledged %d SMPs, distribution %d", seed, wrote, st.SMPs)
		}
		if !write.ProgrammedLFT(sw).Equal(dist.ProgrammedLFT(sw)) {
			t.Errorf("seed %d: entry write and distribution programmed different tables", seed)
		}
	}
}

// FuzzSetLFTEntries checks that the SM's sparse write follows one packing
// rule and publishes exactly its edits. Each input is a list of (LID, port)
// entries — unsorted, with repeated LIDs and writes of the port already
// there — and a MaxBlocksPerSMP of 0, 1, 4 or 64. The SMPs returned must
// equal the smp spans emitted and CoalescedSMPs over the blocks in which some
// entry changed a port (without repeated LIDs: before.Diff(after)), and the
// published table must be the old one with the entries applied in order.
func FuzzSetLFTEntries(f *testing.F) {
	f.Add(uint8(0), []byte{10, 0, 1, 70, 0, 2})
	f.Add(uint8(2), []byte{140, 0, 3, 10, 0, 1, 10, 0, 2, 200, 1, 0})
	f.Add(uint8(3), []byte{1, 0, 1, 65, 0, 1, 129, 0, 1, 193, 0, 1, 1, 0, 1})
	s := bootedSM(f)
	sw := s.Topo.Switches()[0]
	caps := [...]int{0, 1, 4, 64}
	f.Fuzz(func(t *testing.T, capIdx uint8, raw []byte) {
		s.Dist.MaxBlocksPerSMP = caps[int(capIdx)%len(caps)]
		var entries []ib.LFTEntry
		for i := 0; i+2 < len(raw); i += 3 {
			lid := ib.LID(int(raw[i])|int(raw[i+1])<<8) % (8 * ib.LFTBlockSize)
			entries = append(entries, ib.LFTEntry{LID: lid, Port: ib.PortNum(raw[i+2] % 4)})
		}
		before := s.ProgrammedLFT(sw)

		// The reference: replay the entries on a copy, noting each block in
		// which a write changed the port it found.
		want := before.Clone()
		var changed []int
		seen := map[ib.LID]bool{}
		repeats := false
		for _, e := range entries {
			if want.Get(e.LID) != e.Port {
				changed = append(changed, ib.BlockOf(e.LID))
			}
			want.Set(e.LID, e.Port)
			repeats = repeats || seen[e.LID]
			seen[e.LID] = true
		}
		slices.Sort(changed)
		changed = slices.Compact(changed)

		first := s.Telemetry().Tracer().LastSpanID()
		n, err := s.SetLFTEntriesProv(sw, entries, smp.DirectedRoute, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		after := s.ProgrammedLFT(sw)
		if spans := smpSpansSince(s, first); n != spans {
			t.Fatalf("returned %d SMPs, emitted %d smp spans", n, spans)
		}
		if w := CoalescedSMPs(changed, s.Dist.MaxBlocksPerSMP); n != w {
			t.Fatalf("returned %d SMPs, CoalescedSMPs(%v, %d) = %d", n, changed, s.Dist.MaxBlocksPerSMP, w)
		}
		if diff := before.Diff(after); !repeats && !slices.Equal(diff, changed) {
			t.Fatalf("changed blocks %v, before.Diff(after) = %v", changed, diff)
		}
		if !after.Equal(want) {
			t.Fatal("published table is not the old one with the entries applied in order")
		}
	})
}

// TestSetLFTEntriesConcurrentColumns: shard actors write disjoint LID
// columns of one switch at once, several of them inside the same 64-LID
// block. The stripe lock spans clone, send and commit, so no writer may
// publish over another's acknowledged entries: the final tables hold every
// column's last write, and the smp spans equal the SMPs the calls returned.
func TestSetLFTEntriesConcurrentColumns(t *testing.T) {
	s := bootedSM(t)
	sw := s.Topo.Switches()[0]
	const writers, rounds, lidsPer = 8, 20, 16
	// Writer w owns LIDs w+1, w+1+8, ...: every block holds all eight columns.
	column := func(w int) []ib.LID {
		lids := make([]ib.LID, lidsPer)
		for k := range lids {
			lids[k] = ib.LID(w + 1 + writers*k)
		}
		return lids
	}
	port := func(w, round int) ib.PortNum { return ib.PortNum((w+round)%4 + 1) }

	first := s.Telemetry().Tracer().LastSpanID()
	var wg sync.WaitGroup
	sums := make([]int, writers)
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lids := column(w)
			for r := 0; r < rounds; r++ {
				entries := make([]ib.LFTEntry, len(lids))
				for k, l := range lids {
					entries[k] = ib.LFTEntry{LID: l, Port: port(w, r)}
				}
				n, err := s.SetLFTEntriesProv(sw, entries, smp.DirectedRoute, nil, nil)
				if err != nil {
					errs[w] = err
					return
				}
				sums[w] += n
			}
		}(w)
	}
	wg.Wait()

	total := 0
	for w := 0; w < writers; w++ {
		if errs[w] != nil {
			t.Fatalf("writer %d: %v", w, errs[w])
		}
		total += sums[w]
		want := port(w, rounds-1)
		for _, l := range column(w) {
			if got := s.ProgrammedLFT(sw).Get(l); got != want {
				t.Errorf("programmed LID %d (writer %d) = port %d, want %d", l, w, got, want)
			}
			if got := s.TargetLFT(sw).Get(l); got != want {
				t.Errorf("target LID %d (writer %d) = port %d, want %d", l, w, got, want)
			}
		}
	}
	if spans := smpSpansSince(s, first); spans != total {
		t.Errorf("%d smp spans, calls returned %d SMPs", spans, total)
	}
}

// TestSparseWriteAllocs: a sparse write costs its entries and its call, not
// its SMPs. The same four adjacent blocks, sent as one coalesced run and as
// four single-block runs, must allocate the same: the packet, the boxed span
// attributes and the run list are per call, so the per-SMP allocation is
// zero. (The tracer's record store grows a chunk per 256 spans; over 256
// calls that is well under one allocation per call, which AllocsPerRun's
// whole-number average does not see.)
func TestSparseWriteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, mode := range []smp.Mode{smp.DestinationRouted, smp.DirectedRoute} {
		t.Run(mode.String(), func(t *testing.T) {
			allocs := func(maxBlocks int) (float64, int) {
				s := bootedSM(t)
				s.Dist.MaxBlocksPerSMP = maxBlocks
				sw := s.Topo.Switches()[0]
				prov := &ib.Provenance{Mutation: ib.NextMutationID(), Engine: "test", Reason: "allocs", Shard: ib.ShardNone}
				// Two writes of LIDs 10, 74, 138, 202 (blocks 0-3) that
				// undo each other, so every call changes all four blocks.
				var writes [2][]ib.LFTEntry
				for _, l := range []ib.LID{10, 74, 138, 202} {
					writes[0] = append(writes[0], ib.LFTEntry{LID: l, Port: 1})
					writes[1] = append(writes[1], ib.LFTEntry{LID: l, Port: 2})
				}
				var runs, i int
				write := func() {
					n, err := s.SetLFTEntriesProv(sw, writes[i%2], mode, prov, nil)
					if err != nil {
						t.Fatal(err)
					}
					runs, i = n, i+1
				}
				return testing.AllocsPerRun(256, write), runs
			}
			one, oneRuns := allocs(4)
			four, fourRuns := allocs(1)
			if oneRuns != 1 || fourRuns != 4 {
				t.Fatalf("sent %d and %d runs, want 1 and 4", oneRuns, fourRuns)
			}
			t.Logf("%s: %.0f allocations per call, with 1 run or 4", mode, one)
			if four != one {
				t.Errorf("4 runs allocate %.0f per call, 1 run %.0f: an SMP allocates", four, one)
			}
		})
	}
}
