package sm

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ibvsim/internal/ib"
	"ibvsim/internal/smp"
	"ibvsim/internal/telemetry"
	"ibvsim/internal/topology"
)

// RetryPolicy governs how the distribution engine reacts to lost SMPs. Real
// subnets drop and delay SMPs; OpenSM retransmits after a response timeout
// rather than assuming every LFT block arrives.
type RetryPolicy struct {
	// MaxAttempts is the total number of times one SMP is sent before the
	// block is abandoned (1 = never retry).
	MaxAttempts int
	// Timeout is the modelled wait before a missing response is declared
	// lost. It should comfortably exceed the SMP round trip (k+r).
	Timeout time.Duration
	// Backoff is the modelled pause before the first retransmission; it
	// doubles on every further attempt.
	Backoff time.Duration
}

// DefaultRetryPolicy retries up to 5 attempts with a 50us response timeout
// and 20us exponential backoff — an OpenSM-like budget at QDR magnitudes.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 5, Timeout: 50 * time.Microsecond, Backoff: 20 * time.Microsecond}
}

func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// backoffBefore returns the modelled backoff preceding the given retry
// (retry 1 = first retransmission), doubling each time.
func (p RetryPolicy) backoffBefore(retry int) time.Duration {
	if p.Backoff <= 0 || retry < 1 {
		return 0
	}
	return p.Backoff << uint(retry-1)
}

// DistributionConfig sets the concurrency and retry behaviour of the LFT
// distribution engine.
type DistributionConfig struct {
	// Workers is the number of switches programmed in parallel. Each
	// switch's blocks stay strictly ordered on one worker (per-switch
	// serial channels, as OpenSM pipelines per switch); 1 reproduces the
	// fully serial distribution of the paper's "no pipelining" equations.
	Workers int
	// Retry is the per-SMP retransmission policy.
	Retry RetryPolicy
	// MaxBlocksPerSMP bounds how many *adjacent* changed 64-LID blocks one
	// SMP may program (AttrMod..AttrMod+n-1). 0 and 1 keep the classical
	// one-block-per-SMP wire format; raising it coalesces runs of adjacent
	// changed blocks into multi-block SMPs, cutting the SMP count of dense
	// deltas at a small per-extra-block payload cost (CostModel.ExtraBlock).
	// The retry unit is the whole run: a lost multi-block SMP retransmits
	// every block it carried.
	MaxBlocksPerSMP int
}

// DefaultDistributionConfig uses 8 parallel switch workers, the default
// retry policy, and classical one-block SMPs (no coalescing).
func DefaultDistributionConfig() DistributionConfig {
	return DistributionConfig{Workers: 8, Retry: DefaultRetryPolicy()}
}

// DistributionStats reports the cost of pushing LFTs to the switches.
type DistributionStats struct {
	// SwitchesUpdated counts switches whose every differing block was
	// acknowledged; SwitchesSkipped counts unreachable switches left for a
	// later resweep; SwitchesFailed counts switches where at least one
	// block was abandoned or hit a hard transport error.
	SwitchesUpdated int
	SwitchesSkipped int
	SwitchesFailed  int
	// SwitchesCancelled counts switches whose programming was cut short by
	// context cancellation (daemon shutdown): blocks already acknowledged
	// are committed to the programmed view, the rest stay pending for the
	// next distribution.
	SwitchesCancelled int
	// SMPs counts unique LFT Set SMPs acknowledged by switches. An SMP that
	// needed several attempts still counts once here; the extra attempts
	// are SMPsRetried. SMPsAbandoned SMPs exhausted the retry budget (each
	// abandoning every block its run carried). With coalescing off
	// (MaxBlocksPerSMP <= 1) one SMP is one block, so SMPs == Blocks.
	SMPs          int
	SMPsRetried   int
	SMPsAbandoned int
	// Blocks counts the 64-LID blocks actually delivered; BlocksCoalesced =
	// Blocks - SMPs is how many SMPs multi-block coalescing saved.
	Blocks          int
	BlocksCoalesced int
	// Workers is the configured pool size (clamped to at least 1): the
	// parallelism available to the engine. The actual fan-out never exceeds
	// the job count, but an up-to-date fabric still reports the configured
	// size rather than a misleading zero.
	Workers int
	// ModelledTime applies the SM's cost model (eq. 2/4/5) plus the retry
	// policy's timeout/backoff costs to the attempts actually made, with
	// switches pipelined over the workers (makespan of the per-switch
	// serial channels).
	ModelledTime time.Duration
	Mode         smp.Mode
	Duration     time.Duration // wall time of the simulation itself
}

// DistributeDiff reconciles every switch's programmed LFT with the target
// LFT, sending one SMP per run of adjacent differing 64-LID blocks (up to
// MaxBlocksPerSMP blocks a run; one block by default), using directed-route
// SMPs (the OpenSM default for reconfiguration, since routes toward the
// switches may themselves be changing).
func (s *SubnetManager) DistributeDiff() (DistributionStats, error) {
	return s.distribute(context.Background(), false, smp.DirectedRoute)
}

// DistributeDiffCtx is DistributeDiff under a context: cancelling ctx makes
// the worker pool stop claiming switches and cut in-flight switches short
// after their current block, returning ctx.Err() with the partial stats.
func (s *SubnetManager) DistributeDiffCtx(ctx context.Context) (DistributionStats, error) {
	return s.distribute(ctx, false, smp.DirectedRoute)
}

// DistributeFull re-sends the complete populated table of every switch —
// blocks 0 through the top populated block — which is what the paper's
// traditional full reconfiguration does ("a full reconfiguration will have
// to update the complete LFT on each switch", section VII-C). Table I's
// "Min SMPs Full RC" column equals the SMPs this method sends when LIDs are
// densely assigned.
func (s *SubnetManager) DistributeFull() (DistributionStats, error) {
	return s.distribute(context.Background(), true, smp.DirectedRoute)
}

// blockRun is a maximal (up to MaxBlocksPerSMP) run of adjacent changed
// blocks sent as one SMP: AttrMod = start, Blocks = n.
type blockRun struct {
	start, n int
}

// planRuns coalesces an ascending block list into runs of adjacent blocks,
// each at most max long. max <= 1 degenerates to one block per run — the
// classical wire format.
func planRuns(blocks []int, max int) []blockRun {
	return appendRuns(make([]blockRun, 0, len(blocks)), blocks, max)
}

// appendRuns is planRuns appending to runs, so a caller that sends a couple
// of runs can plan them into a buffer of its own.
func appendRuns(runs []blockRun, blocks []int, max int) []blockRun {
	if max < 1 {
		max = 1
	}
	for _, b := range blocks {
		if n := len(runs); n > 0 && runs[n-1].start+runs[n-1].n == b && runs[n-1].n < max {
			runs[n-1].n++
			continue
		}
		runs = append(runs, blockRun{start: b, n: 1})
	}
	return runs
}

// CoalescedSMPs returns how many SMPs the distribution engine sends for an
// ascending changed-block list under MaxBlocksPerSMP = max: the one packing
// rule, exported so a dry run (the reconciler's shadow coster) predicts
// applied SMP counts with the planner that will produce them.
func CoalescedSMPs(blocks []int, max int) int {
	var buf [8]blockRun // a planned switch's few runs: nothing on the heap
	return len(appendRuns(buf[:0], blocks, max))
}

// distJob is one switch's share of a distribution: the block runs to push
// (one SMP each) and the target table they come from.
type distJob struct {
	sw      topology.NodeID
	tgt     *ib.LFT
	nblocks int
	runs    []blockRun
}

// writeResult is what programSwitch reports for one switch's write.
type writeResult struct {
	smps      int   // SMPs (runs) acknowledged
	blocks    int   // blocks those SMPs carried
	retried   int   // retransmissions beyond each SMP's first attempt
	abandoned int   // SMPs that exhausted the retry budget
	lost      error // why the first abandoned SMP was abandoned
	cancelled bool  // context cancellation cut the write short
	modelled  time.Duration
	err       error // hard transport error (stops the remaining runs)
}

// distribute runs the concurrent distribution engine: independent switches
// are programmed in parallel by a bounded worker pool, while each switch's
// blocks remain strictly ordered. Lost SMPs (smp.ErrTimeout from a faulty
// transport) are retransmitted per the retry policy; hard transport errors
// abort the affected switch but the other switches still complete.
func (s *SubnetManager) distribute(ctx context.Context, full bool, mode smp.Mode) (DistributionStats, error) {
	start := time.Now()
	var st DistributionStats
	st.Mode = mode
	if !s.routed {
		return st, fmt.Errorf("sm: distribute before ComputeRoutes")
	}

	// Plan sequentially: per-switch block lists plus the unreachable set.
	var jobs []distJob
	var skipped []string
	for _, swID := range s.Topo.Switches() {
		if !s.Reachable(swID) {
			st.SwitchesSkipped++
			skipped = append(skipped, s.Topo.Node(swID).Desc)
			continue
		}
		tgt := s.TargetLFT(swID)
		if tgt == nil {
			return st, fmt.Errorf("sm: switch %q has no target LFT", s.Topo.Node(swID).Desc)
		}
		prog := s.ProgrammedLFT(swID)
		var blocks []int
		if full || prog == nil {
			top := tgt.TopPopulatedBlock()
			for b := 0; b <= top; b++ {
				blocks = append(blocks, b)
			}
		} else {
			blocks = prog.Diff(tgt)
		}
		if len(blocks) == 0 {
			continue
		}
		jobs = append(jobs, distJob{sw: swID, tgt: tgt, nblocks: len(blocks),
			runs: planRuns(blocks, s.Dist.MaxBlocksPerSMP)})
	}

	// Report the configured pool size; the fan-out below is separately
	// clamped to the job count so an up-to-date fabric (zero jobs) never
	// reads as "workers=0".
	workers := s.Dist.Workers
	if workers < 1 {
		workers = 1
	}
	st.Workers = workers

	mode2 := "diff"
	if full {
		mode2 = "full"
	}
	span := s.tel.Tracer().Start(telemetry.SpanLFTDistribute, mode2)
	defer func() {
		span.SetAttr("workers", st.Workers)
		span.SetAttr("smps", st.SMPs)
		span.SetAttr("blocks", st.Blocks)
		span.SetAttr("coalesced", st.BlocksCoalesced)
		span.SetAttr("retried", st.SMPsRetried)
		span.SetAttr("abandoned", st.SMPsAbandoned)
		span.SetAttr("switches_updated", st.SwitchesUpdated)
		span.SetAttr("switches_skipped", st.SwitchesSkipped)
		span.SetAttr("switches_failed", st.SwitchesFailed)
		span.SetAttr("switches_cancelled", st.SwitchesCancelled)
		span.SetModelled(st.ModelledTime)
		span.End()
	}()

	if len(jobs) == 0 {
		// Nothing to reconcile: no goroutines, no distribute(workers=0)
		// noise — just an explicit up-to-date event.
		st.Duration = time.Since(start)
		s.log.Addf(EvDistribute, "distribute(full=%v): all reachable switches up to date", full)
		if len(skipped) > 0 {
			s.log.Addf(EvDistribute, "distribute: skipped %d unreachable switches: %s",
				len(skipped), strings.Join(skipped, ", "))
		}
		return st, nil
	}

	// The fabric is about to mix Rold (programmed) and Rnew (target): give
	// the transient-deadlock monitor its look before the first SMP flies.
	if s.OnDistribute != nil {
		s.OnDistribute(s.Programmed(), s.Target())
	}

	fanout := workers
	if fanout > len(jobs) {
		fanout = len(jobs)
	}

	// Fan out: workers claim jobs by atomic index and write results into
	// their own slots; the transport guards its own counters. A distribution
	// records each SMP's modelled time in a histogram and emits no span.
	smpHist := s.tel.Registry().Histogram("sm.dist.smp_modelled_us", nil)
	observe := func(_ blockRun, _ int, cost time.Duration) { smpHist.ObserveDuration(cost) }
	results := make([]writeResult, len(jobs))
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < fanout; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(jobs) {
					return
				}
				// After a cancellation every job still gets a (cancelled)
				// result, but sends nothing further.
				job := jobs[i]
				results[i] = s.programSwitch(ctx, job.sw, job.tgt, job.runs, mode, observe)
			}
		}()
	}
	wg.Wait()

	// Join: fold results into the stats and model the makespan of
	// scheduling the per-switch channels over the workers.
	var firstErr error
	clocks := make([]time.Duration, fanout)
	for i, r := range results {
		job := jobs[i]
		st.SMPs += r.smps
		st.Blocks += r.blocks
		st.SMPsRetried += r.retried
		st.SMPsAbandoned += r.abandoned
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
		switch {
		case r.cancelled && r.err == nil && r.abandoned == 0:
			// Shutdown cut this switch short: the rest waits for the next
			// distribution.
			st.SwitchesCancelled++
			s.log.Addf(EvDistribute, "distribute: %q cancelled: %d/%d blocks delivered",
				s.Topo.Node(job.sw).Desc, r.blocks, job.nblocks)
		case r.err == nil && r.abandoned == 0:
			st.SwitchesUpdated++
		default:
			st.SwitchesFailed++
			s.log.Addf(EvFailure, "distribute: %q incomplete: %d/%d blocks delivered, %d SMPs abandoned (%v)",
				s.Topo.Node(job.sw).Desc, r.blocks, job.nblocks, r.abandoned, r.err)
		}
		if r.retried > 0 {
			s.log.Addf(EvRetry, "distribute: %q needed %d retransmissions for %d SMPs",
				s.Topo.Node(job.sw).Desc, r.retried, len(job.runs))
		}
		// Greedy list scheduling: each switch goes to the earliest-free
		// worker, so the modelled time is the makespan across channels.
		min := 0
		for w := 1; w < fanout; w++ {
			if clocks[w] < clocks[min] {
				min = w
			}
		}
		clocks[min] += r.modelled
	}
	for _, c := range clocks {
		if c > st.ModelledTime {
			st.ModelledTime = c
		}
	}
	st.BlocksCoalesced = st.Blocks - st.SMPs

	st.Duration = time.Since(start)
	reg := s.tel.Registry()
	reg.Counter("sm.dist.smps").Add(int64(st.SMPs))
	reg.Counter("sm.dist.blocks").Add(int64(st.Blocks))
	reg.Counter("sm.dist.coalesced").Add(int64(st.BlocksCoalesced))
	reg.Counter("sm.dist.retried").Add(int64(st.SMPsRetried))
	reg.Counter("sm.dist.abandoned").Add(int64(st.SMPsAbandoned))
	reg.Histogram("sm.dist.makespan_modelled_us", nil).ObserveDuration(st.ModelledTime)
	s.log.Addf(EvDistribute, "distribute(full=%v, workers=%d): %d SMPs to %d switches (%d retried, %d abandoned), modelled %v",
		full, workers, st.SMPs, st.SwitchesUpdated, st.SMPsRetried, st.SMPsAbandoned, st.ModelledTime)
	if len(skipped) > 0 {
		s.log.Addf(EvDistribute, "distribute: skipped %d unreachable switches: %s",
			len(skipped), strings.Join(skipped, ", "))
	}
	if st.SwitchesCancelled > 0 && firstErr == nil {
		firstErr = ctx.Err()
	}
	return st, firstErr
}

// commitPartial publishes a write whose SMPs were not all acknowledged: the
// next active table is the old active (or an empty table sized from the
// source's geometry) with only the blocks of the acknowledged runs of from
// copied in, swapped in atomically so readers never see a half-merged
// mixture.
func (s *SubnetManager) commitPartial(sw topology.NodeID, from *ib.LFT, acked []blockRun) {
	if len(acked) == 0 && s.ProgrammedLFT(sw) != nil {
		return // nothing landed; the old active table still holds
	}
	var next *ib.LFT
	if cur := s.ProgrammedLFT(sw); cur != nil {
		next = cur.Clone()
	} else {
		// Size the fallback table from the source's geometry, not a
		// reconstructed top LID, so the programmed view can never drift
		// from the table it is shadowing.
		next = ib.NewLFTBlocks(from.NumBlocks())
	}
	for _, run := range acked {
		for b := run.start; b < run.start+run.n; b++ {
			next.CopyBlockFrom(from, b)
		}
	}
	s.commitProgrammed(sw, next)
}

// attemptCost models the serial-channel time one SMP spent after the given
// number of send attempts: an acknowledged attempt costs one SMP round trip
// (plus the per-extra-block surcharge for a coalesced run), a lost one
// costs the response timeout, and every retry pays the (doubling) backoff
// preceding it.
func (s *SubnetManager) attemptCost(mode smp.Mode, nBlocks, attempts int, err error) time.Duration {
	pol := s.Dist.Retry
	timeouts := attempts - 1
	if err != nil && errors.Is(err, smp.ErrTimeout) {
		timeouts = attempts // the final attempt timed out too
	}
	d := time.Duration(timeouts) * pol.Timeout
	for retry := 1; retry < attempts; retry++ {
		d += pol.backoffBefore(retry)
	}
	if err == nil {
		d += s.Cost.MultiBlockSMPTime(mode, nBlocks)
	}
	return d
}

// programSwitch is the one routine that programs a switch's LFT. It sends
// the runs in order, each through sendRunReliably, charges every SMP's
// attempts with attemptCost and hands them to onSMP (the caller's record of
// an SMP: a span, a histogram sample). A run that exhausts its retries is
// abandoned and the next one is sent; a hard transport error, or a
// cancelled ctx before the next run, stops the sends. Then it publishes
// what the switch acknowledged: written itself when every run was, else the
// old table plus the acknowledged blocks of written (commitPartial). The
// acknowledged runs are moved to the front of runs, so the caller's list is
// scratch afterwards.
func (s *SubnetManager) programSwitch(ctx context.Context, sw topology.NodeID, written *ib.LFT, runs []blockRun, mode smp.Mode,
	onSMP func(run blockRun, attempts int, cost time.Duration)) writeResult {
	var res writeResult
	var p smp.SMP // one packet for every run and retry of this write
	for _, run := range runs {
		if ctx.Err() != nil {
			res.cancelled = true
			break
		}
		attempts, err := s.sendRunReliably(&p, sw, run, mode)
		cost := s.attemptCost(mode, run.n, attempts, err)
		onSMP(run, attempts, cost)
		res.modelled += cost
		res.retried += attempts - 1
		if err == nil {
			runs[res.smps] = run
			res.smps++
			res.blocks += run.n
			continue
		}
		if !errors.Is(err, smp.ErrTimeout) {
			res.err = err
			break
		}
		// A lost SMP left its blocks as they were on the switch.
		res.abandoned++
		if res.lost == nil {
			res.lost = err
		}
	}
	if res.smps == len(runs) {
		s.commitProgrammed(sw, written)
	} else {
		s.commitPartial(sw, written, runs[:res.smps])
	}
	return res
}

// sendRunReliably sends one LFT SMP (a run of one or more adjacent blocks)
// in the packet p, retrying on timeout per Dist.Retry. It returns the
// attempts made and, when the SMP was never acknowledged, an error:
// smp.ErrTimeout-wrapped when the retry budget ran out, or the hard
// transport error that aborted the send.
func (s *SubnetManager) sendRunReliably(p *smp.SMP, sw topology.NodeID, run blockRun, mode smp.Mode) (int, error) {
	max := s.Dist.Retry.attempts()
	for attempt := 1; ; attempt++ {
		err := s.sendLFTRun(p, sw, run, mode)
		if err == nil {
			return attempt, nil
		}
		if !errors.Is(err, smp.ErrTimeout) {
			return attempt, err
		}
		if attempt == max {
			return attempt, fmt.Errorf("sm: LFT block %d(+%d) for %q abandoned after %d attempts: %w",
				run.start, run.n-1, s.Topo.Node(sw).Desc, max, err)
		}
	}
}

// sendLFTRun emits one LinearForwardingTable Set SMP for the given block
// run of the given switch, validating deliverability through the LFT sender
// (the raw transport, or the fault-injecting wrapper when faults are on).
// The packet is the caller's: it escapes through the sender interface, so a
// caller that sends many runs hands the same one to every attempt, and each
// attempt rewrites it whole (keeping only the path's storage).
func (s *SubnetManager) sendLFTRun(p *smp.SMP, sw topology.NodeID, run blockRun, mode smp.Mode) error {
	*p = smp.SMP{
		Attr:    smp.AttrLinearFwdTbl,
		AttrMod: uint32(run.start),
		Blocks:  run.n,
		IsSet:   true,
		Path:    p.Path[:0],
	}
	if mode == smp.DirectedRoute {
		p.Path = append(p.Path, s.pathTo(sw)...)
		got, err := s.lftSender().SendDirected(s.SMNode, p)
		if err != nil {
			return err
		}
		if got != sw {
			return fmt.Errorf("sm: directed path for %q delivered to %d", s.Topo.Node(sw).Desc, got)
		}
		return nil
	}
	dlid := s.lidOf[sw]
	if dlid == ib.LIDUnassigned {
		return fmt.Errorf("sm: switch %q has no LID for destination-routed SMP", s.Topo.Node(sw).Desc)
	}
	p.DLID = dlid
	got, err := s.lftSender().SendLIDRouted(s.SMNode, p, s.Programmed())
	if err != nil {
		return err
	}
	if got != sw {
		return fmt.Errorf("sm: LID-routed SMP for %q delivered to %d", s.Topo.Node(sw).Desc, got)
	}
	return nil
}

// SetLFTEntriesProv programs individual LFT entries on one switch (both the
// SM shadow and the modelled physical switch), sending one SMP per touched
// 64-LID block run (adjacent touched blocks coalesce per MaxBlocksPerSMP).
// This is the primitive the vSwitch reconfigurator uses: a LID swap touches
// one or two blocks, a LID copy touches one (section V-C), and the entries
// are a migration plan's run for this switch, handed over as it lies (a later
// duplicate wins). Mode selects directed vs destination-routed delivery — the
// paper's improvement in eq. 5 uses destination routing because switch LIDs
// are unaffected by VM migrations. Lost SMPs are retried per the
// distribution config.
//
// It edits a clone and hands it to programSwitch, the routine a distribution
// sends and publishes through. The blocks sent are those in which some entry
// actually changed a port. When every SMP is acknowledged the whole clone is
// published with one buffer swap (concurrent readers never observe a
// half-applied set) and the target view follows it. When a run is abandoned
// the runs after it are still sent, as a distribution sends them; only the
// blocks of the acknowledged runs are published, the target stays as it was,
// and the first error comes back. Either way the count returned is the SMPs
// the switch acknowledged.
//
// A per-switch stripe lock covers the whole clone→send→commit cycle (and
// the target update below), so concurrent shard actors touching different
// LID columns of the same switch merge rather than lose entries, and each
// switch's SMPs stay strictly ordered.
//
// Every LFT block the edit touches (programmed and target view alike) is
// attributed to prov (nil: unattributed), and the per-SMP trace spans carry
// the writing shard so the Chrome export can lane them per actor; the spans
// hang under the given span (nil: roots). Stamp and parent are per-call
// arguments — not SM or tracer state — because concurrent shard actors drive
// this path in parallel and each write epoch must carry its own attribution.
func (s *SubnetManager) SetLFTEntriesProv(sw topology.NodeID, entries []ib.LFTEntry, mode smp.Mode, prov *ib.Provenance, under *telemetry.Span) (int, error) {
	mu := &s.lftMu[uint64(sw)%lftStripes]
	mu.Lock()
	defer mu.Unlock()
	cur := s.ProgrammedLFT(sw)
	if cur == nil {
		return 0, fmt.Errorf("sm: switch %q not yet programmed", s.Topo.Node(sw).Desc)
	}
	next := cur.Clone()
	next.SetProvenance(prov)
	// The touched blocks, ascending and without repeats. A plan's run is
	// sorted by LID, so sorting is needed only for a caller's unsorted list.
	blocks := next.SetRun(entries, make([]int, 0, 2))
	if !slices.IsSorted(blocks) {
		slices.Sort(blocks)
		blocks = slices.Compact(blocks)
	}
	// A swap makes at most two runs: they fit a buffer on the stack.
	var runBuf [4]blockRun
	runs := appendRuns(runBuf[:0], blocks, s.Dist.MaxBlocksPerSMP)
	desc := s.Topo.Node(sw).Desc
	// What every SMP span of this call shares is boxed once, not per SMP:
	// the switch's name and the shard.
	var descAttr, shardAttr any = desc, nil
	if prov != nil {
		shardAttr = shardValue(prov.Shard)
	}
	// One SpanSMP per SMP: under a migration's lft-swap span these are the
	// n' x m' spans of the paper's equations 4/5. This runs once per touched
	// switch of every reconfiguration, so the span is emitted fully formed in
	// one tracer call — no Start/End lock churn, no name assembly (the block
	// lives in the attrs).
	res := s.programSwitch(context.TODO(), sw, next, runs, mode, func(run blockRun, attempts int, cost time.Duration) {
		// A fixed array, sliced to what applies: appending the optional pair
		// to a ten-element literal doubled it on the heap, once per SMP. The
		// mode goes in as the Stringer it is: a boxed uint8 allocates
		// nothing, and the encoder writes its text.
		attrs := [...]any{"switch", descAttr, "block", run.start, "blocks", run.n,
			"mode", mode, "attempts", attempts, "shard", shardAttr}
		n := len(attrs) - 2
		if prov != nil {
			// The shard attr is what the Chrome export lanes SMP spans by.
			// The mutation ID deliberately stays out: it is a process-global
			// counter, and stamping it into spans would make trace goldens
			// depend on test execution order.
			n = len(attrs)
		}
		s.tel.Tracer().Emit(telemetry.SpanSMP, desc, under, 0, cost, attrs[:n]...)
	})
	if err := cmp.Or(res.lost, res.err); err != nil {
		return res.smps, err
	}
	// Keep the target view coherent so a later full distribution does not
	// undo the reconfiguration. A target that shares all its storage with
	// the table the write started from holds what cur held: it becomes next,
	// with no run written twice. Any other target becomes a clone with the
	// run written into it.
	if tgt := s.target[sw].Load(); tgt != nil {
		if _, _, _, differ := tgt.NextDiff(cur, 0); differ || tgt.NumBlocks() != cur.NumBlocks() {
			tgt = tgt.Clone()
			tgt.SetProvenance(prov)
			tgt.SetRun(entries, blocks[:0])
		} else {
			tgt = next
		}
		s.target[sw].Store(tgt)
	}
	return res.smps, nil
}

// negShards boxes the negative shards once: ShardCoordinator, ShardNone.
var negShards = [...]any{ib.ShardCoordinator, ib.ShardNone}

// shardValue boxes a shard for a span attribute without allocating: the
// zones are small non-negative integers the runtime boxes for free, and the
// two negative shards are boxed already.
func shardValue(shard int) any {
	if i := shard - ib.ShardCoordinator; i >= 0 && i < len(negShards) {
		return negShards[i]
	}
	return shard
}

// SetVGUID models programming an alias GUID onto a hypervisor HCA port: one
// GUIDInfo Set SMP to the node (section V-C step a).
func (s *SubnetManager) SetVGUID(node topology.NodeID, guid ib.GUID) error {
	n := s.Topo.Node(node)
	if n == nil || n.IsSwitch() {
		return fmt.Errorf("sm: SetVGUID target must be a CA")
	}
	p := &smp.SMP{Attr: smp.AttrGUIDInfo, IsSet: true,
		Path: append([]ib.PortNum(nil), s.pathTo(node)...)}
	got, err := s.Transport.SendDirected(s.SMNode, p)
	if err != nil {
		return err
	}
	if got != node {
		return fmt.Errorf("sm: vGUID SMP delivered to %d, want %d", got, node)
	}
	s.log.Addf(EvGUID, "programmed vGUID %s on %q", guid, n.Desc)
	return nil
}

// Bootstrap runs the full OpenSM bring-up: sweep, LID assignment, path
// computation, initial LFT distribution. It returns the three stat blocks.
func (s *SubnetManager) Bootstrap() (SweepStats, RouteStats, DistributionStats, error) {
	sw, err := s.Sweep()
	if err != nil {
		return sw, RouteStats{}, DistributionStats{}, err
	}
	if err := s.AssignLIDs(); err != nil {
		return sw, RouteStats{}, DistributionStats{}, err
	}
	rs, err := s.ComputeRoutes()
	if err != nil {
		return sw, RouteStats{}, DistributionStats{}, err
	}
	ds, err := s.DistributeDiff()
	return sw, RouteStats{Stats: rs}, ds, err
}

// FullReconfigure performs the traditional reconfiguration of section VI-A:
// recompute every path (PCt) and push the complete LFT of every switch
// (LFTDt = n*m*(k+r)). The paper's point is that doing this per VM
// migration is untenable; the core package's planners replace it.
func (s *SubnetManager) FullReconfigure() (RouteStats, DistributionStats, error) {
	return s.reconfigure(context.Background(), true)
}

// ReconfigureCtx reconfigures after a topology change using the cheapest
// strategy the configuration allows: with IncrementalRouting on, routes are
// delta-recomputed and only the differing blocks are pushed; otherwise it
// degrades to the traditional FullReconfigure of section VI-A. The
// control-plane daemon cancels ctx on shutdown so an in-flight LFT
// distribution aborts cleanly (path computation itself runs to completion;
// it holds no fabric state).
func (s *SubnetManager) ReconfigureCtx(ctx context.Context) (RouteStats, DistributionStats, error) {
	return s.reconfigure(ctx, !s.IncrementalRouting)
}

func (s *SubnetManager) reconfigure(ctx context.Context, full bool) (RouteStats, DistributionStats, error) {
	rs, err := s.ComputeRoutes()
	if err != nil {
		return RouteStats{}, DistributionStats{}, err
	}
	ds, err := s.distribute(ctx, full, smp.DirectedRoute)
	return RouteStats{Stats: rs}, ds, err
}
