package sm

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"ibvsim/internal/cdg"
	"ibvsim/internal/routing"
	"ibvsim/internal/smp"
	"ibvsim/internal/topology"
)

// gateSender wraps the real transport: the first send parks on a gate (and
// signals the test that distribution is in flight); once the gate opens,
// every send passes straight through. It lets the test cancel the context
// at a point where workers are provably mid-distribution.
type gateSender struct {
	inner   smp.Sender
	started chan struct{} // closed by the first send
	release chan struct{} // senders park here until the test closes it
	once    sync.Once
}

func (g *gateSender) gate() {
	g.once.Do(func() { close(g.started) })
	<-g.release
}

func (g *gateSender) SendDirected(src topology.NodeID, p *smp.SMP) (topology.NodeID, error) {
	g.gate()
	return g.inner.SendDirected(src, p)
}

func (g *gateSender) SendLIDRouted(src topology.NodeID, p *smp.SMP, r cdg.Routes) (topology.NodeID, error) {
	g.gate()
	return g.inner.SendLIDRouted(src, p, r)
}

// TestDistributeCancelMidFlight cancels a distribution while its worker
// pool is blocked inside the transport, then asserts that (a) the engine
// reports cancelled switches and context.Canceled, (b) a later uncancelled
// distribution completes the reconciliation, and (c) no worker goroutine
// leaks.
func TestDistributeCancelMidFlight(t *testing.T) {
	before := runtime.NumGoroutine()
	defer func() {
		// Workers must all have exited by the time distribute returns; give
		// the runtime a moment to reap them before comparing.
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
	}()

	topo, err := topology.BuildRing(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := New(topo, topo.CAs()[0], routing.NewMinHop())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Sweep(); err != nil {
		t.Fatal(err)
	}
	if err := mgr.AssignLIDs(); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	mgr.Dist.Workers = 2

	gs := &gateSender{
		inner:   mgr.Transport,
		started: make(chan struct{}),
		release: make(chan struct{}),
	}
	mgr.sender = gs

	ctx, cancel := context.WithCancel(context.Background())
	type outcome struct {
		st  DistributionStats
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		st, err := mgr.DistributeDiffCtx(ctx)
		done <- outcome{st, err}
	}()

	<-gs.started // at least one worker is parked inside a send
	cancel()
	close(gs.release) // let the in-flight sends finish

	out := <-done
	if !errors.Is(out.err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", out.err)
	}
	if out.st.SwitchesCancelled == 0 {
		t.Fatalf("SwitchesCancelled = 0, want > 0 (stats: %+v)", out.st)
	}
	if got := out.st.SwitchesUpdated + out.st.SwitchesCancelled + out.st.SwitchesFailed; got != topo.NumSwitches() {
		t.Fatalf("accounted switches = %d, want %d (stats: %+v)", got, topo.NumSwitches(), out.st)
	}

	// The cancelled distribution must leave a consistent partial state: a
	// plain retry (background context, gate already open) converges.
	mgr.sender = nil
	st, err := mgr.DistributeDiff()
	if err != nil {
		t.Fatalf("post-cancel distribution: %v", err)
	}
	if st.SwitchesCancelled != 0 || st.SwitchesFailed != 0 {
		t.Fatalf("post-cancel distribution not clean: %+v", st)
	}
	for _, sw := range topo.Switches() {
		if !mgr.ProgrammedLFT(sw).Equal(mgr.TargetLFT(sw)) {
			t.Fatalf("switch %d programmed LFT differs from target after retry", sw)
		}
	}
}

// TestDistributeCancelledBeforeStart: a context cancelled before the call
// reports every switch with pending blocks as cancelled and sends nothing.
func TestDistributeCancelledBeforeStart(t *testing.T) {
	topo, err := topology.BuildRing(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := New(topo, topo.CAs()[0], routing.NewMinHop())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Sweep(); err != nil {
		t.Fatal(err)
	}
	if err := mgr.AssignLIDs(); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sent := mgr.Transport.Counters.Sent
	st, err := mgr.DistributeDiffCtx(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st.SwitchesCancelled != topo.NumSwitches() || st.SMPs != 0 {
		t.Fatalf("stats = %+v, want all %d switches cancelled and 0 SMPs", st, topo.NumSwitches())
	}
	if mgr.Transport.Counters.Sent != sent {
		t.Fatalf("SMPs were sent despite pre-cancelled context")
	}
	// Programmed views exist (empty fallbacks) but carry no entries.
	for _, sw := range topo.Switches() {
		lft := mgr.ProgrammedLFT(sw)
		if lft == nil {
			continue
		}
		if got := lft.PopulatedBlocks(); len(got) != 0 {
			t.Fatalf("switch %d has populated blocks %v after cancelled distribution", sw, got)
		}
	}
}
