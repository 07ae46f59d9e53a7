package routing

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The engines parallelize their per-destination SSSP/BFS loops over a
// bounded worker pool while guaranteeing results bit-identical to a serial
// run. The scheme is the same everywhere: destinations (or destination
// groups, or path pairs) are split into fixed-size windows whose sizes do
// NOT depend on the worker count; within a window every task reads only
// state frozen before the window started and writes into task-indexed
// buffers; the window is then folded into the shared LFT / load / weight /
// VL state serially, in ascending destination order (the minhop/updn egress
// fold also fans out, by switch: each switch's load is its own). Tie-breaking
// therefore never depends on goroutine scheduling, only on the window
// constants below — so Workers=1 and Workers=N produce byte-identical
// forwarding tables.
const (
	// dfssspEpoch is the number of destinations whose SSSPs run against one
	// frozen copy of the link-weight state before the accumulated load of
	// the whole epoch is applied (in destination order). Smaller epochs
	// track the serial engine's per-destination balancing more closely;
	// larger epochs expose more parallelism. The value is a constant of the
	// algorithm, not of the machine, so every worker count converges on the
	// same tables.
	dfssspEpoch = 64

	// groupWindow bounds how many destination-switch groups have their BFS
	// and candidate-port state resident at once in MinHop/Up*/Down*/LASH.
	// It is also the load-balancing scope of the minhop/updn egress fold:
	// port load counters reset at every window boundary, which keeps the
	// fold window-decomposable (the incremental layer re-folds only windows
	// containing a changed candidate row) at the cost of balancing within
	// 64-group horizons instead of globally.
	groupWindow = 64

	// targetWindow bounds how many per-destination port rows the fat-tree
	// engine keeps in flight between its parallel compute phase and the
	// serial LFT fold.
	targetWindow = 256

	// pairWindow bounds how many LASH (source, destination) pair paths are
	// reconstructed ahead of the strictly serial VL placement.
	pairWindow = 4096
)

// phaseClock splits an engine run's wall time into named phases for
// Stats.Phases. lap(name) charges the time since the previous lap to the
// named bucket; repeated laps of one name (windowed loops) accumulate, so
// the phase list stays small and its order deterministic.
type phaseClock struct {
	names []string
	acc   map[string]time.Duration
	last  time.Time
}

func newPhaseClock() *phaseClock {
	return &phaseClock{acc: map[string]time.Duration{}, last: time.Now()}
}

func (c *phaseClock) lap(name string) {
	now := time.Now()
	if _, ok := c.acc[name]; !ok {
		c.names = append(c.names, name)
	}
	c.acc[name] += now.Sub(c.last)
	c.last = now
}

func (c *phaseClock) phases() []PhaseTiming {
	out := make([]PhaseTiming, len(c.names))
	for i, n := range c.names {
		out[i] = PhaseTiming{Name: n, Duration: c.acc[n]}
	}
	return out
}

// workerCount resolves Request.Workers: 0 or negative means one worker per
// available CPU, 1 forces the serial path.
func (r *Request) workerCount() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// workerPool runs task-indexed computations across a fixed set of workers,
// each owning one reusable scratch value (dist/queue/heap buffers survive
// across tasks and windows, so steady-state task execution allocates
// nothing). Tasks are claimed from an atomic counter; the determinism
// contract is that a task derives its output only from its index and from
// state that is read-only for the duration of the run call, writing results
// into storage indexed by task.
type workerPool[S any] struct {
	workers int
	scratch []S
	// busy accumulates per-worker-slot wall time across run calls. Each
	// goroutine writes only its own slot while running; reads happen after
	// Wait, so no lock is needed. Feeds Stats.WorkerBusy.
	busy []time.Duration
}

func newWorkerPool[S any](workers int, newScratch func() S) *workerPool[S] {
	if workers < 1 {
		workers = 1
	}
	p := &workerPool[S]{workers: workers, scratch: make([]S, workers), busy: make([]time.Duration, workers)}
	for i := range p.scratch {
		p.scratch[i] = newScratch()
	}
	return p
}

// busyTimes returns a copy of the per-worker busy accumulators. Call only
// between run calls (the workers must have been joined).
func (p *workerPool[S]) busyTimes() []time.Duration {
	return append([]time.Duration(nil), p.busy...)
}

// run executes fn(task, scratch) for every task in [0, n), fanning out over
// the pool's workers. With one worker (or one task) it degenerates to a
// plain loop on the caller's goroutine.
func (p *workerPool[S]) run(n int, fn func(task int, scratch S)) {
	if n <= 0 {
		return
	}
	workers := p.workers
	if workers > n {
		workers = n
	}
	if workers == 1 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i, p.scratch[0])
		}
		p.busy[0] += time.Since(t0)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			t0 := time.Now()
			s := p.scratch[w]
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					p.busy[w] += time.Since(t0)
					return
				}
				fn(i, s)
			}
		}(w)
	}
	wg.Wait()
}
