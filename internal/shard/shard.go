package shard

import (
	"errors"
	"strconv"
	"sync/atomic"
	"time"

	"ibvsim/internal/cloud"
	"ibvsim/internal/core"
	"ibvsim/internal/telemetry"
	"ibvsim/internal/topology"
)

// ErrBackpressure reports a full shard admission queue. The API layer maps
// it to HTTP 429 + Retry-After.
var ErrBackpressure = errors.New("shard: admission queue full")

// ErrShutdown reports a control plane that has stopped accepting work.
var ErrShutdown = errors.New("shard: control plane is shutting down")

// task is one closure executed on a shard's actor goroutine.
type task func()

// Shard is one zone's actor: the only goroutine that touches the zone's
// HCAs (attach/detach/hold, VF LIDs and GUIDs) and its VM name set. LFT
// columns of the zone's VM LIDs are written through the SM's striped
// per-switch locks, so two shards editing their own columns on a shared
// spine merge correctly.
type Shard struct {
	id   int
	zone *Zone
	co   *Coordinator

	cmds chan task
	done chan struct{}
	ops  atomic.Uint64

	// Actor-owned state: only tasks running on this shard's goroutine (or
	// the constructor, before the actor starts) read or write these. names is
	// the zone's VMs: a VM in the middle of a cross-shard migration belongs
	// to neither zone, so neither actor reads its record.
	names map[string]struct{}

	snap atomic.Pointer[Snap]

	// Per-shard instruments, labelled shard="<id>" in the registry so
	// /metrics exposes one series per actor. Nil-safe when telemetry is off.
	mQueueDepth *telemetry.Gauge
	mAdmitUS    *telemetry.Histogram
	mOps        *telemetry.Counter
}

// Stats is one shard's live load figures, served by the topology endpoint
// and reported per shard by ibsimload.
type Stats struct {
	Shard    int    `json:"shard"`
	Hyps     int    `json:"hyps"`
	VMs      int    `json:"vms"`
	FreeVFs  int    `json:"free_vfs"`
	Ops      uint64 `json:"ops"`
	QueueLen int    `json:"queue_len"`
	QueueCap int    `json:"queue_cap"`
}

func newShard(id int, zone *Zone, co *Coordinator, depth int) *Shard {
	reg := co.C.SM.Telemetry().Registry()
	lbl := strconv.Itoa(id)
	return &Shard{
		id:    id,
		zone:  zone,
		co:    co,
		cmds:  make(chan task, depth),
		done:  make(chan struct{}),
		names: map[string]struct{}{},

		mQueueDepth: reg.Gauge(telemetry.Labeled("shard.queue_depth", "shard", lbl)),
		mAdmitUS:    reg.WallHistogram(telemetry.Labeled("shard.admit_wall_us", "shard", lbl), nil),
		mOps:        reg.Counter(telemetry.Labeled("shard.ops", "shard", lbl)),
	}
}

// instrument wraps a task to record admission latency (enqueue to the moment
// the actor picks it up) and keep the queue-depth gauge current on dequeue.
func (s *Shard) instrument(t task) task {
	enq := time.Now()
	return func() {
		s.mAdmitUS.ObserveDuration(time.Since(enq))
		s.mQueueDepth.Set(int64(len(s.cmds)))
		t()
	}
}

// run is the actor goroutine: drain tasks until the queue closes.
func (s *Shard) run() {
	for t := range s.cmds {
		t()
	}
	close(s.done)
}

// trySubmit admits a task without blocking; a full queue is ErrBackpressure,
// a closed intake ErrShutdown. Every operation's *first* submit goes through
// here, so saturation surfaces as 429 instead of unbounded blocking.
func (s *Shard) trySubmit(t task) error {
	s.co.life.RLock()
	defer s.co.life.RUnlock()
	if s.co.closed {
		return ErrShutdown
	}
	select {
	case s.cmds <- s.instrument(t):
		s.mQueueDepth.Set(int64(len(s.cmds)))
		return nil
	default:
		return ErrBackpressure
	}
}

// submit blocks until the task is queued. Only later steps of an already
// admitted operation use it — once a cross-shard migration holds its
// destination VF, the remaining steps must run, not bounce — and a freeze's
// barriers; it fails only once the queues are closed.
func (s *Shard) submit(t task) error {
	s.co.life.RLock()
	defer s.co.life.RUnlock()
	if s.co.drained {
		return ErrShutdown
	}
	s.cmds <- s.instrument(t)
	s.mQueueDepth.Set(int64(len(s.cmds)))
	return nil
}

// exec runs fn on the actor, admitted by submit or trySubmit, and waits for
// it to finish.
func (s *Shard) exec(admit func(task) error, fn func()) error {
	done := make(chan struct{})
	if err := admit(func() { fn(); close(done) }); err != nil {
		return err
	}
	<-done
	return nil
}

// vm reads a VM's record for the zone's snapshot: nil unless the VM is this
// zone's.
func (s *Shard) vm(name string) *cloud.VM {
	if _, ok := s.names[name]; !ok {
		return nil
	}
	return s.co.C.VM(name)
}

// publish derives and atomically swaps in this shard's snapshot after a
// command that touched the named VMs and hypervisors.
func (s *Shard) publish(gen uint64, vms []string, hyps ...topology.NodeID) {
	s.derive(s.snap.Load(), false, gen, vms, hyps)
}

// republish publishes with everything touched: the same derivation, from the
// zone's empty snapshot. Readers keep the current snapshot until the new one
// is whole.
func (s *Shard) republish(gen uint64) {
	names := make([]string, 0, len(s.names))
	for name := range s.names {
		names = append(names, name)
	}
	s.derive(Empty(s.id, s.zone.Hyps), true, gen, names, s.zone.Hyps)
}

// derive stores — once — the snapshot at gen derived from from, and reports
// the rows it read to the coordinator's Published hook.
func (s *Shard) derive(from *Snap, rebuild bool, gen uint64, vms []string, hyps []topology.NodeID) {
	sn, rows := from.Next(s.co.C, s.vm, gen, vms, hyps)
	s.snap.Store(sn)
	if hook := s.co.cfg.Published; hook != nil {
		hook(rows, rebuild)
	}
}

// finish closes out one zone-local command on the actor: bump the op
// counter, publish the rows it touched — the VM's and the given hypervisors'
// — unless the command was refused before it touched anything (a migration
// that died half-way did: its report names the columns), and hand the
// outcome to the coordinator's hook before the caller sees it.
func (s *Shard) finish(m Mutation, hyps ...topology.NodeID) (Result, error) {
	s.ops.Add(1)
	s.mOps.Inc()
	m.Shard, m.Gen = s.id, s.co.gen.Load()
	if m.Err == nil || len(m.Rep.LIDs) > 0 {
		m.Gen = s.co.gen.Add(1)
		s.publish(m.Gen, []string{m.Name}, hyps...)
	}
	s.co.done(m)
	return m.Result, m.Err
}

// execCreate runs a zone-local VM create on the actor. hyp == NoNode means
// the coordinator delegated placement to the zone: the cloud's scheduler
// picks among the zone's hypervisors.
func (s *Shard) execCreate(m Mutation, hyp topology.NodeID) (Result, error) {
	if hyp == topology.NoNode {
		hyp, m.Err = s.co.C.Place(s.zone.Hyps)
	}
	if m.Err == nil {
		var vm *cloud.VM
		if vm, m.Boot, m.Err = s.co.C.CreateVMOnVF(m.Name, hyp, -1); m.Err == nil {
			s.names[m.Name] = struct{}{}
			m.VM = *vm
		}
	}
	return s.finish(m, hyp)
}

// execDestroy runs a zone-local VM destroy on the actor. The mutation
// carries the VM as it was: the freed VF's LID is what the API layer audits
// on a fabric that keeps routing it.
func (s *Shard) execDestroy(m Mutation) (Result, error) {
	if vm := s.co.C.VM(m.Name); vm != nil {
		m.VM = *vm
	}
	if m.Boot, m.Err = s.co.C.DestroyVMStats(m.Name); m.Err == nil {
		delete(s.names, m.Name)
	}
	return s.finish(m, m.VM.Hyp)
}

// execMigrate runs a zone-local migration (source and destination in this
// shard's zone) on the actor: the cloud's five steps inline.
func (s *Shard) execMigrate(m Mutation, dst topology.NodeID) (Result, error) {
	src := dst
	if vm := s.co.C.VM(m.Name); vm != nil {
		src = vm.Hyp
	}
	m.Rep, m.Err = s.co.C.MigrateVMVF(m.Name, dst, -1)
	if vm := s.co.C.VM(m.Name); vm != nil {
		m.VM = *vm
	}
	return s.finish(m, src, dst)
}

// Result is what a lifecycle command did, in the cloud's own terms. VM is
// the VM after a create or migrate and as it was before a destroy (zero when
// the name never resolved); Boot is the LFT cost of a create or destroy; Rep
// the migration report, whose LIDs name the columns a migration rewrote even
// when it failed half-way.
type Result struct {
	VM   VMState
	Boot core.BootStats
	Rep  cloud.MigrationReport
}

// Mutation describes one finished control-plane command — what it was and
// what it did — to the coordinator's AfterMutation hook. For zone-local
// operations the hook runs on the owning shard's actor goroutine, before the
// reply; for cross-shard migrations it runs once on the coordinator's request
// goroutine while the VM is still claimed; a command the coordinator refuses
// outright (unknown VM, duplicate name, busy) reports from the request
// goroutine with Shard = ib.ShardNone.
type Mutation struct {
	Op    string
	Name  string
	ReqID string
	Shard int
	// Gen is the generation the command's state is published at: a fresh one
	// when it changed anything, the current one when it was refused.
	Gen uint64
	Err error
	// SpanFrom is the first span ID the command can have emitted. With
	// several shards tracing at once the window [SpanFrom, now] is an upper
	// bound: it also holds what the other actors emitted meanwhile.
	SpanFrom int
	Result
}
