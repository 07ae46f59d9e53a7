package shard

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ibvsim/internal/cloud"
	"ibvsim/internal/ib"
	"ibvsim/internal/telemetry"
	"ibvsim/internal/topology"
)

// Config parameterises a Coordinator.
type Config struct {
	// QueueDepth bounds each shard's admission queue. 0 means 64.
	QueueDepth int
	// AfterMutation, when non-nil, runs after every finished command,
	// failed and refused ones included (see Mutation for the goroutine). The
	// API layer runs its mutation epilogue here: flight record, log, audit.
	AfterMutation func(Mutation)
	// Published, when non-nil, runs each time a shard stores a snapshot, on
	// the goroutine that stored it: the rows read again for it, and whether
	// it was derived from the empty snapshot (a full rebuild).
	Published func(rows int, rebuild bool)
}

// Coordinator is the thin routing layer over the shard actors: zone-local
// mutations go straight to their shard's queue, cross-shard migrations run
// the two-phase plan below, and fabric-wide operations run under Freeze. One
// zone is the whole fabric under one actor.
type Coordinator struct {
	C    *cloud.Cloud
	Part *Partition
	cfg  Config

	shards []*Shard
	gen    atomic.Uint64

	// mu guards the VM→zone routing table and the per-VM busy set. An
	// operation on a busy VM (one with a cross-shard migration in flight)
	// fails fast with a conflict rather than queueing behind it.
	mu     sync.Mutex
	vmZone map[string]int
	busy   map[string]bool

	// xmu excludes cross-shard migrations (readers, held for the whole
	// two-phase plan) from Freeze and the shutdown drain (writers) — a
	// freeze can never cut a migration between its phases.
	xmu sync.RWMutex

	// life guards submits against shutdown: closed ends intake (a new
	// operation or freeze is refused), drained marks the queues closed.
	life     sync.RWMutex
	closed   bool
	drained  bool
	stopOnce sync.Once
	stopped  chan struct{} // closed once every actor has exited

	gateMu sync.Mutex
	gate   func(XMigration) error
}

// New partitions the cloud's hypervisors into n zones (n <= 0: one per
// pod/leaf group) and starts one actor per zone. Existing VMs are adopted
// into their owning shards. The coordinator takes exclusive ownership of
// the cloud.
func New(c *cloud.Cloud, n int, cfg Config) (*Coordinator, error) {
	part, err := NewPartition(c.SM.Topo, c.Hypervisors(), n)
	if err != nil {
		return nil, err
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	c.SetZones(part.ZoneOfHyp)
	co := &Coordinator{
		C:       c,
		Part:    part,
		cfg:     cfg,
		vmZone:  map[string]int{},
		busy:    map[string]bool{},
		stopped: make(chan struct{}),
	}
	for _, zone := range part.Zones {
		co.shards = append(co.shards, newShard(zone.ID, zone, co, cfg.QueueDepth))
	}
	for _, name := range c.VMs() {
		vm := c.VM(name)
		z := part.ZoneOfHyp(vm.Hyp)
		if z < 0 {
			return nil, fmt.Errorf("shard: VM %q on node %d outside every zone", name, vm.Hyp)
		}
		co.vmZone[name] = z
		co.shards[z].names[name] = struct{}{}
	}
	gen := co.gen.Add(1)
	for _, sh := range co.shards {
		sh.republish(gen)
		go sh.run()
	}
	return co, nil
}

// Shards returns the number of shards.
func (co *Coordinator) Shards() int { return len(co.shards) }

// Gen is the newest generation taken: every command that changed the cloud
// through a shard, a cross-shard commit or Resync has taken one. Read inside
// Freeze, two equal readings bracket a span in which no command changed it.
func (co *Coordinator) Gen() uint64 { return co.gen.Load() }

// Snaps returns every shard's current snapshot.
func (co *Coordinator) Snaps() []*Snap {
	out := make([]*Snap, len(co.shards))
	for i, sh := range co.shards {
		out[i] = sh.snap.Load()
	}
	return out
}

// Stats returns per-shard load figures.
func (co *Coordinator) Stats() []Stats {
	out := make([]Stats, len(co.shards))
	for i, sh := range co.shards {
		sn := sh.snap.Load()
		out[i] = Stats{
			Shard: i, Hyps: len(sh.zone.Hyps), VMs: sn.NumVMs(), FreeVFs: sn.FreeVFs,
			Ops: sh.ops.Load(), QueueLen: len(sh.cmds), QueueCap: cap(sh.cmds),
		}
	}
	return out
}

// QueueLen returns the total backlog across all shard queues.
func (co *Coordinator) QueueLen() int {
	n := 0
	for _, sh := range co.shards {
		n += len(sh.cmds)
	}
	return n
}

// claim marks a VM busy for the duration of one operation. mustExist
// resolves the owning zone (create passes false and requires absence).
func (co *Coordinator) claim(name string, mustExist bool) (int, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.busy[name] {
		return 0, fmt.Errorf("cloud: VM %q %w (another operation is in flight)", name, cloud.ErrBusy)
	}
	z, ok := co.vmZone[name]
	if mustExist && !ok {
		return 0, fmt.Errorf("cloud: %w %q", cloud.ErrNoVM, name)
	}
	if !mustExist && ok {
		return 0, fmt.Errorf("cloud: VM %q %w", name, cloud.ErrExists)
	}
	co.busy[name] = true
	return z, nil
}

// settle releases a busy claim, updating the routing table: zone >= 0
// (re)binds the VM to that zone, zone < 0 removes it.
func (co *Coordinator) settle(name string, zone int) {
	co.mu.Lock()
	defer co.mu.Unlock()
	delete(co.busy, name)
	if zone >= 0 {
		co.vmZone[name] = zone
	} else if zone == -2 {
		delete(co.vmZone, name)
	}
}

// keepZone leaves the routing table untouched when settling.
const keepZone = -1

// dropZone removes the VM from the routing table when settling.
const dropZone = -2

// begin opens the record of one command: what it is and where its span
// window starts.
func (co *Coordinator) begin(op, reqID, name string) Mutation {
	return Mutation{Op: op, Name: name, ReqID: reqID,
		SpanFrom: co.C.SM.Telemetry().Tracer().LastSpanID() + 1}
}

// done hands a finished command to the AfterMutation hook.
func (co *Coordinator) done(m Mutation) {
	if f := co.cfg.AfterMutation; f != nil {
		f(m)
	}
}

// refuse finishes a command the coordinator turned down before any shard
// saw it; nothing changed, so it reports at the current generation.
func (co *Coordinator) refuse(m Mutation, err error) error {
	m.Shard, m.Gen, m.Err = ib.ShardNone, co.gen.Load(), err
	co.done(m)
	return err
}

// call runs fn on the shard's actor and waits for its result; a full queue
// is ErrBackpressure and fn never runs.
func call[T any](sh *Shard, fn func() (T, error)) (res T, err error) {
	if full := sh.exec(sh.trySubmit, func() { res, err = fn() }); full != nil {
		return res, full
	}
	return res, err
}

// CreateVM places a VM: on hyp's zone when pinned (hyp != NoNode), else on
// the zone with the most free VFs, where the cloud's scheduler picks the
// hypervisor.
func (co *Coordinator) CreateVM(reqID, name string, hyp topology.NodeID) (Result, error) {
	m := co.begin("create_vm", reqID, name)
	if _, err := co.claim(name, false); err != nil {
		return Result{}, co.refuse(m, err)
	}
	z := -1
	if hyp != topology.NoNode {
		if z = co.Part.ZoneOfHyp(hyp); z < 0 {
			co.settle(name, keepZone)
			return Result{}, co.refuse(m, fmt.Errorf("cloud: node %d %w", hyp, cloud.ErrNotHypervisor))
		}
	} else {
		best := -1
		for i, sn := range co.Snaps() {
			if sn.FreeVFs > best {
				best, z = sn.FreeVFs, i
			}
		}
	}
	sh := co.shards[z]
	res, err := call(sh, func() (Result, error) { return sh.execCreate(m, hyp) })
	if err != nil {
		z = keepZone
	}
	co.settle(name, z)
	return res, err
}

// DestroyVM removes a VM through its owning shard.
func (co *Coordinator) DestroyVM(reqID, name string) (Result, error) {
	m := co.begin("destroy_vm", reqID, name)
	z, err := co.claim(name, true)
	if err != nil {
		return Result{}, co.refuse(m, err)
	}
	sh := co.shards[z]
	res, err := call(sh, func() (Result, error) { return sh.execDestroy(m) })
	if err != nil {
		co.settle(name, keepZone)
	} else {
		co.settle(name, dropZone)
	}
	return res, err
}

// MigrateVM routes a migration: zone-local when source and destination
// share a shard, the two-phase cross-shard plan otherwise.
func (co *Coordinator) MigrateVM(reqID, name string, dst topology.NodeID) (Result, error) {
	m := co.begin("migrate_vm", reqID, name)
	srcZone, err := co.claim(name, true)
	if err != nil {
		return Result{}, co.refuse(m, err)
	}
	dstZone := co.Part.ZoneOfHyp(dst)
	if dstZone < 0 {
		co.settle(name, keepZone)
		return Result{}, co.refuse(m, fmt.Errorf("cloud: destination %d %w", dst, cloud.ErrNotHypervisor))
	}
	if dstZone == srcZone {
		sh := co.shards[srcZone]
		res, err := call(sh, func() (Result, error) { return sh.execMigrate(m, dst) })
		co.settle(name, keepZone)
		return res, err
	}
	res, err := co.migrateCross(m, srcZone, dstZone, dst)
	if err != nil {
		dstZone = keepZone
	}
	co.settle(name, dstZone)
	return res, err
}

// XMigration describes an in-flight cross-shard migration at its commit
// point: staged and detached (both VFs held), no fabric edit made yet.
type XMigration struct {
	VM                 string
	From, To           topology.NodeID
	FromShard, ToShard int
}

// SetCommitGate installs a hook that runs between Detach and Commit of every
// cross-shard migration, on the coordinator's request goroutine. Returning an
// error aborts the migration: the source VF is re-attached and the
// destination VF released, with no LFT rollback needed (the gate fires before
// any edit is applied). The chaos engine uses the gate to stall a commit
// mid-flight while mutating both shards. The gate runs inside the cross-shard
// critical section: it must not call Freeze or Shutdown; zone-local mutations
// are allowed.
func (co *Coordinator) SetCommitGate(fn func(XMigration) error) {
	co.gateMu.Lock()
	co.gate = fn
	co.gateMu.Unlock()
}

func (co *Coordinator) commitGate() func(XMigration) error {
	co.gateMu.Lock()
	defer co.gateMu.Unlock()
	return co.gate
}

// migrateCross drives one cloud.Migration across two zones, each step on the
// actor that owns what it touches: Stage on the destination actor (it holds a
// VF there), Detach on the source actor, Commit and Transfer on this
// goroutine — safe alongside concurrent zone-local mutations because every
// LID column involved is exclusively owned by this operation and LFT writes
// go through the SM's per-switch stripe locks — then Vacate on the source
// actor and Adopt on the destination actor. What is this function's own: the
// actors, the commit gate, the abort and the xphase timings. A failure before
// Commit (or a gate veto) aborts with the fabric untouched; one after it
// leaves the source VF held, as in every driver.
func (co *Coordinator) migrateCross(mut Mutation, srcZone, dstZone int, dst topology.NodeID) (Result, error) {
	name := mut.Name
	src, dstSh := co.shards[srcZone], co.shards[dstZone]
	co.xmu.RLock()
	defer co.xmu.RUnlock()

	// Each stage reports its wall latency as one labelled series:
	// shard.xphase_wall_us{phase="reserve"|"stage"|"commit"|"abort"}.
	reg := co.C.SM.Telemetry().Registry()
	phaseDone := func(phase string, start time.Time) {
		reg.WallHistogram(telemetry.Labeled("shard.xphase_wall_us", "phase", phase), nil).
			ObserveDuration(time.Since(start))
	}
	fail := func(err error) (Result, error) {
		mut.Shard, mut.Gen, mut.Err = srcZone, co.gen.Load(), err
		co.done(mut)
		return Result{}, err
	}

	var m *cloud.Migration
	var err error
	start := time.Now()
	if full := dstSh.exec(dstSh.trySubmit, func() { m, err = co.C.Stage(name, dst, -1) }); full != nil {
		return Result{}, full // backpressure before anything was staged: plain 429
	}
	phaseDone("reserve", start)
	if err != nil {
		return fail(err)
	}
	// A step that changes a VF outside a finished command republishes that
	// hypervisor's row before the command finishes, at the generation in
	// force: nothing else will name it. (A submit cannot fail here: the
	// queues close only once no cross-shard migration holds xmu.)
	release := func() {
		dstSh.exec(dstSh.submit, func() { //nolint:errcheck
			m.Release()
			dstSh.publish(co.gen.Load(), nil, dst)
		})
	}
	m.Via = fmt.Sprintf("cross-shard %d -> %d", srcZone, dstZone)

	start = time.Now()
	if down := src.exec(src.submit, func() { err = m.Detach() }); down != nil {
		err = down
	}
	phaseDone("stage", start)
	if err != nil {
		release()
		return fail(err)
	}

	// Commit gate (chaos/test seam): fires before any fabric edit, so an
	// abort needs no LFT rollback.
	if g := co.commitGate(); g != nil {
		if err := g(XMigration{VM: name, From: m.From, To: dst, FromShard: srcZone, ToShard: dstZone}); err != nil {
			start = time.Now()
			src.exec(src.submit, func() { //nolint:errcheck
				m.Reattach()
				src.publish(co.gen.Load(), nil, m.From)
			})
			release()
			phaseDone("abort", start)
			return fail(fmt.Errorf("cloud: cross-shard migration of %q aborted: %w", name, err))
		}
	}

	// From here on a failure may strand the columns the report names. The
	// edits are stamped here, at the commit point: every LFT block this
	// migration rewrites attributes to the coordinator's commit phase and
	// this span.
	m.Begin()
	reg.Counter("shard.cross_migrations").Inc()
	start = time.Now()
	_, err = co.C.Commit(&ib.Provenance{
		Mutation: ib.NextMutationID(),
		Span:     m.Span().ID(),
		Engine:   "migrate",
		Reason:   fmt.Sprintf("cross_shard %s %d->%d (shard %d->%d)", name, m.From, dst, srcZone, dstZone),
		Phase:    "commit",
		Shard:    ib.ShardCoordinator,
	}, m)
	if err == nil {
		err = m.Transfer()
	}
	if err != nil {
		// The edits already sent stay: the columns changed, which takes a
		// generation, as a zone-local migration that died half-way does.
		co.gen.Add(1)
		release()
		src.exec(src.submit, func() { src.publish(co.gen.Load(), nil, m.From) }) //nolint:errcheck
	} else {
		// Post-commit steps cannot be refused; see submit.
		src.exec(src.submit, func() { //nolint:errcheck
			m.Vacate()
			delete(src.names, name)
			src.ops.Add(1)
			src.publish(co.gen.Add(1), []string{name}, m.From)
		})
		dstSh.exec(dstSh.submit, func() { //nolint:errcheck
			if err = m.Adopt(); err == nil {
				dstSh.names[name] = struct{}{}
				dstSh.ops.Add(1)
				dstSh.publish(co.gen.Add(1), []string{name}, dst)
			}
		})
	}
	m.Span().SetAttr("cross_shard", fmt.Sprintf("%d->%d", srcZone, dstZone))
	m.End()
	mut.Rep = m.Report()
	if err != nil {
		return fail(err)
	}
	phaseDone("commit", start)

	mut.Shard, mut.Gen, mut.VM = dstZone, co.gen.Load(), *co.C.VM(name)
	co.done(mut)
	return mut.Result, nil
}

// Resync republishes what a frozen command changed behind the actors' backs
// — a reconciliation wave moves VMs without going through the shards — at a
// fresh generation. The named VMs are re-homed between the zones' name sets,
// and every zone that held or now holds one of them, or owns a named
// hypervisor, derives its next snapshot reading again only its own named
// rows. Both nil name everything: the routing table and every name set are
// rebuilt from the cloud, and every zone's snapshot from its empty one (a
// reconfigure, the close of a reconciliation). Call only from inside Freeze:
// the actors are parked at the barrier, so the coordinator temporarily owns
// their state.
func (co *Coordinator) Resync(vms []string, hyps []topology.NodeID) error {
	co.mu.Lock()
	defer co.mu.Unlock()
	if vms == nil && hyps == nil {
		return co.resyncAll()
	}
	names := make([][]string, len(co.shards)) // per zone: its named VMs, before or after
	touched := make([]bool, len(co.shards))
	for _, name := range vms {
		was, ok := co.vmZone[name]
		if ok {
			delete(co.shards[was].names, name)
			delete(co.vmZone, name)
			names[was], touched[was] = append(names[was], name), true
		}
		vm := co.C.VM(name)
		if vm == nil {
			continue
		}
		z := co.Part.ZoneOfHyp(vm.Hyp)
		if z < 0 {
			return fmt.Errorf("shard: VM %q on node %d outside every zone", name, vm.Hyp)
		}
		co.vmZone[name] = z
		co.shards[z].names[name] = struct{}{}
		if !ok || z != was {
			names[z], touched[z] = append(names[z], name), true
		}
	}
	for _, h := range hyps {
		if z := co.Part.ZoneOfHyp(h); z >= 0 {
			touched[z] = true
		}
	}
	gen := co.gen.Add(1)
	for z, sh := range co.shards {
		if touched[z] {
			sh.publish(gen, names[z], hyps...)
		}
	}
	return nil
}

// resyncAll is Resync with everything named.
func (co *Coordinator) resyncAll() error {
	for _, sh := range co.shards {
		sh.names = map[string]struct{}{}
	}
	clear(co.vmZone)
	for _, name := range co.C.VMs() {
		vm := co.C.VM(name)
		z := co.Part.ZoneOfHyp(vm.Hyp)
		if z < 0 {
			return fmt.Errorf("shard: VM %q on node %d outside every zone", name, vm.Hyp)
		}
		co.vmZone[name] = z
		co.shards[z].names[name] = struct{}{}
	}
	gen := co.gen.Add(1)
	for _, sh := range co.shards {
		sh.republish(gen)
	}
	return nil
}

// Freeze quiesces the whole control plane and runs fn: no cross-shard
// migration is in flight (xmu) and every actor is parked at a barrier with
// an empty queue ahead of it. Fabric-wide operations — full audits,
// reconfiguration, reconciliation, SM handover — run here. Operations
// admitted during the freeze wait in their shard queues. Once Shutdown has
// begun a freeze is refused with ErrShutdown.
func (co *Coordinator) Freeze(fn func()) error {
	co.life.RLock()
	closed := co.closed
	co.life.RUnlock()
	if closed {
		return ErrShutdown
	}
	start := time.Now()
	defer func() {
		co.C.SM.Telemetry().Registry().
			WallHistogram("shard.freeze_wall_us", nil).
			ObserveDuration(time.Since(start))
	}()
	co.xmu.Lock()
	defer co.xmu.Unlock()
	arrived := make(chan struct{}, len(co.shards))
	release := make(chan struct{})
	parked := 0
	var failed error
	for _, sh := range co.shards {
		if err := sh.submit(func() {
			arrived <- struct{}{}
			<-release
		}); err != nil {
			failed = err
			break
		}
		parked++
	}
	for i := 0; i < parked; i++ {
		<-arrived
	}
	if failed != nil {
		close(release)
		return failed
	}
	fn()
	close(release)
	return nil
}

// Shutdown closes intake — a new operation or freeze is refused with
// ErrShutdown — lets every admitted one finish, drains the shard queues and
// waits for the actors to exit. If ctx expires first it returns ctx.Err()
// while the drain goes on; a later call waits for it again.
func (co *Coordinator) Shutdown(ctx context.Context) error {
	co.stopOnce.Do(func() {
		co.life.Lock()
		co.closed = true
		co.life.Unlock()
		go co.drain()
	})
	select {
	case <-co.stopped:
		return nil
	default:
	}
	select {
	case <-co.stopped:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// drain waits out the cross-shard migrations and freezes in flight (they
// hold xmu), closes every queue and waits for the actors to finish what is
// queued.
func (co *Coordinator) drain() {
	co.xmu.Lock()
	co.life.Lock()
	co.drained = true
	for _, sh := range co.shards {
		close(sh.cmds)
	}
	co.life.Unlock()
	co.xmu.Unlock()
	for _, sh := range co.shards {
		<-sh.done
	}
	close(co.stopped)
}
