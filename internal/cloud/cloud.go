// Package cloud is the orchestration layer of the reproduction: the
// OpenStack-analogue of the paper's testbed (section VII). It owns
// hypervisors with SR-IOV HCAs, schedules VMs onto VFs, and drives the
// four-step live-migration workflow of section VII-B:
//
//  1. the SR-IOV VF is detached from the VM and the live migration starts,
//  2. the orchestrator signals the SM with the VM and destination,
//  3. the SM reconfigures the fabric (LID swap or copy, vGUID transfer),
//  4. the VF holding the VM's addresses is attached at the destination.
//
// All three SR-IOV models are supported so the experiments can contrast
// them: Shared Port migrations change the VM's LID (staling peer caches),
// vSwitch migrations carry the full address set.
package cloud

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"ibvsim/internal/core"
	"ibvsim/internal/ib"
	"ibvsim/internal/routing"
	"ibvsim/internal/sa"
	"ibvsim/internal/sm"
	"ibvsim/internal/sriov"
	"ibvsim/internal/telemetry"
	"ibvsim/internal/topology"
)

// The failures a control plane answers with a status of their own. Each is
// spliced into its message with %w — the sentinel's text is the phrase it
// replaces, so every message reads as it always has (clients and scenario
// logs print them) while errors.Is survives any further wrapping.
var (
	ErrExists        = errors.New("already exists")
	ErrNoVM          = errors.New("no VM")
	ErrBusy          = errors.New("is busy")
	ErrNoFreeVF      = errors.New("free VF")
	ErrNotHypervisor = errors.New("is not a hypervisor")
	ErrSameNode      = errors.New("is already on node")
	ErrStale         = errors.New("changed since it was staged")
)

// Hypervisor is one compute node.
type Hypervisor struct {
	Node topology.NodeID
	HCA  *sriov.HCA
}

// VM is a scheduled virtual machine.
type VM struct {
	Name string
	Hyp  topology.NodeID
	VF   int
	Addr sriov.Addresses
}

// Config parameterises a cloud.
type Config struct {
	Model            sriov.Model
	VFsPerHypervisor int
	Engine           routing.Engine
	Scheduler        Scheduler
	// Telemetry, when non-nil, replaces the SM's private hub so the caller
	// can export the metrics registry and reconfiguration trace (or share
	// one hub across clouds).
	Telemetry *telemetry.Hub
	// RouteWorkers pins the routing worker-pool size (0 = one per CPU).
	// Experiments that golden-test trace output set 1 for reproducibility.
	RouteWorkers int
}

// Cloud is the orchestrator.
type Cloud struct {
	SM    *sm.SubnetManager
	RC    *core.Reconfigurator
	SA    *sa.Service
	Model sriov.Model

	hyps     map[topology.NodeID]*Hypervisor
	hypOrder []topology.NodeID
	sched    Scheduler
	zoneOf   func(topology.NodeID) int // nil without a partition
	nextGUID uint64                    // atomically bumped: shard actors create VMs concurrently

	// mu guards the vms registry map. VM *contents* are owned by whoever
	// owns the VM's zone (under a control plane: its shard actor, or, mid
	// cross-shard migration, the coordinator holding the VM busy).
	mu  sync.RWMutex
	vms map[string]*VM
}

// allocGUID returns a fresh subnet-unique vGUID for a VM. Unlike per-VF
// default GUIDs, per-VM GUIDs stay unique when VMs migrate away and new
// VMs reuse the freed VF.
func (c *Cloud) allocGUID() ib.GUID {
	return ib.GUID(atomic.AddUint64(&c.nextGUID, 1))
}

// SetZones tells the cloud which zone of a sharded control plane owns each
// hypervisor. The provenance stamp of an LFT write names the zone of the
// hypervisor it was made for — a fact of the partition, told once, not a
// parameter every caller threads.
func (c *Cloud) SetZones(zoneOf func(topology.NodeID) int) { c.zoneOf = zoneOf }

// shardOf is the Provenance.Shard of writes made on behalf of a hypervisor.
func (c *Cloud) shardOf(hyp topology.NodeID) int {
	if c.zoneOf == nil {
		return ib.ShardNone
	}
	return c.zoneOf(hyp)
}

// BootstrapReport carries the subnet bring-up statistics.
type BootstrapReport struct {
	Sweep        sm.SweepStats
	Routing      routing.Stats
	Distribution sm.DistributionStats
	// PrepopulatedLIDs is how many VF LIDs were reserved up front (only
	// for the prepopulated model).
	PrepopulatedLIDs int
}

// New builds a cloud on the topology: the SM runs on smNode, every node in
// hypNodes becomes a hypervisor with cfg.VFsPerHypervisor VFs, and the
// subnet is bootstrapped (for the prepopulated model the VF LIDs are
// reserved before path computation, so the initial routing covers them —
// the section V-A cost).
func New(topo *topology.Topology, smNode topology.NodeID, hypNodes []topology.NodeID, cfg Config) (*Cloud, BootstrapReport, error) {
	var rep BootstrapReport
	if cfg.VFsPerHypervisor < 1 {
		return nil, rep, fmt.Errorf("cloud: need >= 1 VF per hypervisor")
	}
	if cfg.Engine == nil {
		cfg.Engine = routing.NewMinHop()
	}
	if cfg.Scheduler == nil {
		cfg.Scheduler = FirstFit{}
	}
	mgr, err := sm.New(topo, smNode, cfg.Engine)
	if err != nil {
		return nil, rep, err
	}
	if cfg.Telemetry != nil {
		mgr.SetTelemetry(cfg.Telemetry)
	}
	mgr.RouteWorkers = cfg.RouteWorkers
	c := &Cloud{
		SM:       mgr,
		RC:       core.NewReconfigurator(mgr),
		SA:       sa.NewService(),
		Model:    cfg.Model,
		hyps:     map[topology.NodeID]*Hypervisor{},
		vms:      map[string]*VM{},
		sched:    cfg.Scheduler,
		nextGUID: 0x9000_0000_0000_0000,
	}

	if rep.Sweep, err = mgr.Sweep(); err != nil {
		return nil, rep, err
	}
	if err := mgr.AssignLIDs(); err != nil {
		return nil, rep, err
	}

	for _, hn := range hypNodes {
		n := topo.Node(hn)
		if n == nil || n.IsSwitch() {
			return nil, rep, fmt.Errorf("cloud: hypervisor %d must be a CA", hn)
		}
		hca, err := sriov.NewHCA(cfg.Model, hn, n.GUID, mgr.LIDOf(hn), cfg.VFsPerHypervisor)
		if err != nil {
			return nil, rep, err
		}
		c.hyps[hn] = &Hypervisor{Node: hn, HCA: hca}
		c.hypOrder = append(c.hypOrder, hn)
	}
	sort.Slice(c.hypOrder, func(i, j int) bool { return c.hypOrder[i] < c.hypOrder[j] })

	if cfg.Model == sriov.VSwitchPrepopulated {
		// Reserve one LID per VF before computing paths.
		for _, hn := range c.hypOrder {
			h := c.hyps[hn]
			for vf := 0; vf < h.HCA.NumVFs(); vf++ {
				lid, err := mgr.AllocExtraLID(hn)
				if err != nil {
					return nil, rep, fmt.Errorf("cloud: prepopulating VF LIDs: %w", err)
				}
				if err := h.HCA.SetVFLID(vf, lid); err != nil {
					return nil, rep, err
				}
				rep.PrepopulatedLIDs++
			}
		}
	}

	rs, err := mgr.ComputeRoutes()
	if err != nil {
		return nil, rep, err
	}
	rep.Routing = rs
	if rep.Distribution, err = mgr.DistributeDiff(); err != nil {
		return nil, rep, err
	}
	return c, rep, nil
}

// Hypervisors returns the hypervisor nodes in ascending order. The slice is
// the cloud's own and read-only: a caller that reorders it reorders the
// cloud, whose planners take the lowest-numbered of equals from it. Clone it
// to shuffle or sort.
func (c *Cloud) Hypervisors() []topology.NodeID { return c.hypOrder }

// Hypervisor returns one hypervisor (nil if unknown).
func (c *Cloud) Hypervisor(n topology.NodeID) *Hypervisor { return c.hyps[n] }

// VMs returns the VM names in lexical order.
func (c *Cloud) VMs() []string {
	c.mu.RLock()
	names := make([]string, 0, len(c.vms))
	for n := range c.vms {
		names = append(names, n)
	}
	c.mu.RUnlock()
	sort.Strings(names)
	return names
}

// VM returns a VM by name (nil if unknown).
func (c *Cloud) VM(name string) *VM {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.vms[name]
}

// VMCountOn returns the number of VMs on a hypervisor.
func (c *Cloud) VMCountOn(n topology.NodeID) int {
	h := c.hyps[n]
	if h == nil {
		return 0
	}
	return h.HCA.AttachedCount()
}

// Place asks the configured scheduler which of hyps (ascending) is to host
// the next VM: a control-plane zone's hypervisors, or every one.
func (c *Cloud) Place(hyps []topology.NodeID) (topology.NodeID, error) {
	return c.sched.Place(c, hyps)
}

// CreateVM schedules a VM through the configured scheduler.
func (c *Cloud) CreateVM(name string) (*VM, error) {
	hyp, err := c.Place(c.hypOrder)
	if err != nil {
		return nil, err
	}
	return c.CreateVMOn(name, hyp)
}

// CreateVMOn places a VM on a specific hypervisor.
func (c *Cloud) CreateVMOn(name string, hyp topology.NodeID) (*VM, error) {
	vm, _, err := c.CreateVMOnVF(name, hyp, -1)
	return vm, err
}

// CreateVMOnVF places a VM on a specific hypervisor and VF (vf < 0 picks
// the first free one), returning the LFT-boot cost (non-zero only under
// dynamic LID assignment). A create that fails after its boot destroys the
// booted LID again.
func (c *Cloud) CreateVMOnVF(name string, hyp topology.NodeID, vf int) (vm *VM, boot core.BootStats, err error) {
	c.mu.RLock()
	_, exists := c.vms[name]
	c.mu.RUnlock()
	if exists {
		return nil, boot, fmt.Errorf("cloud: VM %q %w", name, ErrExists)
	}
	h := c.hyps[hyp]
	if h == nil {
		return nil, boot, fmt.Errorf("cloud: node %d %w", hyp, ErrNotHypervisor)
	}
	if vf < 0 {
		vf = h.HCA.FreeVF()
	}
	if vf < 0 {
		return nil, boot, fmt.Errorf("cloud: hypervisor %d has no %w", hyp, ErrNoFreeVF)
	}
	if vf >= len(h.HCA.VFs) || !h.HCA.VFs[vf].Free() {
		// Checked before the boot: the VF's LID and vGUID are written before
		// Attach refuses a busy VF, and they belong to its VM.
		return nil, boot, fmt.Errorf("cloud: VF %d of hypervisor %d is not a %w", vf, hyp, ErrNoFreeVF)
	}
	if c.Model == sriov.VSwitchDynamic {
		prov := &ib.Provenance{
			Mutation: ib.NextMutationID(),
			Engine:   "boot",
			Reason:   "create_vm " + name,
			Shard:    c.shardOf(hyp),
		}
		if boot, err = c.RC.BootVMLIDProv(hyp, prov); err != nil {
			return nil, boot, err
		}
		defer func() {
			if err != nil {
				if _, derr := c.RC.DestroyVMLIDProv(boot.LID, prov); derr != nil {
					err = errors.Join(err, derr)
				}
			}
		}()
		if err = h.HCA.SetVFLID(vf, boot.LID); err != nil {
			return nil, boot, err
		}
	}
	if err = h.HCA.SetVFGUID(vf, c.allocGUID()); err != nil {
		return nil, boot, err
	}
	if err = h.HCA.Attach(vf); err != nil {
		return nil, boot, err
	}
	addr, err := h.HCA.VFAddresses(vf)
	if err != nil {
		return nil, boot, err
	}
	vm = &VM{Name: name, Hyp: hyp, VF: vf, Addr: addr}
	c.mu.Lock()
	c.vms[name] = vm
	c.mu.Unlock()
	c.SA.Register(addr.GID, sa.PathRecord{DLID: addr.LID})
	c.SM.Log().Addf(sm.EvVM, "created VM %q on node %d VF %d (LID %d)", name, hyp, vf, addr.LID)
	return vm, boot, nil
}

// DestroyVM removes a VM, releasing its VF (and, under dynamic assignment,
// its LID).
func (c *Cloud) DestroyVM(name string) error {
	_, err := c.DestroyVMStats(name)
	return err
}

// DestroyVMStats is DestroyVM returning the LFT-invalidation cost (non-zero
// only under dynamic LID assignment).
func (c *Cloud) DestroyVMStats(name string) (core.BootStats, error) {
	var boot core.BootStats
	vm := c.VM(name)
	if vm == nil {
		return boot, fmt.Errorf("cloud: %w %q", ErrNoVM, name)
	}
	h := c.hyps[vm.Hyp]
	if err := h.HCA.Detach(vm.VF); err != nil {
		return boot, err
	}
	if c.Model == sriov.VSwitchDynamic {
		var err error
		prov := &ib.Provenance{
			Mutation: ib.NextMutationID(),
			Engine:   "boot",
			Reason:   "destroy_vm " + name,
			Shard:    c.shardOf(vm.Hyp),
		}
		if boot, err = c.RC.DestroyVMLIDProv(vm.Addr.LID, prov); err != nil {
			return boot, err
		}
		if err := h.HCA.SetVFLID(vm.VF, ib.LIDUnassigned); err != nil {
			return boot, err
		}
	}
	c.SA.Unregister(vm.Addr.GID)
	c.mu.Lock()
	delete(c.vms, name)
	c.mu.Unlock()
	c.SM.Log().Addf(sm.EvVM, "destroyed VM %q", name)
	return boot, nil
}
