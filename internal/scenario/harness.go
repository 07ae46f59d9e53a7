package scenario

import (
	"fmt"
	"io"
	"log/slog"
	"strconv"

	"ibvsim/internal/api"
	"ibvsim/internal/cloud"
	"ibvsim/internal/routing"
	"ibvsim/internal/smp"
	"ibvsim/internal/sriov"
	"ibvsim/internal/topology"
)

// Options parameterises a harness. Campaigns override the model/VF/retry
// knobs through Campaign.Tune; the fabric, seed and flight directory come
// from whoever runs the campaign (the chaos runner or a test).
type Options struct {
	// Spec, when non-nil, builds an XGFT fabric (small deterministic
	// fabrics for tests); otherwise FatTreeNodes selects one of the paper's
	// fat trees.
	Spec *topology.XGFTSpec
	// Radix is the XGFT switch radix (0 means 12).
	Radix int
	// FatTreeNodes picks the paper fat tree when Spec is nil (0 means 324).
	FatTreeNodes int
	// Engine names the routing engine (see routing.Names; "" means minhop).
	Engine string
	// Model is the SR-IOV model (default dynamic).
	Model sriov.Model
	// VFs is the VF count per hypervisor (0 means 4).
	VFs int
	// MaxAttempts overrides the LFT distribution retry budget (0 keeps the
	// SM default). Corruption campaigns set 1 so a single lost SMP sticks;
	// fault-window campaigns raise it so losses always converge.
	MaxAttempts int
	// IncrementalRouting turns on the SM's dependency-tracked delta
	// recompute: reconfigurations after topology deltas re-run only the
	// affected destination trees and distribute a block diff.
	IncrementalRouting bool
	// MaxBlocksPerSMP sets the LFT distribution coalescing cap (0 keeps the
	// SM default of classical one-block SMPs).
	MaxBlocksPerSMP int
	// Seed is the campaign seed: it seeds the engine PRNG and, separately,
	// the fault transport's dice stream.
	Seed int64
	// FlightDir, when set, is where violation dumps land on disk.
	FlightDir string
	// QueueDepth bounds the API admission queue (0 means the API default).
	QueueDepth int
	// Shards is the number of control-plane zones (see api.Config.Shards):
	// 0 is one zone, N partitions the fabric into N. Campaign determinism
	// holds because the engine issues mutations one at a time — actors run
	// on their own goroutines but each operation's reply gives the schedule
	// a total order.
	Shards int
	// Logger receives the control plane's structured logs (wall-clock
	// noise included — it is NOT part of the deterministic event log). nil
	// discards.
	Logger *slog.Logger
}

// Harness wires a scenario engine to a real control-plane stack: fabric,
// cloud, subnet manager and api.Server, with every nondeterminism knob
// pinned. All campaign work runs on the engine's single goroutine; API
// mutations travel through the server's zone actors (the submit and the
// completion of each command give the goroutines a happens-before edge), so
// the harness may also touch the topology and SM directly between mutations.
type Harness struct {
	E     *Engine
	Opts  Options
	Topo  *topology.Topology
	Cloud *cloud.Cloud
	Srv   *api.Server
	// FT is the fault-injecting transport the SM's LFT distribution SMPs
	// travel through; it starts lossless. Replaced on SM handover (the new
	// master gets its own dice stream, seeded from the engine PRNG).
	FT *smp.FaultyTransport

	reqSeq    int
	handovers int
}

// NewHarness boots the stack. The distribution worker count is pinned to 1:
// with concurrent workers the fault transport's dice rolls land in
// scheduling order, which would make fault verdicts — and therefore the
// event log — nondeterministic. Routing workers stay at 1 as well (results
// are bit-identical for any value; 1 also keeps modelled times exact).
func NewHarness(opts Options) (*Harness, error) {
	if opts.VFs == 0 {
		opts.VFs = 4
	}
	if opts.Engine == "" {
		opts.Engine = "minhop"
	}
	if opts.Model == 0 {
		opts.Model = sriov.VSwitchDynamic
	}

	var topo *topology.Topology
	var err error
	if opts.Spec != nil {
		radix := opts.Radix
		if radix == 0 {
			radix = 12
		}
		topo, err = topology.BuildXGFT(*opts.Spec, radix)
	} else {
		nodes := opts.FatTreeNodes
		if nodes == 0 {
			nodes = 324
		}
		topo, err = topology.BuildPaperFatTree(nodes)
	}
	if err != nil {
		return nil, err
	}
	eng, err := routing.New(opts.Engine)
	if err != nil {
		return nil, err
	}
	cas := topo.CAs()
	if len(cas) < 3 {
		return nil, fmt.Errorf("scenario: fabric has %d CAs; need an SM, a standby and a hypervisor", len(cas))
	}
	c, _, err := cloud.New(topo, cas[0], cas[1:], cloud.Config{
		Model:            opts.Model,
		VFsPerHypervisor: opts.VFs,
		Engine:           eng,
		Scheduler:        cloud.Spread{},
		RouteWorkers:     1,
	})
	if err != nil {
		return nil, err
	}
	if opts.MaxAttempts > 0 {
		c.SM.Dist.Retry.MaxAttempts = opts.MaxAttempts
	}
	c.SM.IncrementalRouting = opts.IncrementalRouting
	if opts.MaxBlocksPerSMP > 0 {
		c.SM.Dist.MaxBlocksPerSMP = opts.MaxBlocksPerSMP
	}
	ft := c.SM.InjectFaults(smp.FaultConfig{Seed: opts.Seed})

	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	srv := api.NewServer(c, api.Config{
		QueueDepth: opts.QueueDepth,
		FlightDir:  opts.FlightDir,
		Logger:     logger,
		Shards:     opts.Shards,
	})

	h := &Harness{
		E:     NewEngine(opts.Seed),
		Opts:  opts,
		Topo:  topo,
		Cloud: c,
		Srv:   srv,
		FT:    ft,
	}
	// Keep the flight recorder's replay coordinates current: any dump taken
	// inside an event carries the exact seed and step that reproduce it.
	rec := srv.Auditor().Recorder()
	rec.SetMeta("seed", strconv.FormatInt(opts.Seed, 10))
	h.E.OnEvent = func(step int, name string) {
		rec.SetMeta("step", strconv.Itoa(step))
		rec.SetMeta("event", name)
	}
	return h, nil
}
