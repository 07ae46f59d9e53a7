// Command ibsimd serves a simulated vSwitch cloud over HTTP: it boots a
// fabric, bootstraps the subnet manager, wraps the orchestrator in the
// internal/api control-plane daemon and listens until SIGINT/SIGTERM.
// Shutdown is graceful: intake stops, the zones' admission queues drain,
// and if the drain deadline passes any in-flight LFT distribution is
// aborted through its context.
//
// Usage:
//
//	ibsimd -addr :8080 -topo fattree -nodes 324 -model dynamic
//	ibsimd -topo torus -rows 4 -cols 4 -cas 2 -engine dfsssp -sched pack
//	ibsimd -topo ring -switches 8 -cas 2 -model prepopulated -vfs 8
//	ibsimd -audit-interval 5s -flight-dir /var/tmp/ibsim -pprof :6060
//	ibsimd -topo fattree -nodes 11664 -model prepopulated -vfs 2 -shards auto
//
// Then:
//
//	curl -X POST localhost:8080/v1/vms -d '{"name":"vm0"}'
//	curl -X POST localhost:8080/v1/vms/vm0/migrate -d '{"destination":42}'
//	curl localhost:8080/v1/paths/vm0/1 ; curl localhost:8080/metrics
//	curl 'localhost:8080/v1/audit?run=full' ; curl localhost:8080/v1/flightrecorder
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"ibvsim/internal/api"
	"ibvsim/internal/cloud"
	"ibvsim/internal/routing"
	"ibvsim/internal/sriov"
	"ibvsim/internal/topology"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	topoKind := flag.String("topo", "fattree", "topology: fattree|ring|mesh|torus|random|dragonfly|testbed")
	nodes := flag.Int("nodes", 324, "fattree: node count (324|648|5832|11664)")
	switches := flag.Int("switches", 8, "ring/random: switch count")
	rows := flag.Int("rows", 4, "mesh/torus: rows")
	cols := flag.Int("cols", 4, "mesh/torus: columns")
	cas := flag.Int("cas", 1, "CAs per switch (ring/mesh/torus/random)")
	radix := flag.Int("radix", 12, "random: switch radix")
	extra := flag.Int("extra", 8, "random: extra links beyond the spanning tree")
	seed := flag.Int64("seed", 1, "random: seed")
	engine := flag.String("engine", "minhop", "routing engine: "+fmt.Sprint(routing.Names()))
	model := flag.String("model", "dynamic", "SR-IOV model: shared|prepopulated|dynamic")
	vfs := flag.Int("vfs", 4, "VFs per hypervisor")
	sched := flag.String("sched", "spread", "VM scheduler: firstfit|spread|pack")
	queue := flag.Int("queue", api.DefaultQueueDepth, "admission queue depth (429 past this)")
	shards := flag.String("shards", "0", "control-plane zones, one actor each: N, auto (one per pod/leaf group), 0 or 1 = one zone")
	workers := flag.Int("workers", 0, "routing worker pool size (0 = one per CPU)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
	auditInterval := flag.Duration("audit-interval", 0, "cadence of background full-scope fabric audits (0 = post-mutation audits only)")
	flightDir := flag.String("flight-dir", "", "directory for flight-recorder violation dumps (empty = in-memory only)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = disabled)")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON instead of text")
	flag.Parse()

	logger := newLogger(*logJSON).With("component", "ibsimd")

	topo, err := buildTopo(*topoKind, *nodes, *switches, *rows, *cols, *cas, *radix, *extra, *seed)
	if err != nil {
		fatal(logger, err)
	}
	eng, err := routing.New(*engine)
	if err != nil {
		fatal(logger, err)
	}
	m, err := parseModel(*model)
	if err != nil {
		fatal(logger, err)
	}
	scheduler, err := parseSched(*sched)
	if err != nil {
		fatal(logger, err)
	}
	nshards, err := parseShards(*shards)
	if err != nil {
		fatal(logger, err)
	}

	caNodes := topo.CAs()
	if len(caNodes) < 2 {
		fatal(logger, fmt.Errorf("topology has %d CAs; need at least an SM and one hypervisor", len(caNodes)))
	}
	c, boot, err := cloud.New(topo, caNodes[0], caNodes[1:], cloud.Config{
		Model:            m,
		VFsPerHypervisor: *vfs,
		Engine:           eng,
		Scheduler:        scheduler,
		RouteWorkers:     *workers,
	})
	if err != nil {
		fatal(logger, err)
	}
	logger.Info("fabric booted", "fabric", topo.String(), "degrees", topo.DegreeSummary())
	logger.Info("cloud ready",
		"model", m.String(), "hypervisors", len(c.Hypervisors()), "vfs", *vfs,
		"scheduler", *sched, "prepopulated_lids", boot.PrepopulatedLIDs)
	logger.Info("bootstrap done",
		"path_compute", boot.Routing.Duration,
		"smps", boot.Distribution.SMPs, "switches_updated", boot.Distribution.SwitchesUpdated)

	apiSrv := api.NewServer(c, api.Config{
		QueueDepth:    *queue,
		AuditInterval: *auditInterval,
		FlightDir:     *flightDir,
		Logger:        newLogger(*logJSON).With("component", "api"),
		Shards:        nshards,
	})
	logger.Info("control plane", "shards", apiSrv.Coordinator().Shards())
	httpSrv := &http.Server{Addr: *addr, Handler: apiSrv.Handler()}

	// pprof gets its own mux on its own listener: the profiling surface
	// stays off the API port, so exposing the daemon never exposes
	// goroutine dumps or CPU profiles. Handlers are registered explicitly —
	// importing net/http/pprof for its DefaultServeMux side effect would
	// silently mount them on anything else using the default mux.
	var pprofSrv *http.Server
	if *pprofAddr != "" {
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv = &http.Server{Addr: *pprofAddr, Handler: pmux}
		go func() {
			if err := pprofSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("pprof listener failed", "addr", *pprofAddr, "err", err)
			}
		}()
		logger.Info("pprof listening", "addr", *pprofAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr,
		"audit_interval", *auditInterval, "flight_dir", *flightDir)

	select {
	case err := <-serveErr:
		fatal(logger, err)
	case <-ctx.Done():
	}
	logger.Info("shutting down", "drain_budget", *drain)
	shCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Drain the zone actors first — the final opCancel also terminates
	// event streams, so the listener shutdown below completes promptly.
	if err := apiSrv.Shutdown(shCtx); err != nil {
		logger.Warn("drain deadline passed; in-flight distribution aborted")
	}
	if err := httpSrv.Shutdown(shCtx); err != nil {
		httpSrv.Close()
	}
	if pprofSrv != nil {
		pprofSrv.Close()
	}
	logger.Info("bye")
}

func newLogger(asJSON bool) *slog.Logger {
	if asJSON {
		return slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, nil))
}

func parseModel(s string) (sriov.Model, error) {
	switch s {
	case "shared":
		return sriov.SharedPort, nil
	case "prepopulated":
		return sriov.VSwitchPrepopulated, nil
	case "dynamic":
		return sriov.VSwitchDynamic, nil
	default:
		return 0, fmt.Errorf("unknown SR-IOV model %q", s)
	}
}

func parseShards(s string) (int, error) {
	if s == "auto" {
		return api.ShardsAuto, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad -shards %q (want a non-negative count or auto)", s)
	}
	return n, nil
}

func parseSched(s string) (cloud.Scheduler, error) {
	switch s {
	case "firstfit":
		return cloud.FirstFit{}, nil
	case "spread":
		return cloud.Spread{}, nil
	case "pack":
		return cloud.Pack{}, nil
	default:
		return nil, fmt.Errorf("unknown scheduler %q", s)
	}
}

func buildTopo(kind string, nodes, switches, rows, cols, cas, radix, extra int, seed int64) (*topology.Topology, error) {
	switch kind {
	case "fattree":
		return topology.BuildPaperFatTree(nodes)
	case "ring":
		return topology.BuildRing(switches, cas)
	case "mesh":
		return topology.BuildMesh2D(rows, cols, cas)
	case "torus":
		return topology.BuildTorus2D(rows, cols, cas)
	case "random":
		return topology.BuildRandom(switches, radix, extra, cas, seed)
	case "dragonfly":
		return topology.BuildDragonfly(rows, switches, cas) // rows=groups, switches=per group
	case "testbed":
		return topology.BuildTestbed()
	default:
		return nil, fmt.Errorf("unknown topology %q", kind)
	}
}

func fatal(logger *slog.Logger, err error) {
	logger.Error("fatal", "err", err)
	os.Exit(1)
}
