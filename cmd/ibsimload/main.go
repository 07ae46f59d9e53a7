// Command ibsimload drives an ibsimd daemon with a closed-loop, seeded
// VM-lifecycle workload: -c workers each run create -> migrate -> destroy
// mixes against the HTTP API for -duration, then the tool prints throughput
// and client-observed latency percentiles per operation.
//
// The client is capacity-aware: a coordinator checks VMs out exclusively
// and reserves destination VFs before issuing requests, so no request ever
// fails for lack of capacity or a concurrent operation on the same VM —
// any non-2xx response is a real server bug. Backpressure (429) is not a
// failure: the worker honours it, retries, and the retry is counted.
//
// Usage:
//
//	ibsimd -topo fattree -nodes 324 &
//	ibsimload -addr http://127.0.0.1:8080 -c 32 -duration 5s
//	ibsimload -json -duration 5s | jq .failures   # machine-readable report
//
// With -nodes the tool skips the network entirely: it boots a paper
// fat-tree in process (prepopulated LIDs, 2 VFs per hypervisor — the
// largest preset that fits the unicast LID space) and drives the API
// handler directly, so the 11664-node scaling run is one command:
//
//	ibsimload -nodes 11664 -shards 4 -c 256 -duration 10s -json
//	ibsimload -nodes 11664 -sweep 1,2,4,8 -c 256 -duration 10s \
//	    -bench-out BENCH_controlplane.json   # gate: shards=4 >= 2x shards=1
//
// The report includes per-shard ops/s and queue depths; with several zones
// migrations prefer zone-local destinations with a seeded fraction (-cross)
// forced across zones to exercise the two-phase path.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"ibvsim/internal/api"
	"ibvsim/internal/ib"
	"ibvsim/internal/topology"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "daemon base URL")
	workers := flag.Int("c", 32, "concurrent workers")
	duration := flag.Duration("duration", 5*time.Second, "how long to run")
	seed := flag.Int64("seed", 1, "workload seed")
	wCreate := flag.Int("create", 1, "create weight in the op mix")
	wMigrate := flag.Int("migrate", 2, "migrate weight in the op mix")
	wDestroy := flag.Int("destroy", 1, "destroy weight in the op mix")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request timeout")
	jsonOut := flag.Bool("json", false, "write the final report as JSON to stdout (progress text moves to stderr)")
	recGoal := flag.String("reconcile", "", "after the load run, reconcile the fleet toward this goal (defrag|spread|drain:<node>) and report the batch cost")
	nodes := flag.Int("nodes", 0, "boot an in-process paper fat tree of this size (324|648|5832|11664) instead of driving -addr")
	shards := flag.String("shards", "0", "in-process mode: control-plane zones (N, auto, 0 or 1 = one zone)")
	queue := flag.Int("queue", api.DefaultQueueDepth, "in-process mode: admission queue depth")
	sweep := flag.String("sweep", "", "comma-separated shard counts (e.g. 1,2,4,8): run the workload once per count on a fresh in-process fabric and gate shards=4 >= 2x shards=1")
	benchOut := flag.String("bench-out", "", "sweep mode: write the scaling results to this JSON artifact (e.g. BENCH_controlplane.json)")
	cross := flag.Int("cross", 8, "sharded mode: force one in N migrations cross-zone (0 = no zone preference)")
	prov := flag.Bool("prov", true, "stamp LFT writes with routing provenance (false = disable stamping process-wide)")
	provOverhead := flag.Bool("prov-overhead", false, "sweep mode: re-run the gated point with provenance off and gate the on-vs-off ops/s regression at <= 5%")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	flag.Parse()

	ib.SetProvenanceEnabled(*prov)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	// With -json, stdout carries exactly one JSON document so CI can pipe
	// the run straight into a parser; everything human goes to stderr.
	human := os.Stdout
	if *jsonOut {
		human = os.Stderr
	}

	mix := opMix{create: *wCreate, migrate: *wMigrate, destroy: *wDestroy}
	if mix.total() <= 0 {
		fatal(fmt.Errorf("op mix weights sum to zero"))
	}
	cfg := runCfg{workers: *workers, duration: *duration, seed: *seed, mix: mix, cross: *cross}

	if *sweep != "" {
		if *nodes == 0 {
			*nodes = 11664
		}
		code := runSweep(*nodes, *sweep, *queue, *timeout, cfg, *benchOut, *provOverhead, human, *jsonOut)
		pprof.StopCPUProfile() // flush before the explicit exit (no-op when off)
		os.Exit(code)
	}

	target := *addr
	var client *http.Client
	var srv *api.Server
	if *nodes > 0 {
		var err error
		srv, client, err = bootEmbedded(*nodes, *shards, *queue, *timeout, human)
		if err != nil {
			fatal(err)
		}
		target = embeddedAddr
	} else {
		client = &http.Client{Timeout: *timeout}
	}

	rep, total := runLoad(client, target, cfg, human)
	if srv != nil {
		viol, err := fullAudit(client, target)
		if err != nil {
			total.fail("full audit: %v", err)
		} else {
			rep.AuditViolations = &viol
			if viol > 0 {
				total.fail("full audit after load: %d violations", viol)
			}
		}
	}
	if *recGoal != "" {
		rep.Reconcile = runReconcile(client, target, *recGoal, human)
		if !rep.Reconcile.Converged || !rep.Reconcile.CostMatch {
			total.failures++
		}
	}
	rep.Failures = total.failures
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
	}
	if srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		srv.Shutdown(ctx) //nolint:errcheck // exiting anyway
		cancel()
	}
	if total.failures > 0 {
		os.Exit(1)
	}
}

// runCfg is one workload run's shape, shared by the single-run and sweep
// entry points.
type runCfg struct {
	workers  int
	duration time.Duration
	seed     int64
	mix      opMix
	cross    int // 1-in-N migrations forced cross-zone (0 = no preference)
}

// runLoad drives one complete closed-loop workload against client/addr and
// returns the report plus the merged worker stats (for callers that append
// further failures before deciding the exit code).
func runLoad(client *http.Client, addr string, cfg runCfg, human io.Writer) (*loadReport, *workerStats) {
	topo, err := fetchTopology(client, addr)
	if err != nil {
		fatal(fmt.Errorf("cannot reach daemon at %s: %w", addr, err))
	}
	fmt.Fprintf(human, "target: %s — %s, model=%s, %d hypervisors, %d shards\n",
		addr, topo.Fabric, topo.Model, len(topo.Hypervisors), topo.Shards)

	coord := newCoordinator(topo.Hypervisors, topo.Shards > 1)
	opsBefore := map[int]uint64{}
	for _, st := range topo.ShardStats {
		opsBefore[st.Shard] = st.Ops
	}

	deadline := time.Now().Add(cfg.duration)
	results := make([]workerStats, cfg.workers)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < cfg.workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &worker{
				client: client,
				addr:   addr,
				coord:  coord,
				rng:    rand.New(rand.NewSource(cfg.seed + int64(i))),
				mix:    cfg.mix,
				cross:  cfg.cross,
				stats:  &results[i],
			}
			w.run(deadline)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var total workerStats
	for i := range results {
		total.merge(&results[i])
	}
	rep := buildReport(cfg.workers, elapsed, cfg.duration, &total)
	if after, err := fetchTopology(client, addr); err == nil {
		rep.Shards = after.Shards
		for _, st := range after.ShardStats {
			rep.PerShard = append(rep.PerShard, shardLoadReport{
				Shard:     st.Shard,
				Ops:       st.Ops - opsBefore[st.Shard],
				OpsPerSec: float64(st.Ops-opsBefore[st.Shard]) / elapsed.Seconds(),
				QueueLen:  st.QueueLen,
			})
		}
	}

	fmt.Fprintf(human, "\nran %v with %d workers\n", elapsed.Round(time.Millisecond), cfg.workers)
	fmt.Fprintf(human, "ops: %d total, %d in the %v window, %.1f ops/s (%d failed, %d backpressure retries)\n",
		rep.OpsTotal, rep.OpsInWindow, cfg.duration, rep.OpsPerSec, total.failures, total.retries)
	for _, op := range []opKind{opCreate, opMigrate, opDestroy} {
		printLatencies(human, op.String(), total.lat[op])
	}
	for _, sh := range rep.PerShard {
		fmt.Fprintf(human, "shard %d: %d ops, %.1f ops/s, queue %d\n",
			sh.Shard, sh.Ops, sh.OpsPerSec, sh.QueueLen)
	}
	for _, msg := range total.failureMsgs {
		fmt.Fprintln(os.Stderr, "failure:", msg)
	}
	return rep, &total
}

// reconcileReport is the -reconcile block of the -json report: the planned
// batch, its predicted and applied LFT SMP bills, and whether the dry run's
// prediction survived contact with the fabric.
type reconcileReport struct {
	Goal             string `json:"goal"`
	Moves            int    `json:"moves"`
	Waves            int    `json:"waves"`
	PredictedLFTSMPs int    `json:"predicted_lft_smps"`
	AppliedLFTSMPs   int    `json:"applied_lft_smps"`
	CostMatch        bool   `json:"cost_match"`
	Converged        bool   `json:"converged"`
	Error            string `json:"error,omitempty"`
}

// runReconcile dry-runs the goal, applies it, and re-dry-runs to confirm the
// fleet converged — the CLI version of the reconciler's acceptance loop.
func runReconcile(client *http.Client, addr, goal string, human io.Writer) *reconcileReport {
	rep := &reconcileReport{Goal: goal}
	post := func(query string) (api.ReconcileResponse, int, error) {
		var out api.ReconcileResponse
		resp, err := client.Post(addr+"/v1/reconcile?"+query, "application/json", nil)
		if err != nil {
			return out, 0, err
		}
		defer resp.Body.Close()
		return out, resp.StatusCode, json.NewDecoder(resp.Body).Decode(&out)
	}
	q := "goal=" + goal
	dry, st, err := post(q + "&dry_run=1")
	if err != nil || st != http.StatusOK {
		rep.Error = fmt.Sprintf("dry run: status %d: %v %s", st, err, dry.Error)
		return rep
	}
	rep.Moves, rep.Waves = len(dry.Moves), dry.Waves
	rep.PredictedLFTSMPs = dry.PredictedTotal.LFTSMPs + dry.PredictedTotal.InvalidationSMPs
	if dry.Converged {
		rep.Converged, rep.CostMatch = true, true
		fmt.Fprintf(human, "reconcile %s: already converged\n", goal)
		return rep
	}
	app, st, err := post(q)
	if err != nil || st != http.StatusOK {
		rep.Error = fmt.Sprintf("apply: status %d: %v %s", st, err, app.Error)
		return rep
	}
	if app.AppliedTotal != nil {
		rep.AppliedLFTSMPs = app.AppliedTotal.LFTSMPs + app.AppliedTotal.InvalidationSMPs
	}
	rep.CostMatch = rep.AppliedLFTSMPs == app.PredictedTotal.LFTSMPs+app.PredictedTotal.InvalidationSMPs
	again, st, err := post(q + "&dry_run=1")
	if err != nil || st != http.StatusOK {
		rep.Error = fmt.Sprintf("re-check: status %d: %v", st, err)
		return rep
	}
	rep.Converged = again.Converged
	fmt.Fprintf(human, "reconcile %s: %d moves in %d waves, %d SMPs applied (cost match: %v, converged: %v)\n",
		goal, rep.Moves, rep.Waves, rep.AppliedLFTSMPs, rep.CostMatch, rep.Converged)
	return rep
}

// opReport is the per-operation block of the -json report (latencies in µs).
type opReport struct {
	Ops   int   `json:"ops"`
	P50US int64 `json:"p50_us"`
	P90US int64 `json:"p90_us"`
	P99US int64 `json:"p99_us"`
	MaxUS int64 `json:"max_us"`
}

// shardLoadReport is one shard's share of the run: ops executed by its
// actor during the run window and its queue depth at the end.
type shardLoadReport struct {
	Shard     int     `json:"shard"`
	Ops       uint64  `json:"ops"`
	OpsPerSec float64 `json:"ops_per_sec"`
	QueueLen  int     `json:"queue_len"`
}

// loadReport is the -json document ibsimload writes to stdout: one run,
// machine-readable, stable field names for CI assertions. AuditViolations
// appears only for in-process targets.
type loadReport struct {
	ElapsedMS       int64               `json:"elapsed_ms"`
	Workers         int                 `json:"workers"`
	OpsTotal        int                 `json:"ops_total"`
	OpsInWindow     int                 `json:"ops_in_window"`
	OpsPerSec       float64             `json:"ops_per_sec"`
	Failures        int                 `json:"failures"`
	Retries         int                 `json:"retries"`
	Shards          int                 `json:"shards,omitempty"`
	PerShard        []shardLoadReport   `json:"per_shard,omitempty"`
	AuditViolations *int                `json:"audit_violations,omitempty"`
	PerOp           map[string]opReport `json:"per_op"`
	FailureMsgs     []string            `json:"failure_msgs,omitempty"`
	Reconcile       *reconcileReport    `json:"reconcile,omitempty"`
}

func buildReport(workers int, elapsed, window time.Duration, total *workerStats) *loadReport {
	ops := 0
	perOp := map[string]opReport{}
	for _, op := range []opKind{opCreate, opMigrate, opDestroy} {
		lat := total.lat[op]
		ops += len(lat)
		r := opReport{Ops: len(lat)}
		if len(lat) > 0 {
			sorted := append([]time.Duration(nil), lat...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			pct := func(p int) int64 { return sorted[p*(len(sorted)-1)/100].Microseconds() }
			r.P50US, r.P90US, r.P99US = pct(50), pct(90), pct(99)
			r.MaxUS = sorted[len(sorted)-1].Microseconds()
		}
		perOp[op.String()] = r
	}
	// Throughput is ops completed inside the fixed issuing window over that
	// window, not total ops over total elapsed: workers stop issuing at the
	// deadline but in-flight requests drain to completion, and a drain tail
	// of deep-queued migrations would otherwise skew the denominator
	// differently at every sweep point.
	return &loadReport{
		ElapsedMS:   elapsed.Milliseconds(),
		Workers:     workers,
		OpsTotal:    ops,
		OpsInWindow: total.inWindow,
		OpsPerSec:   float64(total.inWindow) / window.Seconds(),
		Failures:    total.failures,
		Retries:     total.retries,
		PerOp:       perOp,
		FailureMsgs: total.failureMsgs,
	}
}

func fetchTopology(client *http.Client, addr string) (api.TopologyResponse, error) {
	var topo api.TopologyResponse
	resp, err := client.Get(addr + "/v1/topology")
	if err != nil {
		return topo, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return topo, fmt.Errorf("GET /v1/topology: status %d", resp.StatusCode)
	}
	return topo, json.NewDecoder(resp.Body).Decode(&topo)
}

// --- workload bookkeeping -------------------------------------------------

type opKind int

const (
	opCreate opKind = iota
	opMigrate
	opDestroy
	numOps
)

func (o opKind) String() string {
	switch o {
	case opCreate:
		return "create"
	case opMigrate:
		return "migrate"
	default:
		return "destroy"
	}
}

type opMix struct{ create, migrate, destroy int }

func (m opMix) total() int { return m.create + m.migrate + m.destroy }

func (m opMix) pick(rng *rand.Rand) opKind {
	n := rng.Intn(m.total())
	if n < m.create {
		return opCreate
	}
	if n < m.create+m.migrate {
		return opMigrate
	}
	return opDestroy
}

// coordinator is the client-side capacity model: it hands out VM names,
// checks VMs out exclusively (so two workers never race on one VM) and
// reserves VF slots before a request is sent, mirroring the server's
// accounting so nothing the daemon could refuse is ever asked.
type coordinator struct {
	mu     sync.Mutex
	freeVF map[topology.NodeID]int
	idle   map[string]topology.NodeID
	zone   map[topology.NodeID]int
	zoned  bool // migrations steer by zone (sharded target with > 1 zone)
	nextID int
}

func newCoordinator(hyps []api.HypInfo, zoned bool) *coordinator {
	c := &coordinator{
		freeVF: map[topology.NodeID]int{},
		idle:   map[string]topology.NodeID{},
		zone:   map[topology.NodeID]int{},
		zoned:  zoned,
	}
	for _, h := range hyps {
		c.freeVF[h.Node] = h.VFs - h.Attached
		c.zone[h.Node] = h.Zone
	}
	return c
}

// reserveCreate picks a hypervisor with a free VF (map iteration order is
// the randomness) and reserves one slot.
func (c *coordinator) reserveCreate() (string, topology.NodeID, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for node, free := range c.freeVF {
		if free > 0 {
			c.freeVF[node]--
			c.nextID++
			return fmt.Sprintf("load-%06d", c.nextID), node, true
		}
	}
	return "", 0, false
}

func (c *coordinator) commitCreate(name string, node topology.NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.idle[name] = node
}

func (c *coordinator) releaseVF(node topology.NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.freeVF[node]++
}

// checkoutMigrate removes an idle VM from circulation and reserves a VF on
// a different hypervisor. Against a sharded target it steers by zone:
// wantCross asks for a cross-zone destination (exercising the two-phase
// path), otherwise zone-local ones are preferred; either way a destination
// of the other kind serves as fallback so capacity pressure never stalls
// the mix.
func (c *coordinator) checkoutMigrate(wantCross bool) (name string, src, dst topology.NodeID, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for n, s := range c.idle {
		fallback := topology.NoNode
		for d, free := range c.freeVF {
			if d == s || free == 0 {
				continue
			}
			if c.zoned && (c.zone[d] != c.zone[s]) != wantCross {
				if fallback == topology.NoNode {
					fallback = d
				}
				continue
			}
			delete(c.idle, n)
			c.freeVF[d]--
			return n, s, d, true
		}
		if fallback != topology.NoNode {
			delete(c.idle, n)
			c.freeVF[fallback]--
			return n, s, fallback, true
		}
		break // one VM tried, no destination: capacity is tight everywhere
	}
	return "", 0, 0, false
}

func (c *coordinator) finishMigrate(name string, src, dst topology.NodeID, succeeded bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if succeeded {
		c.freeVF[src]++
		c.idle[name] = dst
	} else {
		c.freeVF[dst]++
		c.idle[name] = src
	}
}

func (c *coordinator) checkoutDestroy() (string, topology.NodeID, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for n, s := range c.idle {
		delete(c.idle, n)
		return n, s, true
	}
	return "", 0, false
}

func (c *coordinator) undoDestroy(name string, node topology.NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.idle[name] = node
}

// --- workers --------------------------------------------------------------

type workerStats struct {
	lat         [numOps][]time.Duration
	inWindow    int // ops that completed before the issuing deadline
	retries     int
	failures    int
	failureMsgs []string
}

func (s *workerStats) merge(o *workerStats) {
	for i := range s.lat {
		s.lat[i] = append(s.lat[i], o.lat[i]...)
	}
	s.inWindow += o.inWindow
	s.retries += o.retries
	s.failures += o.failures
	for _, m := range o.failureMsgs {
		if len(s.failureMsgs) < 10 {
			s.failureMsgs = append(s.failureMsgs, m)
		}
	}
}

func (s *workerStats) fail(format string, args ...any) {
	s.failures++
	if len(s.failureMsgs) < 10 {
		s.failureMsgs = append(s.failureMsgs, fmt.Sprintf(format, args...))
	}
}

type worker struct {
	client   *http.Client
	addr     string
	coord    *coordinator
	rng      *rand.Rand
	mix      opMix
	cross    int // 1-in-N migrations ask for a cross-zone destination
	stats    *workerStats
	deadline time.Time
}

// done records one successful operation. Only ops that complete inside the
// issuing window count toward throughput: workers stop issuing at the
// deadline but in-flight requests are allowed to drain, and including the
// drain tail in the denominator would turn queue-depth luck into ops/s
// noise between sweep points.
func (w *worker) done(op opKind, d time.Duration) {
	w.stats.lat[op] = append(w.stats.lat[op], d)
	if time.Now().Before(w.deadline) {
		w.stats.inWindow++
	}
}

func (w *worker) run(deadline time.Time) {
	w.deadline = deadline
	for time.Now().Before(deadline) {
		op := w.mix.pick(w.rng)
		if !w.attempt(op) {
			// The preferred op had nothing to work on (no idle VM, or no
			// free VF anywhere). Try the others before idling briefly.
			done := false
			for o := opKind(0); o < numOps && !done; o++ {
				if o != op {
					done = w.attempt(o)
				}
			}
			if !done {
				time.Sleep(time.Millisecond)
			}
		}
	}
}

// attempt runs one operation end to end. It returns false only when the
// coordinator had nothing to check out — request failures are recorded in
// stats, not signalled to the mix loop.
func (w *worker) attempt(op opKind) bool {
	switch op {
	case opCreate:
		name, node, ok := w.coord.reserveCreate()
		if !ok {
			return false
		}
		st, body, d := w.do("POST", "/v1/vms", api.CreateVMRequest{Name: name, Hypervisor: &node})
		if st == http.StatusCreated {
			w.coord.commitCreate(name, node)
			w.done(opCreate, d)
		} else {
			w.coord.releaseVF(node)
			w.stats.fail("create %s on %d: status %d: %s", name, node, st, body)
		}
	case opMigrate:
		wantCross := w.cross > 0 && w.rng.Intn(w.cross) == 0
		name, src, dst, ok := w.coord.checkoutMigrate(wantCross)
		if !ok {
			return false
		}
		st, body, d := w.do("POST", "/v1/vms/"+name+"/migrate", api.MigrateVMRequest{Destination: dst})
		if st == http.StatusOK {
			w.done(opMigrate, d)
		} else {
			w.stats.fail("migrate %s %d->%d: status %d: %s", name, src, dst, st, body)
		}
		w.coord.finishMigrate(name, src, dst, st == http.StatusOK)
	case opDestroy:
		name, node, ok := w.coord.checkoutDestroy()
		if !ok {
			return false
		}
		st, body, d := w.do("DELETE", "/v1/vms/"+name, nil)
		if st == http.StatusOK {
			w.coord.releaseVF(node)
			w.done(opDestroy, d)
		} else {
			w.coord.undoDestroy(name, node)
			w.stats.fail("destroy %s: status %d: %s", name, st, body)
		}
	}
	return true
}

// do issues one request, transparently retrying on 429 backpressure with a
// small bounded backoff. The returned duration is the client-observed
// time to completion, retries included.
func (w *worker) do(method, path string, body any) (int, string, time.Duration) {
	var payload []byte
	if body != nil {
		payload, _ = json.Marshal(body)
	}
	start := time.Now()
	for attempt := 1; ; attempt++ {
		var rd io.Reader
		if payload != nil {
			rd = bytes.NewReader(payload)
		}
		req, err := http.NewRequest(method, w.addr+path, rd)
		if err != nil {
			return 0, err.Error(), time.Since(start)
		}
		resp, err := w.client.Do(req)
		if err != nil {
			return 0, err.Error(), time.Since(start)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			w.stats.retries++
			backoff := time.Duration(attempt) * 2 * time.Millisecond
			if backoff > 50*time.Millisecond {
				backoff = 50 * time.Millisecond
			}
			time.Sleep(backoff)
			continue
		}
		return resp.StatusCode, string(bytes.TrimSpace(b)), time.Since(start)
	}
}

// --- reporting ------------------------------------------------------------

func printLatencies(w io.Writer, name string, lat []time.Duration) {
	if len(lat) == 0 {
		fmt.Fprintf(w, "%-8s 0 ops\n", name+":")
		return
	}
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	pct := func(p int) time.Duration {
		idx := p * (len(sorted) - 1) / 100
		return sorted[idx]
	}
	fmt.Fprintf(w, "%-8s %6d ops  p50 %v  p90 %v  p99 %v  max %v\n",
		name+":", len(sorted),
		pct(50).Round(time.Microsecond), pct(90).Round(time.Microsecond),
		pct(99).Round(time.Microsecond), sorted[len(sorted)-1].Round(time.Microsecond))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ibsimload:", err)
	os.Exit(1)
}
