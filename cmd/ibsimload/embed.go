package main

// In-process mode: boot a paper fat tree and drive the api.Server handler
// directly through a stub transport, skipping TCP and the daemon process.
// This is what makes the 11664-node control-plane scaling run a single
// command, and what `make bench-shards` builds BENCH_controlplane.json from.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"time"

	"ibvsim/internal/api"
	"ibvsim/internal/cloud"
	"ibvsim/internal/ib"
	"ibvsim/internal/routing"
	"ibvsim/internal/sriov"
	"ibvsim/internal/topology"
)

// embeddedAddr is the base URL workers use against an in-process server;
// the stub transport never resolves the host.
const embeddedAddr = "http://ibsim.embedded"

// handlerTransport serves every request by calling the handler inline on
// the caller's goroutine — the client-observed latency is the handler's
// own, with zero network in the way.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
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

// bootEmbedded builds the in-process target: a paper fat tree under the
// prepopulated-LID model with 2 VFs per hypervisor — the widest preset the
// 11664-node fabric can carry without exhausting the unicast LID space
// (11664 hosts x 3 LIDs + 1620 switches < 49151).
func bootEmbedded(nodes int, shards string, queue int, timeout time.Duration, human io.Writer) (*api.Server, *http.Client, error) {
	nshards, err := parseShards(shards)
	if err != nil {
		return nil, nil, err
	}
	topo, err := topology.BuildPaperFatTree(nodes)
	if err != nil {
		return nil, nil, err
	}
	eng, err := routing.New("minhop")
	if err != nil {
		return nil, nil, err
	}
	cas := topo.CAs()
	if len(cas) < 2 {
		return nil, nil, fmt.Errorf("fabric has %d CAs; need an SM and at least one hypervisor", len(cas))
	}
	start := time.Now()
	c, _, err := cloud.New(topo, cas[0], cas[1:], cloud.Config{
		Model:            sriov.VSwitchPrepopulated,
		VFsPerHypervisor: 2,
		Engine:           eng,
		Scheduler:        cloud.Spread{},
	})
	if err != nil {
		return nil, nil, err
	}
	srv := api.NewServer(c, api.Config{QueueDepth: queue, Shards: nshards})
	fmt.Fprintf(human, "embedded %s booted in %v (prepopulated, 2 VFs/hyp, %d shards)\n",
		topo.String(), time.Since(start).Round(time.Millisecond), srv.Coordinator().Shards())
	return srv, &http.Client{Transport: handlerTransport{srv.Handler()}, Timeout: timeout}, nil
}

// fullAudit triggers a synchronous full-scope fabric audit and returns the
// cumulative violation count.
func fullAudit(client *http.Client, addr string) (int, error) {
	resp, err := client.Get(addr + "/v1/audit?run=full")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET /v1/audit?run=full: status %d", resp.StatusCode)
	}
	var out struct {
		ViolationsTotal int `json:"violations_total"`
	}
	return out.ViolationsTotal, json.NewDecoder(resp.Body).Decode(&out)
}

// shardBenchEntry is one sweep point of BENCH_controlplane.json.
type shardBenchEntry struct {
	Shards          int               `json:"shards"`
	OpsTotal        int               `json:"ops_total"`
	OpsPerSec       float64           `json:"ops_per_sec"`
	Failures        int               `json:"failures"`
	Retries         int               `json:"retries"`
	AuditViolations int               `json:"audit_violations"`
	PerShard        []shardLoadReport `json:"per_shard,omitempty"`
}

// shardGate is the sweep's acceptance gate: sharding the control plane four
// ways must at least double single-shard throughput.
type shardGate struct {
	Expr    string  `json:"expr"`
	Speedup float64 `json:"speedup"`
	Pass    bool    `json:"pass"`
}

// provBench reports the cost of provenance stamping: the gated sweep point
// re-run with stamping disabled, and the on-vs-off throughput delta. The
// gate holds the stamping overhead to <= 5% of ops/s.
type provBench struct {
	Shards       int     `json:"shards"`
	OpsPerSecOn  float64 `json:"ops_per_sec_on"`
	OpsPerSecOff float64 `json:"ops_per_sec_off"`
	OverheadPct  float64 `json:"overhead_pct"`
	Gate         string  `json:"gate"`
	Pass         bool    `json:"pass"`
}

// shardBench is the BENCH_controlplane.json document.
type shardBench struct {
	Benchmark  string            `json:"benchmark"`
	Nodes      int               `json:"nodes"`
	Workers    int               `json:"workers"`
	DurationMS int64             `json:"duration_ms"`
	Results    []shardBenchEntry `json:"results"`
	Gate       *shardGate        `json:"gate,omitempty"`
	Provenance *provBench        `json:"provenance,omitempty"`
}

// runSweep runs the workload once per shard count, each on a freshly booted
// fabric, audits after every run, and applies the scaling gate. With
// provOverhead it re-runs the gated point with provenance stamping disabled
// and gates the on-vs-off regression. Returns the process exit code.
func runSweep(nodes int, sweep string, queue int, timeout time.Duration, cfg runCfg, out string, provOverhead bool, human io.Writer, jsonOut bool) int {
	var counts []int
	for _, f := range strings.Split(sweep, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			fatal(fmt.Errorf("bad -sweep entry %q (want positive shard counts)", f))
		}
		counts = append(counts, n)
	}
	bench := shardBench{
		Benchmark:  "controlplane-shards",
		Nodes:      nodes,
		Workers:    cfg.workers,
		DurationMS: cfg.duration.Milliseconds(),
	}
	opsAt := map[int]float64{}
	exit := 0
	runPoint := func(n int) shardBenchEntry {
		srv, client, err := bootEmbedded(nodes, strconv.Itoa(n), queue, timeout, human)
		if err != nil {
			fatal(err)
		}
		rep, total := runLoad(client, embeddedAddr, cfg, human)
		viol, aerr := fullAudit(client, embeddedAddr)
		if aerr != nil {
			total.fail("full audit: %v", aerr)
		} else if viol > 0 {
			total.fail("full audit after load: %d violations", viol)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		srv.Shutdown(ctx) //nolint:errcheck // fresh fabric per point; nothing to save
		cancel()
		if total.failures > 0 {
			exit = 1
			for _, msg := range total.failureMsgs {
				fmt.Fprintln(os.Stderr, "failure:", msg)
			}
		}
		return shardBenchEntry{
			Shards:          n,
			OpsTotal:        rep.OpsTotal,
			OpsPerSec:       rep.OpsPerSec,
			Failures:        total.failures,
			Retries:         rep.Retries,
			AuditViolations: viol,
			PerShard:        rep.PerShard,
		}
	}
	for _, n := range counts {
		fmt.Fprintf(human, "\n=== shards=%d ===\n", n)
		entry := runPoint(n)
		bench.Results = append(bench.Results, entry)
		opsAt[n] = entry.OpsPerSec
	}
	if o1, ok1 := opsAt[1]; ok1 && o1 > 0 {
		if o4, ok4 := opsAt[4]; ok4 {
			g := &shardGate{
				Expr:    "ops_per_sec[shards=4] >= 2.0 * ops_per_sec[shards=1]",
				Speedup: o4 / o1,
				Pass:    o4 >= 2.0*o1,
			}
			bench.Gate = g
			verdict := "pass"
			if !g.Pass {
				verdict, exit = "FAIL", 1
			}
			fmt.Fprintf(human, "\ngate: shards=4 vs shards=1 speedup %.2fx (want >= 2.00x): %s\n",
				g.Speedup, verdict)
		}
	}
	if provOverhead && len(counts) > 0 {
		// Re-run the gated point (shards=4 when swept, else the last point)
		// with stamping off. The overhead is relative to the off run; noise
		// can make it negative, which passes.
		n := counts[len(counts)-1]
		if _, ok := opsAt[4]; ok {
			n = 4
		}
		fmt.Fprintf(human, "\n=== shards=%d, provenance off ===\n", n)
		ib.SetProvenanceEnabled(false)
		off := runPoint(n)
		ib.SetProvenanceEnabled(true)
		pb := &provBench{
			Shards:       n,
			OpsPerSecOn:  opsAt[n],
			OpsPerSecOff: off.OpsPerSec,
			Gate:         "ops_per_sec_on >= 0.95 * ops_per_sec_off",
		}
		if off.OpsPerSec > 0 {
			pb.OverheadPct = 100 * (off.OpsPerSec - pb.OpsPerSecOn) / off.OpsPerSec
		}
		pb.Pass = pb.OpsPerSecOn >= 0.95*off.OpsPerSec
		bench.Provenance = pb
		verdict := "pass"
		if !pb.Pass {
			verdict, exit = "FAIL", 1
		}
		fmt.Fprintf(human, "\nprovenance overhead at shards=%d: on %.1f ops/s vs off %.1f ops/s (%.1f%%, want <= 5%%): %s\n",
			n, pb.OpsPerSecOn, pb.OpsPerSecOff, pb.OverheadPct, verdict)
	}
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			fatal(err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(bench); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(human, "wrote %s\n", out)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(bench) //nolint:errcheck
	}
	return exit
}
