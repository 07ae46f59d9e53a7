# Convenience targets for the ibvsim reproduction.

GO ?= go

.PHONY: all build test test-short race cover bench bench-pairs bench-incremental bench-incremental-short bench-shards bench-all fuzz chaos experiments experiments-full fmt vet clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# Fuzz the LFT block-diff, the migration swap primitive, the block-by-block
# run write against per-entry Sets, the SM's sparse LFT write (SMPs sent ==
# spans == the one packing rule), the plan merge against its map-of-maps
# reference, the wave planner against merged per-member plans, the
# incremental router, the auditor against its reference checker, warm
# reachability against a fresh auditor, the forwarding walkers against one
# another, the kept CDG, Pearce-Kelly against a full cycle search, the
# trace record codec, the reconcile goal parser and the request-body
# decoders (10s each; Go allows one fuzz target per invocation).
fuzz:
	$(GO) test ./internal/ib -run '^$$' -fuzz '^FuzzLFTDiff$$' -fuzztime 10s
	$(GO) test ./internal/ib -run '^$$' -fuzz '^FuzzLFTSwap$$' -fuzztime 10s
	$(GO) test ./internal/ib -run '^$$' -fuzz '^FuzzSetRun$$' -fuzztime 10s
	$(GO) test ./internal/sm -run '^$$' -fuzz '^FuzzSetLFTEntries$$' -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzMergePlans$$' -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzPlanWave$$' -fuzztime 10s
	$(GO) test ./internal/routing -run '^$$' -fuzz '^FuzzDeltaRecompute$$' -fuzztime 10s
	$(GO) test ./internal/audit -run '^$$' -fuzz '^FuzzReachabilityAgrees$$' -fuzztime 10s
	$(GO) test ./internal/audit -run '^$$' -fuzz '^FuzzWarmReach$$' -fuzztime 10s
	$(GO) test ./internal/audit -run '^$$' -fuzz '^FuzzForwardingAgrees$$' -fuzztime 10s
	$(GO) test ./internal/cdg -run '^$$' -fuzz '^FuzzMaintainedCDG$$' -fuzztime 10s
	$(GO) test ./internal/cdg -run '^$$' -fuzz '^FuzzOrdered$$' -fuzztime 10s
	$(GO) test ./internal/telemetry -run '^$$' -fuzz '^FuzzSpanRoundTrip$$' -fuzztime 10s
	$(GO) test ./internal/reconcile -run '^$$' -fuzz '^FuzzParseGoal$$' -fuzztime 10s
	$(GO) test ./internal/api -run '^$$' -fuzz '^FuzzRequestBodies$$' -fuzztime 10s

# The benchmark-regression harness: the Fig. 7 path-computation and Table I
# SMP benchmarks, teed into BENCH_fig7.json (the artifact CI uploads and the
# baseline to diff against after touching the routing engines).
bench:
	$(GO) test -run '^$$' -bench 'Fig7|Table1' -benchmem . | $(GO) run ./cmd/benchjson -o BENCH_fig7.json

# Full-vs-incremental reconfiguration suite (single link flap, whole-leaf
# failure, 1% LID churn at 648/5832/11664 nodes), teed into
# BENCH_incremental.json. The gate fails the run unless the incremental
# single-link-flap reroute beats the full recompute. `bench-incremental-short`
# is the CI smoke variant: 648-node fabrics only, one iteration each.
bench-incremental:
	$(GO) test -run '^$$' -bench 'IncrementalReroute' -benchtime 2x -benchmem . | $(GO) run ./cmd/benchjson -o BENCH_incremental.json \
		-gate 'BenchmarkIncrementalReroute/link-flap/minhop/11664/incremental<BenchmarkIncrementalReroute/link-flap/minhop/11664/full,BenchmarkIncrementalReroute/link-flap/updn/11664/incremental<BenchmarkIncrementalReroute/link-flap/updn/11664/full'

bench-incremental-short:
	$(GO) test -run '^$$' -short -bench 'IncrementalReroute' -benchtime 1x -benchmem . | $(GO) run ./cmd/benchjson -o BENCH_incremental.json \
		-gate 'BenchmarkIncrementalReroute/link-flap/minhop/648/incremental<BenchmarkIncrementalReroute/link-flap/minhop/648/full'

# Control-plane scaling sweep: the closed-loop VM-lifecycle workload on the
# in-process 11664-node paper fat tree at shards=1/2/4/8, teed into
# BENCH_controlplane.json. The gate fails the run unless shards=4 at least
# doubles single-shard throughput; every point must also finish with zero
# failed requests and a clean post-run full audit.
bench-shards:
	$(GO) run ./cmd/ibsimload -nodes 11664 -c 256 -duration 8s -create 4 -migrate 1 -destroy 4 -sweep 1,2,4,8 -prov-overhead -bench-out BENCH_controlplane.json

# Alternating parent/change pairs of one ibvbench workload, judged by the
# rule every performance PR is held to (medians, quartile ranges, wins, and
# "unresolved" when the parent's own spread exceeds the BENCHMARK.json bound):
#   make bench-pairs PARENT=<rev> WORKLOAD=migrate-classic PAIRS=10 [ARGS=-small]
# The change is the working tree; results land under bench/out/pairs/.
PAIRS ?= 10
bench-pairs:
	scripts/ibvbench-pairs.sh $(PARENT) $(WORKLOAD) $(PAIRS) $(ARGS)

# Every benchmark in the repo, including reconfiguration and fabric-sim ones.
bench-all:
	$(GO) test -bench=. -benchmem ./...

# Every chaos campaign on the paper's 324-node fat tree: seeded fault
# schedules with a full fabric audit at every quiesce point. Non-corrupting
# campaigns must audit clean; corruption-probe must be caught, with replay
# coordinates in the flight dump. Replay any failure with the printed seed.
chaos:
	$(GO) run ./cmd/ibsimchaos -campaign all -seed 1 -nodes 324 -flight-dir /tmp/ibvsim-chaos

# Regenerate the paper's evaluation artifacts (cheap subset).
experiments:
	$(GO) run ./cmd/experiments -exp all -measure 648

# Include dfsssp/lash on the 3-level fabrics (takes on the order of an hour).
experiments-full:
	$(GO) run ./cmd/experiments -exp fig7 -full

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
