package routing

import (
	"fmt"
	"slices"
	"time"

	"ibvsim/internal/cdg"
	"ibvsim/internal/ib"
	"ibvsim/internal/topology"
)

// DFSSSP implements the deadlock-free single-source-shortest-path engine of
// Domke, Hoefler and Nagel (IPDPS'11), the topology-agnostic routing the
// paper benchmarks in Fig. 7. Per destination LID it runs a Dijkstra over
// edge weights that accumulate the number of routes already placed on each
// link (global balancing), then it breaks channel-dependency cycles by
// assigning destinations to virtual-lane layers until every layer's CDG is
// acyclic.
//
// Divergences from the reference implementation, documented in DESIGN.md:
// layering granularity is per destination LID rather than per
// source-destination pair (coarser, but preserves both the computational
// shape — one SSSP per LID dominates — and deadlock freedom); the
// link-weight state advances once per dfssspEpoch destinations rather than
// per destination, which is what lets the SSSPs of one epoch run
// concurrently against a frozen weight snapshot with bit-identical results
// for every worker count; and the balancing is restricted to minimal-hop
// paths (see hopUnit), which lowers the VL pressure the coarser layering
// granularity creates. The coarse granularity has one measurable limit:
// on the paper's 3-level fabrics (5832+ nodes) the switch-destination
// trees conflict densely enough that no whole-tree assignment fits 8 VLs
// (first-fit needs 18 layers at 5832), so the engine reports the VL
// exhaustion as an error there — the per-path granularity of the
// reference implementation is what the full-scale fabrics genuinely need.
type DFSSSP struct {
	// MaxVLs bounds the layering (IB hardware commonly has 8 data VLs).
	MaxVLs int
}

// NewDFSSSP returns a DFSSSP engine with the standard 8-VL budget.
func NewDFSSSP() *DFSSSP { return &DFSSSP{MaxVLs: 8} }

// Name implements Engine.
func (*DFSSSP) Name() string { return "dfsssp" }

// dijkstraState is the per-worker scratch of the SSSP loop: distance,
// egress and heap buffers reused across destinations, so the inner loop is
// allocation-free once the heap reaches steady size.
type dijkstraState struct {
	dist   []uint64
	egress []int32
	heap   distHeap
}

func newDijkstraState(nsw int) *dijkstraState {
	return &dijkstraState{
		dist:   make([]uint64, nsw),
		egress: make([]int32, nsw),
		heap:   distHeap{dist: make([]uint64, 0, 2*nsw), node: make([]int32, 0, 2*nsw)},
	}
}

// hopUnit is the per-hop distance increment of the SSSP. It dwarfs any
// accumulated link load (bounded by targets x epochs << 2^48), which makes
// the single uint64 comparison lexicographic: hop count first, then load.
// Restricting the balancing to minimal-hop paths keeps CA-destination
// trees up-down on fat-trees (minimal CA paths cross a nearest common
// ancestor), substantially lowering the VL pressure of the whole-tree
// layering granularity — unconstrained weights start taking down-up
// detours as load accumulates, and every such detour seeds dependency
// cycles.
const hopUnit uint64 = 1 << 48

// sssp runs one reverse Dijkstra from the destination switch over the
// weighted switch graph, leaving the chosen egress adjacency slot for every
// switch in st.egress (-1 = unreachable or destination itself). weight must
// be read-only for the duration of the call.
func (fv *fabricView) sssp(destSw int, weight [][]uint64, st *dijkstraState) {
	const inf = ^uint64(0)
	for i := range st.dist {
		st.dist[i] = inf
		st.egress[i] = -1
	}
	st.dist[destSw] = 0
	st.heap.reset()
	st.heap.push(0, int32(destSw))
	for !st.heap.empty() {
		d, u32 := st.heap.pop()
		u := int(u32)
		if d != st.dist[u] {
			continue // stale heap entry; u was finalized at a lower distance
		}
		// Relax predecessors s: the forward edge is s -> u, so the weight
		// lives on s's adjacency slot pointing at u, reached in O(1)
		// through the precomputed reverse-slot index.
		for _, eu := range fv.adj[u] {
			s := eu.peer
			k := eu.rev
			cand := d + hopUnit + weight[s][k]
			if cand < st.dist[s] {
				st.dist[s] = cand
				st.egress[s] = int32(k)
				st.heap.push(cand, int32(s))
			}
		}
	}
}

// Compute implements Engine.
func (e *DFSSSP) Compute(req *Request) (*Result, error) {
	start := time.Now()
	if err := req.Validate(); err != nil {
		return nil, err
	}
	fv, err := newFabricView(req)
	if err != nil {
		return nil, err
	}
	maxVLs := e.MaxVLs
	if maxVLs <= 0 {
		maxVLs = 8
	}

	nsw := len(fv.switches)
	// weight[i][k] is the load on the k-th adjacency edge out of switch i
	// (the directed link i -> adj[i][k].peer). Every link starts at 1 so
	// the first Dijkstra is plain min-hop.
	weight := make([][]uint64, nsw)
	for i := range weight {
		weight[i] = make([]uint64, len(fv.adj[i]))
		for k := range weight[i] {
			weight[i][k] = 1
		}
	}

	lfts := fv.newLFTs(req)
	workers := req.workerCount()
	pool := newWorkerPool(workers, func() *dijkstraState { return newDijkstraState(nsw) })

	// Epoch buffers: one egress vector per destination of the window.
	epochEgress := make([][]int32, dfssspEpoch)
	for i := range epochEgress {
		epochEgress[i] = make([]int32, nsw)
	}

	paths := 0
	clock := newPhaseClock()
	clock.lap("setup")
	for lo := 0; lo < len(req.Targets); lo += dfssspEpoch {
		hi := min(lo+dfssspEpoch, len(req.Targets))
		// Fan the epoch's SSSPs out; each reads the frozen weight state.
		pool.run(hi-lo, func(k int, st *dijkstraState) {
			fv.sssp(fv.attach[lo+k].sw, weight, st)
			copy(epochEgress[k], st.egress)
		})
		clock.lap("sssp-fanout")
		// Fold serially in destination order: write LFT entries and
		// accumulate link load for the next epoch.
		for ti := lo; ti < hi; ti++ {
			t := req.Targets[ti]
			ap := fv.attach[ti]
			destSw := ap.sw
			paths++
			eg := epochEgress[ti-lo]
			lfts[fv.switches[destSw]].Set(t.LID, ap.port)
			for i := 0; i < nsw; i++ {
				if i == destSw || eg[i] < 0 {
					continue
				}
				k := eg[i]
				lfts[fv.switches[i]].Set(t.LID, fv.adj[i][k].port)
				weight[i][k]++
			}
		}
		clock.lap("fold")
	}

	destVL, vls, err := e.assignVLs(req, lfts, maxVLs, pool)
	if err != nil {
		return nil, err
	}
	clock.lap("vl-assign")

	return &Result{
		LFTs:   lfts,
		DestVL: destVL,
		Stats: Stats{Duration: time.Since(start), PathsComputed: paths, VLsUsed: vls, Workers: workers,
			Phases: clock.phases(), WorkerBusy: pool.busyTimes()},
	}, nil
}

// assignVLs moves whole destination trees between virtual-lane layers until
// every layer's switch-to-switch channel dependency graph is acyclic,
// mirroring the iterative cycle-ejection of the reference DFSSSP. Each
// tree's dependency list is extracted once (in parallel — cdg.Walk only
// reads the finished LFTs) as dense channel-id pairs; each layer's graph is
// then rebuilt per ejection round from the surviving members' lists, in
// member order, into one reused cdg.Graph — no hashing, no allocation once
// warm. Rebuilding beats incremental removal here: which cycle FindCycle
// reports depends on insertion order, and a rebuild keeps that order a
// function of the surviving members alone.
func (e *DFSSSP) assignVLs(req *Request, lfts map[topology.NodeID]*ib.LFT, maxVLs int, pool *workerPool[*dijkstraState]) (map[ib.LID]uint8, int, error) {
	ix := cdg.NewIndex(req.Topo)
	nodeOf := make(map[ib.LID]topology.NodeID, len(req.Targets))
	for _, t := range req.Targets {
		nodeOf[t.LID] = t.Node
	}
	walk := cdg.NewWalk(ix, cdg.Tables{
		Table: func(sw topology.NodeID) *ib.LFT { return lfts[sw] },
		Owner: func(l ib.LID) topology.NodeID { return nodeOf[l] },
	})
	// A tree has at most one dependency per switch: carve every list out
	// of one slab.
	nsw := req.Topo.NumSwitches()
	slab := make([]cdg.Dep, len(req.Targets)*nsw)
	deps := make([][]cdg.Dep, len(req.Targets))
	pool.run(len(req.Targets), func(ti int, _ *dijkstraState) {
		deps[ti] = walk.Deps(slab[ti*nsw:ti*nsw:(ti+1)*nsw], req.Targets[ti].LID)
	})

	layerOf := make([]uint8, len(req.Targets))
	vls := 1
	g := cdg.NewGraph(ix)

	cur := make([]int, len(req.Targets))
	for i := range cur {
		cur[i] = i
	}
	nxt := make([]int, 0, len(req.Targets))

	for layer := 0; layer < maxVLs && len(cur) > 0; layer++ {
		nxt = nxt[:0]
		// Iteratively eject cycle participants from this layer.
		for iter := 0; ; iter++ {
			if iter > len(req.Targets) {
				return nil, 0, fmt.Errorf("routing: dfsssp VL assignment did not converge on layer %d", layer)
			}
			g.Reset()
			for _, ti := range cur {
				g.AddDeps(deps[ti])
			}
			cyc := g.FindCycle()
			if cyc == nil {
				break
			}
			if layer+1 >= maxVLs {
				return nil, 0, fmt.Errorf("routing: dfsssp needs more than %d VLs", maxVLs)
			}
			// Of the cycle's edges, eject along the one traversed by the
			// fewest member trees (the reference DFSSSP's minimal-migration
			// choice — ejecting by an arbitrary edge can move most of the
			// layer at once and cascades into VL exhaustion at scale).
			// First minimal edge wins ties, keeping the choice deterministic.
			edges := make([]cdg.Dep, len(cyc)-1) // cyc repeats its first channel at the end
			for ei := range edges {
				edges[ei] = cdg.Dep{A: ix.ID(cyc[ei]), B: ix.ID(cyc[ei+1])}
			}
			counts := make([]int, len(edges))
			for _, ti := range cur {
				for _, d := range deps[ti] {
					for ei, ce := range edges {
						if d == ce {
							counts[ei]++
						}
					}
				}
			}
			best := 0
			for ei, c := range counts {
				if c > 0 && (counts[best] == 0 || c < counts[best]) {
					best = ei
				}
			}
			moved := 0
			keep := cur[:0]
			for _, ti := range cur {
				if slices.Contains(deps[ti], edges[best]) {
					layerOf[ti] = uint8(layer + 1)
					nxt = append(nxt, ti)
					moved++
				} else {
					keep = append(keep, ti)
				}
			}
			cur = keep
			if moved == 0 {
				return nil, 0, fmt.Errorf("routing: dfsssp found an unattributable cycle on layer %d", layer)
			}
			if layer+2 > vls {
				vls = layer + 2
			}
		}
		cur, nxt = nxt, cur
	}
	destVL := make(map[ib.LID]uint8, len(req.Targets))
	for ti, t := range req.Targets {
		destVL[t.LID] = layerOf[ti]
	}
	return destVL, vls, nil
}
