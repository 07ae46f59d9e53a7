package routing

import (
	"fmt"
	"time"

	"ibvsim/internal/cdg"
	"ibvsim/internal/topology"
)

// LASH implements LAyered SHortest path routing: minimal paths for every
// pair of end switches, made deadlock free by partitioning the pairs into
// virtual-lane layers whose channel dependency graphs are each kept
// acyclic. The per-pair acyclicity trial is what makes LASH by far the most
// expensive engine in the paper's Fig. 7 (39145 s on the 11664-node
// fabric); this implementation keeps the same O(pairs) trial structure but
// uses a Pearce-Kelly incremental topological order (cdg.Ordered) so the
// trials are tractable on a laptop.
//
// Parallelization: the destination-tree BFS and the pair-path enumeration
// fan out over the worker pool, but VL placement stays strictly serial on
// the deterministic (destination, source) pair order — the Pearce-Kelly
// structures are order-sensitive, and keeping their insertion sequence
// fixed is what makes the accepted-layer assignment reproducible for every
// worker count.
type LASH struct {
	// MaxVLs bounds the number of layers (8 data VLs in common hardware).
	MaxVLs int
}

// NewLASH returns a LASH engine with the standard 8-VL budget.
func NewLASH() *LASH { return &LASH{MaxVLs: 8} }

// Name implements Engine.
func (*LASH) Name() string { return "lash" }

// Compute implements Engine.
func (e *LASH) Compute(req *Request) (*Result, error) {
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
	lfts := fv.newLFTs(req)
	groups, keys := fv.groupTargetsBySwitch(req.Targets)
	workers := req.workerCount()
	pool := newWorkerPool(workers, func() *bfsScratch { return newBFSScratch(nsw) })

	// Destination trees: plain BFS shortest paths, lowest-port tie-break
	// (classic LASH does not load balance; the layering is its concern).
	// egs[gi][s] = egress adjacency slot of switch s toward keys[gi], kept
	// for the whole run to reconstruct pair paths without LFT lookups.
	egs := make([][]int32, len(groups))
	clock := newPhaseClock()
	clock.lap("setup")
	pool.run(len(groups), func(gi int, s *bfsScratch) {
		destSw := keys[gi]
		fv.bfs(destSw, s)
		eg := make([]int32, nsw)
		for i := range eg {
			eg[i] = -1
		}
		for i := 0; i < nsw; i++ {
			if i == destSw || s.dist[i] < 0 {
				continue
			}
			for k, ed := range fv.adj[i] {
				if s.dist[ed.peer] == s.dist[i]-1 {
					eg[i] = int32(k)
					break
				}
			}
		}
		egs[gi] = eg
	})
	clock.lap("bfs-fanout")
	for gi, group := range groups {
		destSw := keys[gi]
		eg := egs[gi]
		for _, ti := range group {
			t := req.Targets[ti]
			lfts[fv.switches[destSw]].Set(t.LID, fv.attach[ti].port)
			for i := 0; i < nsw; i++ {
				if eg[i] >= 0 {
					lfts[fv.switches[i]].Set(t.LID, fv.adj[i][eg[i]].port)
				}
			}
		}
	}
	clock.lap("fold")

	// Layer assignment per (source switch, destination switch) pair.
	// Sources are switches with attached CAs; destinations are switches
	// owning at least one target.
	srcSet := map[int]bool{}
	for ti := range req.Targets {
		if fv.attach[ti].port != 0 {
			srcSet[fv.attach[ti].sw] = true
		}
	}
	var sources []int
	for i := 0; i < nsw; i++ {
		if srcSet[i] {
			sources = append(sources, i)
		}
	}

	// The deterministic pair order: destinations in ascending dense index,
	// sources in ascending dense index within each destination.
	type pair struct {
		gi  int // group index (destination)
		src int
	}
	var pairsList []pair
	for gi := range keys {
		for _, src := range sources {
			if src != keys[gi] {
				pairsList = append(pairsList, pair{gi: gi, src: src})
			}
		}
	}

	ix := cdg.NewIndex(req.Topo)
	layers := make([]*cdg.Ordered, 1, maxVLs)
	layers[0] = cdg.NewOrdered(ix)
	pairVL := map[[2]topology.NodeID]uint8{}

	// Pair paths are reconstructed in parallel windows ahead of the serial
	// placement; the window buffers are reused across windows.
	pathBufs := make([][]cdg.Channel, min(pairWindow, len(pairsList)))
	for i := range pathBufs {
		pathBufs[i] = make([]cdg.Channel, 0, 16)
	}
	pathErrs := make([]error, len(pathBufs))

	for lo := 0; lo < len(pairsList); lo += pairWindow {
		hi := min(lo+pairWindow, len(pairsList))
		pool.run(hi-lo, func(k int, _ *bfsScratch) {
			pr := pairsList[lo+k]
			destSw := keys[pr.gi]
			eg := egs[pr.gi]
			buf := pathBufs[k][:0]
			pathErrs[k] = nil
			cur := pr.src
			for cur != destSw {
				kk := eg[cur]
				if kk < 0 {
					pathErrs[k] = fmt.Errorf("routing: lash: no path from switch %d to %d", pr.src, destSw)
					break
				}
				buf = append(buf, cdg.Channel{
					Node: fv.switches[cur],
					Port: fv.adj[cur][kk].port,
				})
				cur = fv.adj[cur][kk].peer
			}
			pathBufs[k] = buf
		})
		clock.lap("path-fanout")
		for pi := lo; pi < hi; pi++ {
			if err := pathErrs[pi-lo]; err != nil {
				return nil, err
			}
			pr := pairsList[pi]
			path := pathBufs[pi-lo]
			vl, err := placePath(layers, path, maxVLs)
			if err != nil {
				return nil, err
			}
			if vl == len(layers) {
				layers = append(layers, cdg.NewOrdered(ix))
				if vl2, err := placePath(layers, path, maxVLs); err != nil || vl2 != vl {
					return nil, fmt.Errorf("routing: lash: fresh layer rejected a path (%v)", err)
				}
			}
			pairVL[[2]topology.NodeID{fv.switches[pr.src], fv.switches[keys[pr.gi]]}] = uint8(vl)
		}
		clock.lap("vl-assign")
	}

	return &Result{
		LFTs:   lfts,
		PairVL: pairVL,
		Stats: Stats{Duration: time.Since(start), PathsComputed: len(pairsList),
			VLsUsed: len(layers), Workers: workers,
			Phases: clock.phases(), WorkerBusy: pool.busyTimes()},
	}, nil
}

// placePath tries to insert the path's channel dependencies into the first
// layer that stays acyclic. It returns the layer index used, or len(layers)
// if a new layer is needed (the caller allocates it and retries), or an
// error when even a fresh layer would exceed maxVLs.
func placePath(layers []*cdg.Ordered, path []cdg.Channel, maxVLs int) (int, error) {
	if len(path) < 2 {
		// Single-hop paths create no switch-switch dependencies; keep them
		// on VL 0.
		return 0, nil
	}
	for vl, layer := range layers {
		ok := true
		inserted := make([][2]cdg.Channel, 0, len(path)-1)
		for i := 0; i+1 < len(path); i++ {
			if _, acyclic := layer.AddDepChecked(path[i], path[i+1]); !acyclic {
				ok = false
				break
			}
			inserted = append(inserted, [2]cdg.Channel{path[i], path[i+1]})
		}
		if ok {
			return vl, nil
		}
		for _, d := range inserted {
			layer.RemoveDepChecked(d[0], d[1])
		}
	}
	if len(layers) >= maxVLs {
		return 0, fmt.Errorf("routing: lash needs more than %d VLs", maxVLs)
	}
	return len(layers), nil
}
