package routing

import (
	"time"

	"ibvsim/internal/ib"
	"ibvsim/internal/topology"
)

// This file holds what minhop and updn share: the full-compute skeleton and
// the egress fold, the one piece of code that turns candidate rows into LFT
// entries. The incremental layer's replay calls the same fold, so a table a
// delta produces and one computed from scratch follow one rule.

// candSet holds one destination group's candidate egress ports in flat
// form: ports[off[i]:off[i+1]] are the ports of switch i that lead one hop
// closer to the destination, in adjacency order. The window slots are
// reused, so steady-state computation allocates nothing.
type candSet struct {
	off   []int32
	ports []ib.PortNum
}

func newCandSet(nsw int) *candSet {
	return &candSet{off: make([]int32, nsw+1), ports: make([]ib.PortNum, 0, 2*nsw)}
}

func (c *candSet) at(i int) []ib.PortNum { return c.ports[c.off[i]:c.off[i+1]] }

// clone deep-copies the candidate set (the dependency index keeps one per
// destination group across computations, while the engine reuses its window
// slots).
func (c *candSet) clone() *candSet {
	return &candSet{
		off:   append([]int32(nil), c.off...),
		ports: append([]ib.PortNum(nil), c.ports...),
	}
}

// candFunc fills cs with one destination switch's candidate rows and returns
// the distance fields they were derived from: minhop's BFS distances (distU
// nil), or updn's all-down and legal-path distances. Both slices are the
// worker's scratch, valid until its next call.
type candFunc func(destSw int, cs *candSet) (dist, distU []int)

// foldRule is the per-engine piece of a fold engine: everything that tells
// minhop and updn apart. The skeleton, the fold and the incremental delta
// are shared.
type foldRule struct {
	// worker returns one pool slot's candidate function, bound to scratch of
	// its own.
	worker func() candFunc
	// classify decides, from one group's captured distance fields, how a
	// topology delta moves its rows: re-run its BFS, patch the returned
	// segments, or (both zero) leave it untouched.
	classify func(dist, distU []int16, downs, ups []edgeRec) (needBFS bool, segs map[int][]ib.PortNum)
	// root and rank are updn's up/down orientation (-1 and nil for minhop).
	// A delta that moves them recomputes in full.
	root int
	rank []int
}

// foldEngine is an engine whose tables are the egress fold over
// per-destination candidate rows: minhop and updn. Only these have an
// incremental delta path.
type foldEngine interface {
	Engine
	rule(fv *fabricView) (*foldRule, error)
}

// computeFold is a fold engine's full compute. Per groupWindow of
// destination groups, the candidate rows fan out over the worker pool, the
// fold then fans out over switches, and its ports are written LID-major.
func computeFold(e foldEngine, req *Request) (*Result, error) {
	start := time.Now()
	if err := req.Validate(); err != nil {
		return nil, err
	}
	fv, err := newFabricView(req)
	if err != nil {
		return nil, err
	}
	r, err := e.rule(fv)
	if err != nil {
		return nil, err
	}
	if req.capture != nil {
		req.capture.setRank(r.root, r.rank)
	}
	groups, keys := fv.groupTargetsBySwitch(req.Targets)
	workers := req.workerCount()
	lfts := fv.newLFTs(req)
	f := newEgressFold(fv, req, groups, keys, lfts, workers)
	f.rows = make([]*groupCands, len(groups))
	pool := newWorkerPool(workers, r.worker)
	window := make([]*candSet, min(groupWindow, len(groups)))
	for i := range window {
		window[i] = newCandSet(len(fv.switches))
	}
	cols := make([][]ib.PortNum, len(fv.switches))
	clock := newPhaseClock()
	clock.lap("setup")

	for w := 0; w < f.nwin; w++ {
		lo := w * groupWindow
		pool.run(min(groupWindow, len(groups)-lo), func(k int, cands candFunc) {
			cs := window[k]
			dist, distU := cands(keys[lo+k], cs)
			f.rows[lo+k] = &groupCands{base: cs}
			if req.capture != nil {
				req.capture.captureGroup(lo+k, dist, distU, cs.clone())
			}
		})
		clock.lap("bfs-fanout")
		f.pool.run(len(cols), func(i int, s *foldScratch) {
			cols[i] = append(cols[i][:0], f.fold(i, w, s)...)
		})
		// A migration, and the audit after it, reads one LID's block on
		// every switch: written LID-major, each block is allocated beside
		// the same block of the other switches.
		for k, ti := range f.wt[w] {
			for i, lft := range f.lfts {
				lft.Set(req.Targets[ti].LID, cols[i][k])
			}
		}
		clock.lap("fold")
	}

	return &Result{
		LFTs: lfts,
		Stats: Stats{Duration: time.Since(start), PathsComputed: len(groups), Workers: workers,
			Phases: clock.phases(), WorkerBusy: pool.busyTimes()},
	}, nil
}

// egressFold turns candidate rows into LFT entries. For each target of a
// group it picks the access port on the destination switch, and elsewhere
// the least-loaded candidate, ties going to the earlier one. Load counts the
// LIDs already routed out of each port and restarts at every groupWindow
// boundary (see its doc). load[i] changes only from choices made at switch
// i, so switches fold independently, in any order and on any worker, to the
// same tables.
type egressFold struct {
	fv      *fabricView
	targets []Target
	groups  [][]int
	keys    []int
	nwin    int
	wt      [][]int       // per window: its targets, group by group
	rows    []*groupCands // per group: its candidate rows
	lfts    []*ib.LFT     // by dense switch index
	// marked lists the (switch, window) pairs replay folds, indexed
	// i*nwin+w; nil folds every pair.
	marked []bool
	pool   *workerPool[*foldScratch]
}

// foldScratch is one worker's load vector and port column.
type foldScratch struct {
	load []uint32
	col  []ib.PortNum
}

func newEgressFold(fv *fabricView, req *Request, groups [][]int, keys []int, lfts map[topology.NodeID]*ib.LFT, workers int) *egressFold {
	f := &egressFold{
		fv: fv, targets: req.Targets, groups: groups, keys: keys,
		nwin: (len(groups) + groupWindow - 1) / groupWindow,
		lfts: make([]*ib.LFT, len(fv.switches)),
		pool: newWorkerPool(workers, func() *foldScratch { return &foldScratch{} }),
	}
	for i, id := range fv.switches {
		f.lfts[i] = lfts[id]
	}
	f.wt = make([][]int, f.nwin)
	for gi, g := range groups {
		f.wt[gi/groupWindow] = append(f.wt[gi/groupWindow], g...)
	}
	return f
}

// replay re-folds the marked windows of the switches sws on the pool,
// writing each switch's entries as it goes.
func (f *egressFold) replay(sws []int) {
	f.pool.run(len(sws), func(t int, s *foldScratch) {
		i := sws[t]
		for w := 0; w < f.nwin; w++ {
			if f.marked != nil && !f.marked[i*f.nwin+w] {
				continue
			}
			for k, p := range f.fold(i, w, s) {
				f.lfts[i].Set(f.targets[f.wt[w][k]].LID, p)
			}
		}
	})
}

// fold returns switch i's egress ports for the targets of window w, in
// f.wt[w]'s order, in s.col. No candidate is a drop: a no-op on a fresh
// table, and the removal of a stale port on a carried-over one.
func (f *egressFold) fold(i, w int, s *foldScratch) []ib.PortNum {
	nports := len(f.fv.topo.Node(f.fv.switches[i]).Ports)
	if cap(s.load) < nports {
		s.load = make([]uint32, nports)
	}
	load := s.load[:nports]
	clear(load)
	col := s.col[:0]
	for gi := w * groupWindow; gi < min((w+1)*groupWindow, len(f.groups)); gi++ {
		if f.keys[gi] == i {
			for _, ti := range f.groups[gi] {
				col = append(col, f.fv.attach[ti].port)
			}
			continue
		}
		cands := f.rows[gi].at(i)
		for range f.groups[gi] {
			best := ib.DropPort
			if len(cands) > 0 {
				best = cands[0]
				for _, p := range cands[1:] {
					if load[p] < load[best] {
						best = p
					}
				}
				load[best]++
			}
			col = append(col, best)
		}
	}
	s.col = col
	return col
}
