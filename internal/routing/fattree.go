package routing

import (
	"fmt"
	"time"

	"ibvsim/internal/ib"
)

// FatTree is the fat-tree-aware engine, the analogue of OpenSM's ftree. It
// requires level annotations on the switches (BuildXGFT provides them):
// level 1 switches are leaves, higher levels are spines. Downward routes to
// a CA are unique in an XGFT and assigned by walking the destination's
// ancestor cone; every other switch forwards upward, selecting among its up
// ports by destination LID modulo the port count (the classical d-mod-k
// dispersion, which is what gives distinct VF LIDs of one hypervisor
// distinct spine paths in the prepopulated vSwitch model). When a link
// failure cuts a parent off from the destination's cone, the choice steps
// cyclically to the next up port whose parent still reaches it; on a
// healthy tree every parent does, so the plain d-mod-k choice stands.
//
// Destinations share no balancing state, so the whole per-destination
// computation fans out over the worker pool; port rows are folded into the
// LFTs serially in destination order. The incremental layer has no delta
// path for ftree: wrapped in Incremental it recomputes in full.
type FatTree struct{}

// NewFatTree returns the ftree engine.
func NewFatTree() *FatTree { return &FatTree{} }

// Name implements Engine.
func (*FatTree) Name() string { return "ftree" }

// ftreeScratch is the per-worker state of one destination's cone walk.
type ftreeScratch struct {
	downPort []ib.PortNum // egress on the unique downward path, per switch
	marked   []int32      // generation tags for cone membership
	reach    []int32      // +gen: climbs to the cone, -gen: cannot
	gen      int32
	bfs      *bfsScratch // switch-target fallback BFS
	frontier []int
}

// noEntry marks "leave this switch's LFT untouched" in a per-destination
// port row. It aliases ib.DropPort, which no engine ever writes explicitly
// (fresh tables already drop everything).
const noEntry = ib.DropPort

// ftEdge is one oriented switch-switch edge of the fat-tree view (an up or
// down port of a switch and the dense index it leads to).
type ftEdge struct {
	port ib.PortNum
	peer int
}

// ftreeSplit validates level annotations and splits every switch's
// adjacency into up and down edges, in adjacency (port) order.
func ftreeSplit(fv *fabricView) (ups, downs [][]ftEdge, err error) {
	nsw := len(fv.switches)
	ups = make([][]ftEdge, nsw)
	downs = make([][]ftEdge, nsw)
	for i, id := range fv.switches {
		n := fv.topo.Node(id)
		if n.Level < 1 {
			return nil, nil, fmt.Errorf("routing: ftree requires levelled switches; %q has level %d (use minhop for irregular fabrics)", n.Desc, n.Level)
		}
		for _, e := range fv.adj[i] {
			peerLevel := fv.topo.Node(fv.switches[e.peer]).Level
			switch {
			case peerLevel > n.Level:
				ups[i] = append(ups[i], ftEdge{port: e.port, peer: e.peer})
			case peerLevel < n.Level:
				downs[i] = append(downs[i], ftEdge{port: e.port, peer: e.peer})
			default:
				return nil, nil, fmt.Errorf("routing: ftree found same-level link %q <-> %q",
					n.Desc, fv.topo.Node(fv.switches[e.peer]).Desc)
			}
		}
	}
	return ups, downs, nil
}

// ftreeRow computes one target's egress-port row (noEntry = leave the
// switch's table untouched): the BFS min-hop fallback for switch targets,
// or the ancestor-cone walk plus d-mod-k up dispersion for CA targets.
func ftreeRow(fv *fabricView, ups, downs [][]ftEdge, t Target, ap attachPoint, s *ftreeScratch, row []ib.PortNum) error {
	nsw := len(fv.switches)
	for i := range row {
		row[i] = noEntry
	}

	if ap.port == 0 {
		// The target is a switch itself: BFS min-hop fallback (management
		// traffic does not need d-mod-k dispersion).
		fv.bfs(ap.sw, s.bfs)
		row[ap.sw] = 0
		for i := 0; i < nsw; i++ {
			if i == ap.sw || s.bfs.dist[i] < 0 {
				continue
			}
			for _, e := range fv.adj[i] {
				if s.bfs.dist[e.peer] == s.bfs.dist[i]-1 {
					row[i] = e.port
					break
				}
			}
		}
		return nil
	}

	// CA target: mark the ancestor cone with unique down ports.
	s.gen++
	frontier := s.frontier[:0]
	s.downPort[ap.sw] = ap.port
	s.marked[ap.sw] = s.gen
	frontier = append(frontier, ap.sw)
	for fi := 0; fi < len(frontier); fi++ {
		u := frontier[fi]
		for _, e := range ups[u] {
			p := e.peer
			if s.marked[p] == s.gen {
				continue
			}
			s.marked[p] = s.gen
			// The parent's egress toward u is the reverse of the up edge:
			// find the down edge of p that reaches u.
			var dp ib.PortNum
			for _, de := range downs[p] {
				if de.peer == u {
					dp = de.port
					break
				}
			}
			if dp == 0 {
				s.frontier = frontier[:0]
				return fmt.Errorf("routing: ftree asymmetry: parent of %q lacks a down port", fv.topo.Node(fv.switches[u]).Desc)
			}
			s.downPort[p] = dp
			frontier = append(frontier, p)
		}
	}
	s.frontier = frontier[:0]

	for i := 0; i < nsw; i++ {
		if s.marked[i] == s.gen {
			row[i] = s.downPort[i]
			continue
		}
		n := len(ups[i])
		if n == 0 {
			continue // disconnected from the ancestor cone; drop
		}
		k := int(t.LID) % n
		for j := 0; j < n; j++ {
			if c := (k + j) % n; s.reaches(ups, ups[i][c].peer) {
				k = c
				break
			}
		}
		row[i] = ups[i][k].port
	}
	return nil
}

// reaches reports whether switch i can climb to the cone marked under
// s.gen, memoised per target in s.reach. Up edges only climb levels, so the
// recursion is as deep as the tree.
func (s *ftreeScratch) reaches(ups [][]ftEdge, i int) bool {
	if s.marked[i] == s.gen || s.reach[i] == s.gen {
		return true
	}
	if s.reach[i] == -s.gen {
		return false
	}
	s.reach[i] = -s.gen
	for _, e := range ups[i] {
		if s.reaches(ups, e.peer) {
			s.reach[i] = s.gen
			return true
		}
	}
	return false
}

// Compute implements Engine.
func (*FatTree) Compute(req *Request) (*Result, error) {
	start := time.Now()
	if err := req.Validate(); err != nil {
		return nil, err
	}
	fv, err := newFabricView(req)
	if err != nil {
		return nil, err
	}
	nsw := len(fv.switches)
	ups, downs, err := ftreeSplit(fv)
	if err != nil {
		return nil, err
	}

	lfts := fv.newLFTs(req)
	workers := req.workerCount()
	pool := newWorkerPool(workers, func() *ftreeScratch {
		return &ftreeScratch{
			downPort: make([]ib.PortNum, nsw),
			marked:   make([]int32, nsw),
			reach:    make([]int32, nsw),
			bfs:      newBFSScratch(nsw),
			frontier: make([]int, 0, nsw),
		}
	})
	// Window buffers: one egress-port row per destination, noEntry = skip.
	rows := make([][]ib.PortNum, min(targetWindow, len(req.Targets)))
	for i := range rows {
		rows[i] = make([]ib.PortNum, nsw)
	}
	errs := make([]error, len(rows))
	paths := 0
	clock := newPhaseClock()
	clock.lap("setup")

	for lo := 0; lo < len(req.Targets); lo += targetWindow {
		hi := min(lo+targetWindow, len(req.Targets))
		pool.run(hi-lo, func(k int, s *ftreeScratch) {
			ti := lo + k
			errs[k] = ftreeRow(fv, ups, downs, req.Targets[ti], fv.attach[ti], s, rows[k])
		})
		clock.lap("cone-fanout")

		for ti := lo; ti < hi; ti++ {
			if err := errs[ti-lo]; err != nil {
				return nil, err
			}
			t := req.Targets[ti]
			row := rows[ti-lo]
			paths++
			for i := 0; i < nsw; i++ {
				if row[i] != noEntry {
					lfts[fv.switches[i]].Set(t.LID, row[i])
				}
			}
		}
		clock.lap("fold")
	}

	return &Result{
		LFTs: lfts,
		Stats: Stats{Duration: time.Since(start), PathsComputed: paths, Workers: workers,
			Phases: clock.phases(), WorkerBusy: pool.busyTimes()},
	}, nil
}
