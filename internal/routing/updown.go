package routing

import (
	"fmt"

	"ibvsim/internal/ib"
)

// UpDown implements Up*/Down* routing: switches are ranked by a BFS from a
// root, every link gets an "up" end (toward the root), and a legal path
// climbs zero or more up links followed by zero or more down links. The
// engine uses the down-preferred variant: a switch with any all-down path
// to the destination takes the shortest such path, otherwise it forwards
// up. Down-preferred guarantees the up*/down* property holds hop by hop
// with plain destination-based LFTs, at the cost of occasionally
// non-minimal paths on irregular fabrics.
//
// Like MinHop, the per-destination distance/candidate computation fans out
// over the worker pool against the fixed rank ordering, and the
// load-balanced egress choice is the same fold, fanned out by switch —
// results are byte-identical for every worker count.
type UpDown struct {
	// Root optionally pins the ranking root (dense switch index is chosen
	// automatically when < 0).
	Root int
}

// NewUpDown returns an up*/down* engine with automatic root selection (the
// highest-degree switch, which in a fat-tree is a spine).
func NewUpDown() *UpDown { return &UpDown{Root: -1} }

// Name implements Engine.
func (*UpDown) Name() string { return "updn" }

// updownScratch is the per-worker state of one destination's distance
// computation: all-down distances, legal-path distances, the BFS queue and
// the monotone bucket scan, reused across destinations.
type updownScratch struct {
	distD   []int // shortest all-down path to dest
	distU   []int // shortest legal (up* then down*) path
	queue   []int
	buckets [][]int
}

func newUpdownScratch(nsw int) *updownScratch {
	return &updownScratch{
		distD:   make([]int, nsw),
		distU:   make([]int, nsw),
		queue:   make([]int, 0, nsw),
		buckets: make([][]int, 2*nsw+2),
	}
}

// rankFabric resolves the ranking root (auto-selecting when Root < 0) and
// BFS-ranks every switch from it. The incremental layer re-runs this after a
// topology delta: a changed root or rank array invalidates the whole up/down
// orientation, which forces a full recompute.
func (e *UpDown) rankFabric(fv *fabricView) (int, []int, error) {
	nsw := len(fv.switches)
	root := e.Root
	if root < 0 {
		// Prefer the topologically highest level when available (fat-tree
		// spines), falling back to max degree.
		best, bestKey := 0, -1
		for i, id := range fv.switches {
			n := fv.topo.Node(id)
			key := n.Level*1000 + len(fv.adj[i])
			if key > bestKey {
				best, bestKey = i, key
			}
		}
		root = best
	}
	if root >= nsw {
		return 0, nil, fmt.Errorf("routing: updn root %d out of range", root)
	}
	rankScratch := newBFSScratch(nsw)
	fv.bfs(root, rankScratch)
	rank := rankScratch.dist
	for i, r := range rank {
		if r < 0 {
			return 0, nil, fmt.Errorf("routing: switch %q unreachable from updn root",
				fv.topo.Node(fv.switches[i]).Desc)
		}
	}
	return root, rank, nil
}

// updnUp returns the up-move predicate for a rank array: up(i, j) holds when
// moving i -> j is an up move (toward the root), with a deterministic index
// tie-break for equal ranks.
func updnUp(rank []int) func(i, j int) bool {
	return func(i, j int) bool {
		if rank[j] != rank[i] {
			return rank[j] < rank[i]
		}
		return j < i
	}
}

// updnCands computes one destination's all-down distances (distD), legal
// up*-then-down* distances (distU) and down-preferred candidate ports into
// cs. Shared between the engine fan-out and the incremental recompute.
func updnCands(fv *fabricView, up func(i, j int) bool, destSw int, s *updownScratch, cs *candSet) {
	nsw := len(fv.switches)
	// distD: BFS over reversed down moves. A move s->n is "down" when
	// up(n, s) holds (n is the up end); walking backward from the
	// destination we extend via predecessors s with s->n down.
	for i := 0; i < nsw; i++ {
		s.distD[i] = -1
		s.distU[i] = -1
	}
	s.distD[destSw] = 0
	q := append(s.queue[:0], destSw)
	for qi := 0; qi < len(q); qi++ {
		n := q[qi]
		for _, ed := range fv.adj[n] {
			sp := ed.peer
			if up(n, sp) && s.distD[sp] < 0 {
				s.distD[sp] = s.distD[n] + 1
				q = append(q, sp)
			}
		}
	}
	s.queue = q[:0]
	// distU: seeded by distD, relaxed backward over up moves (s -> n is
	// up). Seeds differ in value, so process with a monotone bucket scan
	// instead of plain BFS.
	for i := range s.buckets {
		s.buckets[i] = s.buckets[i][:0]
	}
	for i, d := range s.distD {
		s.distU[i] = d
		if d >= 0 {
			s.buckets[d] = append(s.buckets[d], i)
		}
	}
	for d := 0; d < len(s.buckets); d++ {
		for qi := 0; qi < len(s.buckets[d]); qi++ {
			n := s.buckets[d][qi]
			if s.distU[n] != d {
				continue // stale entry
			}
			for _, eu := range fv.adj[n] {
				sp := eu.peer
				if !up(sp, n) {
					continue // only up moves extend the U phase
				}
				if s.distU[sp] < 0 || s.distU[sp] > d+1 {
					s.distU[sp] = d + 1
					if d+1 < len(s.buckets) {
						s.buckets[d+1] = append(s.buckets[d+1], sp)
					}
				}
			}
		}
	}

	// Candidates per switch: down-preferred.
	cs.ports = cs.ports[:0]
	for i := 0; i < nsw; i++ {
		cs.off[i] = int32(len(cs.ports))
		if i == destSw {
			continue
		}
		if s.distD[i] > 0 {
			for _, eu := range fv.adj[i] {
				if up(eu.peer, i) && s.distD[eu.peer] == s.distD[i]-1 {
					cs.ports = append(cs.ports, eu.port)
				}
			}
		} else if s.distU[i] > 0 {
			for _, eu := range fv.adj[i] {
				if up(i, eu.peer) && s.distU[eu.peer] == s.distU[i]-1 {
					cs.ports = append(cs.ports, eu.port)
				}
			}
		}
	}
	cs.off[nsw] = int32(len(cs.ports))
}

// Compute implements Engine.
func (e *UpDown) Compute(req *Request) (*Result, error) { return computeFold(e, req) }

// rule implements foldEngine: the candidates are the down-preferred ports
// of the up/down orientation ranked from the root.
func (e *UpDown) rule(fv *fabricView) (*foldRule, error) {
	root, rank, err := e.rankFabric(fv)
	if err != nil {
		return nil, err
	}
	up := updnUp(rank)
	return &foldRule{
		worker: func() candFunc {
			s := newUpdownScratch(len(fv.switches))
			return func(destSw int, cs *candSet) ([]int, []int) {
				updnCands(fv, up, destSw, s, cs)
				return s.distD, s.distU
			}
		},
		classify: func(dD, dU []int16, downs, ups []edgeRec) (bool, map[int][]ib.PortNum) {
			return classifyUpdnDelta(fv, dD, dU, up, downs, ups)
		},
		root: root,
		rank: rank,
	}, nil
}
