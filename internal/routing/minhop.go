package routing

import "ibvsim/internal/ib"

// MinHop is the OpenSM default: every LID is routed along a minimal-hop
// path, and among equal-length candidates the engine picks the egress port
// with the lowest accumulated load (number of LIDs already routed through
// it within the current groupWindow fold window; counters reset at window
// boundaries), breaking remaining ties by port number. Min-Hop makes no
// deadlock-freedom guarantee — on rings and tori its channel dependency
// graph is cyclic, which the cdg package demonstrates.
//
// The per-destination-switch BFS and candidate-port discovery fan out over
// the request's worker pool, and so does the load-based egress choice, by
// switch (egressFold): load at a switch changes only from choices made
// there, so the result is byte-identical to a serial run.
type MinHop struct{}

// NewMinHop returns the minhop engine.
func NewMinHop() *MinHop { return &MinHop{} }

// Name implements Engine.
func (*MinHop) Name() string { return "minhop" }

// minhopCands runs the destination BFS and fills cs with the minimal-hop
// candidate egress ports of every switch, in adjacency (port) order. Shared
// verbatim between the full engine fan-out and the incremental layer's
// affected-destination recompute, so both produce identical structures.
func minhopCands(fv *fabricView, destSw int, s *bfsScratch, cs *candSet) {
	nsw := len(fv.switches)
	fv.bfs(destSw, s)
	cs.ports = cs.ports[:0]
	for i := 0; i < nsw; i++ {
		cs.off[i] = int32(len(cs.ports))
		if i == destSw || s.dist[i] < 0 {
			continue
		}
		for _, e := range fv.adj[i] {
			if s.dist[e.peer] == s.dist[i]-1 {
				cs.ports = append(cs.ports, e.port)
			}
		}
	}
	cs.off[nsw] = int32(len(cs.ports))
}

// Compute implements Engine.
func (e *MinHop) Compute(req *Request) (*Result, error) { return computeFold(e, req) }

// rule implements foldEngine: the candidates are the minimal-hop ports.
func (*MinHop) rule(fv *fabricView) (*foldRule, error) {
	return &foldRule{
		worker: func() candFunc {
			s := newBFSScratch(len(fv.switches))
			return func(destSw int, cs *candSet) ([]int, []int) {
				minhopCands(fv, destSw, s, cs)
				return s.dist, nil
			}
		},
		classify: func(dist, _ []int16, downs, ups []edgeRec) (bool, map[int][]ib.PortNum) {
			return classifyMinhopDelta(fv, dist, downs, ups)
		},
		root: -1,
	}, nil
}
