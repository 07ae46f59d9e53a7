package routing

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"ibvsim/internal/ib"
	"ibvsim/internal/topology"
)

// This file implements the incremental recompute layer: a dependency index
// recording, per destination-switch group, which links and switches its
// BFS structure traverses, so a topology delta re-runs path computation
// only for the affected destinations and merges the result deterministically
// into the previous tables — byte-identical (in the forwarding domain) to a
// from-scratch run.
//
// Two engines have a delta path, and they share it — one index, one fold
// replay (egressFold, the fold their full computes run) — differing only in
// their foldRule: the candidate function, the distance fields it keeps and
// how a delta moves them:
//
//   - minhop: a removed link affects a destination group iff its endpoints'
//     BFS distances to that destination differ by exactly one (only such
//     links participate in shortest-path candidate sets); an added link
//     affects it iff the endpoint distances differ at all (a new equal-
//     distance link is provably on no shortest path). The load-balanced
//     egress fold decomposes per (switch, groupWindow) — load[i] evolves
//     only from choices made at switch i and resets at window boundaries —
//     so only windows in which a switch's candidate row changed replay
//     their fold; every other column segment is carried over verbatim.
//   - updn: the same two rules applied to both the all-down (distD) and
//     legal-path (distU) distance fields, plus a guard on the rank
//     orientation: if the (re-derived) root or rank array changed, the whole
//     up/down relation moved and the layer falls back to a full recompute
//     with an explicit reason.
//
// Every other engine falls back to a full recompute with an explicit Stats
// reason: dfsssp and lash derive a global VL layering (any weight or path
// change can relayer every destination), and ftree's per-destination rows
// are cheap enough that a second copy of its dispersion rule is not worth
// keeping.
//
// All fan-outs follow the parallel.go determinism contract: tasks write only
// task-indexed slots, folds and merges are per-switch independent, so the
// merged tables are byte-identical for every worker count.

// edgeKey identifies one oriented switch-switch edge by its source switch
// (dense index) and egress port — stable across topology deltas because the
// node set is immutable and ports never renumber.
type edgeKey struct {
	i    int
	port ib.PortNum
}

// edgeRec is one oriented edge of a topology delta.
type edgeRec struct {
	i    int
	port ib.PortNum
	peer int
}

// depCapture receives per-destination dependency state from the engines'
// fan-out tasks. Every slot is indexed by group and written by exactly one
// task, so no locking is needed under any worker count.
type depCapture struct {
	// minhop: dist. updn: dist = distD plus distU. Indexed by group.
	dist  [][]int16
	distU [][]int16
	cands []*candSet

	// updn rank orientation.
	root int
	rank []int
}

func newDepCapture(ngroups int) *depCapture {
	return &depCapture{
		dist:  make([][]int16, ngroups),
		distU: make([][]int16, ngroups),
		cands: make([]*candSet, ngroups),
		root:  -1,
	}
}

// captureGroup records one destination group's distance field(s) and
// candidate set, which it keeps (minhop passes distU = nil).
func (c *depCapture) captureGroup(g int, dist, distU []int, cs *candSet) {
	c.dist[g] = toInt16(dist)
	if distU != nil {
		c.distU[g] = toInt16(distU)
	}
	c.cands[g] = cs
}

// setRank records the updn rank orientation (called once, before the
// fan-out windows start).
func (c *depCapture) setRank(root int, rank []int) {
	c.root = root
	c.rank = append([]int(nil), rank...)
}

// groupCands is one destination group's candidate structure as the index
// stores it: the base candSet captured from a BFS run, plus an overlay of
// locally-patched segments for switches whose candidate lists changed in
// later deltas without the distance field moving. Overlays stay tiny (the
// endpoints of changed links), so patched groups never pay an O(switches)
// rebuild.
type groupCands struct {
	base    *candSet
	overlay map[int][]ib.PortNum
}

func (g *groupCands) at(i int) []ib.PortNum {
	if g.overlay != nil {
		if seg, ok := g.overlay[i]; ok {
			return seg
		}
	}
	return g.base.at(i)
}

// patched returns a copy of g with segs layered on top of its overlay.
func (g *groupCands) patched(segs map[int][]ib.PortNum) *groupCands {
	ov := make(map[int][]ib.PortNum, len(g.overlay)+len(segs))
	for i, s := range g.overlay {
		ov[i] = s
	}
	for i, s := range segs {
		ov[i] = s
	}
	return &groupCands{base: g.base, overlay: ov}
}

// depIndex is the state retained between computations: the topology and
// target snapshot the last result was computed against, the captured
// per-destination dependency structures, and the result's tables the next
// delta merges into: its own map over the result's table pointers, since
// no holder writes a table it was handed (ib.LFT).
type depIndex struct {
	switches []topology.NodeID
	edges    map[edgeKey]int // oriented up switch-switch links -> peer index
	targets  []Target
	attach   []attachPoint
	keys     []int
	groupOf  map[int]int // destination switch dense index -> group position
	cap      *depCapture
	gc       []*groupCands // per-group candidate structure
	lfts     map[topology.NodeID]*ib.LFT
}

// Incremental wraps a routing engine with the dependency-tracked delta
// recompute layer. It implements Engine; the first Compute (and any
// fallback) runs the inner engine in full while capturing the dependency
// index, subsequent Computes self-diff the request against the index and
// re-run only affected destinations. Only the fold engines (minhop and
// updn) have a delta path, and its results are byte-identical in the
// forwarding domain (ib.LFT.Equal) to a from-scratch run; every other engine
// (ftree, dfsssp, lash) recomputes in full with an explicit Stats reason. A wrapper serves
// the one engine it was built around. Not safe for concurrent Compute calls
// (the subnet manager serialises them).
type Incremental struct {
	inner Engine
	idx   *depIndex
	// lastAffected lists the destination-switch groups the most recent
	// delta recomputed (dense indices); lastPatched lists the groups whose
	// candidate segments were patched without a BFS. Both nil after a full
	// compute.
	lastAffected []int
	lastPatched  []int
}

// NewIncremental wraps the engine.
func NewIncremental(inner Engine) *Incremental { return &Incremental{inner: inner} }

// Name implements Engine (the wrapper is transparent in logs and stats).
func (x *Incremental) Name() string { return x.inner.Name() }

// Inner returns the wrapped engine.
func (x *Incremental) Inner() Engine { return x.inner }

// Invalidate drops the dependency index; the next Compute runs in full.
func (x *Incremental) Invalidate() { x.idx = nil }

// LastAffected returns the destination switches whose trees the most recent
// Compute re-ran incrementally, ascending by dense index (nil when the last
// Compute was full). Test and fuzz harnesses cross-check it against a naive
// full-diff oracle.
func (x *Incremental) LastAffected() []topology.NodeID {
	return x.groupSwitches(x.lastAffected)
}

// LastPatched returns the destination switches whose candidate structures
// the most recent Compute patched locally without a BFS re-run (nil when
// the last Compute was full).
func (x *Incremental) LastPatched() []topology.NodeID {
	return x.groupSwitches(x.lastPatched)
}

func (x *Incremental) groupSwitches(gis []int) []topology.NodeID {
	if x.idx == nil || gis == nil {
		return nil
	}
	out := make([]topology.NodeID, len(gis))
	for i, gi := range gis {
		out[i] = x.idx.switches[x.idx.keys[gi]]
	}
	return out
}

// Compute implements Engine.
func (x *Incremental) Compute(req *Request) (*Result, error) {
	fe, ok := x.inner.(foldEngine)
	if !ok {
		res, err := x.inner.Compute(req)
		if err == nil {
			res.Stats.Incremental = IncrementalStats{
				Attempted:       true,
				FallbackReason:  fmt.Sprintf("engine %s has no delta path; every delta recomputes in full", x.inner.Name()),
				DestsTotal:      res.Stats.PathsComputed,
				DestsRecomputed: res.Stats.PathsComputed,
			}
		}
		return res, err
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	fv, err := newFabricView(req)
	if err != nil {
		return nil, err
	}
	if x.idx == nil {
		return x.fullCompute(req, fv, "cold start: no dependency index yet")
	}
	if !slices.Equal(x.idx.switches, fv.switches) {
		return x.fullCompute(req, fv, "switch set changed")
	}
	return x.delta(fe, req, fv)
}

// fullCompute runs the inner engine in full with dependency capture enabled
// and rebuilds the index from the run.
func (x *Incremental) fullCompute(req *Request, fv *fabricView, reason string) (*Result, error) {
	x.idx = nil
	x.lastAffected = nil
	x.lastPatched = nil
	groups, keys := fv.groupTargetsBySwitch(req.Targets)
	cap := newDepCapture(len(groups))
	creq := *req
	creq.capture = cap
	res, err := x.inner.Compute(&creq)
	if err != nil {
		return nil, err
	}

	gc := make([]*groupCands, len(groups))
	for gi := range groups {
		gc[gi] = &groupCands{base: cap.cands[gi]}
	}
	x.idx = &depIndex{
		switches: fv.switches,
		edges:    edgeSet(fv),
		targets:  append([]Target(nil), req.Targets...),
		attach:   append([]attachPoint(nil), fv.attach...),
		keys:     keys,
		groupOf:  groupOfMap(keys),
		cap:      cap,
		gc:       gc,
		lfts:     maps.Clone(res.LFTs),
	}

	res.Stats.Incremental = IncrementalStats{
		Attempted:        true,
		FallbackReason:   reason,
		DestsTotal:       len(groups),
		DestsRecomputed:  len(groups),
		SwitchesReplayed: len(fv.switches),
	}
	return res, nil
}

// delta classifies the request against the index and merges an incremental
// recompute: BFS re-runs for affected groups, then a per-switch replay of
// the load-balanced fold wherever a candidate row changed (or everywhere
// when the target set changed). It falls back to fullCompute when updn's
// rank orientation moved.
func (x *Incremental) delta(fe foldEngine, req *Request, fv *fabricView) (*Result, error) {
	start := time.Now()
	idx := x.idx
	nsw := len(fv.switches)
	workers := req.workerCount()
	clock := newPhaseClock()

	groups, keys := fv.groupTargetsBySwitch(req.Targets)
	edges := edgeSet(fv)
	var linkDowns, linkUps []edgeRec
	for k, peer := range idx.edges {
		if p2, ok := edges[k]; !ok || p2 != peer {
			linkDowns = append(linkDowns, edgeRec{k.i, k.port, peer})
		}
	}
	for k, peer := range edges {
		if p2, ok := idx.edges[k]; !ok || p2 != peer {
			linkUps = append(linkUps, edgeRec{k.i, k.port, peer})
		}
	}
	targetsSame := slices.Equal(idx.targets, req.Targets) && slices.Equal(idx.attach, fv.attach)
	clock.lap("delta-classify")

	inc := IncrementalStats{
		Attempted:      true,
		Applied:        true,
		DestsTotal:     len(groups),
		LinksDown:      len(linkDowns) / 2,
		LinksUp:        len(linkUps) / 2,
		TargetsChanged: !targetsSame,
	}

	if targetsSame && len(linkDowns) == 0 && len(linkUps) == 0 {
		// No delta at all: serve the cached result.
		x.lastAffected = []int{}
		x.lastPatched = []int{}
		return &Result{
			LFTs: maps.Clone(idx.lfts),
			Stats: Stats{Duration: time.Since(start), Workers: workers,
				Phases: clock.phases(), Incremental: inc},
		}, nil
	}

	// updn's global guard: the up/down relation itself must not have moved.
	r, err := fe.rule(fv)
	if err != nil {
		return nil, err
	}
	if r.root != idx.cap.root || !slices.Equal(r.rank, idx.cap.rank) {
		return x.fullCompute(req, fv, "up/down root or rank orientation changed")
	}
	clock.lap("delta-classify")

	// Classify every destination group against its stored distance field(s).
	// Three outcomes: untouched (carry over), patched (distances provably
	// unchanged; only the candidate segments at changed-link endpoints are
	// recomputed locally, no BFS), or BFS (the distance field itself moved).
	var affList []int
	patched := []int{}
	patches := make([]map[int][]ib.PortNum, len(groups))
	for gi, k := range keys {
		og, ok := idx.groupOf[k]
		if !ok {
			affList = append(affList, gi) // brand-new destination switch group
			continue
		}
		switch needBFS, segs := r.classify(idx.cap.dist[og], idx.cap.distU[og], linkDowns, linkUps); {
		case needBFS:
			affList = append(affList, gi)
		case segs != nil:
			patches[gi] = segs
			patched = append(patched, gi)
		}
	}
	clock.lap("delta-classify")

	// Re-run the destination BFS/candidate discovery for affected groups,
	// captured into the next index (updn's guard above kept the rank
	// orientation as it was).
	ncap := newDepCapture(len(groups))
	ncap.root, ncap.rank = idx.cap.root, idx.cap.rank
	newCands := ncap.cands
	pool := newWorkerPool(workers, r.worker)
	pool.run(len(affList), func(t int, cands candFunc) {
		gi := affList[t]
		cs := newCandSet(nsw)
		dist, distU := cands(keys[gi], cs)
		ncap.captureGroup(gi, dist, distU, cs)
	})
	clock.lap("bfs-fanout")

	// Per-group candidate views: fresh BFS results, patched overlays, or the
	// stored structure untouched.
	gcands := make([]*groupCands, len(groups))
	for gi, k := range keys {
		switch {
		case newCands[gi] != nil:
			gcands[gi] = &groupCands{base: newCands[gi]}
		case patches[gi] != nil:
			gcands[gi] = idx.gc[idx.groupOf[k]].patched(patches[gi])
		default:
			gcands[gi] = idx.gc[idx.groupOf[k]]
		}
	}

	// A switch must replay part of its fold iff some group's candidate row
	// changed there — load[i] evolves only from choices made at switch i,
	// and only within one groupWindow (the engines reset load at window
	// boundaries), so the replay unit is the (switch, window) pair: windows
	// with identical rows throughout keep their column segment verbatim.
	// Any change to the target sequence shifts every switch's fold order:
	// replay everything.
	replayAll := !targetsSame
	nwin := (len(groups) + groupWindow - 1) / groupWindow
	changed := make([]bool, nsw)
	var chw []bool // (switch, window) replay marks, indexed i*nwin+w
	if !replayAll {
		chw = make([]bool, nsw*nwin)
		mark := func(gi, i int, row []ib.PortNum) {
			if iw := i*nwin + gi/groupWindow; !chw[iw] && !slices.Equal(idx.gc[idx.groupOf[keys[gi]]].at(i), row) {
				chw[iw], changed[i] = true, true
			}
		}
		for _, gi := range affList {
			for i := 0; i < nsw; i++ {
				mark(gi, i, newCands[gi].at(i))
			}
		}
		for gi, segs := range patches {
			for i, seg := range segs {
				mark(gi, i, seg)
			}
		}
	}
	var replay []int
	for i := range fv.switches {
		if replayAll || changed[i] {
			replay = append(replay, i)
		}
	}
	var lfts map[topology.NodeID]*ib.LFT
	if replayAll {
		lfts = fv.newLFTs(req)
	} else {
		// A changed switch re-folds only its marked windows into a clone
		// and carries every other window's entries over from the previous
		// run (valid because rows there are unchanged and load is
		// window-scoped). Every other switch shares the previous table.
		lfts = maps.Clone(idx.lfts)
		for _, i := range replay {
			id := fv.switches[i]
			lfts[id] = idx.lfts[id].Clone()
			if req.Prov != nil {
				// Stamp only what this delta actually rewrites: replayed
				// blocks get the new epoch, carried-over blocks keep their
				// old stamps.
				lfts[id].SetProvenance(req.Prov)
			}
		}
	}
	f := newEgressFold(fv, req, groups, keys, lfts, workers)
	f.rows, f.marked = gcands, chw
	clock.lap("clone")

	// Replay the fold at the changed switches: the same fold the full
	// engines run, over the marked windows only.
	f.replay(replay)
	clock.lap("replay")

	// Carry the untouched groups' distance fields into the index, aligned
	// to the new grouping.
	for gi, k := range keys {
		if newCands[gi] == nil {
			og := idx.groupOf[k]
			ncap.dist[gi], ncap.distU[gi] = idx.cap.dist[og], idx.cap.distU[og]
		}
	}
	x.idx = &depIndex{
		switches: fv.switches,
		edges:    edges,
		targets:  append([]Target(nil), req.Targets...),
		attach:   append([]attachPoint(nil), fv.attach...),
		keys:     keys,
		groupOf:  groupOfMap(keys),
		cap:      ncap,
		gc:       gcands,
		lfts:     maps.Clone(lfts),
	}
	x.lastAffected = affList
	x.lastPatched = patched
	clock.lap("index-update")

	inc.DestsRecomputed = len(affList)
	inc.DestsPatched = len(patched)
	inc.SwitchesReplayed = len(replay)
	return &Result{
		LFTs: lfts,
		Stats: Stats{Duration: time.Since(start), PathsComputed: len(affList),
			Workers: workers, Phases: clock.phases(), WorkerBusy: pool.busyTimes(),
			Incremental: inc},
	}, nil
}

// classifyMinhopDelta evaluates one destination group's stored BFS distance
// field against the delta. Every edge a BFS uses is tight (endpoint
// distances differ by exactly one), so:
//
//   - a removed link that was not tight is invisible; a removed tight link
//     only shifts distances if it was the endpoint's last tight edge
//     (detected below when the recomputed segment comes out empty);
//   - an added link between endpoints whose distances differ by more than
//     one creates a shorter path — the field moved, re-run the BFS; an added
//     tight link only inserts a candidate; equal distances change nothing.
//
// When the field is provably unchanged, the candidate segments at the
// touched endpoints are recomputed directly from the stored distances and
// the new adjacency (identical, by construction, to what a fresh BFS would
// list) and returned for overlay patching. Both orientations of every
// changed link appear in the rec lists, so each endpoint is evaluated.
func classifyMinhopDelta(fv *fabricView, d []int16, downs, ups []edgeRec) (needBFS bool, segs map[int][]ib.PortNum) {
	var touched []int
	for _, e := range downs {
		a, b := d[e.i], d[e.peer]
		if a > 0 && b == a-1 {
			touched = append(touched, e.i)
		}
	}
	for _, e := range ups {
		a, b := d[e.i], d[e.peer]
		if b >= 0 && (a < 0 || b+1 < a) {
			return true, nil
		}
		if a > 0 && b == a-1 {
			touched = append(touched, e.i)
		}
	}
	if len(touched) == 0 {
		return false, nil
	}
	segs = make(map[int][]ib.PortNum, len(touched))
	for _, u := range touched {
		if _, ok := segs[u]; ok {
			continue
		}
		var seg []ib.PortNum
		for _, e := range fv.adj[u] {
			if d[e.peer] == d[u]-1 {
				seg = append(seg, e.port)
			}
		}
		if len(seg) == 0 {
			return true, nil // last tight edge lost: the distance field moved
		}
		segs[u] = seg
	}
	return false, segs
}

// classifyUpdnDelta is the updn analogue of classifyMinhopDelta, applied to
// both distance fields with the link's up/down orientation respected: the
// all-down field (distD) only traverses down moves, the legal-path field
// (distU) relaxes over up moves from distD seeds. A switch's candidate
// branch is distD when its all-down distance is positive, distU otherwise,
// which tells us which field's tightness can appear in its candidate list.
// The one case local reasoning cannot settle — a removed tight up edge at a
// switch whose legal path is strictly shorter than its all-down path —
// forces a BFS for the group (it cannot occur on levelled fat trees).
func classifyUpdnDelta(fv *fabricView, dD, dU []int16, up func(i, j int) bool, downs, ups []edgeRec) (needBFS bool, segs map[int][]ib.PortNum) {
	var touched []int
	for _, e := range downs {
		if up(e.peer, e.i) { // e.i -> e.peer was a down move: distD tightness
			a, b := dD[e.i], dD[e.peer]
			if a > 0 && b == a-1 {
				touched = append(touched, e.i)
			}
		} else { // e.i -> e.peer was an up move: distU tightness
			a, b := dU[e.i], dU[e.peer]
			if a > 0 && b == a-1 {
				switch {
				case dD[e.i] > 0 && dU[e.i] == dD[e.i]:
					// The all-down seed attains the minimum, so distU cannot
					// move, and the candidate list is distD-based anyway.
				case dD[e.i] == 0:
					// Destination switch: no candidate list to maintain.
				case dD[e.i] < 0:
					touched = append(touched, e.i)
				default:
					return true, nil // distU < distD: stability not provable locally
				}
			}
		}
	}
	for _, e := range ups {
		if up(e.peer, e.i) { // new down move e.i -> e.peer
			a, b := dD[e.i], dD[e.peer]
			if b >= 0 && (a < 0 || b+1 < a) {
				return true, nil
			}
			if a > 0 && b == a-1 {
				touched = append(touched, e.i)
			}
		} else { // new up move
			a, b := dU[e.i], dU[e.peer]
			if b >= 0 && (a < 0 || b+1 < a) {
				return true, nil
			}
			if a > 0 && b == a-1 && dD[e.i] < 0 {
				touched = append(touched, e.i)
			}
		}
	}
	if len(touched) == 0 {
		return false, nil
	}
	segs = make(map[int][]ib.PortNum, len(touched))
	for _, u := range touched {
		if _, ok := segs[u]; ok {
			continue
		}
		var seg []ib.PortNum
		if dD[u] > 0 {
			for _, e := range fv.adj[u] {
				if up(e.peer, u) && dD[e.peer] == dD[u]-1 {
					seg = append(seg, e.port)
				}
			}
		} else if dU[u] > 0 {
			for _, e := range fv.adj[u] {
				if up(u, e.peer) && dU[e.peer] == dU[u]-1 {
					seg = append(seg, e.port)
				}
			}
		}
		if len(seg) == 0 {
			return true, nil
		}
		segs[u] = seg
	}
	return false, segs
}

func edgeSet(fv *fabricView) map[edgeKey]int {
	m := make(map[edgeKey]int, 2*len(fv.switches))
	for i := range fv.adj {
		for _, e := range fv.adj[i] {
			m[edgeKey{i, e.port}] = e.peer
		}
	}
	return m
}

func groupOfMap(keys []int) map[int]int {
	m := make(map[int]int, len(keys))
	for gi, k := range keys {
		m[k] = gi
	}
	return m
}

func toInt16(in []int) []int16 {
	out := make([]int16, len(in))
	for i, v := range in {
		out[i] = int16(v)
	}
	return out
}
