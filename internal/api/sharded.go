package api

import (
	"errors"
	"net/http"
	"slices"
	"strconv"
	"time"

	"ibvsim/internal/shard"
)

// This file is the sharded control-plane mode of the server: instead of one
// actor goroutine owning the whole cloud, a shard.Coordinator routes
// mutations to per-zone actors and the server composes its read snapshot
// from the shards' own copy-on-write snapshots. Every endpoint, cost report,
// flight-recorder entry and audit is the single-actor mode's — a finished
// command takes the same epilogue (finish) in both. What differs:
//
//   - Queueing. Mutations run on the request goroutine through the
//     coordinator; the admission queue that backpressures (429 +
//     Retry-After) is the owning shard's, not a global one, and fabric-wide
//     commands run under a coordinator freeze instead of in queue order.
//   - Where the snapshot is built. A shard publishes its O(zone) rows when
//     it finishes a command; the O(fabric) composition is paid by the next
//     read (compose) instead of by the write.

// startSharded builds the coordinator with the epilogue as its
// after-mutation hook. Called from NewServer.
func (s *Server) startSharded(shards, queueDepth int) error {
	co, err := shard.New(s.c, shards, shard.Config{
		QueueDepth:    queueDepth,
		AfterMutation: s.shardDone,
		Published:     s.published,
	})
	if err != nil {
		return err
	}
	s.co = co
	return nil
}

// shardDone takes a command a shard (or the coordinator) finished through
// the epilogue. It runs where shard.Mutation says — on the owning actor, or
// with the VM still claimed — so the epilogue is over before the reply.
func (s *Server) shardDone(m shard.Mutation) {
	d := done{op: opKind(m.Op), name: m.Name, reqID: m.ReqID,
		shard: m.Shard, spanFrom: m.SpanFrom, gen: m.Gen}
	s.lifecycle(&d, m.Result, m.Err)
	s.finish(&d)
}

// snapshot returns the current read snapshot: the loop-published one in
// single-actor mode, the lazily composed one in sharded mode.
func (s *Server) snapshot() *Snapshot {
	if s.co == nil {
		return s.snap.Load()
	}
	return s.compose()
}

// compose returns the fabric-wide snapshot over the shards' current
// snapshots: the cached one while none of them changed, else the next one —
// the new parts as they are (a shard derives its own rows when it finishes a
// command; the parts that did not change are the cached snapshot's, by
// pointer) plus the fabric-level state next captures. A merge of roots, paid
// by the first read after a mutation.
//
// The cache key is the identity of the shard snapshots the composition was
// built from, not the coordinator's generation counter: a shard bumps that
// counter before it publishes, so a generation-keyed cache filled in
// between would hold the pre-mutation state under the post-mutation
// generation and serve it until the next mutation. Every publish installs
// a fresh *shard.Snap, so pointer equality is exact; the composed
// generation is the newest one a composed-from snapshot carries. A subnet
// manager swapped in since (an SM handover publishes nothing) also ends the
// cached snapshot's life: its fabric-level state was the old manager's.
func (s *Server) compose() *Snapshot {
	snaps := s.co.Snaps()
	prev := s.snap.Load()
	if prev != nil && prev.mgr == s.c.SM && slices.Equal(prev.parts, snaps) {
		return prev
	}
	var gen uint64
	for _, ss := range snaps {
		gen = max(gen, ss.Gen)
	}
	start := time.Now()
	sn := s.next(prev, gen, snaps)
	s.reg.WallHistogram("api.compose_wall_us", nil).ObserveDuration(time.Since(start))
	s.snap.Store(sn)
	return sn
}

// dispatchSharded runs one command through the coordinator on the request
// goroutine. A lifecycle command goes to its shard, whose hook takes it
// through the epilogue (shardDone) before its results come back here to be
// rendered by the same lifecycle the single-actor loop uses. Rerouting and
// reconciliation need the whole fabric quiesced (waves move VMs without
// going through the shards): freeze every shard and run the command,
// epilogue included, as the single actor would.
func (s *Server) dispatchSharded(w http.ResponseWriter, cmd *command) {
	var d done
	var err error
	switch cmd.kind {
	case opReconfigure, opReconcile:
		err = s.co.Freeze(func() { d = s.execute(cmd) })
	default:
		var res shard.Result
		switch cmd.kind {
		case opCreateVM:
			res, err = s.co.CreateVM(cmd.reqID, cmd.name, cmd.hyp)
		case opDestroyVM:
			res, err = s.co.DestroyVM(cmd.reqID, cmd.name)
		case opMigrateVM:
			res, err = s.co.MigrateVM(cmd.reqID, cmd.name, cmd.hyp)
		}
		d = done{op: cmd.kind, name: cmd.name}
		s.lifecycle(&d, res, err)
	}
	switch {
	case errors.Is(err, shard.ErrBackpressure):
		// Shard backpressure keeps the single-actor 429 + Retry-After contract.
		s.reg.Counter("api.admission_rejects").Inc()
		w.Header().Set("Retry-After", strconv.Itoa(int((s.retryAfter+time.Second-1)/time.Second)))
		writeErr(w, http.StatusTooManyRequests, "admission queue full (shard queue saturated)")
	case errors.Is(err, shard.ErrShutdown):
		writeErr(w, http.StatusServiceUnavailable, "server is shutting down")
	default:
		writeJSON(w, d.status, d.body)
	}
}

// Coordinator exposes the shard coordinator (nil in single-actor mode) for
// tests and embedding drivers (ibsimload's in-process mode, the chaos
// engine's commit-gate hook).
func (s *Server) Coordinator() *shard.Coordinator { return s.co }
