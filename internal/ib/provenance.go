package ib

import "sync/atomic"

// Provenance is the causal stamp carried by every LFT block write epoch: it
// names the mutation (a process-unique ID), the telemetry span executing it,
// the routing engine (or control-plane operation) that computed the entry,
// a human-readable reason, the shard actor that owned the write, and the
// control-plane generation in force.
//
// Stamps are immutable once attached: a writer builds one Provenance per
// write epoch (one mutation, one distribution, one two-phase commit phase)
// and every block that epoch touches shares the same pointer. That makes
// provenance one pointer per touched block — it piggybacks on the existing
// two-level COW superblock layout instead of maintaining a parallel table,
// and clones inherit it for free exactly like they inherit port storage.
type Provenance struct {
	// Mutation is the globally unique mutation ID (NextMutationID), shared
	// by every write the mutation performs across all switches and shards.
	Mutation uint64 `json:"mutation"`
	// Span is the telemetry span ID of the operation (0 when the write ran
	// outside any traced operation, e.g. bootstrap).
	Span int `json:"span,omitempty"`
	// Engine names the routing engine ("ftree", "minhop", ...) for computed
	// tables, or the control-plane mechanism ("migrate", "boot", ...) for
	// surgical edits.
	Engine string `json:"engine,omitempty"`
	// Reason is the human-readable cause ("create_vm vm-3", "wave 2", ...).
	Reason string `json:"reason,omitempty"`
	// Phase distinguishes sub-steps of one mutation: cross-shard two-phase
	// commits stamp "reserve", "stage" and "commit" separately, and plan
	// application stamps its invalidation pre-pass as "invalidate".
	Phase string `json:"phase,omitempty"`
	// Shard is the zone of the actor that performed the write (ShardNone for
	// a write made outside any zone; the coordinator itself stamps
	// ShardCoordinator).
	Shard int `json:"shard"`
	// Gen is the control-plane generation the write was published under.
	Gen uint64 `json:"generation,omitempty"`
}

// ShardCoordinator is the Provenance.Shard value for writes performed on the
// sharded control plane's coordinator goroutine (cross-shard commits, frozen
// fabric-wide operations) rather than by a zone actor.
const ShardCoordinator = -2

// ShardNone is the Provenance.Shard value for writes made outside any zone:
// routing, and a cloud driven without a control plane.
const ShardNone = -1

// WithPhase returns a copy of p stamped with the given phase. The receiver
// is not modified — phases of one mutation are distinct epochs and must not
// share a stamp pointer, or earlier-phase blocks would retroactively change.
func (p *Provenance) WithPhase(phase string) *Provenance {
	if p == nil {
		return nil
	}
	cp := *p
	cp.Phase = phase
	return &cp
}

// mutationSeq hands out process-unique mutation IDs. IDs start at 1 so 0
// unambiguously means "no provenance recorded".
var mutationSeq atomic.Uint64

// NextMutationID allocates a fresh globally unique mutation ID, shared by
// every writer (zone actors and the coordinator allocate from the same
// sequence, so /v1/explain output is totally ordered).
func NextMutationID() uint64 { return mutationSeq.Add(1) }

// provEnabled gates stamping globally (default on). The bench harness turns
// it off to measure the provenance plane's overhead; everything else leaves
// it alone.
var provEnabled atomic.Bool

func init() { provEnabled.Store(true) }

// SetProvenanceEnabled toggles provenance stamping process-wide. With
// stamping off, SetProvenance is a no-op and ProvenanceOf returns nil for
// newly written blocks; existing stamps are left in place.
func SetProvenanceEnabled(on bool) { provEnabled.Store(on) }
