package scenario

import (
	"context"
	"fmt"
	"testing"
	"time"

	"ibvsim/internal/ib"
	"ibvsim/internal/smp"
	"ibvsim/internal/sriov"
	"ibvsim/internal/topology"
)

// TestProvenanceExplainAfterChaos is the provenance plane's acceptance gate,
// on the paper's 648-node fat tree under the sharded control plane:
//
//  1. After a seeded chaos campaign (zone-local creates, cross-shard
//     two-phase migrations, a reconciliation wave), /v1/explain must
//     attribute EVERY hop of every live VM pair's path — zero hops with
//     unknown provenance. This fails if any write path (engine fold, boot
//     copy, migration plan apply, wave merge, cross-shard commit) stops
//     stamping its LFT writes.
//  2. An injected corruption — a DropPort entry written with a chaos
//     provenance carrying a known span ID — must surface as an audit
//     violation whose flight dump names that span. This fails if the
//     auditor stops attaching write provenance to violations.
func TestProvenanceExplainAfterChaos(t *testing.T) {
	h, err := NewHarness(Options{
		FatTreeNodes: 648,
		Model:        sriov.VSwitchPrepopulated,
		Shards:       2,
		Seed:         11,
		FlightDir:    t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		h.Srv.Shutdown(ctx) //nolint:errcheck
	}()

	co := h.Srv.Coordinator()
	if co == nil {
		t.Fatal("harness did not boot the sharded control plane")
	}
	zoneHyp := func(zone, i int) topology.NodeID {
		hs := co.Part.Zones[zone].Hyps
		return hs[i%len(hs)]
	}

	const step = time.Millisecond
	const vms = 6
	h.E.Every(0, step, vms, "seed-vm", func(i int) {
		h.CreateVMOn(fmt.Sprintf("pvm%02d", i), zoneHyp(i%2, i))
	})
	start := time.Duration(vms+1) * step
	h.E.Every(start, step, 12, "cross-migrate", func(i int) {
		name := fmt.Sprintf("pvm%02d", i%vms)
		vm := h.Cloud.VM(name)
		if vm == nil {
			return
		}
		from := co.Part.ZoneOfHyp(vm.Hyp)
		h.MigrateVM(name, zoneHyp(1-from, i+h.E.Rand().Intn(3)))
	})
	h.E.At(start+14*step, "reconcile", func() {
		h.Reconcile("defrag", false)
	})
	h.E.Run()
	if q := h.Quiesce("post-storm"); q.Violations != 0 {
		t.Fatalf("storm left %d audit violations (%v); fabric must be clean before the explain sweep",
			q.Violations, q.ByKind)
	}

	// Part 1: every hop of every live VM pair attributes to a mutation.
	names := h.Cloud.VMs()
	if len(names) != vms {
		t.Fatalf("want %d live VMs, got %d", vms, len(names))
	}
	pathPairs := 0
	var probeSwitch topology.NodeID
	var probeLID ib.LID
	for _, src := range names {
		for _, dst := range names {
			if src == dst {
				continue
			}
			st, body := h.do("GET", "/v1/explain?src="+src+"&dst="+dst, nil)
			if st != 200 {
				t.Fatalf("explain %s->%s: status %d (%v)", src, dst, st, body)
			}
			if e, ok := body["error"].(string); ok && e != "" {
				t.Fatalf("explain %s->%s: walk error %q", src, dst, e)
			}
			hops, _ := body["hops"].([]any)
			if unknown := num(body, "unknown"); unknown != 0 {
				t.Errorf("explain %s->%s: %d of %d hops have unknown provenance",
					src, dst, unknown, len(hops))
			}
			if int(num(body, "attributed")) != len(hops) {
				t.Errorf("explain %s->%s: attributed=%d over %d hops",
					src, dst, num(body, "attributed"), len(hops))
			}
			if len(hops) > 0 {
				pathPairs++
				hop := hops[0].(map[string]any)
				probeSwitch = topology.NodeID(hop["switch"].(float64))
				probeLID = ib.LID(num(body, "dst_lid"))
			}
		}
	}
	if pathPairs == 0 {
		t.Fatal("no VM pair produced a multi-hop path; the sweep proved nothing")
	}

	// Part 2: corrupt one live column with a stamped chaos write; the audit
	// violation's provenance must name the corrupting span.
	const chaosSpan = 4242
	prov := &ib.Provenance{
		Mutation: ib.NextMutationID(),
		Span:     chaosSpan,
		Engine:   "chaos",
		Reason:   "injected corruption",
		Shard:    ib.ShardNone,
	}
	if _, err := h.Cloud.SM.SetLFTEntriesProv(probeSwitch,
		[]ib.LFTEntry{{LID: probeLID, Port: ib.DropPort}}, smp.DestinationRouted, prov, nil); err != nil {
		t.Fatalf("inject corruption: %v", err)
	}
	// The composed snapshot is cached by coordinator generation; an
	// out-of-band SMP write does not bump it. One ordinary mutation later —
	// exactly how a real corruption surfaces — the full audit recomposes
	// from the live programmed tables and must catch the blackhole.
	h.CreateVMOn("chaos-tick", zoneHyp(0, 0))
	q := h.Quiesce("post-corruption")
	if q.Violations == 0 {
		t.Fatal("injected blackhole not caught by the full audit")
	}
	dump := h.Srv.Auditor().Recorder().LastDump()
	if dump == nil || dump.Reason == nil {
		t.Fatal("violations produced no flight dump")
	}
	named := false
	for _, v := range dump.Reason.Violations {
		if v.Provenance != nil && v.Provenance.Span == chaosSpan {
			named = true
			if v.Provenance.Engine != "chaos" || v.Provenance.Mutation != prov.Mutation {
				t.Errorf("culprit provenance mangled: %+v", v.Provenance)
			}
		}
	}
	if !named {
		t.Fatalf("no violation in the flight dump names corrupting span %d: %+v",
			chaosSpan, dump.Reason.Violations)
	}
}
