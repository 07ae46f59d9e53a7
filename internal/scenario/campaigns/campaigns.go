// Package campaigns ships the scripted chaos campaigns: deterministic,
// seed-replayable fault schedules built from the scenario package's
// primitives, run against the real sm/cloud/api stack. All campaigns except
// corruption-probe must finish with a clean full-scope audit at every
// quiesce point; corruption-probe deliberately corrupts the fabric and
// passes only when the auditor catches it.
package campaigns

import (
	"fmt"
	"time"

	"ibvsim/internal/core"
	"ibvsim/internal/scenario"
	"ibvsim/internal/shard"
	"ibvsim/internal/smp"
	"ibvsim/internal/sriov"
	"ibvsim/internal/topology"
)

// step is the virtual-time spacing between scheduled campaign beats.
const step = 100 * time.Millisecond

// All returns every campaign in deterministic order.
func All() []*scenario.Campaign {
	return []*scenario.Campaign{
		migrationStorm(),
		vmChurn(),
		linkFlapStorm(),
		linkFlapStormIncremental(),
		switchReboot(),
		handoverUnderLoad(),
		faultyFabric(),
		lidPressure(),
		corruptionProbe(),
		defragUnderChurn(),
		crossShardStorm(),
	}
}

// Get returns a campaign by name, or nil.
func Get(name string) *scenario.Campaign {
	for _, c := range All() {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// hyps returns the hypervisor list (ascending node order).
func hyps(h *scenario.Harness) []topology.NodeID { return h.Cloud.Hypervisors() }

// randHyp draws a hypervisor from the engine PRNG.
func randHyp(h *scenario.Harness) topology.NodeID {
	hs := hyps(h)
	return hs[h.E.Rand().Intn(len(hs))]
}

// seedVMs creates n VMs (vm000..) through the scheduler at t=0 beats.
func seedVMs(h *scenario.Harness, n int) {
	h.E.Every(0, step, n, "seed-vm", func(i int) {
		h.CreateVM(fmt.Sprintf("vm%03d", i))
	})
}

// migrationStorm hammers live migration under the prepopulated vSwitch
// model: a pool of VMs migrates to PRNG-chosen destinations back to back
// (LID swaps rippling through the LFTs), with periodic quiesce audits.
func migrationStorm() *scenario.Campaign {
	return &scenario.Campaign{
		Name:        "migration-storm",
		Description: "back-to-back live migrations (prepopulated model, LID swaps)",
		Tune: func(o *scenario.Options) {
			o.Model = sriov.VSwitchPrepopulated
		},
		Script: func(h *scenario.Harness) {
			const vms, moves = 8, 40
			seedVMs(h, vms)
			start := time.Duration(vms+1) * step
			h.E.Every(start, step, moves, "migrate", func(i int) {
				h.MigrateVM(fmt.Sprintf("vm%03d", i%vms), randHyp(h))
				if (i+1)%10 == 0 {
					h.Quiesce(fmt.Sprintf("after %d migrations", i+1))
				}
			})
		},
	}
}

// vmChurn boots and destroys VMs continuously under the dynamic model, so
// every beat allocates or frees a LID and reroutes (the section V-B boot
// cost, repeated until leak-free operation is proven by audit).
func vmChurn() *scenario.Campaign {
	return &scenario.Campaign{
		Name:        "vm-churn",
		Description: "continuous VM create/destroy under dynamic LID assignment",
		Script: func(h *scenario.Harness) {
			const rounds = 50
			live := map[string]bool{}
			next := 0
			h.E.Every(0, step, rounds, "churn", func(i int) {
				// Bias toward creation until a working set exists, then coin
				// flip; destroys pick the lexically smallest live VM so the
				// choice depends only on PRNG state and live-set content.
				if len(live) == 0 || (len(live) < 6 && h.E.Rand().Intn(2) == 0) {
					name := fmt.Sprintf("vm%03d", next)
					next++
					if h.CreateVM(name) == 201 {
						live[name] = true
					}
					return
				}
				victim := ""
				for name := range live {
					if victim == "" || name < victim {
						victim = name
					}
				}
				h.DestroyVM(victim)
				delete(live, victim)
				if (i+1)%10 == 0 {
					h.Quiesce(fmt.Sprintf("after %d churn beats", i+1))
				}
			})
		},
	}
}

// linkFlapScript is the shared flap schedule of the two link-flap-storm
// variants: PRNG-chosen trunk links go down, resweep, reroute via the API,
// run under load, restore, reroute again. Flaps that would partition the
// fabric are skipped deterministically. The final beat logs the fabric's
// LFT digest so same-seed runs of the two variants can prove they converged
// to identical forwarding state.
func linkFlapScript(h *scenario.Harness) {
	const flaps = 6
	seedVMs(h, 4)
	start := 5 * step
	h.E.Every(start, 4*step, flaps, "flap", func(i int) {
		trunks := h.TrunkLinks()
		l := trunks[h.E.Rand().Intn(len(trunks))]
		failed, err := h.FailLink(l[0], l[1])
		if err != nil {
			h.E.Logf("flap error: %v", err)
			return
		}
		if !failed {
			return
		}
		h.Reconfigure() // reroute around the cut before anything audits
		h.MigrateVM(fmt.Sprintf("vm%03d", i%4), randHyp(h))
		h.Quiesce(fmt.Sprintf("degraded after flap %d", i))
		if err := h.RestoreLink(l[0], l[1]); err != nil {
			h.E.Logf("restore error: %v", err)
			return
		}
		h.Reconfigure()
		h.Quiesce(fmt.Sprintf("restored after flap %d", i))
	})
	h.E.At(start+time.Duration(flaps)*4*step, "digest", func() {
		h.E.Logf("final LFT digest: %s", h.LFTDigest())
	})
}

// linkFlapStorm flaps trunk links with traditional full reconfiguration.
func linkFlapStorm() *scenario.Campaign {
	return &scenario.Campaign{
		Name:        "link-flap-storm",
		Description: "repeated trunk-link failures with reroute and restore under load",
		Script:      linkFlapScript,
	}
}

// linkFlapStormIncremental replays the exact same flap schedule with the
// SM's dependency-tracked incremental routing and SMP block coalescing on:
// every quiesce audit must stay clean and the final LFT digest must equal
// the full-recompute variant's for the same seed (the cross-check lives in
// TestIncrementalCampaignDigestMatchesFull).
func linkFlapStormIncremental() *scenario.Campaign {
	return &scenario.Campaign{
		Name:        "link-flap-storm-incremental",
		Description: "link-flap-storm under incremental delta recompute with SMP coalescing",
		Tune: func(o *scenario.Options) {
			o.IncrementalRouting = true
			o.MaxBlocksPerSMP = 64
		},
		Script: linkFlapScript,
	}
}

// switchReboot power-cycles PRNG-chosen spine switches. The outage window
// is dark (no mutations while the switch is unreachable); detection,
// rediscovery and the post-restore reroute are the exercise.
func switchReboot() *scenario.Campaign {
	return &scenario.Campaign{
		Name:        "switch-reboot",
		Description: "spine switch power cycles with rediscovery and reroute",
		Script: func(h *scenario.Harness) {
			const reboots = 4
			seedVMs(h, 4)
			start := 5 * step
			h.E.Every(start, 4*step, reboots, "reboot", func(i int) {
				spines := h.SpineSwitches()
				if len(spines) == 0 {
					h.E.Logf("no spine switches; skipping reboot")
					return
				}
				sw := spines[h.E.Rand().Intn(len(spines))]
				if err := h.RebootSwitch(sw); err != nil {
					h.E.Logf("reboot error: %v", err)
					return
				}
				h.MigrateVM(fmt.Sprintf("vm%03d", i%4), randHyp(h))
				h.Quiesce(fmt.Sprintf("after reboot %d", i))
			})
		},
	}
}

// handoverUnderLoad fails the master SM over to a standby in the middle of
// a migration burst, twice, proving the takeover preserves fabric state
// (zero-SMP reconciliation) and the new master keeps passing audits.
func handoverUnderLoad() *scenario.Campaign {
	return &scenario.Campaign{
		Name:        "handover-under-load",
		Description: "SM failover between migration bursts, twice",
		Script: func(h *scenario.Harness) {
			const vms = 6
			seedVMs(h, vms)
			beat := time.Duration(vms+1) * step
			burst := func(tag string, n int) {
				for i := 0; i < n; i++ {
					h.MigrateVM(fmt.Sprintf("vm%03d", i%vms), randHyp(h))
				}
				h.Quiesce(tag)
			}
			h.E.At(beat, "burst-1", func() { burst("after burst 1", 8) })
			h.E.At(beat+step, "handover-1", func() {
				if err := h.Handover(); err != nil {
					h.E.Logf("handover error: %v", err)
				}
			})
			h.E.At(beat+2*step, "burst-2", func() { burst("after burst 2 (new master)", 8) })
			h.E.At(beat+3*step, "handover-2", func() {
				if err := h.Handover(); err != nil {
					h.E.Logf("handover error: %v", err)
				}
			})
			h.E.At(beat+4*step, "burst-3", func() { burst("after burst 3 (master back)", 8) })
		},
	}
}

// faultyFabric runs VM lifecycle traffic through a lossy management network:
// fault windows raise drop/delay rates on the SMP transport while a raised
// retry budget keeps every LFT block converging — losses cost time, never
// correctness.
func faultyFabric() *scenario.Campaign {
	return &scenario.Campaign{
		Name:        "faulty-fabric",
		Description: "VM lifecycle under lossy SMP transport with retries absorbing the loss",
		Tune: func(o *scenario.Options) {
			o.MaxAttempts = 8
		},
		Script: func(h *scenario.Harness) {
			const vms, moves = 6, 24
			seedVMs(h, vms)
			start := time.Duration(vms+1) * step
			h.FaultWindow(start, 8*step, smp.FaultProfile{Drop: 0.05, Delay: 0.05})
			h.FaultWindow(start+12*step, 8*step, smp.FaultProfile{Drop: 0.1, Duplicate: 0.05})
			h.E.Every(start, step, moves, "migrate", func(i int) {
				h.MigrateVM(fmt.Sprintf("vm%03d", i%vms), randHyp(h))
				if (i+1)%8 == 0 {
					h.Quiesce(fmt.Sprintf("after %d lossy migrations", i+1))
					st := h.FT.Stats()
					h.E.Logf("transport verdicts: attempts=%d dropped=%d delayed=%d duplicated=%d",
						st.Attempts, st.Dropped, st.Delayed, st.Duplicated)
				}
			})
		},
	}
}

// lidPressure exhausts one hypervisor's VFs (deterministic 409 at the
// brim), fills a working set fabric-wide, then drains everything —
// proving LID allocate/release cycles leak neither LIDs nor routes.
func lidPressure() *scenario.Campaign {
	return &scenario.Campaign{
		Name:        "lid-pressure",
		Description: "VF/LID pool exhaustion, overflow rejection, full drain and reuse",
		Tune: func(o *scenario.Options) {
			o.VFs = 2
		},
		Script: func(h *scenario.Harness) {
			h.E.At(0, "exhaust-one", func() {
				target := hyps(h)[0]
				for i := 0; i <= h.Opts.VFs; i++ { // one past the brim: last must 409
					h.CreateVMOn(fmt.Sprintf("pin%02d", i), target)
				}
				h.Quiesce("one hypervisor exhausted")
			})
			h.E.At(2*step, "fill", func() {
				n := 2 * len(hyps(h))
				if n > 24 {
					n = 24
				}
				for i := 0; i < n; i++ {
					h.CreateVM(fmt.Sprintf("fill%03d", i))
				}
				h.E.Logf("lid pool: %d LIDs in use, top %d", h.Cloud.SM.LIDCount(), h.Cloud.SM.TopLID())
				h.Quiesce("filled")
			})
			h.E.At(4*step, "drain", func() {
				for _, name := range h.Cloud.VMs() {
					h.DestroyVM(name)
				}
				h.E.Logf("lid pool after drain: %d LIDs in use", h.Cloud.SM.LIDCount())
				h.Quiesce("drained")
			})
			h.E.At(6*step, "refill", func() {
				n := len(hyps(h))
				if n > 16 {
					n = 16
				}
				for i := 0; i < n; i++ {
					h.CreateVM(fmt.Sprintf("re%03d", i))
				}
				h.Quiesce("refilled")
			})
		},
	}
}

// defragUnderChurn interleaves VM churn with periodic declarative
// reconciliation: the fleet fragments across hypervisors, reconcile(defrag)
// repacks it in batched swap waves (prepopulated model, so every wave is
// merged LID-swap LFT edits), and each round must leave a clean full-scope
// audit. The final beat dry-runs defrag to prove the achieved placement is a
// fixpoint.
func defragUnderChurn() *scenario.Campaign {
	return &scenario.Campaign{
		Name:        "defrag-under-churn",
		Description: "periodic reconcile(defrag) repacking a churning fleet in batched swap waves",
		Tune: func(o *scenario.Options) {
			o.Model = sriov.VSwitchPrepopulated
		},
		Script: func(h *scenario.Harness) {
			live := map[string]bool{}
			next := 0
			h.E.At(0, "fragment", func() {
				// One VM on every other hypervisor: maximal fragmentation.
				hs := hyps(h)
				for i := 0; i < len(hs) && i < 12; i += 2 {
					name := fmt.Sprintf("frag%03d", next)
					next++
					if h.CreateVMOn(name, hs[i]) == 201 {
						live[name] = true
					}
				}
			})
			const rounds = 4
			h.E.Every(2*step, 4*step, rounds, "churn-reconcile", func(i int) {
				// A churn burst: two creations on PRNG hosts, one destroy of
				// the lexically smallest live VM, then reconcile and audit.
				for j := 0; j < 2; j++ {
					name := fmt.Sprintf("churn%03d", next)
					next++
					if h.CreateVMOn(name, randHyp(h)) == 201 {
						live[name] = true
					}
				}
				victim := ""
				for name := range live {
					if victim == "" || name < victim {
						victim = name
					}
				}
				if victim != "" && h.DestroyVM(victim) == 200 {
					delete(live, victim)
				}
				h.Reconcile("defrag", false)
				h.Quiesce(fmt.Sprintf("after reconcile %d", i))
			})
			h.E.At(2*step+rounds*4*step, "fixpoint", func() {
				h.Reconcile("defrag", true) // must log converged=true
			})
		},
	}
}

// crossShardStorm runs the sharded control plane (2 zones) through a seeded
// cross-shard migration storm: every move crosses zones through the
// coordinator's two-phase plan (reserve + stage, commit, adopt), with full
// audits at every quiesce. Two commit-gate windows exercise the protocol's
// seams deterministically: a stall window holds one migration mid-commit
// while zone-local creates land on both shards (pinning the source-VF
// reservation), and a veto window aborts one commit, which must release the
// staged reservation without fabric damage.
func crossShardStorm() *scenario.Campaign {
	return &scenario.Campaign{
		Name:        "cross-shard-storm",
		Description: "cross-shard two-phase migration storm with a mid-commit stall window (2 shards)",
		Tune: func(o *scenario.Options) {
			o.Model = sriov.VSwitchPrepopulated
			o.Shards = 2
		},
		Script: func(h *scenario.Harness) {
			co := h.Srv.Coordinator()
			zoneHyp := func(zone, i int) topology.NodeID {
				hs := co.Part.Zones[zone].Hyps
				return hs[i%len(hs)]
			}
			const vms = 6
			h.E.Every(0, step, vms, "seed-vm", func(i int) {
				h.CreateVMOn(fmt.Sprintf("vm%03d", i), zoneHyp(i%2, i))
			})
			start := time.Duration(vms+1) * step
			const moves = 24
			h.E.Every(start, step, moves, "cross-migrate", func(i int) {
				name := fmt.Sprintf("vm%03d", i%vms)
				vm := h.Cloud.VM(name)
				if vm == nil {
					return
				}
				from := co.Part.ZoneOfHyp(vm.Hyp)
				h.MigrateVM(name, zoneHyp(1-from, i+h.E.Rand().Intn(4)))
				if (i+1)%8 == 0 {
					h.Quiesce(fmt.Sprintf("after %d cross-shard migrations", i+1))
				}
			})
			stallAt := start + time.Duration(moves+1)*step
			h.E.At(stallAt, "stall-window", func() {
				co.SetCommitGate(func(x shard.XMigration) error {
					h.E.Logf("commit gate: stalling %s mid-commit (shard %d -> %d), mutating both shards",
						x.VM, x.FromShard, x.ToShard)
					h.CreateVMOn("stall-src", zoneHyp(x.FromShard, 3))
					h.CreateVMOn("stall-dst", zoneHyp(x.ToShard, 3))
					return nil
				})
				vm := h.Cloud.VM("vm000")
				from := co.Part.ZoneOfHyp(vm.Hyp)
				h.MigrateVM("vm000", zoneHyp(1-from, 5))
				co.SetCommitGate(nil)
				h.Quiesce("after mid-commit stall window")
			})
			h.E.At(stallAt+step, "veto-window", func() {
				co.SetCommitGate(func(x shard.XMigration) error {
					h.E.Logf("commit gate: vetoing %s (shard %d -> %d)", x.VM, x.FromShard, x.ToShard)
					return fmt.Errorf("injected commit veto")
				})
				vm := h.Cloud.VM("vm001")
				from := co.Part.ZoneOfHyp(vm.Hyp)
				h.MigrateVM("vm001", zoneHyp(1-from, 7))
				co.SetCommitGate(nil)
				h.Quiesce("after vetoed commit")
			})
			h.E.At(stallAt+2*step, "drain", func() {
				for _, name := range h.Cloud.VMs() {
					h.DestroyVM(name)
				}
				h.Quiesce("drained")
			})
		},
	}
}

// corruptionProbe is the negative control: it disables the retry budget,
// selects the invalidation mitigation (whose port-255 pre-pass makes a lost
// restore SMP leave a real blackhole) and opens a brutal drop window during
// migrations. The campaign passes only when the post-mutation audit catches
// the corruption and the flight recorder dumps the replay coordinates. A
// migration that loses its first SMP writes nothing and leaves its VM
// unmigratable, so each migration moves its own VM.
func corruptionProbe() *scenario.Campaign {
	return &scenario.Campaign{
		Name:            "corruption-probe",
		Description:     "deliberate LFT corruption under loss; passes only when the auditor catches it",
		ExpectViolation: true,
		Tune: func(o *scenario.Options) {
			o.MaxAttempts = 1
		},
		Setup: func(h *scenario.Harness) error {
			h.Cloud.RC.Mitigation = core.MitigationInvalidate
			return nil
		},
		Script: func(h *scenario.Harness) {
			const vms = 8
			seedVMs(h, vms)
			start := time.Duration(vms+1) * step
			h.E.At(start, "open-drop", func() {
				h.SetFaultProfile(smp.FaultProfile{Drop: 0.5})
			})
			h.E.Every(start+step, step, 8, "corrupt-migrate", func(i int) {
				h.MigrateVM(fmt.Sprintf("vm%03d", i%vms), randHyp(h))
			})
			h.E.At(start+10*step, "close-drop", func() {
				h.SetFaultProfile(smp.FaultProfile{})
				h.Quiesce("post-corruption")
			})
		},
	}
}
