package bench

import (
	"runtime"
	"testing"

	"ibvsim/internal/sriov"
)

// TestMigrationAllocBudget holds one live migration on the paper's 324-node
// fat tree to an allocation budget: the deterministic part of what
// BenchmarkReconfigSwapMigration and BenchmarkReconfigCopyMigration time.
// Most of a migration is the SM's sparse LFT write on every switch (a clone,
// the superblock and block each touched entry lands in, one packet per
// call), so a cost that creeps back in per SMP or per entry shows here as a
// count, without a timing.
func TestMigrationAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, tc := range []struct {
		name   string
		model  sriov.Model
		allocs float64 // per migration
		bytes  uint64  // per migration
	}{
		{"swap", sriov.VSwitchPrepopulated, 400, 40_000},
		{"copy", sriov.VSwitchDynamic, 310, 30_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, name, src, dst := benchCloud(t, tc.model)
			i := 0
			migrate := func() {
				to := dst
				if i%2 == 1 {
					to = src
				}
				i++
				if _, err := c.MigrateVM(name, to); err != nil {
					t.Fatal(err)
				}
			}
			const runs = 200
			allocs := testing.AllocsPerRun(runs, migrate)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for k := 0; k < runs; k++ {
				migrate()
			}
			runtime.ReadMemStats(&after)
			bytes := (after.TotalAlloc - before.TotalAlloc) / runs
			t.Logf("%s: %.0f allocations, %d bytes per migration", tc.name, allocs, bytes)
			if allocs > tc.allocs {
				t.Errorf("%.0f allocations per migration, budget %.0f", allocs, tc.allocs)
			}
			if bytes > tc.bytes {
				t.Errorf("%d bytes per migration, budget %d", bytes, tc.bytes)
			}
		})
	}
}
