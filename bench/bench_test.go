package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"

	"ibvsim/internal/topology"
)

func planJSON(t *testing.T, w *workload, seed int64) []byte {
	t.Helper()
	p, err := genPlan(w, seed, 300)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads(scaleSmall) {
		a, b, c := planJSON(t, w, 7), planJSON(t, w, 7), planJSON(t, w, 8)
		if string(a) != string(b) {
			t.Errorf("%s: same seed gave different inputs", w.Name)
		}
		if string(a) == string(c) {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", w.Name)
		}
	}
}

func TestClassicAndShardedReplayTheSameSequence(t *testing.T) {
	ws := workloads(scaleSmall)
	if string(planJSON(t, ws[0], 3)) != string(planJSON(t, ws[1], 3)) {
		t.Error("migrate-classic and migrate-sharded differ in their generated inputs")
	}
}

func TestClientsOwnDisjointSets(t *testing.T) {
	w := workloads(scaleSmall)[0]
	p, err := genPlan(w, 1, 500)
	if err != nil {
		t.Fatal(err)
	}
	vmOwner := map[string]int{}
	hypOwner := map[topology.NodeID]int{}
	claim := func(c int, vm string, hyp topology.NodeID) {
		if o, ok := vmOwner[vm]; ok && o != c {
			t.Fatalf("VM %s used by clients %d and %d", vm, o, c)
		}
		if o, ok := hypOwner[hyp]; ok && o != c {
			t.Fatalf("hypervisor %d used by clients %d and %d", hyp, o, c)
		}
		vmOwner[vm], hypOwner[hyp] = c, c
	}
	per := len(p.Fleet) / len(p.Clients)
	for i, pl := range p.Fleet {
		claim(i/per, pl.VM, pl.Hyp)
	}
	migrations := 0
	for c, ops := range p.Clients {
		for _, o := range ops {
			claim(c, o.VM, o.Hyp)
			if o.Kind == opMigrate {
				migrations++
			}
		}
	}
	if migrations < 700 {
		t.Errorf("mix is not migrate-heavy: %d migrations in 1000 ops", migrations)
	}
}

func TestPercentileHelpers(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {1, 1}} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %g, want 2.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %g, want 2", got)
	}
	for _, tc := range []struct {
		n    int
		want float64
	}{{5, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := highestTail(tc.n); got != tc.want {
			t.Errorf("highestTail(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

// TestQuietFiguresIgnoreASlowPhase feeds the gated estimators a window whose
// second half runs 1.5x slower, as the shared host does to a run: they must
// report the first half.
func TestQuietFiguresIgnoreASlowPhase(t *testing.T) {
	var lat, done series
	at := 0.0
	for i := 0; i < 400; i++ {
		v := 10 + float64(i%5) // ms; every block of 10 has the lower quartile 11
		if i >= 200 {
			v *= 1.5
		}
		at += v / 1000
		lat.add(at, v)
		done.add(at, 1)
	}
	if got := lat.quietLatency(); got != 11 {
		t.Errorf("quietLatency = %g, want 11 (whole-window median is %g)", got, median(lat.v))
	}
	if got, want := done.quietRate(), 10/0.120; math.Abs(got-want) > 1e-6 {
		t.Errorf("quietRate = %g, want %g", got, want)
	}
	// Few, long operations: one sample per block, the best quarter of 7 is 1.
	few := series{at: []float64{1, 2, 3, 4, 5, 6, 7}, v: []float64{5, 4, 6, 3, 7, 8, 9}}
	if got := few.quietLatency(); got != 3 {
		t.Errorf("quietLatency of 7 samples = %g, want the lowest, 3", got)
	}
	if got := few.quietRate(); got != 9 {
		t.Errorf("quietRate of 7 samples = %g, want 9 units in the 1 s before the last reply", got)
	}
	var none series
	if none.quietLatency() != 0 || none.quietRate() != 0 {
		t.Error("an empty series must read 0")
	}
	for _, tc := range []struct{ n, want int }{{0, 1}, {39, 1}, {79, 1}, {80, 2}, {4000, 100}} {
		if got := blockSize(tc.n); got != tc.want {
			t.Errorf("blockSize(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestSelfTimeNeverNegative(t *testing.T) {
	for _, tc := range []struct {
		outer    float64
		inner    []float64
		want     float64
		wantOK   bool
		scenario string
	}{
		{100, []float64{30, 20}, 50, true, "plain"},
		{100, []float64{60, 45}, 0, true, "5% under: noise, clamped"},
		{100, []float64{80, 45}, 0, false, "25% under: the inner span was not inside"},
		{100, nil, 100, true, "no rung below"},
	} {
		got, ok := selfTime(tc.outer, tc.inner, 0.10)
		if got != tc.want || ok != tc.wantOK {
			t.Errorf("%s: selfTime = %g, %v; want %g, %v", tc.scenario, got, ok, tc.want, tc.wantOK)
		}
		if got < 0 {
			t.Errorf("%s: negative self time %g", tc.scenario, got)
		}
	}
}

// benchmarkJSON mirrors the driver's schema.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func better(higher bool) string {
	if higher {
		return "higher"
	}
	return "lower"
}

// TestBenchmarkJSONMatchesTheProgram holds BENCHMARK.json to the driver's
// limits and to the tables the binary prints from.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	b := loadBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	ws := workloads(scaleBench)
	if len(b.Workloads) != len(ws) {
		t.Fatalf("%d workloads declared, %d implemented", len(b.Workloads), len(ws))
	}
	for i, w := range b.Workloads {
		name(w.Name)
		if w.Name != ws[i].Name || w.Why != ws[i].Why {
			t.Errorf("workload %d: BENCHMARK.json says %q / %q, program says %q / %q", i, w.Name, w.Why, ws[i].Name, ws[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Errorf("%d end-to-end metrics declared, %d implemented", len(b.EndToEnd), len(endToEnd))
	}
	for _, m := range b.EndToEnd {
		name(m.Name)
		spec, ok := endToEnd[m.Name]
		if !ok {
			t.Errorf("end-to-end metric %q is not implemented", m.Name)
			continue
		}
		if m.Unit != spec.unit || m.Better != better(spec.higherBetter) || m.Bound != spec.bound {
			t.Errorf("%s: BENCHMARK.json says %s/%s/%g, program says %s/%s/%g",
				m.Name, m.Unit, m.Better, m.Bound, spec.unit, better(spec.higherBetter), spec.bound)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: bound %g / unit %q break the contract", m.Name, m.Bound, m.Unit)
		}
	}
	if len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics declared, %d implemented", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		name(m.Name)
		spec := perLayer[i]
		if m.Name != spec.name || m.Unit != spec.unit || m.Better != better(spec.higherBetter) || !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer %d: BENCHMARK.json says %s/%s/%s, program says %s/%s/%s",
				i, m.Name, m.Unit, m.Better, spec.name, spec.unit, better(spec.higherBetter))
		}
	}
}

// TestSmoke runs all four workloads on the 324-node fabric with one-second
// windows: nothing may fail, nothing may be left running, and every metric
// BENCHMARK.json names must be printed exactly once. -short skips the traced
// halves.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	opt := options{seed: 1, seconds: 1, scale: scaleSmall, outDir: t.TempDir()}
	for _, w := range workloads(scaleSmall) {
		for _, traced := range []bool{false, true} {
			if traced && testing.Short() {
				continue
			}
			baseline := runtime.NumGoroutine()
			res, err := run(w, traced, opt)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s traced=%v: failed_share = %d/%d: %v", w.Name, traced, res.failed, res.attempted, res.msgs)
			}
			if left := goroutinesBack(baseline); left > 0 {
				t.Errorf("%s traced=%v: %d goroutines left running", w.Name, traced, left)
			}
			count := map[string]int{}
			for _, m := range res.Metrics {
				count[m.Name]++
			}
			want := len(b.EndToEnd)
			if traced {
				want = len(b.PerLayer)
				for _, m := range b.PerLayer {
					if count[m.Name] != 1 {
						t.Errorf("%s: per-layer metric %s printed %d times", w.Name, m.Name, count[m.Name])
					}
				}
				if _, err := os.Stat(filepath.Join(opt.outDir, "trace-"+w.Name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", w.Name, err)
				}
			} else {
				for _, m := range b.EndToEnd {
					if count[m.Name] != 1 {
						t.Errorf("%s: end-to-end metric %s printed %d times", w.Name, m.Name, count[m.Name])
					}
					if v, _ := res.get(m.Name); v <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g, must never be 0", w.Name, m.Name, v)
					}
				}
			}
			if len(res.Metrics) != want {
				t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), want)
			}
		}
	}
}
