// Command ibvbench is the control-plane benchmark of the repository: four
// workloads driven through api.Server.Handler() in this one process — no
// daemon, no socket, at most two client goroutines — with end-to-end metrics
// from an untraced run and per-layer metrics from a traced one (the layer
// ladder). See README.md in this directory.
//
//	ibvbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	ibvbench -all            every workload, untraced then traced
//	ibvbench -aa             every workload's untraced run twice, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// selfDeadline ends a run that outlives the driver's per-run cap by itself:
// a hung benchmark must not be left for someone else to kill.
const selfDeadline = 170 * time.Second

type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int // samples behind the value
}

// result is one run of one workload.
type result struct {
	tally
	Workload string
	Seed     int64
	Metrics  []metric
	Aliases  map[string]string
	Notes    []string
}

func (r *result) add(name string, value float64, unit string, n int) {
	r.Metrics = append(r.Metrics, metric{name, value, unit, n})
}

// set overwrites a metric already added (no-op when the run has none of
// that name: proc.goroutines_end exists only in traced runs).
func (r *result) set(name string, value float64) {
	for i := range r.Metrics {
		if r.Metrics[i].Name == name {
			r.Metrics[i].Value = value
		}
	}
}

func (r *result) get(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// report prints the human-readable table (to stderr in contract mode, so
// the last line of stdout stays the JSON object).
func (r *result) report(w io.Writer, title string) {
	fmt.Fprintf(w, "== %s  seed=%d  %s\n", r.Workload, r.Seed, title)
	for _, m := range r.Metrics {
		alias := ""
		if a := r.Aliases[m.Name]; a != "" {
			alias = "  (" + a + ")"
		}
		fmt.Fprintf(w, "  %-30s %14.4f %-6s n=%d%s\n", m.Name, m.Value, m.Unit, m.N, alias)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	for _, msg := range r.msgs {
		fmt.Fprintf(w, "  ! %s\n", msg)
	}
}

// contractLine is the one JSON object the driver reads.
func (r *result) contractLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]mv{}}
	for _, m := range r.Metrics {
		out.Metrics[m.Name] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings; cannot fail
	}
	return string(b)
}

type options struct {
	seed    int64
	seconds float64
	scale   scale
	outDir  string
}

func main() {
	var (
		name  = flag.String("workload", "", "workload to run (migrate-classic, migrate-sharded, fabric-events, reconcile-waves)")
		trace = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		all   = flag.Bool("all", false, "run every workload, untraced then traced")
		aa    = flag.Bool("aa", false, "run every workload's untraced window twice and compare against the bounds")
		opt   options
	)
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed")
	flag.Float64Var(&opt.seconds, "seconds", 15, "length of the measured window")
	small := flag.Bool("small", false, "324-node fabrics (smoke test scale)")
	paper := flag.Bool("paper", false, "migrate workloads on the paper's 5832-node fat tree, fabric-events on 1000 hosts (minutes, not gated)")
	flag.StringVar(&opt.outDir, "out", "bench/out", "directory for trace-<workload>.json")
	flag.Parse()
	switch {
	case *small:
		opt.scale = scaleSmall
	case *paper:
		opt.scale = scalePaper
	}

	watchdog := time.AfterFunc(selfDeadline, func() {
		fmt.Fprintln(os.Stderr, "ibvbench: self-deadline exceeded; exiting")
		os.Exit(2)
	})
	if *all || *aa {
		watchdog.Stop() // multi-run modes are for people, not for the driver's cap
	}
	baseline := runtime.NumGoroutine()

	var code int
	switch {
	case *aa:
		code = runAA(opt)
	case *all:
		code = runAll(opt)
	case *name == "":
		fmt.Fprintln(os.Stderr, "ibvbench: need --workload, -all or -aa")
		os.Exit(2)
	default:
		code = runOne(*name, *trace != 0, opt, baseline)
	}
	watchdog.Stop()
	os.Exit(code)
}

// goroutinesBack waits briefly for goroutines to return to the baseline and
// reports the excess: anything left is a server the benchmark failed to
// shut down.
func goroutinesBack(baseline int) int {
	for i := 0; i < 200 && runtime.NumGoroutine() > baseline; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if left := runtime.NumGoroutine() - baseline; left > 0 {
		return left
	}
	return 0
}

// checkGoroutines asserts that every server the run booted is gone: one
// more operation attempted, failed if anything is still running.
func (r *result) checkGoroutines(baseline int) {
	left := goroutinesBack(baseline)
	r.attempted++
	if left > 0 {
		r.fail("%d goroutines still running after shutdown", left)
	}
	r.set("proc.goroutines_end", float64(left))
}

func title(traced bool) string {
	if traced {
		return "traced (per layer)"
	}
	return "untraced (end to end)"
}

func run(w *workload, traced bool, opt options) (*result, error) {
	if traced {
		return runTraced(w, opt)
	}
	return runUntraced(w, opt.seed, opt.seconds)
}

// runOne is the driver's contract: one workload, one mode, the JSON object
// as the last line of stdout, exit 0 only if every operation was correct.
func runOne(name string, traced bool, opt options, baseline int) int {
	w, err := findWorkload(name, opt.scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ibvbench:", err)
		return 2
	}
	res, err := run(w, traced, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ibvbench:", err)
		return 2
	}
	res.checkGoroutines(baseline)
	res.report(os.Stderr, title(traced))
	fmt.Println(res.contractLine())
	if res.failed > 0 {
		return 1
	}
	return 0
}

// runAll is the one command that prints everything: each workload untraced,
// then traced, with memory returned to the OS in between.
func runAll(opt options) int {
	code := 0
	for _, w := range workloads(opt.scale) {
		for _, traced := range []bool{false, true} {
			baseline := runtime.NumGoroutine()
			res, err := run(w, traced, opt)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ibvbench:", err)
				return 2
			}
			res.checkGoroutines(baseline)
			res.report(os.Stdout, title(traced))
			if res.failed > 0 {
				code = 1
			}
			debug.FreeOSMemory()
		}
	}
	return code
}

// runAA runs every workload's untraced window twice on this build and holds
// the two against the benchmark's own bounds: what the bounds call a
// regression must not be something the same code does to itself.
func runAA(opt options) int {
	code := 0
	for _, w := range workloads(opt.scale) {
		var pair [2]*result
		for i := range pair {
			res, err := runUntraced(w, opt.seed, opt.seconds)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ibvbench:", err)
				return 2
			}
			if res.failed > 0 {
				res.report(os.Stdout, "A/A")
				code = 1
			}
			pair[i] = res
			debug.FreeOSMemory()
		}
		fmt.Printf("== %s  seed=%d  A/A\n", w.Name, opt.seed)
		names := make([]string, 0, len(endToEnd))
		for n := range endToEnd {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			spec := endToEnd[n]
			a, _ := pair[0].get(n)
			b, _ := pair[1].get(n)
			worse := (b - a) / a
			if spec.higherBetter {
				worse = (a - b) / a
			}
			verdict := "ok"
			// setup_s and the window metrics are gated both ways: an A/A
			// pair has no "before", so either direction is a disagreement.
			if worse > spec.bound || -worse > spec.bound {
				verdict, code = "DISAGREE", 1
			}
			fmt.Printf("  %-16s %12.4f %12.4f %-6s diff %+7.2f%%  bound %4.0f%%  %s\n",
				n, a, b, spec.unit, 100*(b-a)/a, 100*spec.bound, verdict)
		}
	}
	return code
}
