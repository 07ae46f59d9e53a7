#!/usr/bin/env bash
# Alternating parent/change pairs of one ibvbench workload: section 8 of the
# choosing-metrics guide as a command.
#
#   scripts/ibvbench-pairs.sh PARENT WORKLOAD [PAIRS] [ibvbench flags...]
#   make bench-pairs PARENT=<rev> WORKLOAD=<name> PAIRS=10 [ARGS=-small]
#
# PARENT is any revision of this repository; the change is the working tree.
# The parent's files are exported (git archive: the repository itself is not
# touched, no worktree is registered) under bench/out/pairs/, each side builds
# its own ibvbench through its own bench/run.sh, and pair i runs both sides on
# seed 20+i for the window BENCHMARK.json fixes, the order flipped every pair.
# Per end-to-end metric it prints both medians, both quartile ranges, the
# change's wins and the ties, and a verdict: "unresolved" when the parent's
# own quartile range is wider than the metric's bound, so a regression of that
# size could not be told from noise; "better" needs ten pairs, nine wins and
# medians further apart than the parent's quartile range. Under the table it
# prints each side's median `attempted` (operations completed), so a memory
# delta that is really a run-length delta shows. Every run's JSON line is kept
# beside the summary. Writes only under the ignored bench/out/.
set -euo pipefail

if [ $# -lt 2 ]; then
	sed -n '2,20p' "$0" >&2
	exit 2
fi
parent=$1 workload=$2 pairs=${3:-10}
shift $(( $# < 3 ? $# : 3 ))

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
rev=$(git rev-parse --short "$parent^{commit}")
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
out="bench/out/pairs/$workload-$rev-$(date +%Y%m%dT%H%M%S)"
mkdir -p "$out"
tree=$(mktemp -d "$root/bench/out/pairs/parent-$rev.XXXXXX")
trap 'rm -rf "$tree"' EXIT
git archive "$rev" | tar -x -C "$tree"

# run SIDE DIR SEED: one benchmark run; its closing JSON line is the record.
run() {
	local log="$out/$(printf 'p%02d' "$3")-$1"
	if ! bash "$2/bench/run.sh" --workload "$workload" --seed "$(( 20 + $3 ))" \
		--seconds "$seconds" --trace 0 ${extra[@]+"${extra[@]}"} >"$log.log" 2>&1; then
		echo "pair $3 $1: ibvbench failed, see $log.log" >&2
	fi
	tail -n 1 "$log.log" >"$log.json"
}
extra=("$@")

echo "# $workload: parent $rev vs working tree, $pairs pairs, --seconds $seconds $*, seeds 21.. -> $out"
for i in $(seq 1 "$pairs"); do
	if (( i % 2 )); then
		run parent "$tree" "$i"; run change "$root" "$i"
	else
		run change "$root" "$i"; run parent "$tree" "$i"
	fi
	echo "# pair $i done"
done

python3 - "$out" "$pairs" <<'PY' | tee "$out/summary.txt"
import json, statistics, sys
out, pairs = sys.argv[1], int(sys.argv[2])
bench = json.load(open("BENCHMARK.json"))

def load(side):
    runs = []
    for i in range(1, pairs + 1):
        try:
            runs.append(json.load(open(f"{out}/p{i:02d}-{side}.json")))
        except (OSError, ValueError):
            runs.append(None)
    return runs

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

parent, change = load("parent"), load("change")
for side, runs in (("parent", parent), ("change", change)):
    bad = [i + 1 for i, r in enumerate(runs) if r is None or not r.get("correct") or r.get("failed")]
    failed = sum(r.get("failed", 0) for r in runs if r)
    print(f"{side}: {sum(r is not None for r in runs)} runs, {failed} failed operations" +
          (f", runs not clean: {bad}" if bad else ""))
print(f"{'metric':<12} {'parent median [q1..q3]':>34} {'change median [q1..q3]':>34} {'delta':>8} {'wins':>5} {'ties':>5}  verdict")
for m in bench["end_to_end"]:
    name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
    both = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
            for p, c in zip(parent, change)
            if p and c and name in p.get("metrics", {}) and name in c.get("metrics", {})]
    if not both:
        continue
    ps, cs = [p for p, _ in both], [c for _, c in both]
    better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    wins = sum(better(c, p) for p, c in both)
    ties = sum(c == p for p, c in both)
    pm, cm = statistics.median(ps), statistics.median(cs)
    (pq1, pq3), (cq1, cq3) = quartiles(ps), quartiles(cs)
    delta = (cm - pm) / pm if pm else 0.0
    worse = delta if lower else -delta
    apart = all(better(c, p) for c in cs for p in ps)
    if pm and (pq3 - pq1) / abs(pm) > bound and not apart:
        verdict = "unresolved (parent spread wider than the bound)"
    elif worse > bound:
        verdict = "REGRESSION (worse by more than the bound)"
    elif len(both) >= 10 and wins >= 0.9 * len(both) and abs(cm - pm) > pq3 - pq1:
        verdict = "better (wins >= 9/10, medians apart by more than the parent's quartile range)"
    else:
        verdict = "no worse than the bound"
    print(f"{name:<12} {pm:>12.4f} [{pq1:>9.4f}..{pq3:>9.4f}] {cm:>12.4f} [{cq1:>9.4f}..{cq3:>9.4f}] "
          f"{delta:>+7.1%} {wins:>5} {ties:>5}  {verdict}")
# How far each side got: memory that grows with the run (retained spans and
# events) reads higher on the side that completed more operations.
done = {side: [r["attempted"] for r in runs if r and "attempted" in r]
        for side, runs in (("parent", parent), ("change", change))}
if all(done.values()):
    print("operations completed (median `attempted`): " +
          ", ".join(f"{side} {statistics.median(xs):g}" for side, xs in done.items()))
PY
