#!/usr/bin/env bash
# Alternating parent/change benchmark pairs: what a perf PR quotes.
#
#   ci/abpairs.sh <workload> <pairs> [parent-rev]
#
# Lays two trees out side by side under .bench_build/ (the benchmark's own
# scratch directory, ignored by git) — the committed files of parent-rev,
# and a copy of this checkout as it stands, uncommitted edits included —
# then for i = 1..pairs runs `bash bench/run.sh -workload W -seed i` once in
# each, swapping which side goes first every pair. Both sides run from a
# fresh directory because where a tree sits shows in the numbers: svc_mem
# read 3% slower from the checkout itself than from a copy of it. Prints
# every run, then each end-to-end metric's median and quartiles per side
# and how many pairs the change won. Then, per metric, the median of the
# per-pair change/parent ratios (absolute numbers drift between sets of
# pairs; the ratio is what compares) and a verdict under the house rule:
# "gain" when the change is better in at least 9 of 10 pairs and its median
# is better than the parent's by more than the parent's interquartile range;
# "unresolved" when its median is worse than the parent's by more than the
# metric's bound, or when either side's interquartile range is wider than
# the bound and not every change run beats every parent run; "within bound"
# otherwise. Which way is better, and the bound, come from BENCHMARK.json.
# The last line on stdout is the trajectory record: one JSON object with the
# workload, the parent SHA, the pair count, per end-to-end metric each
# side's q1/median/q3, the per-pair change/parent ratios (in seed order),
# the wins and the verdict, and the count of failed runs. Append it to
# BENCH_trajectory.jsonl to keep it:
#
#   ci/abpairs.sh svc_mem 5 | tail -n 1 >> BENCH_trajectory.jsonl
#
# Exits non-zero if any run reports failed > 0 (or did not finish), or if a
# metric's ratio count differs from the pair count.
#
# parent-rev defaults to HEAD when the checkout has uncommitted changes
# (the change is the working tree) and to HEAD~1 when it is clean (the
# change is the last commit).
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
workload=${1:?usage: ci/abpairs.sh <workload> <pairs> [parent-rev]}
pairs=${2:?usage: ci/abpairs.sh <workload> <pairs> [parent-rev]}
if [ $# -ge 3 ]; then
	rev=$3
elif git -C "$root" diff --quiet HEAD; then
	rev=HEAD~1
else
	rev=HEAD
fi
sha=$(git -C "$root" rev-parse --short "$rev^{commit}")

trees=$root/.bench_build/abpairs
parent=$trees/parent change=$trees/change
rm -rf "$trees"
trap 'rm -rf "$trees"' EXIT
mkdir -p "$parent" "$change"
git -C "$root" archive "$sha" | tar -x -C "$parent"
tar -C "$root" --exclude=./.git --exclude=./.bench_build -cf - . | tar -x -C "$change"
echo "parent $sha and the working tree, under $trees" >&2

runs=$trees/runs.txt
: > "$runs"

# one <side> <tree> <seed>: a run's result object is the last line it prints.
one() {
	local out
	out=$(bash "$2/bench/run.sh" -workload "$workload" -seed "$3" 2>/dev/null | tail -n 1) || true
	echo "$1 $3 ${out:-null}" | tee -a "$runs" >&2
}

for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		one parent "$parent" "$i"
		one change "$change" "$i"
	else
		one change "$change" "$i"
		one parent "$parent" "$i"
	fi
done

python3 - "$runs" "$root/BENCHMARK.json" "$workload" "$sha" "$pairs" <<'PY'
import json, statistics, sys

sides = {"parent": {}, "change": {}}
bad = 0
for line in open(sys.argv[1]):
    side, seed, obj = line.split(" ", 2)
    res = json.loads(obj)
    if not res or res.get("failed", 1) > 0 or not res.get("correct"):
        bad += 1
        continue
    sides[side][int(seed)] = {k: m["value"] for k, m in res["metrics"].items()}

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], statistics.median(xs), q[2]

spec = {m["name"]: m for m in json.load(open(sys.argv[2]))["end_to_end"]}
higher_is_better = {name for name, m in spec.items() if m["better"] == "higher"}
names = sorted({k for runs in sides.values() for m in runs.values() for k in m})
print(f"{'metric':<16}{'side':<8}{'q1':>10}{'median':>10}{'q3':>10}   change vs parent")
for name in names:
    med = {}
    for side in ("parent", "change"):
        xs = [m[name] for m in sides[side].values() if name in m]
        if not xs:
            continue
        q1, med[side], q3 = quartiles(xs)
        note = ""
        if side == "change" and med.get("parent"):
            both = sorted(set(sides["parent"]) & set(sides["change"]))
            sign = 1 if name in higher_is_better else -1
            wins = sum(sign * (sides["change"][s][name] - sides["parent"][s][name]) > 0 for s in both)
            note = f"   {100 * (med['change'] / med['parent'] - 1):+.1f}%, better in {wins}/{len(both)} pairs"
        print(f"{name:<16}{side:<8}{q1:>10.4g}{med[side]:>10.4g}{q3:>10.4g}{note}")

# The verdicts: one line per end-to-end metric both sides reported.
both = sorted(set(sides["parent"]) & set(sides["change"]))
print(f"{'metric':<16}{'pair ratio':>11}   verdict (gain: better in >= 9/10 pairs and medians apart by more than the parent's IQR)")
npairs = int(sys.argv[5])
record = {"workload": sys.argv[3], "parent": sys.argv[4], "pairs": npairs, "metrics": {}, "failed": bad}
for name in names:
    pairs = [s for s in both if name in sides["parent"][s] and name in sides["change"][s]]
    if name not in spec:
        continue
    ratios = [sides["change"][s][name] / sides["parent"][s][name] for s in pairs if sides["parent"][s][name] != 0]
    record["metrics"][name] = {"ratios": [round(r, 6) for r in ratios]}
    if not pairs or len(ratios) < len(pairs):
        continue
    sign = 1 if name in higher_is_better else -1
    ratio = statistics.median(ratios)
    wins = sum(sign * (sides["change"][s][name] - sides["parent"][s][name]) > 0 for s in pairs)
    parent = [sides["parent"][s][name] for s in pairs]
    change = [sides["change"][s][name] for s in pairs]
    q1, parent_med, q3 = quartiles(parent)
    c1, change_med, c3 = quartiles(change)
    gap = sign * (change_med - parent_med)
    spread = max((q3 - q1) / parent_med, (c3 - c1) / change_med if change_med else 0)
    bound = spec[name]["bound"]
    separated = min(sign * x for x in change) > max(sign * x for x in parent)
    if 10 * wins >= 9 * len(pairs) and gap > q3 - q1:
        verdict = "gain"
    elif -gap > bound * parent_med or (spread > bound and not separated):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    print(f"{name:<16}{ratio:>11.4f}   {verdict}: better in {wins}/{len(pairs)} pairs, medians "
          f"{gap:+.4g} apart (+ is better), parent IQR {q3 - q1:.4g}, spread {100 * spread:.1f}%, bound {100 * bound:g}%")
    record["metrics"][name].update({"parent": {"q1": q1, "median": parent_med, "q3": q3},
                                    "change": {"q1": c1, "median": change_med, "q3": c3},
                                    "wins": wins, "verdict": verdict})
print(json.dumps(record, separators=(",", ":")))
short = [name for name, m in record["metrics"].items() if len(m["ratios"]) != npairs]
for name in short:
    print(f"{name}: {len(record['metrics'][name]['ratios'])} ratios for {npairs} pairs", file=sys.stderr)
if bad:
    print(f"{bad} run(s) failed or did not finish", file=sys.stderr)
if bad or short:
    sys.exit(1)
PY
