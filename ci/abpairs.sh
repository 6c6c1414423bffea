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
# and how many pairs the change won. Exits non-zero if any run reports
# failed > 0 (or did not finish).
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

python3 - "$runs" <<'PY'
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

higher_is_better = {"runs_per_s"}
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
if bad:
    print(f"{bad} run(s) failed or did not finish", file=sys.stderr)
    sys.exit(1)
PY
