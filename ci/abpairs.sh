#!/usr/bin/env bash
# Alternating parent/change benchmark pairs: what a perf PR quotes.
#
#   ci/abpairs.sh [-pr N] <workload> <pairs> [parent-rev]
#   ci/abpairs.sh [-pr N] -go <bench-regexp> <pairs> [parent-rev]
#
# Lays two trees out side by side under .bench_build/ (the benchmark's own
# scratch directory, ignored by git) — the committed files of parent-rev,
# and a copy of this checkout as it stands, uncommitted edits included —
# then runs pairs, one side after the other, swapping which side goes first
# every pair. Both sides run from a fresh directory because where a tree
# sits shows in the numbers: svc_mem read 3% slower from the checkout itself
# than from a copy of it.
#
# What a pair runs depends on the mode:
#   - A workload: for i = 1..pairs, `bash bench/run.sh -workload W -seed i`
#     once in each tree. The metrics are the run's; which way is better,
#     and the bound, come from BENCHMARK.json.
#   - -go: the package whose test files define the regexp's top-level
#     benchmark is built once per tree with `go test -c`, and pair i runs
#     each binary once with -test.bench <bench-regexp> -test.benchmem at
#     -test.cpu $(nproc). The metrics are every unit a benchmark line
#     reports: ns/op, B/op, allocs/op and each b.ReportMetric unit. A unit
#     ending in "speedup" is higher-is-better, every other is a cost, and
#     there is no bound. A line's name loses its -cpu suffix, -<digits>, so
#     no sub-benchmark name may end in one.
#
# Prints every run, then each metric's median and quartiles per side and
# how many pairs the change won. Then, per metric, the median of the
# per-pair change/parent ratios (absolute numbers drift between sets of
# pairs; the ratio is what compares) and a verdict under the house rule:
# "gain" when the change is better in at least 9 of 10 pairs and its median
# is better than the parent's by more than the parent's interquartile range.
# With a bound: "unresolved" when its median is worse than the parent's by
# more than the bound, or when either side's interquartile range is wider
# than the bound and not every change run beats every parent run; "within
# bound" otherwise. Without one: "loss" when the parent wins by the same
# rule, "flat" otherwise.
#
# A -go record can hold hundreds of metrics, and five pairs of identical
# trees then read a few "gain" and "loss" by chance. So in -go mode a gain
# or a loss also needs its one-sided sign test over the pairs (ties
# dropped) to reach p <= 0.05 / tested, where tested is how many of the
# record's metrics receive a verdict; otherwise the metric reads "flat".
# The record then carries "tested" and each metric's "p", the smaller of
# the two one-sided p values. Workload mode keeps the rule above as it is.
#
# The last line on stdout is the trajectory record: one JSON object with the
# PR number given by -pr (null without it), the workload or the bench
# regexp, the parent SHA, the pair count, per metric each side's
# q1/median/q3, the per-pair change/parent ratios (in pair order), the wins
# and the verdict, and the count of failed runs. Append it to
# BENCH_trajectory.jsonl to keep it:
#
#   ci/abpairs.sh -pr N svc_mem 5 | tail -n 1 >> BENCH_trajectory.jsonl
#   ci/abpairs.sh -pr N -go 'BenchmarkExecute/fine_' 10 | tail -n 1 >> BENCH_trajectory.jsonl
#
# Exits non-zero if any run failed (a workload run reporting failed > 0 or
# not finishing, a test binary exiting non-zero), or if a metric's ratio
# count differs from the pair count.
#
# parent-rev defaults to HEAD when the checkout has uncommitted changes
# (the change is the working tree) and to HEAD~1 when it is clean (the
# change is the last commit).
set -euo pipefail

usage='usage: ci/abpairs.sh [-pr N] [-go] <workload|bench-regexp> <pairs> [parent-rev]'
pr=null
mode=workload
while [ $# -gt 0 ]; do
	case $1 in
	-pr) pr=${2:?$usage}; shift 2 ;;
	-go) mode=go; shift ;;
	*) break ;;
	esac
done
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
target=${1:?$usage}
pairs=${2:?$usage}
case $pr in null | [0-9]*) ;; *) echo "$usage: -pr takes a number" >&2; exit 2 ;; esac
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

if [ "$mode" = go ]; then
	# The package is the one directory whose test files define the top-level
	# benchmark the regexp names.
	top=${target%%/*}
	top=${top#^}
	top=${top%\$}
	pkg=$(cd "$change" && grep -rl --include='*_test.go' "^func $top(b \*testing.B)" . | xargs -r -n1 dirname | sort -u)
	if [ -z "$pkg" ] || [ "$(echo "$pkg" | wc -l)" -ne 1 ]; then
		echo "abpairs: want one package defining func $top(b *testing.B), found: ${pkg:-none}" >&2
		exit 2
	fi
	# The build cache and temporary files stay under .bench_build, as
	# bench/run.sh keeps them.
	export GOCACHE=$root/.bench_build/gocache GOTMPDIR=$trees TMPDIR=$trees GOTOOLCHAIN=local GOWORK=off
	for side in parent change; do
		(cd "$trees/$side/$pkg" && go test -c -o "$trees/$side.test" .)
	done
	cpu=$(nproc)
	echo "package $pkg, -test.cpu $cpu" >&2
fi

# one <side> <tree> <pair>: appends the side's result object for the pair.
# A workload run's result is the last line it prints; a test binary's
# benchmark lines become an object of the same shape.
one() {
	local out
	if [ "$mode" = go ]; then
		out=$(cd "$2/$pkg" && "$trees/$1.test" -test.run '^$' -test.bench "$target" -test.benchmem \
			-test.cpu "$cpu" -test.timeout 30m 2>/dev/null | python3 -c '
import json, re, sys
metrics = {}
for line in sys.stdin:
    f = line.split()
    if not f or not f[0].startswith("Benchmark") or len(f) < 4:
        continue
    name = re.sub(r"-\d+$", "", f[0])
    for value, unit in zip(f[2::2], f[3::2]):
        metrics[f"{name} {unit}"] = {"value": float(value)}
print(json.dumps({"correct": True, "failed": 0, "metrics": metrics}) if metrics else "null")
') || out=null
	else
		out=$(bash "$2/bench/run.sh" -workload "$target" -seed "$3" 2>/dev/null | tail -n 1) || true
	fi
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

python3 - "$runs" "$root/BENCHMARK.json" "$mode" "$target" "$sha" "$pairs" "$pr" <<'PY'
import json, math, statistics, sys

runs_file, bench_json, mode, target, sha, npairs, pr = sys.argv[1:]
npairs = int(npairs)
sides = {"parent": {}, "change": {}}
bad = 0
for line in open(runs_file):
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

names = sorted({k for runs in sides.values() for m in runs.values() for k in m})
if mode == "go":
    # A speedup is higher-is-better, every other unit a cost; none has a bound.
    spec = {name: {"better": "higher" if name.endswith("speedup") else "lower", "bound": None} for name in names}
else:
    spec = {m["name"]: m for m in json.load(open(bench_json))["end_to_end"]}
higher_is_better = {name for name, m in spec.items() if m["better"] == "higher"}
width = max([16] + [len(n) + 2 for n in names])
print(f"{'metric':<{width}}{'side':<8}{'q1':>10}{'median':>10}{'q3':>10}   change vs parent")
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
        print(f"{name:<{width}}{side:<8}{q1:>10.4g}{med[side]:>10.4g}{q3:>10.4g}{note}")

# The verdicts: one line per metric both sides reported.
both = sorted(set(sides["parent"]) & set(sides["change"]))
print(f"{'metric':<{width}}{'pair ratio':>11}   verdict (gain: better in >= 9/10 pairs and medians apart by more than the parent's IQR)")
record = {"pr": None if pr == "null" else int(pr)}
record.update({"bench": target} if mode == "go" else {"workload": target})
record.update({"parent": sha, "pairs": npairs, "metrics": {}, "failed": bad})
judged = {}
for name in names:
    pairs = [s for s in both if name in sides["parent"][s] and name in sides["change"][s]]
    if name not in spec:
        continue
    ratios = [sides["change"][s][name] / sides["parent"][s][name] for s in pairs if sides["parent"][s][name] != 0]
    record["metrics"][name] = {"ratios": [round(r, 6) for r in ratios]}
    if pairs and len(ratios) == len(pairs):
        judged[name] = (pairs, ratios)

def sign_p(k, n):
    """One-sided sign-test p: the chance of k or more of n fair coin flips."""
    return sum(math.comb(n, i) for i in range(k, n + 1)) / 2 ** n

if mode == "go":
    record["tested"] = len(judged)
alpha = 0.05 / max(len(judged), 1)
for name, (pairs, ratios) in judged.items():
    sign = 1 if name in higher_is_better else -1
    ratio = statistics.median(ratios)
    wins = sum(sign * (sides["change"][s][name] - sides["parent"][s][name]) > 0 for s in pairs)
    losses = sum(sign * (sides["change"][s][name] - sides["parent"][s][name]) < 0 for s in pairs)
    parent = [sides["parent"][s][name] for s in pairs]
    change = [sides["change"][s][name] for s in pairs]
    q1, parent_med, q3 = quartiles(parent)
    c1, change_med, c3 = quartiles(change)
    gap = sign * (change_med - parent_med)
    spread = max((q3 - q1) / parent_med, (c3 - c1) / change_med if change_med else 0)
    bound = spec[name]["bound"]
    separated = min(sign * x for x in change) > max(sign * x for x in parent)
    p_gain, p_loss = sign_p(wins, wins + losses), sign_p(losses, wins + losses)
    # In -go mode a verdict must also be unlikely from noise across the record.
    gain_ok, loss_ok = mode != "go" or p_gain <= alpha, mode != "go" or p_loss <= alpha
    if 10 * wins >= 9 * len(pairs) and gap > q3 - q1 and gain_ok:
        verdict = "gain"
    elif bound is None:
        verdict = "loss" if 10 * losses >= 9 * len(pairs) and -gap > c3 - c1 and loss_ok else "flat"
    elif -gap > bound * parent_med or (spread > bound and not separated):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    bound_note = "no bound" if bound is None else f"bound {100 * bound:g}%"
    if mode == "go":
        bound_note += f", sign-test p {min(p_gain, p_loss):.3g} (needs <= {alpha:.3g})"
    print(f"{name:<{width}}{ratio:>11.4f}   {verdict}: better in {wins}/{len(pairs)} pairs, medians "
          f"{gap:+.4g} apart (+ is better), parent IQR {q3 - q1:.4g}, spread {100 * spread:.1f}%, {bound_note}")
    record["metrics"][name].update({"parent": {"q1": q1, "median": parent_med, "q3": q3},
                                    "change": {"q1": c1, "median": change_med, "q3": c3},
                                    "wins": wins, "verdict": verdict})
    if mode == "go":
        record["metrics"][name]["p"] = round(min(p_gain, p_loss), 6)
print(json.dumps(record, separators=(",", ":")))
short = [name for name, m in record["metrics"].items() if len(m["ratios"]) != npairs]
for name in short:
    print(f"{name}: {len(record['metrics'][name]['ratios'])} ratios for {npairs} pairs", file=sys.stderr)
if bad:
    print(f"{bad} run(s) failed or did not finish", file=sys.stderr)
if bad or short or not names:
    sys.exit(1)
PY
