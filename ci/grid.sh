#!/usr/bin/env bash
# Records the engine's Nabbit grid as ratios: BENCH_nabbit.json at the root.
#
#   ci/grid.sh [extra go test flags, e.g. -benchtime 200ms]
#
# Runs internal/sched's BenchmarkGrid at -count 3 -cpu 2 and writes, per
# cell (<graph>/W=<w>/<column>, the -cpu suffix dropped), the median, min
# and max over the three runs of each ratio the cell has:
#   - speedup: T1/TP, the cell's own one-worker pass over its P-worker pass
#     (P>1 columns);
#   - max_speedup: Brent's bound for the graph at P (P>1 columns), over
#     the span of slices on a split cell whose nodes are sliced;
#   - t1_ts: the cell's one-worker time over the serial sweep of its row and
#     W — T1/TS, the work overhead — sample i over serial's sample i of the
#     same invocation. For a P>1 column T1 is speedup × its ns/node; for P=1
#     and walk it is their own ns/node. The serial column is the denominator
#     and holds no ratio.
# A ratio is taken inside one invocation, so it carries between days and
# hosts where ns/op does not. The whole grid takes about 17 minutes on
# 2 vCPUs. internal/sched's TestGridRecordNamesEveryCell fails
# when the file misses a cell of the grid or holds one it no longer has.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out=$(mktemp)
trap 'rm -f "$out"' EXIT
go test -run '^$' -bench '^BenchmarkGrid$' -count 3 -cpu 2 -timeout 60m "$@" ./internal/sched | tee "$out" >&2
python3 - "$out" "$root/BENCH_nabbit.json" "$(go version)" "$(nproc)" "$*" <<'PY'
import json, re, statistics, sys

lines, path, gover, nproc, extra = sys.argv[1:]
runs = {}  # cell -> list of {unit: value}, in run order
for line in open(lines):
    m = re.match(r'^BenchmarkGrid/(\S+?)-\d+\s+\d+\s+(.*)$', line)
    if not m:
        continue
    fields = m.group(2).split()
    units = {fields[i + 1]: float(fields[i]) for i in range(0, len(fields) - 1, 2)}
    runs.setdefault(m.group(1), []).append(units)

def stats(xs):
    return {"median": round(statistics.median(xs), 4), "min": round(min(xs), 4), "max": round(max(xs), 4)}

cells = {}
for cell, samples in runs.items():
    graph, work, col = cell.split('/', 2)
    serial = runs.get(f'{graph}/{work}/serial', [])
    ratios = {}
    for i, u in enumerate(samples):
        if col == 'serial':
            break
        t1 = u['ns/node'] * u.get('speedup', 1)
        if i < len(serial):
            ratios.setdefault('t1_ts', []).append(t1 / serial[i]['ns/node'])
        for unit, key in (('speedup', 'speedup'), ('max-speedup', 'max_speedup')):
            if unit in u:
                ratios.setdefault(key, []).append(u[unit])
    cells[cell] = {k: stats(v) for k, v in sorted(ratios.items())}

if not cells:
    sys.exit('grid.sh: no BenchmarkGrid lines in the output')
record = {
    "command": ("go test -run '^$' -bench '^BenchmarkGrid$' -count 3 -cpu 2 " + extra).strip(),
    "go": gover,
    "nproc": int(nproc),
    "cells": dict(sorted(cells.items())),
}
with open(path, 'w') as f:  # one line per cell, so a re-record diffs by cell
    head = json.dumps({k: v for k, v in record.items() if k != "cells"}, indent=1)[:-2]
    body = ',\n'.join(f'  {json.dumps(c)}: {json.dumps(v)}' for c, v in record["cells"].items())
    f.write(f'{head},\n "cells": {{\n{body}\n }}\n}}\n')
print(f'grid.sh: {len(cells)} cells -> {path}', file=sys.stderr)
PY
