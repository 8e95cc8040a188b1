#!/usr/bin/env bash
# Parent-vs-change pairs of the repo's benchmark, the way every PR
# measures itself (choosing-metrics §8): one seed per pair, the side that
# runs first alternating, BENCHMARK.json's run length, then for each
# end-to-end metric both medians, both quartile pairs, the change's
# wins / ties / losses, the metric's regression bound, how much of that
# bound the change's median is worse by (negative: better), and the
# verdict: `unresolved` when either side's min..max is wider than the
# bound (both ranges are then printed) unless every run of the change
# beats every run of the parent, else `worse` past the bound, else
# `within`.
#
#   scripts/ledger_pairs.sh [--traced] <parent-checkout> <workload> <pairs> [first-seed]
#
# --traced adds the step every perf PR owes after its pairs: one
# `--trace 1 --seconds 5` run a side (parent first, the first seed) and a
# parent -> change table of the per-layer metrics that moved by more than
# 10 %, each marked better or worse by BENCHMARK.json's direction.
#
# <parent-checkout> is a second copy of the repository at the parent commit
# (`git clone . /root/scratch/parent`); the change is the checkout this
# script lives in. Both sides are driven only through their own
# crates/ledger/run.sh, which builds on first use (~3 min a side). Seeds are
# the primes from [first-seed] (default 7) up. Every run's result line is
# kept in the directory named on the last line. Needs python3 for the
# summary.
set -euo pipefail

traced=0 positional=()
for arg in "$@"; do
    if [ "$arg" = --traced ]; then traced=1; else positional+=("$arg"); fi
done
set -- "${positional[@]}"
if [ $# -lt 3 ]; then
    sed -n '2,26p' "$0" >&2
    exit 2
fi
CHANGE="$(cd "$(dirname "$0")/.." && pwd)"
PARENT="$(cd "$1" && pwd)"
workload="$2" pairs="$3" seed="${4:-7}"
seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$CHANGE/BENCHMARK.json")"
out="$(mktemp -d "${TMPDIR:-/tmp}/ledger-pairs.XXXXXX")"

is_prime() {
    local n=$1 d
    [ "$n" -ge 2 ] || return 1
    for ((d = 2; d * d <= n; d++)); do
        [ $((n % d)) -ne 0 ] || return 1
    done
}

run() { # <side> <checkout> <seed>
    bash "$2/crates/ledger/run.sh" --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 \
        2> "$out/$1.$3.log" | tail -n 1 > "$out/$1.$3.json"
}

until is_prime "$seed"; do seed=$((seed + 1)); done
first_seed="$seed"
for ((i = 0; i < pairs; i++)); do
    until is_prime "$seed"; do seed=$((seed + 1)); done
    if [ $((i % 2)) -eq 0 ]; then
        run parent "$PARENT" "$seed"
        run change "$CHANGE" "$seed"
    else
        run change "$CHANGE" "$seed"
        run parent "$PARENT" "$seed"
    fi
    echo "pair $((i + 1))/$pairs: seed $seed done" >&2
    seed=$((seed + 1))
done

python3 - "$CHANGE/BENCHMARK.json" "$out" "$workload" "$seconds" <<'PY'
import glob, json, os, sys

bench, out, workload, seconds = sys.argv[1:5]
metrics = json.load(open(bench))["end_to_end"]
sides = {}
for side in ("parent", "change"):
    runs = {}
    for path in glob.glob(os.path.join(out, side + ".*.json")):
        runs[int(path.split(".")[-2])] = json.load(open(path))
    sides[side] = runs
seeds = sorted(sides["parent"])
assert seeds == sorted(sides["change"]), "a run is missing"


def quantile(values, q):
    v = sorted(values)
    at = q * (len(v) - 1)
    lo = int(at)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (at - lo)


print(f"{workload}: {len(seeds)} pairs, --seconds {seconds}, seeds {seeds}")
for side, runs in sides.items():
    print(f"  {side}: failed {sum(r['failed'] for r in runs.values())}"
          f" of {sum(r['attempted'] for r in runs.values())} attempted")
print(f"{'metric':<18}{'parent median [q1..q3]':<36}{'change median [q1..q3]':<36}"
      f"{'W/T/L':<10}{'bound':<12}{'of bound':<10}verdict")
for metric in metrics:
    name, bound = metric["name"], metric["bound"]
    # Every value as a cost, so "worse" is "larger" whichever way is better.
    sign = 1 if metric["better"] == "lower" else -1
    runs = [[sides[side][s]["metrics"][name]["value"] for s in seeds]
            for side in ("parent", "change")]
    medians = [quantile(v, .5) for v in runs]
    cols = [f"{m:.6g} [{quantile(v, .25):.6g}..{quantile(v, .75):.6g}]"
            for v, m in zip(runs, medians)]
    ties = sum(c == p for p, c in zip(*runs))
    wins = sum(sign * c < sign * p for p, c in zip(*runs))
    worse_by = sign * (medians[1] - medians[0]) / abs(medians[0]) if medians[0] else 0.0
    wide = any(m and (max(v) - min(v)) / abs(m) > bound for v, m in zip(runs, medians))
    beats = max(sign * c for c in runs[1]) < min(sign * p for p in runs[0])
    if beats:
        verdict = "within"
    elif wide:
        verdict = "unresolved: " + " vs ".join(f"{min(v):.6g}..{max(v):.6g}" for v in runs)
    else:
        verdict = "worse" if worse_by > bound else "within"
    print(f"{name:<18}{cols[0]:<36}{cols[1]:<36}"
          f"{f'{wins}/{ties}/{len(seeds) - wins - ties}':<10}"
          f"{f'{bound:.0%} ' + metric['better']:<12}{f'{worse_by / bound:+.0%}':<10}{verdict}")
print("rows (parent/change):")
for s in seeds:
    cells = " ".join(
        f"{m['name']} {sides['parent'][s]['metrics'][m['name']]['value']:.6g}"
        f"/{sides['change'][s]['metrics'][m['name']]['value']:.6g}"
        for m in metrics)
    print(f"  s{s} {cells}")
PY

if [ "$traced" = 1 ]; then
    run_traced() { # <side> <checkout>
        bash "$2/crates/ledger/run.sh" --workload "$workload" --seed "$first_seed" --seconds 5 \
            --trace 1 2> "$out/traced.$1.log" | tail -n 1 > "$out/traced.$1.json"
    }
    run_traced parent "$PARENT"
    run_traced change "$CHANGE"
    python3 - "$CHANGE/BENCHMARK.json" "$out" "$workload" "$first_seed" <<'PY'
import json, os, sys

bench, out, workload, seed = sys.argv[1:5]
parent, change = (json.load(open(os.path.join(out, f"traced.{side}.json")))["metrics"]
                  for side in ("parent", "change"))
print(f"{workload}: traced, --seconds 5, seed {seed}; per-layer metrics that moved by more than 10 %")
print(f"{'metric':<42}{'parent':<16}{'change':<16}{'change/parent':<16}")
for layer in json.load(open(bench))["per_layer"]:
    name = layer["name"]
    if name not in parent or name not in change:
        continue
    p, c = parent[name]["value"], change[name]["value"]
    if p == c or (p and abs(c - p) / abs(p) <= 0.10):
        continue
    better = (c < p) == (layer["better"] == "lower")
    ratio = f"{c / p:.2f}x" if p else "from 0"
    print(f"{name:<42}{p:<16.6g}{c:<16.6g}{ratio:<16}{'better' if better else 'worse'}")
PY
fi
echo "result lines kept in $out"
