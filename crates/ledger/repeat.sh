#!/usr/bin/env bash
# Repeatability check, the way the driver does it:
#
#   crates/ledger/repeat.sh [N=10] [first_seed=1] > crates/ledger/SPREAD.md
#
# Runs every workload N times, each with another --seed, and does that
# twice (sets A and B, same seeds). Per workload and end-to-end metric it
# prints both medians, their relative gap, each set's spread (distance
# between first and third quartile of the N values, as
# statistics.quantiles(values, n=4) gives them, as a share of their median)
# and the metric's bound from BENCHMARK.json. A spread, or a gap in either
# direction (two sets of the same code should not differ at all), above a
# third of the bound is marked, `setup_s` included. Set A's medians are
# written to crates/ledger/baseline.json.
set -euo pipefail

HERE="$(cd "$(dirname "$0")" && pwd)"
ROOT="$(cd "$HERE/../.." && pwd)"
N="${1:-10}"
FIRST="${2:-1}"
# Scratch space beside the binaries: like run.sh, nothing is written
# outside the checkout's own build directory.
TARGET="${CARGO_TARGET_DIR:-.bench_build}"
case "$TARGET" in
    /*) ;;
    *) TARGET="$ROOT/$TARGET" ;;
esac
OUT="$TARGET/ledger-repeat.$$"
mkdir -p "$OUT"
trap 'rm -rf "$OUT"' EXIT

read -r SECONDS_PER_RUN WORKLOADS < <(python3 - "$ROOT/BENCHMARK.json" <<'PY'
import json, sys
b = json.load(open(sys.argv[1]))
print(b["run_seconds"], " ".join(w["name"] for w in b["workloads"]))
PY
)

for set in A B; do
    for workload in $WORKLOADS; do
        for ((i = 0; i < N; i++)); do
            # A failed run ends the check, with the run's own log as the reason.
            if ! "$HERE/run.sh" --workload "$workload" --seed $((FIRST + i)) \
                --seconds "$SECONDS_PER_RUN" --trace 0 2>"$OUT/log" >"$OUT/out"; then
                echo "repeat: set $set, $workload, seed $((FIRST + i)) failed:" >&2
                cat "$OUT/log" "$OUT/out" >&2
                exit 1
            fi
            tail -n 1 "$OUT/out" >> "$OUT/$set.$workload.jsonl"
        done
    done
done

python3 - "$ROOT/BENCHMARK.json" "$OUT" "$HERE/baseline.json" "$N" "$FIRST" <<'PY'
import json, statistics, sys

bench, out, baseline_path, n, first = sys.argv[1:6]
bench = json.load(open(bench))
bounds = {m["name"]: m for m in bench["end_to_end"]}


def load(set_name, workload):
    runs = [json.loads(line) for line in open(f"{out}/{set_name}.{workload}.jsonl")]
    bad = [r for r in runs if not r["correct"] or r["failed"]]
    assert not bad, f"{workload}: {len(bad)} incorrect run(s) in set {set_name}"
    return {m: [r["metrics"][m]["value"] for r in runs] for m in bounds}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


print(f"# Repeatability of the ledger: {n} seeds from {first}, run twice\n")
print("`gap` = set B's median worse than set A's, as a share of A's (negative: better).")
print("`!` marks a spread, or a gap in either direction, above a third of the bound.\n")
flagged = 0
baseline = {}
for w in (w["name"] for w in bench["workloads"]):
    a, b = load("A", w), load("B", w)
    print(f"## {w}\n")
    print("| metric | unit | median A | median B | gap | spread A | spread B | bound |")
    print("|---|---|---:|---:|---:|---:|---:|---:|")
    baseline[w] = {}
    for m, decl in bounds.items():
        ma, mb = statistics.median(a[m]), statistics.median(b[m])
        gap = (mb - ma) / ma * (1 if decl["better"] == "lower" else -1)
        sa, sb = spread(a[m]), spread(b[m])
        third = decl["bound"] / 3
        flag = lambda v: " !" if abs(v) > third else ""
        flagged += sum(abs(v) > third for v in (gap, sa, sb))
        print(
            f"| `{m}` | {decl['unit']} | {ma:.6g} | {mb:.6g} | {gap:+.2%}{flag(gap)} "
            f"| {sa:.2%}{flag(sa)} | {sb:.2%}{flag(sb)} | {decl['bound']:.0%} |"
        )
        baseline[w][m] = {"value": ma, "unit": decl["unit"]}
    print()
print(f"{flagged} figure(s) marked.")
json.dump({"seeds": [int(first), int(first) + int(n) - 1], "medians": baseline},
          open(baseline_path, "w"), indent=2)
open(baseline_path, "a").write("\n")
PY
