#!/usr/bin/env bash
# Full verification gate: formatting and lints first (cheap, catch the
# most churn), then the tier-1 build + test pass from ROADMAP.md, two short
# runs of the repo's benchmark, the two experiment smokes whose gates no
# test holds, and an informational code-line census.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> scripts/lint.sh (workspace invariant gate + selftest)"
./scripts/lint.sh
./scripts/lint.sh --selftest

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

if [ "$(uname -m)" = x86_64 ]; then
    echo "==> tiles: AVX code is 8 lanes wide and branch-free"
    # Every tile entry that `row_tiles!` lists in crates/nn/src/tensor.rs
    # (`row_tile_avx_<width>` for a product's rows, `col_tile_avx_<width>`
    # for the backward's `xᵀ · g`, one of each a width) must be in the
    # binary, multiply and add in ymm registers (width 1, one output a row,
    # has no lanes to fill) and hold no float compare: a zero test on `a`
    # inside a tile compiles to one, and made the loop mispredict. An entry
    # in the binary that the list does not name fails too.
    expected="$(awk '/^row_tiles!\($/ { on = 1; next } on && /^\);$/ { exit } on' \
        crates/nn/src/tensor.rs | grep -o '[a-z]*_tile_avx_[0-9]*' | tr '\n' ' ')"
    cargo build --release -q --example weight_digest
    objdump -d --no-show-raw-insn -C target/release/examples/weight_digest | awk -v expected="$expected" '
        /^[0-9a-f]+ <lite_nn::tensor::[a-z]+_tile_avx_[0-9]+>:$/ {
            tile = $2; gsub(/^<lite_nn::tensor::|>:$/, "", tile)
            found[tile] = 1; next
        }
        /^$/ { tile = "" }
        tile != "" && /v(mul|add)ps.*ymm/ { lanes[tile]++ }
        tile != "" && /\tv?u?comis[sd]|\tv?cmp[a-z]*[ps][sd] / { compares[tile]++ }
        END {
            n = split(expected, names, " ")
            for (i = 1; i <= n; i++) {
                t = names[i]; listed[t] = 1
                ok = found[t] && compares[t] == 0 && (t ~ /_1$/ || lanes[t] > 0)
                printf "  %-18s %3d ymm multiplies/adds, %d float compares  %s\n",
                    t, lanes[t], compares[t], !found[t] ? "MISSING" : ok ? "ok" : "FAIL"
                bad += !ok
            }
            for (t in found) if (!listed[t]) { print "  " t ": not listed in row_tiles!"; bad++ }
            if (n < 12) { print "  expected a row and a column tile for 6 widths, found " n " names"; bad++ }
            exit bad > 0
        }'
fi

echo "==> cargo test -q --workspace"
# --workspace matters: the root is itself a package, so a bare
# `cargo test` would only run the root package's suites.
cargo test -q --workspace

echo "==> ledger smoke (any failed operation fails the gate)"
# Two seconds of the paper's Step 1-4 loop (recommends beside observes, AMU,
# a hot swap under read load) through the benchmark's own command; numbers
# only mean something at the benchmark's run length (`make ledger`).
bash crates/ledger/run.sh --workload tuning_loop --seed 7 --seconds 2 --trace 0
# tuning_loop is in-process; wire_hit is the one workload that opens a
# socket (reactor, framing, client).
bash crates/ledger/run.sh --workload wire_hit --seed 7 --seconds 2 --trace 0

echo "==> static == instrumented extraction gate"
# The static-vs-instrumented run; the binary hard-asserts StageCode
# equivalence on all 15 apps.
cargo run --release -q -p lite-bench --bin analyze_bench > /dev/null

echo "==> rag smoke (index recall/latency/serde gates)"
# A 20k-point ANN index: recall@10 >= 0.95 vs the brute-force oracle,
# single-query p99 < 1 ms, and byte-identical serialize/deserialize, plus
# the retrieval tuner's cold-start ETR gates over two held-out apps.
LITE_BENCH_QUICK=1 cargo run --release -q -p lite-bench --bin rag_bench

echo "==> code-line census (informational)"
./scripts/census.sh

echo "verify: OK"
