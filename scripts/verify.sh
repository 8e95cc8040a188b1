#!/usr/bin/env bash
# Full verification gate: formatting and lints first (cheap, catch the
# most churn), then the tier-1 build + test pass from ROADMAP.md.
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

echo "==> cargo test -q --workspace"
# --workspace matters: the root is itself a package, so a bare
# `cargo test` would only run the root package's suites.
cargo test -q --workspace

echo "==> chaos smoke (lost/Internal requests fail the gate)"
# A few seconds of the chaos load test: fault injection, retries, circuit
# breaking, degradation. The binary exits non-zero if any request is lost
# forever or any Internal error reaches a client.
LITE_BENCH_QUICK=1 cargo run --release -q -p lite-bench --bin chaos_loadtest -- --smoke

echo "==> tail-forensics smoke (attribution + overhead gates)"
# Quick traced load over TCP: asserts per-phase spans cover >=95% of the
# slowest request's end-to-end time and tracing costs <5% of throughput
# versus an untraced server.
LITE_BENCH_QUICK=1 cargo run --release -q -p lite-bench --bin tail_forensics

echo "==> profiler overhead gate (<5% vs disabled guards)"
# Paired-batch median timing of tag enter/exit under a live sampler
# thread versus disabled-profiler guards; release mode so the gate
# measures the shipped code, not debug-assert overhead.
cargo test --release -q -p lite-obs --test prof_overhead

echo "==> benchdiff gates (self-compare clean; seeded regression caught)"
# The diff tool itself is part of the contract: a manifest compared
# against itself must be clean, and a seeded throughput collapse must
# exit non-zero — otherwise regressions would sail through CI silently.
cargo build --release -q -p benchdiff
bd="${CARGO_TARGET_DIR:-target}/release/benchdiff"
manifest=results/serve_loadtest.manifest.jsonl
if [ -e "$manifest" ]; then
    "$bd" "$manifest" "$manifest" > /dev/null
    seeded=$(mktemp)
    sed -E 's/"throughput_rps":[0-9.eE+-]+/"throughput_rps":1.0/' "$manifest" > "$seeded"
    if "$bd" "$manifest" "$seeded" > /dev/null; then
        echo "benchdiff: FAILED to flag a seeded throughput regression"
        rm -f "$seeded"
        exit 1
    fi
    rm -f "$seeded"
else
    echo "note: $manifest missing — run 'make loadtest' to enable the benchdiff gate"
fi

echo "==> protocol v3 smoke + steady-p99 gate vs committed v2 baseline"
# Quick v3 loadtest (binary wire, pipelining, sharded dispatch, v2 JSON
# client sanity) into a throwaway results dir, then diff against the
# frozen pre-v3 baseline. The wide tolerance neutralizes throughput
# comparisons (quick mode serves a fraction of the full run); the strict
# per-metric rule is the gate: steady-state p99 must never exceed the
# v2 baseline's.
v3_results=$(mktemp -d)
LITE_BENCH_QUICK=1 LITE_BENCH_RESULTS="$v3_results" \
    cargo run --release -q -p lite-bench --bin serve_loadtest
"$bd" --tolerance 100 --rule steady_p99_ms=lower:0 \
    results/serve_loadtest_v2_baseline.manifest.jsonl \
    "$v3_results/serve_loadtest.manifest.jsonl"
rm -rf "$v3_results"

echo "==> lite-lsp scripted session smoke (stdio, real binary)"
# End-to-end editor session over stdio: a document seeded with all five
# lints publishes every rule, the fix-all code action leaves only the
# non-mechanically-fixable diagnostics, hover returns a NECS-predicted
# runtime, a broken edit degrades to a syntax-error diagnostic, and the
# server exits cleanly. LITE_LSP_QUICK keeps hover's scorer training small.
LITE_LSP_QUICK=1 cargo test --release -q -p lite-lsp --test session

echo "==> incremental re-analysis latency gate (p99 < 5 ms + benchdiff)"
# Quick editor-loop latency run into a throwaway results dir; the binary
# hard-asserts incremental p99 < 5 ms, then benchdiff guards drift against
# the committed manifest (wide tolerance neutralizes the cold-start
# timing fields; the strict rule is the incremental p99 budget).
if [ -e results/analyze_bench.manifest.jsonl ]; then
    an_results=$(mktemp -d)
    LITE_BENCH_QUICK=1 LITE_BENCH_RESULTS="$an_results" \
        cargo run --release -q -p lite-bench --bin analyze_bench > /dev/null
    "$bd" --tolerance 1000 --rule incremental_p99_ms=lower:400 \
        results/analyze_bench.manifest.jsonl \
        "$an_results/analyze_bench.manifest.jsonl"
    rm -rf "$an_results"
else
    echo "note: results/analyze_bench.manifest.jsonl missing — run 'make analyze' to enable the gate"
fi

echo "==> rag smoke (index recall/latency/serde gates)"
# Quick ANN index build: recall@10 >= 0.95 vs the brute-force oracle,
# single-query p99 < 1 ms, and byte-identical serialize/deserialize, plus
# a two-app cold-start smoke of the retrieval tuner.
LITE_BENCH_QUICK=1 cargo run --release -q -p lite-bench --bin rag_bench

# Non-fatal reminder: flag run manifests that predate the current commit,
# so stale benchmark evidence is not mistaken for fresh results.
head_ts=$(git log -1 --format=%ct 2>/dev/null || echo 0)
for manifest in results/*.manifest.jsonl; do
    [ -e "$manifest" ] || continue
    if [ "$(stat -c %Y "$manifest" 2>/dev/null || echo 0)" -lt "$head_ts" ]; then
        echo "note: $manifest is older than HEAD — rerun its scenario (make loadtest / make scrape) to refresh"
    fi
done

echo "verify: OK"
