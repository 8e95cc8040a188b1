#!/usr/bin/env bash
# The benchmark's one command:
#
#   crates/ledger/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
#
# Builds the two ledger binaries once per checkout with
# scripts/offline_mirror.sh (release, offline, against tools/offline-stubs),
# then execs the binary directly: build time is outside every metric. The
# last line of stdout is the result object.
#
# The mirror lives inside the checkout's own build directory, so alternating
# parent/change checkouts never rebuild each other and nothing is written
# outside the checkout.
#
# --trace 1 first runs a short untraced probe (request blocks only) so the
# traced run can report trace.overhead_ratio against the untraced binary
# on the same machine, same seed, same minute.
set -euo pipefail

HERE="$(cd "$(dirname "$0")" && pwd)"
ROOT="$(cd "$HERE/../.." && pwd)"
SOURCES=(Cargo.toml crates tools/offline-stubs scripts/offline_mirror.sh)

for need in "${SOURCES[@]}" crates/serve/Cargo.toml crates/lite/Cargo.toml; do
    if [ ! -e "$ROOT/$need" ]; then
        echo "ledger: $ROOT/$need is missing: the benchmark needs the whole repository" >&2
        exit 2
    fi
done

workload="" seed="" trace=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    case "${args[i]}" in
        --workload) workload="${args[i + 1]:-}" ;;
        --seed) seed="${args[i + 1]:-}" ;;
        --trace) trace="${args[i + 1]:-}" ;;
    esac
done

TARGET="${CARGO_TARGET_DIR:-.bench_build}"
case "$TARGET" in
    /*) ;;
    *) TARGET="$ROOT/$TARGET" ;;
esac
# offline_mirror.sh copies the whole checkout into the mirror and skips
# every directory named `target`: under that name the mirror can sit
# inside the checkout without being copied into itself.
MIRROR="$TARGET/target/ledger-mirror"
BIN="$MIRROR/target/release"
# Touched after every successful build; a source newer than it means the
# binaries may be stale (their own mtime does not move when cargo finds
# nothing to do).
STAMP="$MIRROR/built"

stale() {
    [ -x "$BIN/ledger" ] && [ -x "$BIN/ledger_trace" ] && [ -e "$STAMP" ] || return 0
    local newer
    newer="$(cd "$ROOT" && find "${SOURCES[@]}" -type f -newer "$STAMP" -print -quit)"
    [ -n "$newer" ]
}

if stale; then
    if ! grep -q -- '--exclude=target ' "$ROOT/scripts/offline_mirror.sh"; then
        echo "ledger: scripts/offline_mirror.sh no longer skips directories named target" >&2
        exit 2
    fi
    mkdir -p "$MIRROR"
    started="$MIRROR/build-started"
    touch "$started"
    LITE_MIRROR_DIR="$MIRROR" "$ROOT/scripts/offline_mirror.sh" build --release -p lite-ledger >&2
    mv "$started" "$STAMP" # a source edited during the build stays newer
fi

if [ "$trace" = 1 ]; then
    untraced="$("$BIN/ledger" --workload "$workload" ${seed:+--seed "$seed"} --seconds 5 --requests-only)"
    exec "$BIN/ledger_trace" "$@" --untraced-p50-ms "$untraced"
fi
exec "$BIN/ledger" "$@"
