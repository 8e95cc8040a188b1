#!/usr/bin/env bash
# Build/test the workspace in a container with no crates.io access.
#
# Copies the repo to a mirror directory, rewrites the root
# [workspace.dependencies] so external crates resolve to the stub crates in
# tools/offline-stubs/, drops Cargo.lock (it pins registry sources), and runs
# cargo fully offline. The mirror lives at a stable path with an external
# CARGO_TARGET_DIR so incremental builds survive re-syncs.
#
# Usage: scripts/offline_mirror.sh <cargo args...>
#   e.g. scripts/offline_mirror.sh test -q --workspace
#        scripts/offline_mirror.sh run --release -p lite-bench --bin rag_bench
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
MIRROR="${LITE_MIRROR_DIR:-/tmp/lite-mirror}"

mkdir -p "$MIRROR/repo" "$MIRROR/stubs" "$MIRROR/target"

# Sync sources (tar, not rsync: the container has no rsync). --delete
# semantics via a clean copy of tracked dirs only; target/ lives outside.
rm -rf "$MIRROR/repo"
mkdir -p "$MIRROR/repo"
tar -C "$ROOT" --exclude=.git --exclude=target --exclude=tools/offline-stubs \
    -cf - . | tar -C "$MIRROR/repo" -xf -
rm -rf "$MIRROR/stubs"
cp -a "$ROOT/tools/offline-stubs" "$MIRROR/stubs"

cd "$MIRROR/repo"
rm -f Cargo.lock

# Point external workspace deps at the stubs. Member manifests all use
# `dep.workspace = true`, so the root manifest is the only rewrite site.
sed -i \
  -e 's|^rand = .*$|rand = { path = "../stubs/rand" }|' \
  -e 's|^rand_distr = .*$|rand_distr = { path = "../stubs/rand_distr" }|' \
  -e 's|^proptest = .*$|proptest = { path = "../stubs/proptest" }|' \
  Cargo.toml

export CARGO_NET_OFFLINE=true
export CARGO_TARGET_DIR="$MIRROR/target"
exec cargo "$@"
