#!/usr/bin/env bash
# Workspace invariant gate — cheap textual lints that `cargo clippy` does
# not cover (or that must hold even for code clippy never compiles, like
# cfg'd-out paths). Run standalone or via scripts/verify.sh.
#
# Enforced invariants:
#   1. No `.unwrap()` / `.expect(` on the serve request paths: every
#      source under crates/serve/src/ outside its `#[cfg(test)]` module,
#      except the client side (client.rs, resilience.rs), which no
#      request handled by the server can reach. A panicking worker must
#      never take the service down; poisoned locks are recovered, missing
#      state degrades. Startup/shutdown thread plumbing may panic, but
#      only on lines explicitly marked `// gate: allow(expect)`.
#   2. Every obs metric registration (`registry.counter/gauge/histogram`)
#      uses a name matching ^[a-z][a-z0-9_.]*$ — the Prometheus exporter
#      sanitizes dots, but anything else would silently mangle series.
#   3. No `dbg!(` / `todo!(` anywhere in workspace sources. These are also
#      clippy-denied (dbg_macro, todo), but clippy only sees compiled
#      cfgs; the textual gate holds everywhere.
#   4. The metric namespaces below are closed: every registered series
#      whose name starts with one of a row's prefixes must be one of that
#      row's canonical names, and every canonical name must be registered
#      somewhere. A typo'd or ad-hoc series would silently fork the
#      dashboards and alerts (`serve.slo.alert`) that key on these
#      families, without failing any Rust test.
#
# (Phase ↔ `serve.phase.<name>_ns` histogram pairing needs no rule: both
# expand from one table in crates/obs/src/trace.rs.)
#
# `scripts/lint.sh --selftest` negative-tests the namespace gate: it
# seeds a source file registering a bogus `lsp.*` series and asserts the
# gate flags it.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${1:-}" = "--selftest" ]; then
    seeded=crates/lsp/src/__lint_selftest.rs
    trap 'rm -f "$seeded"' EXIT
    printf '// lint.sh selftest seed — never committed\nfn _seed(r: &lite_obs::Registry) { r.counter("lsp.bogus_series").inc(); }\n' > "$seeded"
    if "$0" > /dev/null 2>&1; then
        echo "lint selftest: FAILED — seeded lsp.bogus_series was not flagged"
        exit 1
    fi
    rm -f "$seeded"
    echo "lint selftest: OK (seeded namespace violation flagged)"
    exit 0
fi

fail=0

# -- 1. request-path panic freedom -----------------------------------------
for f in crates/serve/src/*.rs; do
    case "$f" in */client.rs | */resilience.rs) continue ;; esac
    hits=$(awk '/^#\[cfg\(test\)\]/{exit} /\.unwrap\(\)|\.expect\(/ {print FILENAME ":" FNR ": " $0}' "$f" \
        | grep -v 'gate: allow(expect)' || true)
    if [ -n "$hits" ]; then
        echo "lint: panic on a serve request path (recover or mark '// gate: allow(expect)'):"
        echo "$hits"
        fail=1
    fi
done

# -- 2. metric-name hygiene -------------------------------------------------
bad_metrics=$(grep -rnoE '\.(counter|gauge|histogram)\("[^"]*"' crates --include='*.rs' \
    | grep -vE '\.(counter|gauge|histogram)\("[a-z][a-z0-9_.]*"' || true)
if [ -n "$bad_metrics" ]; then
    echo "lint: metric name must match ^[a-z][a-z0-9_.]*\$:"
    echo "$bad_metrics"
    fail=1
fi

# -- 3. no debug/stub macros anywhere --------------------------------------
debris=$(grep -rnE '(^|[^a-zA-Z0-9_!."])(dbg!|todo!)\(' crates src --include='*.rs' || true)
if [ -n "$debris" ]; then
    echo "lint: dbg!/todo! must not ship:"
    echo "$debris"
    fail=1
fi

# -- 4. closed metric namespaces ---------------------------------------------
# One row per family: the prefixes it owns (as a grep -E alternation), then
# its canonical series, sorted.
namespaces='serve\.retrieve\.
serve.retrieve.errors serve.retrieve.latency_ns serve.retrieve.neighbors serve.retrieve.requests
obs\.prof\.|serve\.slo\.
obs.prof.alloc_bytes obs.prof.allocs obs.prof.samples obs.prof.stacks obs.prof.threads obs.prof.torn obs.prof.truncated serve.slo.alert serve.slo.alert_ticks serve.slo.burn_fast serve.slo.burn_slow serve.slo.good_fraction serve.slo.ticks serve.slo.window_p50_ns serve.slo.window_p999_ns serve.slo.window_p99_ns serve.slo.window_rate
serve\.shard\.
serve.shard.count serve.shard.inline serve.shard.requests serve.shard.resp_hits serve.shard.resp_misses
lsp\.
lsp.code_actions lsp.diagnostics_published lsp.hover lsp.requests lsp.update_us'
while read -r prefixes && read -r canonical; do
    canonical=$(echo "$canonical" | tr ' ' '\n')
    registered=$(grep -rhoE "\.(counter|gauge|histogram)\(\"($prefixes)[^\"]*\"" \
        crates --include='*.rs' | sed -E 's/.*"([^"]+)"/\1/' | sort -u)
    if [ "$registered" != "$canonical" ]; then
        echo "lint: metric series under ${prefixes//\\/} diverge from the canonical list"
        echo "      (update scripts/lint.sh rule 4 together with any rename):"
        diff <(echo "$canonical") <(echo "$registered") | sed 's/^/  /' || true
        fail=1
    fi
done <<< "$namespaces"

if [ "$fail" -ne 0 ]; then
    echo "lint: FAILED"
    exit 1
fi
echo "lint: OK"
