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
#   4. Every request phase in crates/obs/src/trace.rs pairs with a
#      `serve.phase.<name>_ns` histogram literal in the same file. A phase
#      without a histogram (or the reverse) silently drops its latency
#      attribution from the tail-forensics breakdown.
#   5. The retrieval metric namespace is closed: every registered series
#      under `rag.` or `serve.retrieve.` must be one of the canonical
#      names listed below, and all canonical names must be registered
#      somewhere. A typo'd or ad-hoc series would silently fork the
#      dashboards that key on these families.
#   6. The profiling/SLO metric namespace is closed the same way: every
#      series under `obs.prof.` or `serve.slo.` must match the canonical
#      list, and every canonical name must be registered. Burn-rate
#      alerting keys on `serve.slo.alert`; a renamed gauge would mute
#      the alert without failing any test.
#   7. The sharded-serving metric namespace is closed the same way: every
#      series under `serve.shard.` must match the canonical list, and
#      every canonical name must be registered. The v3 loadtest gate and
#      the inline fast-path accounting key on these families.
#   8. The interactive-analysis metric namespace is closed the same way:
#      every series under `analyze.fix.` or `lsp.` must match the
#      canonical list, and every canonical name must be registered. The
#      editor surface is driven by external clients, so a renamed series
#      breaks dashboards without failing any Rust test.
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

# -- 4. phase ↔ histogram pairing -------------------------------------------
trace_rs=crates/obs/src/trace.rs
phase_names=$(grep -oE 'Phase::[A-Za-z]+ => "[a-z_]+"' "$trace_rs" \
    | sed -E 's/.*"([a-z_]+)".*/\1/' | sort)
metric_names=$(grep -oE 'Phase::[A-Za-z]+ => "serve\.phase\.[a-z_]+_ns"' "$trace_rs" \
    | sed -E 's/.*serve\.phase\.([a-z_]+)_ns.*/\1/' | sort)
if [ -z "$phase_names" ] || [ "$phase_names" != "$metric_names" ]; then
    echo "lint: Phase::name() and Phase::metric_name() out of sync in $trace_rs"
    echo "      (every phase needs a serve.phase.<name>_ns histogram literal):"
    diff <(echo "$phase_names") <(echo "$metric_names") | sed 's/^/  /' || true
    fail=1
fi

# -- 5. retrieval metric namespace is closed --------------------------------
canonical_retrieval='rag.index_size
rag.inserts
rag.search_ns
rag.searches
serve.retrieve.errors
serve.retrieve.latency_ns
serve.retrieve.neighbors
serve.retrieve.requests'
registered_retrieval=$(grep -rhoE '\.(counter|gauge|histogram)\("(rag\.|serve\.retrieve\.)[^"]*"' \
    crates --include='*.rs' | sed -E 's/.*"([^"]+)"/\1/' | sort -u)
if [ "$registered_retrieval" != "$canonical_retrieval" ]; then
    echo "lint: retrieval metric series diverge from the canonical list"
    echo "      (update scripts/lint.sh rule 5 together with any rag.*/serve.retrieve.* rename):"
    diff <(echo "$canonical_retrieval") <(echo "$registered_retrieval") | sed 's/^/  /' || true
    fail=1
fi

# -- 6. profiling/SLO metric namespace is closed ----------------------------
canonical_slo='obs.prof.alloc_bytes
obs.prof.allocs
obs.prof.samples
obs.prof.stacks
obs.prof.threads
obs.prof.torn
obs.prof.truncated
serve.slo.alert
serve.slo.alert_ticks
serve.slo.burn_fast
serve.slo.burn_slow
serve.slo.good_fraction
serve.slo.ticks
serve.slo.window_p50_ns
serve.slo.window_p999_ns
serve.slo.window_p99_ns
serve.slo.window_rate'
registered_slo=$(grep -rhoE '\.(counter|gauge|histogram)\("(obs\.prof\.|serve\.slo\.)[^"]*"' \
    crates --include='*.rs' | sed -E 's/.*"([^"]+)"/\1/' | sort -u)
if [ "$registered_slo" != "$canonical_slo" ]; then
    echo "lint: profiling/SLO metric series diverge from the canonical list"
    echo "      (update scripts/lint.sh rule 6 together with any obs.prof.*/serve.slo.* rename):"
    diff <(echo "$canonical_slo") <(echo "$registered_slo") | sed 's/^/  /' || true
    fail=1
fi

# -- 7. sharded-serving metric namespace is closed --------------------------
canonical_shard='serve.shard.count
serve.shard.inline
serve.shard.requests
serve.shard.resp_hits
serve.shard.resp_misses'
registered_shard=$(grep -rhoE '\.(counter|gauge|histogram)\("serve\.shard\.[^"]*"' \
    crates --include='*.rs' | sed -E 's/.*"([^"]+)"/\1/' | sort -u)
if [ "$registered_shard" != "$canonical_shard" ]; then
    echo "lint: sharded-serving metric series diverge from the canonical list"
    echo "      (update scripts/lint.sh rule 7 together with any serve.shard.* rename):"
    diff <(echo "$canonical_shard") <(echo "$registered_shard") | sed 's/^/  /' || true
    fail=1
fi

# -- 8. interactive-analysis metric namespace is closed ---------------------
canonical_interactive='analyze.fix.applied
analyze.fix.passes
analyze.fix.planned
analyze.fix.rejected
lsp.code_actions
lsp.diagnostics_published
lsp.hover
lsp.requests
lsp.update_us'
registered_interactive=$(grep -rhoE '\.(counter|gauge|histogram)\("(analyze\.fix\.|lsp\.)[^"]*"' \
    crates --include='*.rs' | sed -E 's/.*"([^"]+)"/\1/' | sort -u)
if [ "$registered_interactive" != "$canonical_interactive" ]; then
    echo "lint: interactive-analysis metric series diverge from the canonical list"
    echo "      (update scripts/lint.sh rule 8 together with any analyze.fix.*/lsp.* rename):"
    diff <(echo "$canonical_interactive") <(echo "$registered_interactive") | sed 's/^/  /' || true
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "lint: FAILED"
    exit 1
fi
echo "lint: OK"
