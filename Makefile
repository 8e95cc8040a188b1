# Convenience targets; `make verify` is the full pre-merge gate.

.PHONY: verify fmt lint build test quick loadtest chaos scrape tail demo analyze rag prof benchdiff lsp ledger

verify:
	./scripts/verify.sh

fmt:
	cargo fmt --all

lint:
	cargo clippy --workspace --all-targets -- -D warnings

build:
	cargo build --release

test:
	cargo test -q --workspace

# Smoke-run every experiment binary with shrunken settings.
quick:
	LITE_BENCH_QUICK=1 cargo run --release -p lite-bench --bin fig01_knob_surface
	LITE_BENCH_QUICK=1 cargo run --release -p lite-bench --bin fig09_augmentation

# Load-test the tuning service (lite-serve): N client threads, batched
# inference, at least one background hot-swap; manifest goes to
# results/serve_loadtest.manifest.jsonl.
loadtest:
	cargo run --release -p lite-bench --bin serve_loadtest

# Chaos scenario: the service under an armed fault injector (torn frames,
# updater panics, failed swaps, scoring failures, simulator wounds) with
# retrying circuit-breaking clients; fails on any permanently lost request
# or Internal error. Manifest goes to results/chaos_loadtest.manifest.jsonl.
chaos:
	cargo run --release -p lite-bench --bin chaos_loadtest

# Telemetry-plane scenario: scrape the stats/metrics/trace/health admin
# ops under recommend traffic while induced prediction drift triggers a
# hot-swap; writes results/telemetry_scrape.{manifest.jsonl,prom,trace.json}.
scrape:
	cargo run --release -p lite-bench --bin telemetry_scrape

# Tail-forensics scenario: traced load against the serve plane, per-phase
# latency attribution, slow-request exemplar capture, and the tracing
# overhead gate (<5% vs an untraced server); writes
# results/tail_forensics.{manifest.jsonl,trace.json}.
tail:
	cargo run --release -p lite-bench --bin tail_forensics

# Static vs dynamic cold-start extraction (plus the incremental
# re-analysis latency section): wall-time, StageCode equivalence and the
# editor-loop p99 budget across all 15 workloads; manifest goes to
# results/analyze_bench.manifest.jsonl.
analyze:
	cargo run --release -p lite-bench --bin analyze_bench

# Build the LSP server binary and run its scripted stdio session test.
# Wire the built binary into an editor as a language server command:
# target/release/lite-lsp (stdio transport).
lsp:
	cargo build --release -p lite-lsp
	LITE_LSP_QUICK=1 cargo test --release -q -p lite-lsp --test session

# ANN retrieval benchmark: 120k-point index recall/latency/serde gates,
# then the leave-one-app-out cold-start head-to-head (zero-execution RAG
# vs default conf, RAG-seeded vs full-budget ACG); manifest goes to
# results/rag_bench.manifest.jsonl.
rag:
	cargo run --release -p lite-bench --bin rag_bench

# Profiling plane: run the <5% overhead gate for the sampling profiler,
# then refresh the loadtest flamegraph artifacts
# (results/serve_loadtest.{flame.svg,folded}).
prof:
	cargo test --release -p lite-obs --test prof_overhead
	cargo run --release -p lite-bench --bin serve_loadtest

# Compare the two newest states of a manifest: BASE/CAND default to the
# loadtest manifest compared against itself (a smoke of the tool);
# override on the command line, e.g.
#   make benchdiff BASE=old.jsonl CAND=results/serve_loadtest.manifest.jsonl
BASE ?= results/serve_loadtest.manifest.jsonl
CAND ?= results/serve_loadtest.manifest.jsonl
benchdiff:
	cargo run --release -p benchdiff -- $(BASE) $(CAND)

# The repo's benchmark (BENCHMARK.json): one end-to-end run per workload
# at the benchmark's own run length; the last stdout line of each is its
# result object. Method and metrics: crates/ledger/README.md.
ledger:
	for w in warm_miss wire_hit cold_source tuning_loop; do \
		bash crates/ledger/run.sh --workload $$w --seed 7 --seconds 20 --trace 0 || exit 1; \
	done

# Interactive end-to-end demo of the tuning service example.
demo:
	cargo run --release --example tuning_service
