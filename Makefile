# Convenience targets; `make verify` is the full pre-merge gate.

.PHONY: verify fmt lint build test quick demo analyze rag lsp ledger

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
