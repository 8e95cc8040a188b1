# Convenience targets; `make verify` is the full pre-merge gate.

.PHONY: verify fmt lint build test demo analyze rag ledger

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

# Static vs dynamic cold-start extraction: wall-time and StageCode
# equivalence across all 15 workloads; the archived output is
# results/analyze_bench.txt.
analyze:
	cargo run --release -p lite-bench --bin analyze_bench

# ANN retrieval benchmark: 120k-point index recall/latency/serde gates,
# then the leave-one-app-out cold-start head-to-head (zero-execution RAG
# vs default conf, RAG-seeded vs full-budget ACG); the archived output is
# results/rag_bench.txt.
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
