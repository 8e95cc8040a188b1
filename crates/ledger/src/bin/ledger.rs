//! End-to-end run (`--trace 0`): untraced, system allocator.

fn main() -> std::process::ExitCode {
    lite_ledger::cli::main(false)
}
