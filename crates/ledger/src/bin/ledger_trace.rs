//! Per-layer run (`--trace 1`): the same rounds wrapped in benchmark-side
//! spans plus the layer probes, with every allocation counted.

use lite_obs::prof::TagAlloc;

#[global_allocator]
static ALLOC: TagAlloc<std::alloc::System> = TagAlloc::new(std::alloc::System);

fn main() -> std::process::ExitCode {
    lite_ledger::cli::main(true)
}
