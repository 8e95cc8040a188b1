//! Command line and the one-line result both binaries share.
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` is the
//! benchmark contract; the last line of standard output is one JSON object
//! with exactly `correct`, `attempted`, `failed` and `metrics`. Everything
//! else (environment, failure reasons) goes to standard error.

// The result line is this crate's deliverable: a legitimate stdout owner.
#![allow(clippy::print_stdout)]

use std::process::ExitCode;

use lite_obs::Json;

use crate::run::Outcome;
use crate::setup::RUNNABLE_THREADS;
use crate::Workload;

/// `--seed` when none is given.
pub const DEFAULT_SEED: u64 = 20221;
/// `run_seconds` in `BENCHMARK.json`: the run length [`rounds_for`] maps
/// to [`ROUNDS`] measured rounds.
pub const RUN_SECONDS: u64 = 20;
/// Measured rounds of a run of [`RUN_SECONDS`].
pub const ROUNDS: u64 = 16;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Traffic mix.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Requested measuring time.
    pub seconds: u64,
    /// `--trace 1`: per-layer metrics (the `ledger_trace` binary).
    pub trace: bool,
    /// Where to write the span log (traced runs only).
    pub trace_out: Option<String>,
    /// Overhead probe: request blocks only, print the untraced p50.
    pub requests_only: bool,
    /// The overhead probe's figure, handed to the traced run.
    pub untraced_p50_ms: Option<f64>,
}

/// Parse the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: Workload::WarmMiss,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        trace_out: None,
        requests_only: false,
        untraced_p50_ms: None,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--requests-only" {
            out.requests_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => out.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--trace-out" => out.trace_out = Some(value.clone()),
            "--untraced-p50-ms" => out.untraced_p50_ms = Some(value.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    out.workload = workload.ok_or("--workload is required")?;
    if out.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(out)
}

/// Measured rounds for a requested run length. Work per round is fixed, so
/// run length is set by the round count — and it must be a pure function
/// of `--seconds`, because the model a run ends on (and so `etr_mean`)
/// depends on how many adapt blocks ran.
pub fn rounds_for(seconds: u64) -> usize {
    (((ROUNDS * seconds + RUN_SECONDS / 2) / RUN_SECONDS) as usize).max(2)
}

/// Render the result line.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics = outcome
        .metrics
        .iter()
        .map(|&(name, unit, value)| {
            (name, Json::obj(vec![("value", Json::Num(value)), ("unit", Json::from(unit))]))
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::from(is_correct(outcome))),
        ("attempted", Json::from(outcome.tally.attempted)),
        ("failed", Json::from(outcome.tally.failed)),
        ("metrics", Json::obj(metrics)),
    ])
    .render()
}

fn is_correct(outcome: &Outcome) -> bool {
    outcome.tally.failed == 0
        && outcome.tally.attempted > 0
        && outcome.metrics.iter().all(|(_, _, v)| v.is_finite())
}

fn log_environment(args: &Args, nproc: usize) {
    let loadavg = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let load_1m = loadavg.split_whitespace().next().unwrap_or("?");
    eprintln!(
        "[ledger] workload={} seed={} rounds={} env.nproc={nproc} env.loadavg_1m={load_1m}",
        args.workload.name(),
        args.seed,
        rounds_for(args.seconds)
    );
}

/// Entry point of both binaries; `traced` says which one is running.
pub fn main(traced: bool) -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ledger: {e}");
            return ExitCode::from(2);
        }
    };
    if args.trace != traced {
        eprintln!(
            "ledger: --trace {} belongs to the other binary (use run.sh)",
            u8::from(args.trace)
        );
        return ExitCode::from(2);
    }
    // One client plus one server-side thread must be able to run at once;
    // on fewer cores the figures would measure the scheduler.
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    if nproc < RUNNABLE_THREADS {
        eprintln!("ledger: {RUNNABLE_THREADS} runnable threads planned but nproc = {nproc}");
        return ExitCode::from(3);
    }
    // Placed and unplaced figures must never be compared (see `setup`): a
    // run the kernel will not place prints no result.
    if let Err(why) = crate::setup::place_client() {
        eprintln!("ledger: threads cannot be placed: {why}");
        return ExitCode::from(3);
    }
    log_environment(&args, nproc);
    let rounds = rounds_for(args.seconds);
    if args.requests_only {
        println!("{}", crate::run::untraced_p50_ms(args.workload, args.seed, rounds));
        return ExitCode::SUCCESS;
    }
    let outcome = if traced {
        let Some(untraced) = args.untraced_p50_ms else {
            eprintln!("ledger: --trace 1 needs --untraced-p50-ms (run.sh measures it)");
            return ExitCode::from(2);
        };
        crate::layers::per_layer(
            args.workload,
            args.seed,
            rounds,
            untraced,
            args.trace_out.as_deref(),
        )
    } else {
        crate::run::end_to_end(args.workload, args.seed, rounds)
    };
    for why in outcome.tally.reasons() {
        eprintln!("[ledger] FAILED: {why}");
    }
    println!("{}", result_line(&outcome));
    if is_correct(&outcome) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_contract_flags() {
        let a = parse(&argv("--workload wire_hit --seed 7 --seconds 20 --trace 1")).unwrap();
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Workload::WireHit, 7, 20, true));
        assert!(parse(&argv("--seed 7")).is_err());
        assert!(parse(&argv("--workload nope")).is_err());
        assert!(parse(&argv("--workload warm_miss --trace 2")).is_err());
        assert!(parse(&argv("--workload warm_miss --seconds 0")).is_err());
        assert!(parse(&argv("--workload warm_miss --bogus 1")).is_err());
    }

    #[test]
    fn run_length_maps_to_rounds() {
        assert_eq!(rounds_for(RUN_SECONDS), ROUNDS as usize);
        assert_eq!(rounds_for(10), 8);
        assert_eq!(rounds_for(1), 2);
        assert_eq!(rounds_for(60), 48);
        assert_eq!(rounds_for(25), 20);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut tally = crate::check::Tally::default();
        tally.count(Ok(()));
        let outcome = Outcome { metrics: vec![("setup_s", "s", 1.25)], tally };
        assert_eq!(
            result_line(&outcome),
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"setup_s":{"value":1.25,"unit":"s"}}}"#
        );
    }
}
