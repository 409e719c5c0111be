//! End-to-end benchmark ledger. See `e2e/README.md`.
//!
//! ```text
//! e2e run --workload <name> --seed <u64> [--seconds <n>] [--trace [0|1]]
//! e2e run --smoke
//! e2e check [--seed <u64>]
//! ```

mod gen;
mod ladder;
mod report;
mod run;
mod sut;
mod workloads;

use std::process::ExitCode;

use report::{Outcome, RunArgs};

fn usage() -> ExitCode {
    eprintln!(
        "usage: e2e run --workload <{}> --seed <u64> [--seconds <1..60>] [--trace [0|1]]\n\
         \x20      e2e run --smoke\n\
         \x20      e2e check [--seed <u64>]",
        workloads::all()
            .iter()
            .map(|spec| spec.name)
            .collect::<Vec<_>>()
            .join("|")
    );
    ExitCode::from(2)
}

/// Parses `--flag value` pairs; `--trace` and `--smoke` may stand alone.
fn parse(args: &[String]) -> Option<(Option<String>, RunArgs, bool)> {
    let mut workload = None;
    let mut run = RunArgs {
        seed: 42,
        seconds: report::RUN_SECONDS,
        trace: false,
    };
    let mut smoke = false;
    let mut at = 0;
    while at < args.len() {
        let value = args.get(at + 1);
        match args[at].as_str() {
            "--workload" => workload = Some(value?.clone()),
            "--seed" => run.seed = value?.parse().ok()?,
            "--seconds" => run.seconds = value?.parse().ok().filter(|s| (1..=60).contains(s))?,
            "--smoke" => {
                smoke = true;
                at += 1;
                continue;
            }
            "--trace" => match value.map(String::as_str) {
                Some("0") => run.trace = false,
                Some("1") => run.trace = true,
                _ => {
                    run.trace = true;
                    at += 1;
                    continue;
                }
            },
            _ => return None,
        }
        at += 2;
    }
    Some((workload, run, smoke))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return usage();
    };
    let Some((workload, run, smoke)) = parse(rest) else {
        return usage();
    };
    let outcome = match (command.as_str(), workload, smoke) {
        ("run", None, true) => report::smoke(),
        ("run", Some(name), false) => match workloads::by_name(&name) {
            Some(spec) => report::run_and_print(&spec, &run),
            None => return usage(),
        },
        ("check", None, false) => report::check(run.seed),
        _ => return usage(),
    };
    match outcome {
        Outcome::Pass => ExitCode::SUCCESS,
        Outcome::Fail => ExitCode::FAILURE,
    }
}
