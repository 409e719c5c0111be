//! Runs a workload and turns what was measured into the ledger's
//! metrics; the `run`, `run --smoke` and `check` front ends.

use std::path::PathBuf;
use std::time::Instant;

use setsketch::sequence::{ExponentialSpacings, IntervalSampling};
use sketch_cluster::ClusterSketch;

use crate::ladder;
use crate::run::{self, fast_high, fast_low, median, AnySystem, Inputs, Scratch};
use crate::sut::{self, Factory};
use crate::workloads::{self, Kind, Sketch, Spec, SETUP_REPEATS};

/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 10;

#[derive(Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

pub enum Outcome {
    Pass,
    Fail,
}

/// End-to-end metrics: `(name, unit, lower is better, bound)`. Mirrors
/// `BENCHMARK.json`; `tests/smoke.rs` checks the two agree.
pub const END_TO_END: [(&str, &str, bool, f64); 7] = [
    ("setup_s", "s", true, 0.25),
    ("ops_per_s", "1/s", false, 0.25),
    ("write_p50_us", "us", true, 0.25),
    ("read_p50_us", "us", true, 0.25),
    ("bulk_s", "s", true, 0.25),
    ("mem_bytes_per_key", "B", true, 0.05),
    ("answer_err", "ratio", true, 0.15),
];

/// Largest allowed gap between the first-third and last-third block
/// medians of `ops_per_s`: when both runs of a seed exceed it, the
/// stream is not stationary.
pub const MAX_DRIFT: f64 = 0.10;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct RunResult {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Relative gap between early and late block throughput.
    pub drift: f64,
    /// `ops_per_s` of each block, in order.
    pub block_rates: Vec<f64>,
    /// Every `bulk_s` sample, in order.
    pub bulk_samples: Vec<f64>,
    /// Seconds of the measured phase and of the whole run.
    pub measured_s: f64,
    pub total_s: f64,
}

impl RunResult {
    pub fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|metric| metric.name == name)
            .map_or(f64::NAN, |metric| metric.value)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|metric| metric.value.is_finite())
    }
}

/// Directory traces and scratch data go to: `results/` under the
/// working directory, which the repository ignores.
fn results_dir() -> PathBuf {
    PathBuf::from("results")
}

pub fn run_workload(spec: &Spec, args: &RunArgs) -> Result<RunResult, String> {
    match spec.sketch {
        Sketch::One256 => run_with(
            spec,
            args,
            sut::setsketch_factory::<ExponentialSpacings>(256, 1.001, 65534),
        ),
        Sketch::Two256 => run_with(
            spec,
            args,
            sut::setsketch_factory::<IntervalSampling>(256, 1.001, 65534),
        ),
        Sketch::Two4096 => run_with(
            spec,
            args,
            sut::setsketch_factory::<IntervalSampling>(4096, 2.0, 62),
        ),
    }
}

fn run_with<S: ClusterSketch>(
    spec: &Spec,
    args: &RunArgs,
    factory: Factory<S>,
) -> Result<RunResult, String> {
    let run_start = Instant::now();
    let inputs = Inputs::new(spec, args.seed);
    let results = results_dir();
    let scratch = Scratch::create(&results, spec.name).map_err(|e| e.to_string())?;

    // Set-up, repeated so that `setup_s` is a median; the last system
    // built is the one measured.
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::new();
    let mut system: Option<AnySystem<S>> = None;
    for repeat in 0..repeats {
        drop(system.take());
        let dir = scratch.0.join(format!("setup{repeat}"));
        let (built, elapsed) = run::set_up(&inputs, &factory, &dir)?;
        if repeat + 1 < repeats {
            drop(built);
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            system = Some(built);
        }
        setups.push(elapsed.as_secs_f64());
    }
    let mut system = system.expect("at least one set-up");

    // A traced run measures a third of the blocks: its time goes to the
    // ladder, and none of its numbers is gated.
    let blocks = match args.trace {
        true => (run::blocks_for(args.seconds) / 3).max(workloads::BULK_EVERY),
        false => run::blocks_for(args.seconds),
    };
    let origin = args.trace.then(Instant::now);
    let measure_start = Instant::now();
    let mut measured = run::measure(&mut system, &inputs, blocks, origin);
    let measured_s = measure_start.elapsed().as_secs_f64();

    let mut errors = std::mem::take(&mut measured.errors);
    if let AnySystem::Cluster(cluster) = &system {
        if let Err(error) = cluster.full_sync() {
            errors.push(format!("final sync: {error}"));
            measured.bulk_failed += 1;
        }
    }
    let verdict = run::verify(&system, &inputs, &factory, &measured);
    errors.extend(verdict.errors.iter().cloned());

    let block_ops: u64 = measured.blocks.iter().map(|b| b.ops as u64).sum();
    let attempted = block_ops
        + measured.bulk_s.len() as u64
        + blocks as u64 // one after-block step each
        + verdict.checked;
    let failed = measured.blocks.iter().map(|b| b.failed).sum::<u64>()
        + measured.bulk_failed
        + verdict.failed;

    let mut rates: Vec<f64> = measured.blocks.iter().map(|b| b.ops_per_s()).collect();
    let drift = drift_of(&rates);
    let (block_rates, bulk_samples) = (rates.clone(), measured.bulk_s.clone());
    let mut writes: Vec<f64> = measured
        .blocks
        .iter_mut()
        .map(|b| b.p50_us(Kind::Ingest))
        .collect();
    eprintln!("{}: block write p50 us {writes:.1?}", spec.name);
    let mut reads: Vec<f64> = measured
        .blocks
        .iter_mut()
        .map(|b| b.p50_us(spec.read))
        .collect();

    let metrics = if args.trace {
        ladder::per_layer(
            &mut system,
            &inputs,
            &factory,
            &scratch.0,
            &results,
            origin.expect("a traced run has an origin"),
            &mut measured,
            &verdict,
        )?
    } else {
        let values = [
            fast_low(&mut setups),
            fast_high(&mut rates),
            fast_low(&mut writes),
            fast_low(&mut reads),
            fast_low(&mut measured.bulk_s),
            median(&mut measured.mem_samples),
            verdict.answer_err,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit, _, _), value)| Metric { name, value, unit })
            .collect()
    };
    drop(system);
    drop(scratch);
    Ok(RunResult {
        metrics,
        attempted,
        failed,
        errors,
        drift,
        block_rates,
        bulk_samples,
        measured_s,
        total_s: run_start.elapsed().as_secs_f64(),
    })
}

/// Relative gap between the medians of the first and the last third of
/// the blocks (first 8 and last 8 of 24).
fn drift_of(rates: &[f64]) -> f64 {
    let third = (rates.len() / 3).max(1);
    let first = median(&mut rates[..third].to_vec());
    let last = median(&mut rates[rates.len() - third..].to_vec());
    (last - first).abs() / first
}

/// The last line of standard output: the result object of the contract.
fn json_line(result: &RunResult) -> String {
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct(),
        result.attempted,
        result.failed,
        metrics.join(", ")
    )
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_owned()
    }
}

fn print_result(spec: &Spec, result: &RunResult) {
    for metric in &result.metrics {
        println!("{} {} {}", metric.name, metric.value, metric.unit);
    }
    println!("ops_attempted {} count", result.attempted);
    println!("ops_failed {} count", result.failed);
    eprintln!("{}: {}", spec.name, spec.why);
    eprintln!(
        "{}: measured {:.1} s of {:.1} s, {} clients, block drift {:.1} %",
        spec.name,
        result.measured_s,
        result.total_s,
        run::clients(),
        result.drift * 100.0
    );
    eprintln!("{}: block ops/s {:.0?}", spec.name, result.block_rates);
    eprintln!("{}: bulk samples s {:.3?}", spec.name, result.bulk_samples);
    for error in result.errors.iter().take(10) {
        eprintln!("{}: FAILED {error}", spec.name);
    }
    println!("{}", json_line(result));
}

pub fn run_and_print(spec: &Spec, args: &RunArgs) -> Outcome {
    match run_workload(spec, args) {
        Ok(result) => {
            print_result(spec, &result);
            if result.correct() {
                Outcome::Pass
            } else {
                Outcome::Fail
            }
        }
        Err(error) => {
            eprintln!("{}: {error}", spec.name);
            Outcome::Fail
        }
    }
}

/// All four workloads at a twentieth of their size, untraced and traced:
/// proves the harness end to end in seconds.
pub fn smoke() -> Outcome {
    let mut outcome = Outcome::Pass;
    for spec in workloads::all() {
        let spec = spec.shrunk(20);
        for trace in [false, true] {
            let args = RunArgs {
                seed: 42,
                seconds: 2,
                trace,
            };
            if let Outcome::Fail = run_and_print(&spec, &args) {
                outcome = Outcome::Fail;
            }
        }
    }
    outcome
}

/// Runs every workload twice with one seed and compares: the benchmark
/// checking itself for repeatability.
pub fn check(seed: u64) -> Outcome {
    let mut outcome = Outcome::Pass;
    let args = RunArgs {
        seed,
        seconds: RUN_SECONDS,
        trace: false,
    };
    for spec in workloads::all() {
        let runs: Vec<RunResult> = match (0..2).map(|_| run_workload(&spec, &args)).collect() {
            Ok(runs) => runs,
            Err(error) => {
                println!("{}: {error}", spec.name);
                outcome = Outcome::Fail;
                continue;
            }
        };
        for &(name, unit, lower_is_better, bound) in &END_TO_END {
            let (a, b) = (runs[0].value(name), runs[1].value(name));
            // The second run is judged as a change on top of the first.
            let worse = if lower_is_better {
                b / a - 1.0
            } else {
                1.0 - b / a
            };
            let verdict = if worse.abs() <= bound { "ok" } else { "FAIL" };
            println!(
                "{:<17} {:<18} {:>14.4} {:>14.4} {:<5} gap {:>+6.2} % of {:>4.1} % {verdict}",
                spec.name,
                name,
                a,
                b,
                unit,
                worse * 100.0,
                bound * 100.0
            );
            if worse.abs() > bound {
                outcome = Outcome::Fail;
            }
        }
        // A stream that drifts does so in every run of a seed; a host
        // that changes pace mid-run rarely does it twice alike.
        let drift = runs[0].drift.min(runs[1].drift);
        if drift > MAX_DRIFT {
            println!(
                "{:<17} block drift {:.1} % and {:.1} % over {:.0} %: not stationary FAIL",
                spec.name,
                runs[0].drift * 100.0,
                runs[1].drift * 100.0,
                MAX_DRIFT * 100.0
            );
            outcome = Outcome::Fail;
        }
        for (index, result) in runs.iter().enumerate() {
            if !result.correct() {
                println!(
                    "{:<17} run {index}: {} ops failed FAIL",
                    spec.name, result.failed
                );
                for error in result.errors.iter().take(5) {
                    println!("{:<17}   {error}", spec.name);
                }
                outcome = Outcome::Fail;
            }
        }
        // One traced run: the ladder must account for the client's
        // write latency, and the tiered workload must sit on its tier.
        let traced = RunArgs {
            trace: true,
            ..args
        };
        match run_workload(&spec, &traced) {
            Ok(result) => {
                let mut require = |name: &str, value: f64, ok: bool| {
                    let verdict = if ok { "ok" } else { "FAIL" };
                    println!("{:<17} {name:<28} {value:>10.3} {verdict}", spec.name);
                    if !ok {
                        outcome = Outcome::Fail;
                    }
                };
                let unattributed = result.value("ladder.unattributed_pct");
                require(
                    "ladder.unattributed_pct",
                    unattributed,
                    unattributed.abs() < 15.0,
                );
                if spec.system == workloads::SystemKind::Tiered {
                    let share = result.value("tier.cold_touch_share");
                    require("tier.cold_touch_share", share, share >= 0.6);
                }
                require("traced ops_failed", result.failed as f64, result.correct());
            }
            Err(error) => {
                println!("{}: traced run: {error}", spec.name);
                outcome = Outcome::Fail;
            }
        }
    }
    outcome
}
