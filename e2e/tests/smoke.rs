//! Runs `e2e run --smoke` (all four workloads at a twentieth of their
//! size, untraced and traced) and holds its output to the contract in
//! `BENCHMARK.json`: one result object per run with exactly the
//! declared metrics, every one a number, nothing failed.

use std::path::Path;
use std::process::{Command, Stdio};

/// The strings that follow `"<field>": "` inside `text`.
fn quoted_after<'a>(text: &'a str, field: &str) -> Vec<&'a str> {
    let marker = format!("\"{field}\": \"");
    text.split(&marker)
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .collect()
}

/// `(name, unit)` of every metric declared in one section of
/// `BENCHMARK.json`.
fn declared<'a>(bench: &'a str, section: &str) -> Vec<(&'a str, &'a str)> {
    let start = bench
        .find(&format!("\"{section}\": ["))
        .expect("section present");
    let body = &bench[start..];
    let body = &body[..body.find(']').expect("section closes")];
    quoted_after(body, "name")
        .into_iter()
        .zip(quoted_after(body, "unit"))
        .collect()
}

/// `(name, value text, unit)` of every metric in a result line.
fn reported(line: &str) -> Vec<(&str, &str, &str)> {
    let metrics = line.split("\"metrics\": {").nth(1).expect("metrics object");
    metrics
        .split("\": {\"value\": ")
        .collect::<Vec<_>>()
        .windows(2)
        .map(|pair| {
            let name = pair[0].rsplit('"').next().expect("metric name");
            let value = pair[1].split(',').next().expect("metric value");
            let unit = quoted_after(pair[1], "unit")[0];
            (name, value, unit)
        })
        .collect()
}

#[test]
fn smoke_run_meets_the_benchmark_contract() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("e2e/ sits in the repository root");
    let bench = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let end_to_end = declared(&bench, "end_to_end");
    let per_layer = declared(&bench, "per_layer");
    assert_eq!(end_to_end.len(), 7);
    assert!(per_layer.len() >= 60);

    let started = std::time::Instant::now();
    let child = Command::new(env!("CARGO_BIN_EXE_e2e"))
        .args(["run", "--smoke"])
        .current_dir(root)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the harness starts");
    let pid = child.id();
    let output = child.wait_with_output().expect("the harness ends");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "smoke run failed:\n{stdout}\n{stderr}"
    );
    assert!(
        started.elapsed().as_secs() < 60,
        "smoke run took {:?}",
        started.elapsed()
    );

    let results: Vec<&str> = stdout
        .lines()
        .filter(|line| line.starts_with('{'))
        .collect();
    let workloads = quoted_after(&bench[..bench.find("\"end_to_end\"").unwrap()], "name");
    assert_eq!(workloads.len(), 4);
    assert_eq!(
        results.len(),
        2 * workloads.len(),
        "one untraced and one traced run each"
    );
    for (index, line) in results.iter().enumerate() {
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": ")
                && line.contains(", \"failed\": 0, \"metrics\": {"),
            "result keys, order and verdict: {line}"
        );
        let expected = if index % 2 == 0 {
            &end_to_end
        } else {
            &per_layer
        };
        let got = reported(line);
        assert_eq!(got.len(), expected.len(), "metric count in {line}");
        for ((name, value, unit), (want_name, want_unit)) in got.iter().zip(expected.iter()) {
            assert_eq!((name, unit), (want_name, want_unit));
            let number: f64 = value.parse().unwrap_or_else(|_| panic!("{name} = {value}"));
            assert!(number.is_finite(), "{name} = {value}");
            if index % 2 == 0 {
                assert!(number > 0.0, "end-to-end metric {name} must never read 0");
            }
        }
    }
    for workload in workloads {
        let trace = root.join("results").join(format!("trace_{workload}.jsonl"));
        let first = std::fs::read_to_string(&trace).expect("trace written");
        assert!(
            first
                .lines()
                .next()
                .is_some_and(|l| l.contains("\"start_ns\"")),
            "{trace:?}"
        );
    }
    let leftovers: Vec<_> = std::fs::read_dir(root.join("results"))
        .expect("results/")
        .filter_map(Result::ok)
        .filter(|entry| {
            let name = entry.file_name().to_string_lossy().into_owned();
            name.starts_with("e2e-tmp-") && name.contains(&format!("-{pid}-"))
        })
        .collect();
    assert!(
        leftovers.is_empty(),
        "scratch directories left behind: {leftovers:?}"
    );
}
