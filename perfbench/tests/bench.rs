//! The benchmark's own checks, on the tiny variant of every workload.

use std::collections::BTreeSet;
use std::process::Command;

use cord_perfbench::measure::plain_pass;
use cord_perfbench::{Size, Workload};

#[test]
fn digest_repeats_across_runs() {
    for w in Workload::ALL {
        let inputs = w.inputs(Size::Tiny, 3);
        let a = plain_pass(&inputs);
        let b = plain_pass(&inputs);
        assert!(
            a.runs.iter().all(Option::is_some),
            "{}: a run failed",
            w.name()
        );
        assert_eq!(a.digest(), b.digest(), "{}", w.name());
    }
}

#[test]
fn digest_repeats_across_worker_counts() {
    let mut inputs = Workload::KvWideX2.inputs(Size::Tiny, 5);
    let two = plain_pass(&inputs);
    inputs.jobs.iter_mut().for_each(|j| j.sim_threads = Some(1));
    let one = plain_pass(&inputs);
    assert_eq!(one.digest(), two.digest());
    inputs.jobs.iter_mut().for_each(|j| j.sim_threads = None);
    let serial = plain_pass(&inputs);
    let regs = |p: &cord_perfbench::measure::Pass| -> Vec<u64> {
        p.runs
            .iter()
            .map(|r| r.expect("run succeeds").regs)
            .collect()
    };
    assert_eq!(regs(&serial), regs(&two), "engines disagree on registers");
}

#[test]
fn seed_picks_the_inputs() {
    let digest = |seed| plain_pass(&Workload::KvWide.inputs(Size::Tiny, seed)).digest();
    assert_eq!(digest(11), digest(11));
    assert_ne!(digest(11), digest(12));
}

/// Metric names declared under `section` of `BENCHMARK.json`.
fn declared(json: &str, section: &str) -> BTreeSet<String> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

/// Keys of the `metrics` object in the record line.
fn record_metrics(line: &str) -> BTreeSet<String> {
    let parts: Vec<&str> = line.split(": {\"value\"").collect();
    parts[..parts.len() - 1]
        .iter()
        .filter_map(|s| s.rsplit('"').nth(1))
        .map(str::to_string)
        .collect()
}

#[test]
fn every_printed_metric_is_declared() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let end_to_end = declared(&json, "end_to_end");
    let per_layer = declared(&json, "per_layer");
    for w in Workload::ALL {
        for (trace, want) in [("0", &end_to_end), ("1", &per_layer)] {
            let out = Command::new(env!("CARGO_BIN_EXE_cord-perfbench"))
                .args(["--workload", w.name(), "--size", "tiny", "--seconds", "0"])
                .args(["--seed", "2", "--trace", trace])
                .output()
                .expect("benchmark binary runs");
            assert!(out.status.success(), "{} trace={trace} failed", w.name());
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            for name in stdout.lines().filter_map(|l| l.strip_prefix("metric ")) {
                let name = name.split(' ').next().unwrap_or_default();
                assert!(
                    end_to_end.contains(name) || per_layer.contains(name),
                    "{name} is printed but not declared"
                );
            }
            let record = stdout.lines().last().expect("a record line");
            assert!(record.starts_with("{\"correct\": true,"), "{record}");
            assert_eq!(&record_metrics(record), want, "{} trace={trace}", w.name());
        }
    }
}
