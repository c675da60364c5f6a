//! §4.5 verification campaign summary (the Murphi-substitute run).
//!
//! Runs every litmus shape under every placement for CORD (six provisioning
//! stress configurations), source ordering, mixed CORD/SO, and message
//! passing, then prints the campaign totals — including the MP violations
//! the paper's §3.2 predicts. Placements within each shape are explored in
//! parallel (`CORD_THREADS`).
//!
//! A final scaling phase re-runs the CORD suite plus the scaling fixtures
//! through [`explore_with`] serially, with symmetry reduction on (`sym/…`)
//! and off (`raw/…`). It writes each entry's state count, level count, peak
//! frontier, symmetry-group order and per-level frontier series to
//! `results/BENCH_check.json` and gates them exactly against the file as
//! it was before the run. A second pass at `min(8, host width)` shards must
//! reproduce every counter. Timings go to stderr only.

use std::time::Instant;

use cord_bench::print_table;
use cord_bench::record::{self, json_escape, Rules};
use cord_sim::obs::Progress;

use cord_check::{
    campaign_entries, classic_suite, explore, explore_all_placements, explore_with,
    narrate_violation, scaling_suite, stress_configs, weak_suite, CheckConfig, ExploreOpts,
    ExploreStats, Litmus, Report, ThreadProto, Verdict,
};

const CAP: usize = 2_000_000;

/// The checker record, written and gated by every run.
const RECORD: &str = "results/BENCH_check.json";

/// Every counter in the checker record is deterministic.
const RULES: Rules = Rules {
    exact: &["states", "levels", "peak_frontier", "sym_order", "frontier"],
    timed: |_| false,
};

fn explore_counted(prog: &Progress, cfg: &CheckConfig, lit: &Litmus) -> Vec<(Vec<u8>, Report)> {
    let out = explore_all_placements(cfg, lit, CAP);
    prog.inc(1);
    out
}

/// One scaling entry's counters: its label, state count and search shape.
type Counters = (String, usize, ExploreStats);

/// Runs every campaign entry through [`explore_with`] at fixed `opts`,
/// labelling each `"<tag>/<entry>"`. Returns the counters and the pass's
/// wall-clock in ms.
fn check_scaling_pass(
    entries: &[(String, CheckConfig, Litmus, Vec<u8>)],
    opts: ExploreOpts,
    tag: &str,
) -> (Vec<Counters>, f64) {
    let t0 = Instant::now();
    let counters = entries
        .iter()
        .map(|(label, cfg, lit, placement)| {
            let (report, stats) = explore_with(cfg, lit, placement, CAP, opts);
            (format!("{tag}/{label}"), report.states, stats)
        })
        .collect();
    (counters, t0.elapsed().as_secs_f64() * 1e3)
}

/// The checker record: one entry per scaling entry. The per-level frontier
/// series is a string, so the gate compares it as one field. `litmus` has
/// one mode, filed as the full (`"quick":false`) record.
fn check_record(counters: &[Counters]) -> String {
    let entries: Vec<String> = counters
        .iter()
        .map(|(label, states, s)| {
            let frontier: Vec<String> = s.frontier.iter().map(u64::to_string).collect();
            format!(
                "{{\"label\":\"{}\",\"states\":{states},\"levels\":{},\"peak_frontier\":{},\
                 \"sym_order\":{},\"frontier\":\"{}\"}}",
                json_escape(label),
                s.levels,
                s.peak_frontier,
                s.symmetry_order,
                frontier.join(",")
            )
        })
        .collect();
    format!(
        "{{\"bench\":\"check\",\"quick\":false,\"entries\":[{}]}}",
        entries.join(",")
    )
}

fn main() {
    // One progress unit per (system, shape) exploration: every stress
    // config, SO, mixed, and MP over the classic suite, plus the weak suite.
    let units = (stress_configs().len() + 3) * classic_suite().len() + weak_suite().len();
    let prog = Progress::new("litmus", units as u64);
    let mut rows = Vec::new();
    let mut total_checks = 0usize;
    let mut total_states = 0usize;

    let mut total_inconclusive = 0usize;

    // CORD under all stress configurations.
    for (cfg_name, mk) in stress_configs() {
        let mut checks = 0;
        let mut states = 0;
        let mut failures = 0;
        let mut inconclusive = 0;
        for lit in classic_suite() {
            let cfg = mk(lit.thread_count(), 3);
            for (_, report) in explore_counted(&prog, &cfg, &lit) {
                checks += 1;
                states += report.states;
                match report.verdict(&lit) {
                    Verdict::Pass => {}
                    Verdict::Inconclusive => inconclusive += 1,
                    Verdict::Fail => failures += 1,
                }
            }
        }
        rows.push(vec![
            format!("CORD [{cfg_name}]"),
            checks.to_string(),
            states.to_string(),
            failures.to_string(),
            inconclusive.to_string(),
        ]);
        total_checks += checks;
        total_states += states;
        total_inconclusive += inconclusive;
    }

    // Source ordering and mixed systems.
    for (name, protos) in [("SO", 0usize), ("mixed CORD/SO", 1)] {
        let mut checks = 0;
        let mut states = 0;
        let mut failures = 0;
        let mut inconclusive = 0;
        for lit in classic_suite() {
            let n = lit.thread_count();
            let cfg = if protos == 0 {
                CheckConfig::so(n, 3)
            } else {
                CheckConfig {
                    protos: (0..n)
                        .map(|i| {
                            if i % 2 == 0 {
                                ThreadProto::Cord
                            } else {
                                ThreadProto::So
                            }
                        })
                        .collect(),
                    ..CheckConfig::cord(n, 3)
                }
            };
            for (_, report) in explore_counted(&prog, &cfg, &lit) {
                checks += 1;
                states += report.states;
                match report.verdict(&lit) {
                    Verdict::Pass => {}
                    Verdict::Inconclusive => inconclusive += 1,
                    Verdict::Fail => failures += 1,
                }
            }
        }
        rows.push(vec![
            name.into(),
            checks.to_string(),
            states.to_string(),
            failures.to_string(),
            inconclusive.to_string(),
        ]);
        total_checks += checks;
        total_states += states;
        total_inconclusive += inconclusive;
    }

    // Message passing: violations are the expected (paper §3.2) outcome.
    let mut mp_checks = 0;
    let mut mp_violating_shapes = Vec::new();
    for lit in classic_suite() {
        let mut bad = false;
        let cfg = CheckConfig::mp(lit.thread_count(), 3);
        for (_, report) in explore_counted(&prog, &cfg, &lit) {
            mp_checks += 1;
            bad |= !report.violations(&lit).is_empty();
        }
        if bad {
            mp_violating_shapes.push(lit.name);
        }
    }
    rows.push(vec![
        "MP (violations expected)".into(),
        mp_checks.to_string(),
        String::new(),
        mp_violating_shapes.len().to_string(),
        String::new(),
    ]);
    total_checks += mp_checks;

    print_table(
        "Litmus campaign (§4.5): forbidden-outcome + deadlock-freedom checks",
        &[
            "system",
            "checks",
            "states explored",
            "failures/violations",
            "inconclusive",
        ],
        &rows,
    );

    println!("\nMP violates release consistency on: {mp_violating_shapes:?}");
    if total_inconclusive > 0 {
        println!(
            "WARNING: {total_inconclusive} check(s) inconclusive — the state cap \
             truncated the search before completion; raise CAP to settle them"
        );
    }

    // Weak-outcome reachability (not accidentally SC).
    let mut weak_ok = 0;
    for (lit, must_see) in weak_suite() {
        let mut seen = false;
        let cfg = CheckConfig::cord(lit.thread_count(), 3);
        for (_, report) in explore_counted(&prog, &cfg, &lit) {
            seen |= report.outcomes.iter().any(|flat| {
                let split = flat.len() - lit.vars as usize;
                let (reg_flat, mem) = flat.split_at(split);
                must_see.matches_flat(reg_flat, mem)
            });
        }
        if seen {
            weak_ok += 1;
        }
    }
    prog.finish(&format!(
        "litmus: {total_checks} checks, {total_states} states explored"
    ));
    println!(
        "Weak (RC-allowed) outcomes reachable: {weak_ok}/{}",
        weak_suite().len()
    );
    println!("Total checks: {total_checks}; total states: {total_states}");
    println!("Murphi-substitute campaign complete");

    // A final ISA2 spot check mirroring paper Fig. 3.
    let isa2 = classic_suite()
        .into_iter()
        .find(|l| l.name == "ISA2")
        .unwrap();
    let mp = explore(&CheckConfig::mp(3, 3), &isa2, &[2, 1, 2], CAP);
    let cord = explore(&CheckConfig::cord(3, 3), &isa2, &[2, 1, 2], CAP);
    println!(
        "ISA2 (X,Z on T2's memory; Y on T1's): MP forbidden outcome reachable = {}, CORD = {}",
        !mp.violations(&isa2).is_empty(),
        !cord.violations(&isa2).is_empty()
    );

    // Narrate one shortest MP counterexample so the §3.2 failure is not
    // just a boolean: an ordered, tracer-style event listing.
    if let Some(n) = narrate_violation(&CheckConfig::mp(3, 3), &isa2, &[2, 1, 2], CAP) {
        println!(
            "\nShortest MP/ISA2 counterexample ({} steps):",
            n.steps.len()
        );
        println!("{}", n.render());
        println!(
            "forbidden outcome (regs thread-major, then memory): {:?}",
            n.outcome
        );
    }

    // Checker scaling phase: the CORD suite plus the heavyweight
    // scaling fixtures through the sharded explorer, symmetry on vs. off,
    // serially and at min(8, host width). Entries and all search-shape
    // counters are deterministic; only the wall-clocks vary by host.
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let par_t = host.min(8);
    let mut entries = campaign_entries();
    entries.extend(scaling_suite());
    let sym = ExploreOpts {
        threads: 1,
        symmetry: true,
        audit: false,
    };
    let raw = ExploreOpts {
        symmetry: false,
        ..sym
    };

    let (mut serial, serial_sym_ms) = check_scaling_pass(&entries, sym, "sym");
    let (serial_raw, serial_raw_ms) = check_scaling_pass(&entries, raw, "raw");
    serial.extend(serial_raw);
    eprintln!(
        "\nChecker scaling ({} entries): t1 sym {serial_sym_ms:.0} ms, raw {serial_raw_ms:.0} ms; \
         symmetry reduction: {:.2}x",
        entries.len(),
        serial_raw_ms / serial_sym_ms.max(1e-9)
    );

    // The parallel pass only means something on a multicore host. It must
    // reproduce every serial counter, and records nothing of its own.
    if par_t > 1 {
        let (mut par, par_sym_ms) = check_scaling_pass(
            &entries,
            ExploreOpts {
                threads: par_t,
                ..sym
            },
            "sym",
        );
        let (par_raw, par_raw_ms) = check_scaling_pass(
            &entries,
            ExploreOpts {
                threads: par_t,
                ..raw
            },
            "raw",
        );
        par.extend(par_raw);
        if let Some((s, p)) = serial.iter().zip(&par).find(|(s, p)| s != p) {
            eprintln!(
                "t{par_t} scaling pass diverged from t1 on {}:\n  t1: {s:?}\n  t{par_t}: {p:?}",
                s.0
            );
            std::process::exit(1);
        }
        eprintln!(
            "t{par_t}: sym {par_sym_ms:.0} ms, raw {par_raw_ms:.0} ms; \
             parallel speedup sym {:.2}x, raw {:.2}x; counters equal t1's",
            serial_sym_ms / par_sym_ms.max(1e-9),
            serial_raw_ms / par_raw_ms.max(1e-9)
        );
    } else {
        eprintln!("single-CPU host: skipping the t>1 scaling pass");
    }

    let json = check_record(&serial);
    let baseline = std::fs::read_to_string(RECORD).ok();
    record::write(RECORD, false, &json);
    record::gate(baseline.as_deref(), &json, false, RECORD, &RULES);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inserts a `9` at the start of `key`'s value (inside the quotes of a
    /// string value), so the value differs whatever it was.
    fn perturb(record: &str, key: &str) -> String {
        let tag = format!("\"{key}\":");
        let at = record.find(&tag).expect("field present") + tag.len();
        let at = at + usize::from(record[at..].starts_with('"'));
        format!("{}9{}", &record[..at], &record[at..])
    }

    #[test]
    fn gate_fails_on_every_perturbed_counter() {
        let stats = ExploreStats {
            peak_frontier: 2,
            levels: 3,
            symmetry_order: 1,
            frontier: vec![1, 2, 1],
        };
        let sample = check_record(&[("sym/MP@[0, 1]".into(), 13, stats)]);
        let (failures, passed, skipped) = record::compare(&sample, &sample, &RULES);
        assert!(failures.is_empty() && skipped.is_none(), "{failures:?}");
        assert_eq!(passed, RULES.exact.len());
        for &key in RULES.exact {
            let (failures, ..) = record::compare(&sample, &perturb(&sample, key), &RULES);
            assert_eq!(failures.len(), 1, "{key}: {failures:?}");
            assert!(
                failures[0].starts_with(&format!("sym/MP@[0, 1]: {key} ")),
                "{failures:?}"
            );
        }
    }
}
