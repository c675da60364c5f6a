//! Scenario fuzzing: blind campaigns, coverage-guided serving, replay.
//!
//! Three modes share one binary:
//!
//! * **Campaign** (default): seeded blind generation — engine, fabric,
//!   topology, table provisioning down to capacity 1, fault plans,
//!   producer/consumer workloads — run through the DES under four oracles
//!   (termination, RC-vs-baseline, differential model check,
//!   panic-freedom), with 1-minimal shrinking of failures.
//! * **Serve** (`--serve`): the long-lived coverage-guided mode. Seeds a
//!   corpus from `tests/repros/` plus the on-disk corpus directory,
//!   then runs an energy-scheduled mutate/generate loop where novel
//!   trace-coverage admits scenarios back into the corpus. The corpus
//!   directory is rewritten (greedily minimized) on exit; new
//!   counterexamples are shrunk and written under `--out`, next to the
//!   guided union map (`guided-coverage.txt`). It prints the per-engine
//!   edge counts and the guided-vs-blind comparison at equal iteration
//!   count, and exits 1 if guidance did not beat blind generation or a
//!   counterexample was found.
//! * **Check** (`--check-coverage`): replays the committed corpus, unions
//!   its coverage, rewrites `results/fuzz-coverage.txt` with the union map
//!   and fails if it differs in any edge or count from the file as it was
//!   before the run — the CI guard against silently losing fault-recovery
//!   coverage. The map depends only on `tests/repros/`.
//!
//! ```text
//! fuzz [--quick] [--seed N] [--count N] [--max-events N] [--no-model]
//!      [--out DIR] [--replay PATH]
//!      [--serve] [--iters N] [--max-secs S] [--corpus DIR]
//!      [--check-coverage]
//! ```
//!
//! Campaign defaults: seed 1, 400 scenarios (64 with `--quick`), event cap
//! 2M, repros under `results/fuzz-repros/`. Serve defaults: 400 iterations
//! (200 with `--quick`), corpus under `results/fuzz-corpus/`.
//!
//! `--replay PATH` re-executes one repro file — or, given a directory,
//! every `*.repro` in it (file-name order, with the shared campaign
//! progress line on stderr) — and exits non-zero on any `expect` mismatch.

use cord_bench::print_table;
use cord_bench::record;
use cord_fuzz::{
    blind_union, narrate_rc_violation, replay_union, run_campaign, run_guided, run_scenario,
    CampaignConfig, GuidedConfig, Verdict,
};
use cord_sim::obs;

struct Args {
    quick: bool,
    seed: u64,
    count: Option<u64>,
    iters: Option<u64>,
    max_events: u64,
    max_secs: Option<u64>,
    model: bool,
    out: String,
    corpus: String,
    replay: Option<String>,
    serve: bool,
    check_coverage: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: fuzz [--quick] [--seed N] [--count N] [--max-events N] \
         [--no-model] [--out DIR] [--replay PATH]\n\
         \x20           [--serve] [--iters N] [--max-secs S] [--corpus DIR] \
         [--check-coverage]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        seed: 1,
        count: None,
        iters: None,
        max_events: 2_000_000,
        max_secs: None,
        model: true,
        out: "results/fuzz-repros".into(),
        corpus: "results/fuzz-corpus".into(),
        replay: None,
        serve: false,
        check_coverage: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].clone();
        let mut val = || {
            i += 1;
            argv.get(i).cloned().unwrap_or_else(|| usage())
        };
        match flag.as_str() {
            "--quick" => args.quick = true,
            "--no-model" => args.model = false,
            "--serve" => args.serve = true,
            "--check-coverage" => args.check_coverage = true,
            "--seed" => args.seed = val().parse().unwrap_or_else(|_| usage()),
            "--count" => args.count = Some(val().parse().unwrap_or_else(|_| usage())),
            "--iters" => args.iters = Some(val().parse().unwrap_or_else(|_| usage())),
            "--max-events" => args.max_events = val().parse().unwrap_or_else(|_| usage()),
            "--max-secs" => args.max_secs = Some(val().parse().unwrap_or_else(|_| usage())),
            "--out" => args.out = val(),
            "--corpus" => args.corpus = val(),
            "--replay" => args.replay = Some(val()),
            _ => usage(),
        }
        i += 1;
    }
    args
}

/// Loads the committed seed corpus, tolerating its absence (the binary
/// may run outside a checkout).
fn committed_corpus() -> Vec<(String, cord_fuzz::Repro)> {
    let dir = std::path::Path::new("tests/repros");
    if !dir.is_dir() {
        eprintln!("note: no committed corpus at tests/repros (running outside a checkout?)");
        return Vec::new();
    }
    match cord_fuzz::corpus::load_dir(dir) {
        Ok((seeds, warnings)) => {
            for (name, e) in &warnings {
                eprintln!("warning: skipping tests/repros/{name}: {e}");
            }
            seeds
        }
        Err(e) => {
            eprintln!("warning: cannot read tests/repros: {e}");
            Vec::new()
        }
    }
}

/// Re-executes one repro file; returns the process exit code.
fn replay_file(path: &str) -> i32 {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2)
    });
    let repro = cord_fuzz::parse(&text).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(2)
    });
    let sc = &repro.scenario;
    println!(
        "replaying {path}: {} on {} {} host(s) × {} tiles, {} op(s), faults: {}",
        sc.engine.label(),
        if sc.upi { "UPI" } else { "CXL" },
        sc.hosts,
        sc.tph,
        sc.op_count(),
        sc.faults.as_deref().unwrap_or("none"),
    );
    let report = run_scenario(sc);
    println!("verdict: {}", report.verdict);
    if report.sim_ns > 0.0 {
        println!("simulated time: {:.1} ns", report.sim_ns);
    }
    if let Some(n) = narrate_rc_violation(sc, &report.verdict) {
        println!("\n{n}");
    } else if matches!(report.verdict, Verdict::RcViolation { .. }) {
        println!("(the abstract model does not reach this outcome — a DES-only divergence)");
    }
    match &repro.expect {
        Some(expect) if expect != report.verdict.class() => {
            eprintln!(
                "MISMATCH: file expects {expect:?}, run produced {:?}",
                report.verdict.class()
            );
            1
        }
        Some(expect) => {
            println!("verdict matches the file's expectation ({expect})");
            0
        }
        None => 0,
    }
}

/// Replays every `*.repro` in a directory (file-name order), with the
/// shared campaign progress line on stderr; returns the exit code.
fn replay_dir(dir: &std::path::Path) -> i32 {
    let (repros, warnings) = match cord_fuzz::corpus::load_dir(dir) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("cannot read {}: {e}", dir.display());
            return 2;
        }
    };
    for (name, e) in &warnings {
        eprintln!("warning: skipping {name}: {e}");
    }
    if repros.is_empty() {
        eprintln!("no .repro files under {}", dir.display());
        return 2;
    }
    let prog = obs::Progress::new("replay", repros.len() as u64);
    let mut mismatches = 0u64;
    for (name, repro) in &repros {
        let report = run_scenario(&repro.scenario);
        let got = report.verdict.class();
        let status = match repro.expect.as_deref() {
            Some(expect) if expect != got => {
                mismatches += 1;
                prog.flag();
                format!("MISMATCH (expect {expect})")
            }
            Some(_) => "ok".to_string(),
            None => "no expect line".to_string(),
        };
        println!(
            "{name}: {} — {got} [{status}]",
            repro.scenario.engine.label()
        );
        prog.inc(1);
    }
    prog.finish(&format!(
        "replay: {} repro(s), {} mismatch(es)",
        repros.len(),
        mismatches
    ));
    if mismatches > 0 {
        eprintln!(
            "{mismatches} of {} repro(s) diverged from their expect line",
            repros.len()
        );
        1
    } else {
        println!("all {} repro(s) match their expect lines", repros.len());
        0
    }
}

/// The committed corpus' coverage union map, gated by `--check-coverage`.
const COVERAGE_MAP: &str = "results/fuzz-coverage.txt";

/// `--check-coverage`: recompute the committed corpus' coverage union and
/// gate its map exactly against [`COVERAGE_MAP`]. Returns the exit code.
fn check_coverage() -> i32 {
    let seeds = committed_corpus();
    if seeds.is_empty() {
        eprintln!("coverage check needs the committed corpus (tests/repros)");
        return 2;
    }
    let union = replay_union(&seeds, None);
    println!(
        "committed-corpus coverage: {} distinct edge(s) over {} repro(s)",
        union.distinct(),
        seeds.len()
    );
    record::gate_text(COVERAGE_MAP, &union.render());
    0
}

/// `--serve`: the coverage-guided daemon loop. Returns the exit code.
fn serve(args: &Args) -> i32 {
    let iters = args.iters.unwrap_or(if args.quick { 200 } else { 400 });
    let cfg = GuidedConfig {
        seed: args.seed,
        iterations: iters,
        max_events: args.max_events,
        model_check: args.model,
        workers: None,
    };
    let deadline = args
        .max_secs
        .map(|s| std::time::Instant::now() + std::time::Duration::from_secs(s));

    // Seed order: the committed corpus first, then whatever an earlier
    // serve run left in the corpus directory.
    let corpus_dir = std::path::Path::new(&args.corpus);
    let mut seeds = committed_corpus();
    if corpus_dir.is_dir() {
        match cord_fuzz::corpus::load_dir(corpus_dir) {
            Ok((extra, warnings)) => {
                for (name, e) in &warnings {
                    eprintln!("warning: skipping {}/{name}: {e}", args.corpus);
                }
                seeds.extend(extra);
            }
            Err(e) => eprintln!("warning: cannot read {}: {e}", args.corpus),
        }
    }

    let t0 = std::time::Instant::now();
    std::panic::set_hook(Box::new(|_| {}));
    let guided = run_guided(&cfg, &seeds, deadline);
    // The blind baseline at the iteration count actually completed, so a
    // deadline-stopped serve still compares like for like.
    let blind = blind_union(&GuidedConfig {
        iterations: guided.iterations,
        ..cfg.clone()
    });
    let _ = std::panic::take_hook();
    let wall = t0.elapsed().as_secs_f64();

    // Maintain the on-disk corpus: greedy-minimize, then rewrite.
    let full = guided.corpus.entries.len();
    let keep = guided.corpus.minimize();
    let mut pruned = guided.corpus.clone();
    pruned.retain_ids(&keep);
    if let Err(e) = pruned.sync_dir(corpus_dir) {
        eprintln!("warning: cannot sync corpus dir {}: {e}", args.corpus);
    }

    // Shrunk counterexamples (new ones only — seed replays never count)
    // and the guided union map, a diffable text artifact (CI uploads it on
    // failure).
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("cannot create {}: {e}", args.out);
        return 2;
    }
    for f in &guided.failures {
        let path = format!("{}/g{:04}.repro", args.out, f.index);
        if let Err(e) = std::fs::write(&path, f.repro_text(cfg.seed)) {
            eprintln!("cannot write {path}: {e}");
        }
        println!(
            "FAILURE g{:04}: {} — shrunk {} → {} ops in {} runs, repro: {path}",
            f.index,
            f.verdict.class(),
            f.scenario.op_count(),
            f.shrunk.op_count(),
            f.stats.attempts,
        );
    }
    let cov_path = format!("{}/guided-coverage.txt", args.out);
    if let Err(e) = std::fs::write(&cov_path, guided.corpus.union.render()) {
        eprintln!("warning: cannot write {cov_path}: {e}");
    }

    let guided_edges = guided.corpus.union.distinct() as u64;
    let blind_edges = blind.distinct() as u64;
    let rows: Vec<Vec<String>> = guided
        .per_engine
        .iter()
        .map(|(e, m)| vec![e.clone(), m.distinct().to_string()])
        .collect();
    print_table(
        &format!(
            "Coverage-guided fuzz: seed {}, {} iteration(s) ({} mutated / {} blind)",
            cfg.seed, guided.iterations, guided.mutated, guided.blind
        ),
        &["engine", "distinct edges"],
        &rows,
    );
    println!(
        "\ncorpus: {} entr(ies) admitted, minimized to {} on disk under {}",
        full,
        pruned.entries.len(),
        args.corpus
    );
    println!(
        "coverage: guided {guided_edges} distinct edge(s) vs blind {blind_edges} \
         at {} iteration(s) ({wall:.1}s wall)",
        guided.iterations
    );

    let mut code = 0;
    if !guided.failures.is_empty() {
        eprintln!(
            "{} new counterexample(s) found; replay with `fuzz --replay <file>`",
            guided.failures.len()
        );
        code = 1;
    }
    if guided_edges <= blind_edges && guided.iterations > 0 {
        eprintln!(
            "GUIDANCE REGRESSION: the corpus-guided scheduler did not beat blind \
             generation ({guided_edges} ≤ {blind_edges} edges)"
        );
        code = 1;
    }
    code
}

fn main() {
    // A scenario's fault spec is its only fault source; an inherited
    // environment spec would corrupt the fault-free baselines. Coverage
    // maps additionally pin the engine choice (monolithic vs sharded) so
    // they are environment-independent.
    std::env::remove_var("CORD_FAULTS");
    let args = parse_args();
    if let Some(path) = &args.replay {
        let p = std::path::Path::new(path);
        let code = if p.is_dir() {
            replay_dir(p)
        } else {
            replay_file(path)
        };
        std::process::exit(code);
    }
    if args.serve || args.check_coverage {
        std::env::remove_var("CORD_SIM_THREADS");
    }
    if args.check_coverage {
        std::process::exit(check_coverage());
    }
    if args.serve {
        std::process::exit(serve(&args));
    }
    // Panics are a verdict here, not noise: silence the default hook's
    // backtrace spew while the campaign runs.
    std::panic::set_hook(Box::new(|_| {}));

    let cfg = CampaignConfig {
        seed: args.seed,
        count: args.count.unwrap_or(if args.quick { 64 } else { 400 }),
        max_events: args.max_events,
        model_check: args.model,
        ..CampaignConfig::default()
    };
    let t0 = std::time::Instant::now();
    let campaign = run_campaign(&cfg);
    let wall = t0.elapsed().as_secs_f64();
    let _ = std::panic::take_hook();

    let mut classes = std::collections::BTreeMap::<&str, u64>::new();
    for o in &campaign.outcomes {
        *classes.entry(o.report.verdict.class()).or_default() += 1;
    }
    let rows: Vec<Vec<String>> = classes
        .iter()
        .map(|(c, n)| vec![c.to_string(), n.to_string()])
        .collect();
    print_table(
        &format!(
            "Fuzz campaign: seed {}, {} scenarios, event cap {}",
            cfg.seed, cfg.count, cfg.max_events
        ),
        &["verdict", "scenarios"],
        &rows,
    );

    if campaign.failures.is_empty() {
        println!(
            "\nall {} scenarios passed every oracle ({wall:.1}s wall)",
            campaign.outcomes.len()
        );
        return;
    }

    std::fs::create_dir_all(&args.out).unwrap_or_else(|e| {
        eprintln!("cannot create {}: {e}", args.out);
        std::process::exit(2)
    });
    println!();
    for f in &campaign.failures {
        let path = format!("{}/s{:04}.repro", args.out, f.index);
        if let Err(e) = std::fs::write(&path, f.repro_text(cfg.seed)) {
            eprintln!("cannot write {path}: {e}");
        }
        println!(
            "FAILURE s{:04}: {} — shrunk {} → {} ops in {} runs, repro: {path}",
            f.index,
            f.verdict.class(),
            f.scenario.op_count(),
            f.shrunk.op_count(),
            f.stats.attempts,
        );
        println!("  original: {}", f.verdict);
        println!("  shrunk:   {}", f.shrunk_verdict);
    }
    eprintln!(
        "\n{} of {} scenario(s) failed ({wall:.1}s wall); replay with \
         `fuzz --replay <file>`",
        campaign.failures.len(),
        campaign.outcomes.len()
    );
    std::process::exit(1);
}
