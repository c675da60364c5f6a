//! Runs one benchmark workload and prints its record.
//!
//! ```text
//! perfbench --workload <kv-wide|kv-wide-x2|apps|lossy> [--seed N]
//!           [--seconds S] [--trace 0|1] [--size full|tiny]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with tracing off;
//! `--trace 1` prints the per-layer metrics of a traced run and one span
//! line per timed public call. The last line of standard output is the
//! JSON record `{"correct", "attempted", "failed", "metrics"}`.

use std::process::ExitCode;

use cord_perfbench::measure::{end_to_end, expected, DEFAULT_SEED};
use cord_perfbench::report::{host_signature, json_line, Metric};
use cord_perfbench::{layers, Size, Workload};

const USAGE: &str = "usage: perfbench --workload <kv-wide|kv-wide-x2|apps|lossy> \
                     [--seed N] [--seconds S] [--trace 0|1] [--size full|tiny]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::KvWide,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--size" => {
                args.size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// The simulator reads `CORD_*` variables in `System::new`, and
/// `CORD_THREADS` sizes the sweep pool; every knob here is pinned through
/// setters instead, so any such variable is cleared before anything runs.
fn clear_cord_env() {
    let names: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("CORD_"))
        .collect();
    for k in names {
        eprintln!("perfbench: clearing {}", k.to_string_lossy());
        std::env::remove_var(k);
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    clear_cord_env();
    let w = args.workload;
    let size = if args.size == Size::Full {
        "full"
    } else {
        "tiny"
    };
    let run_id = format!("{}-{}-{}", w.name(), args.seed, std::process::id());
    println!(
        "perfbench run={run_id} workload={} seed={} seconds={} trace={} size={size}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", host_signature());

    let (metrics, verifier, spans) = if args.trace {
        let (traced, verifier) = layers::measure(w, args.size, args.seed, args.seconds, run_id);
        let mut metrics = traced.metrics;
        metrics.push(Metric::single("fail_frac", "ratio", verifier.fail_frac()));
        (metrics, verifier, Some(traced.spans))
    } else {
        let e2e = end_to_end(w, args.size, args.seed, args.seconds);
        println!("{}", e2e.raw);
        (e2e.metrics, e2e.verifier, None)
    };

    let want = match (args.size, args.seed == DEFAULT_SEED) {
        (Size::Full, true) => expected(w).map_or("missing".into(), |d| format!("{d:016x}")),
        _ => "-".into(),
    };
    println!(
        "digest {} expected={want}",
        verifier
            .digest()
            .map_or("-".into(), |d| format!("{d:016x}"))
    );
    for m in &metrics {
        println!("{}", m.line());
    }
    if spans.is_none() {
        println!(
            "{}",
            Metric::single("fail_frac", "ratio", verifier.fail_frac()).line()
        );
    }
    for line in spans.iter().flat_map(|s| s.lines()) {
        println!("{line}");
    }
    println!(
        "{}",
        json_line(
            verifier.failed == 0,
            verifier.attempted,
            verifier.failed,
            &metrics
        )
    );
    ExitCode::SUCCESS
}
