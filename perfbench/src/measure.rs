//! Timed passes over a workload's inputs, and the checks on their outputs.

use std::time::{Duration, Instant};

use cord::{RunError, RunResult, System};
use cord_proto::ProtocolKind;

use crate::report::{median_of, Metric};
use crate::workload::{Inputs, Job, Size, Workload};
use crate::{calib, digest};

/// Fewest measured passes per run, however long a pass takes.
pub const MIN_PASSES: usize = 3;

/// Fewest `setup_s` samples per run; short runs add setup-only passes.
pub const MIN_SETUPS: usize = 25;

/// The seed the committed digests were recorded at.
pub const DEFAULT_SEED: u64 = 1;

/// Committed digests at the default seed, one `<workload> <hex>` per line.
const EXPECTED: &str = include_str!("../expected.txt");

/// One job's outcome with its two host timings.
pub struct JobOut {
    /// Seconds in `System::new` plus the engine setters.
    pub setup_s: f64,
    /// Seconds in `System::try_run`.
    pub run_s: f64,
    /// What the run returned.
    pub result: Result<RunResult, RunError>,
}

/// Builds `job`'s system and runs it, timing each phase.
pub fn run_job(job: &Job) -> JobOut {
    let (sys, setup_s) = setup(job);
    run(sys, setup_s)
}

/// Runs a built system, timing `System::try_run`.
pub fn run(mut sys: System, setup_s: f64) -> JobOut {
    let t = Instant::now();
    let result = sys.try_run();
    let run_s = t.elapsed().as_secs_f64();
    JobOut {
        setup_s,
        run_s,
        result,
    }
}

/// Builds `job`'s system, timing `System::new` and the engine setters but
/// not the copies of the inputs it consumes.
pub fn setup(job: &Job) -> (System, f64) {
    let (cfg, programs) = (job.cfg.clone(), job.programs.clone());
    let t = Instant::now();
    let mut sys = System::new(cfg, programs);
    job.configure(&mut sys);
    (sys, t.elapsed().as_secs_f64())
}

/// The simulated facts of one run that later checks need.
#[derive(Debug, Clone, Copy)]
pub struct RunFacts {
    /// Digest of the run ([`digest::run_digest`]).
    pub digest: u64,
    /// Digest of the final registers alone.
    pub regs: u64,
    /// Time the last event was processed, in picoseconds.
    pub drained_ps: u64,
    /// Events the engine processed.
    pub events: u64,
}

/// One pass: every job of the workload once, in order.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Summed setup seconds.
    pub setup_s: f64,
    /// Summed `try_run` seconds.
    pub run_s: f64,
    /// `try_run` seconds by protocol: CORD, SO, MP, WB.
    pub proto_s: [f64; 4],
    /// Facts per job; `None` where the run returned an error.
    pub runs: Vec<Option<RunFacts>>,
}

impl Pass {
    /// The pass digest: run digests folded in job order.
    pub fn digest(&self) -> u64 {
        digest::fold(self.runs.iter().map(|r| r.map_or(0, |f| f.digest)))
    }

    /// Total engine events across the pass.
    pub fn events(&self) -> u64 {
        self.runs.iter().flatten().map(|f| f.events).sum()
    }

    /// Total simulated drain time across the pass, in picoseconds.
    pub fn drained_ps(&self) -> u64 {
        self.runs.iter().flatten().map(|f| f.drained_ps).sum()
    }

    /// Accounts one job's outcome; hands the result back for callers that
    /// read more of it.
    pub fn push(&mut self, kind: ProtocolKind, out: JobOut) -> Option<RunResult> {
        self.setup_s += out.setup_s;
        self.run_s += out.run_s;
        if let Some(i) = proto_index(kind) {
            self.proto_s[i] += out.run_s;
        }
        match out.result {
            Ok(r) => {
                self.runs.push(Some(RunFacts {
                    digest: digest::run_digest(&r),
                    regs: digest::regs_digest(&r),
                    drained_ps: r.drained.as_ps(),
                    events: r.events,
                }));
                Some(r)
            }
            Err(e) => {
                eprintln!("run failed: {e}");
                self.runs.push(None);
                None
            }
        }
    }
}

/// Index into [`Pass::proto_s`] for the four protocols the workloads run.
fn proto_index(kind: ProtocolKind) -> Option<usize> {
    match kind {
        ProtocolKind::Cord => Some(0),
        ProtocolKind::So => Some(1),
        ProtocolKind::Mp => Some(2),
        ProtocolKind::Wb => Some(3),
        _ => None,
    }
}

/// Runs every job once with no instrumentation.
pub fn plain_pass(inputs: &Inputs) -> Pass {
    let mut pass = Pass::default();
    for job in &inputs.jobs {
        pass.push(job.cfg.protocol, run_job(job));
    }
    pass
}

/// What a plain run measured.
pub struct EndToEnd {
    /// The end-to-end metrics, in calibrated seconds.
    pub metrics: Vec<Metric>,
    /// The uncalibrated medians and the calibration, for the printed record.
    pub raw: String,
    /// The output checks.
    pub verifier: Verifier,
}

/// Measures the end-to-end metrics with tracing off: one warm-up pass,
/// then passes until `seconds` have elapsed (at least [`MIN_PASSES`]),
/// each bracketed by runs of the calibration loop (see [`calib`]).
pub fn end_to_end(workload: Workload, size: Size, seed: u64, seconds: f64) -> EndToEnd {
    let inputs = workload.inputs(size, seed);
    let mut verifier = Verifier::new(workload, size, seed);
    verifier.check(&plain_pass(&inputs));
    // Read after one pass, before the calibration loop's own allocations
    // and the serial cross-check's run.
    let rss_mb = peak_rss_mb();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut passes = Vec::new();
    let threads = inputs
        .jobs
        .iter()
        .filter_map(|j| j.sim_threads)
        .max()
        .unwrap_or(1);
    let mut cal = vec![calib::churn_s(threads)];
    while passes.len() < MIN_PASSES || start.elapsed() < budget {
        let p = plain_pass(&inputs);
        verifier.check(&p);
        passes.push(p);
        cal.push(calib::churn_s(threads));
    }
    // Each pass is scaled by the mean of the calibrations either side of it.
    let scale: Vec<f64> = cal
        .windows(2)
        .map(|w| calib::REFERENCE_S * 2.0 / (w[0] + w[1]))
        .collect();
    let cal_median = median_of(&cal);
    let mut setups: Vec<f64> = passes
        .iter()
        .zip(&scale)
        .map(|(p, k)| p.setup_s * k)
        .collect();
    while setups.len() < MIN_SETUPS {
        let s: f64 = inputs.jobs.iter().map(|j| setup(j).1).sum();
        setups.push(s * calib::REFERENCE_S / cal_median);
    }
    verifier.check_engines_agree(&inputs);
    let raw_run: Vec<f64> = passes.iter().map(|p| p.run_s).collect();
    let run: Vec<f64> = raw_run.iter().zip(&scale).map(|(s, k)| s * k).collect();
    let ops: Vec<f64> = run.iter().map(|s| inputs.ops as f64 / s).collect();
    let raw = format!(
        "raw run_s={} setup_s={} calib_s={cal_median}",
        median_of(&raw_run),
        median_of(&passes.iter().map(|p| p.setup_s).collect::<Vec<_>>()),
    );
    EndToEnd {
        metrics: vec![
            Metric::sampled("run_s", "s", &run, true),
            Metric::sampled("ops_per_s", "1/s", &ops, false),
            Metric::sampled("setup_s", "s", &setups, true),
            Metric::single("peak_rss_mb", "MB", rss_mb),
        ],
        raw,
        verifier,
    }
}

/// Output verification across a benchmark process: runs that error, a
/// pass whose digest differs from the first pass, a first pass that
/// differs from the committed digest, and a sharded run whose registers
/// differ from the serial engine's all count as failed runs.
#[derive(Debug)]
pub struct Verifier {
    workload: Workload,
    check_expected: bool,
    reference: Option<Pass>,
    /// Runs attempted.
    pub attempted: u64,
    /// Runs that failed a check.
    pub failed: u64,
}

impl Verifier {
    /// A verifier for `workload`; the committed digest is checked only at
    /// full size and the default seed.
    pub fn new(workload: Workload, size: Size, seed: u64) -> Self {
        Verifier {
            workload,
            check_expected: size == Size::Full && seed == DEFAULT_SEED,
            reference: None,
            attempted: 0,
            failed: 0,
        }
    }

    /// The reference pass digest, once a pass has been checked.
    pub fn digest(&self) -> Option<u64> {
        self.reference.as_ref().map(Pass::digest)
    }

    /// Checks one pass and accounts its runs.
    pub fn check(&mut self, pass: &Pass) {
        let runs = pass.runs.len() as u64;
        self.attempted += runs;
        let errors = pass.runs.iter().filter(|r| r.is_none()).count() as u64;
        let digest = pass.digest();
        let mismatch = match &self.reference {
            Some(reference) => reference.digest() != digest,
            None => {
                let want = self.check_expected.then(|| expected(self.workload));
                self.reference = Some(pass.clone());
                match want {
                    Some(Some(want)) => want != digest,
                    Some(None) => {
                        eprintln!("no committed digest for {}", self.workload.name());
                        true
                    }
                    None => false,
                }
            }
        };
        if mismatch {
            eprintln!(
                "{}: pass digest {digest:016x} does not match the reference",
                self.workload.name()
            );
            self.failed += runs;
        } else {
            self.failed += errors;
        }
    }

    /// Runs every sharded job once on the serial engine and checks that
    /// its final registers equal the reference pass's.
    pub fn check_engines_agree(&mut self, inputs: &Inputs) {
        let Some(reference) = &self.reference else {
            return;
        };
        let mut failed = 0;
        let mut attempted = 0;
        for (job, sharded) in inputs.jobs.iter().zip(&reference.runs) {
            if job.sim_threads.is_none() {
                continue;
            }
            attempted += 1;
            let serial = Job {
                sim_threads: None,
                ..job.clone()
            };
            let agree = match (run_job(&serial).result, sharded) {
                (Ok(r), Some(s)) => digest::regs_digest(&r) == s.regs,
                _ => false,
            };
            if !agree {
                eprintln!("{}: sharded registers differ from serial", job.label);
                failed += 1;
            }
        }
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Failed runs over attempted runs.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The committed digest of `workload` at the default seed, if any.
pub fn expected(workload: Workload) -> Option<u64> {
    EXPECTED.lines().find_map(|line| {
        let (name, hex) = line.split_once(' ')?;
        (name == workload.name())
            .then(|| u64::from_str_radix(hex.trim(), 16).ok())
            .flatten()
    })
}

/// Peak resident memory of this process in MB, from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
