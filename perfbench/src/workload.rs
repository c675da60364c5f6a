//! The four workloads and the seeded inputs each one runs.
//!
//! Every knob is pinned here through the library's setters; nothing is
//! read from the environment.

use cord::System;
use cord_noc::{Fabric, NocConfig};
use cord_proto::{ConsistencyModel, Program, ProtocolKind, SystemConfig};
use cord_workloads::{table2_apps, KvSpec};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Causal KV on a 128-host dragonfly, serial engine.
    KvWide,
    /// The same inputs on the sharded engine at two workers.
    KvWideX2,
    /// The Table 2 app models under every protocol, 8-host CXL.
    Apps,
    /// Causal KV on 8 hosts under the "light" chaos fault plan.
    Lossy,
}

/// Input size: `Full` is what the benchmark measures, `Tiny` is for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A fast variant of the same shape.
    Tiny,
}

/// One simulation: a configuration, its programs and the engine knobs.
#[derive(Clone)]
pub struct Job {
    /// Human-readable label (app and protocol for `apps`).
    pub label: String,
    /// The system configuration.
    pub cfg: SystemConfig,
    /// One program per core.
    pub programs: Vec<Program>,
    /// `Some(w)`: sharded engine with `w` workers; `None`: serial engine.
    pub sim_threads: Option<usize>,
    /// Fault-plan spec in the `CORD_FAULTS` grammar.
    pub faults: Option<String>,
}

impl Job {
    /// Applies the job's engine knobs to a freshly built system.
    pub fn configure(&self, sys: &mut System) {
        sys.set_sim_threads(self.sim_threads);
        sys.set_sampling(None);
        sys.set_profiling(false);
        sys.set_pair_accounting(false);
        if let Some(spec) = &self.faults {
            sys.set_fault_spec(spec)
                .expect("workload fault spec parses");
        }
    }
}

/// A workload's generated inputs.
pub struct Inputs {
    /// The simulations one pass runs, in order.
    pub jobs: Vec<Job>,
    /// Client sessions across the pass (KV workloads; 0 for `apps`).
    pub sessions: u64,
    /// Program operations across the pass (`Program::len` summed).
    pub ops: u64,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 4] = [
        Workload::KvWide,
        Workload::KvWideX2,
        Workload::Apps,
        Workload::Lossy,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KvWide => "kv-wide",
            Workload::KvWideX2 => "kv-wide-x2",
            Workload::Apps => "apps",
            Workload::Lossy => "lossy",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Generates the workload's inputs from `seed`: the same seed gives
    /// the same inputs.
    pub fn inputs(self, size: Size, seed: u64) -> Inputs {
        let tiny = size == Size::Tiny;
        match self {
            Workload::KvWide | Workload::KvWideX2 => {
                let (hosts, fabric, spec) = if tiny {
                    (16, "dragonfly 4 50 400", kv_spec(2, 4, seed))
                } else {
                    (128, "dragonfly 16 50 400", kv_spec(4, 256, seed))
                };
                let threads = (self == Workload::KvWideX2).then_some(2);
                kv_inputs(hosts, fabric, spec, threads, None)
            }
            Workload::Lossy => {
                let spec = if tiny {
                    kv_spec(2, 8, seed)
                } else {
                    kv_spec(4, 512, seed)
                };
                let faults = format!("seed={seed}; drop=0.02; dup=0.02; jitter=50");
                kv_inputs(8, "flat", spec, None, Some(faults))
            }
            Workload::Apps => apps_inputs(tiny, seed),
        }
    }
}

fn kv_spec(clients_per_host: u32, sessions: u32, seed: u64) -> KvSpec {
    KvSpec {
        clients_per_host,
        sessions,
        puts_per_session: 2,
        value_bytes: 8,
        keyspace: 1 << 20,
        seed,
    }
}

fn kv_inputs(
    hosts: u32,
    fabric: &str,
    spec: KvSpec,
    sim_threads: Option<usize>,
    faults: Option<String>,
) -> Inputs {
    let fabric = Fabric::parse(fabric).expect("workload fabric grammar");
    let noc = NocConfig::cxl(hosts, 8).with_fabric(fabric);
    let cfg = SystemConfig::with_noc(ProtocolKind::Cord, noc).with_model(ConsistencyModel::Rc);
    let programs = spec.programs(&cfg);
    let ops = program_ops(&programs);
    Inputs {
        jobs: vec![Job {
            label: format!("kv/{hosts}"),
            cfg,
            programs,
            sim_threads,
            faults,
        }],
        sessions: spec.total_sessions(hosts),
        ops,
    }
}

/// The protocols fig. 7 compares: CORD, MP where the app is compatible
/// with it, SO and WB.
fn schemes(mp_compatible: bool) -> Vec<ProtocolKind> {
    let mut v = vec![ProtocolKind::Cord];
    if mp_compatible {
        v.push(ProtocolKind::Mp);
    }
    v.extend([ProtocolKind::So, ProtocolKind::Wb]);
    v
}

fn apps_inputs(tiny: bool, seed: u64) -> Inputs {
    let apps = table2_apps().into_iter().filter(|a| a.name != "ATA");
    let apps: Vec<_> = if tiny {
        apps.take(1)
            .map(|mut a| {
                a.iters = a.iters.min(2);
                a
            })
            .collect()
    } else {
        apps.collect()
    };
    let mut jobs = Vec::new();
    for app in &apps {
        for kind in schemes(app.mp_compatible) {
            let mut cfg = SystemConfig::cxl(kind, 8).with_model(ConsistencyModel::Rc);
            cfg.seed = seed;
            let programs = app.programs(&cfg);
            jobs.push(Job {
                label: format!("{}/{kind:?}", app.name),
                cfg,
                programs,
                sim_threads: None,
                faults: None,
            });
        }
    }
    let ops = jobs.iter().map(|j| program_ops(&j.programs)).sum();
    Inputs {
        jobs,
        sessions: 0,
        ops,
    }
}

fn program_ops(programs: &[Program]) -> u64 {
    programs.iter().map(|p| p.len() as u64).sum()
}
