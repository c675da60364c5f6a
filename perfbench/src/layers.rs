//! The traced run: per-layer metrics read from what each crate's public
//! calls return, plus spans around those calls.
//!
//! The traced pass arms `System::set_profiling`, `System::set_sampling`,
//! pair accounting, a `MetricsRecorder` and this module's counting
//! `TraceSink`. Plain passes run alongside it in the same process, so
//! `trace.overhead_frac` compares like with like.

use std::hint::black_box;
use std::time::{Duration, Instant};

use cord::RunResult;
use cord_noc::{MsgClass, Noc};
use cord_sim::obs::SeriesSet;
use cord_sim::trace::{MetricsRecorder, Shared, TraceEvent, TraceSink};
use cord_sim::{DetRng, EventQueue, Time};

use crate::measure::{peak_rss_mb, plain_pass, run, setup, Pass, Verifier};
use crate::report::{median_of, Metric, Spans};
use crate::workload::{Inputs, Size, Workload};

/// Counts every trace event the engines emit.
#[derive(Debug, Default)]
struct CountingSink {
    /// Events seen.
    events: u64,
}

impl TraceSink for CountingSink {
    fn emit(&mut self, _ev: &TraceEvent) {
        self.events += 1;
    }
}

/// Host time the self-profiler attributed to one bucket, summed.
#[derive(Debug, Clone, Copy, Default)]
struct Bucket {
    count: u64,
    nanos: u64,
}

impl Bucket {
    fn mean_ns(self) -> f64 {
        per(self.nanos as f64, self.count as f64)
    }
}

/// `a / b`, or 0 where `b` is 0 (a layer the workload never enters).
fn per(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Profile buckets summed over every traced run.
#[derive(Debug, Default)]
struct Profile {
    classes: std::collections::BTreeMap<String, Bucket>,
    phases: std::collections::BTreeMap<String, Bucket>,
}

impl Profile {
    fn add(&mut self, r: &RunResult) {
        let Some(p) = &r.profile else { return };
        for (rows, into) in [
            (&p.classes, &mut self.classes),
            (&p.phases, &mut self.phases),
        ] {
            for (k, count, nanos) in rows {
                let b = into.entry(k.clone()).or_default();
                b.count += count;
                b.nanos += nanos;
            }
        }
    }

    fn class(&self, k: &str) -> Bucket {
        self.classes.get(k).copied().unwrap_or_default()
    }

    fn phase(&self, k: &str) -> Bucket {
        self.phases.get(k).copied().unwrap_or_default()
    }
}

/// `(mean, peak)` over every sample of every series named `name` (the
/// sharded engine prefixes each partition's series with `p<host>.`).
fn series_stats(sets: &[&SeriesSet], name: &str) -> (f64, u64) {
    let dotted = format!(".{name}");
    let (mut sum, mut n, mut peak) = (0u128, 0u64, 0u64);
    for set in sets {
        for (k, pts) in &set.series {
            if k == name || k.ends_with(&dotted) {
                for &(_, v) in pts {
                    sum += u128::from(v);
                    n += 1;
                    peak = peak.max(v);
                }
            }
        }
    }
    (per(sum as f64, n as f64), peak)
}

/// Host nanoseconds per hold operation (one pop plus one push) on a
/// calendar queue holding `depth` events, with reschedule increments
/// uniform in `[1, 2 * mean_inc_ps]` picoseconds.
fn hold_ns_per_op(depth: usize, mean_inc_ps: u64, ops: u64, seed: u64) -> f64 {
    let span = (2 * mean_inc_ps).max(1);
    let mut rng = DetRng::new(seed);
    let mut q: EventQueue<u32> = EventQueue::with_capacity(depth);
    for i in 0..depth.max(1) {
        q.push(Time::from_ps(1 + rng.range_u64(0..span)), i as u32);
    }
    let t = Instant::now();
    for _ in 0..ops {
        let (now, p) = q.pop().expect("hold model never drains");
        q.push(
            now + Time::from_ps(1 + rng.range_u64(0..span)),
            black_box(p),
        );
    }
    per(t.elapsed().as_nanos() as f64, ops as f64)
}

/// What the traced process measured.
pub struct Traced {
    /// Every per-layer metric, in declaration order.
    pub metrics: Vec<Metric>,
    /// Spans around each public call, for writing out at the end.
    pub spans: Spans,
}

/// Sampling grid per job: about 512 samples over the run's drain time.
fn sampling_interval(drained_ps: u64) -> Time {
    Time::from_ps((drained_ps / 512).max(1))
}

/// One traced pass. Returns the pass, its results, and the trace events
/// the counting sink saw.
fn traced_pass(
    inputs: &Inputs,
    reference: &Pass,
    spans: &mut Spans,
) -> (Pass, Vec<RunResult>, u64) {
    let pass_span = spans.open("perfbench", "traced_pass", None);
    let mut pass = Pass::default();
    let mut results = Vec::new();
    let mut events = 0;
    for (job, facts) in inputs.jobs.iter().zip(&reference.runs) {
        let interval = sampling_interval(facts.map_or(0, |f| f.drained_ps));
        let sink = Shared::new(CountingSink::default());
        let (mut sys, setup_s) = spans.time("cord::runner", "System::new", Some(pass_span), || {
            setup(job)
        });
        sys.set_profiling(true);
        sys.set_sampling(Some(interval));
        sys.set_pair_accounting(true);
        sys.tracer_mut().install(Box::new(sink.clone()));
        sys.tracer_mut().attach_metrics(MetricsRecorder::default());
        let out = spans.time("cord::runner", "System::try_run", Some(pass_span), || {
            run(sys, setup_s)
        });
        events += sink.with(|s| s.events);
        if let Some(r) = pass.push(job.cfg.protocol, out) {
            results.push(r);
        }
    }
    spans.close(pass_span);
    (pass, results, events)
}

/// Runs the traced process for `seconds`: alternating plain and traced
/// passes after one plain warm-up pass, then the queue hold probe.
pub fn measure(
    workload: Workload,
    size: Size,
    seed: u64,
    seconds: f64,
    run_id: String,
) -> (Traced, Verifier) {
    let mut spans = Spans::new(run_id);
    let t = Instant::now();
    let inputs = spans.time("cord-workloads", "Workload::inputs", None, || {
        workload.inputs(size, seed)
    });
    let gen_s = t.elapsed().as_secs_f64();
    let noc_cfg = inputs.jobs[0].cfg.noc;
    let noc_build: Vec<f64> = (0..5)
        .map(|_| {
            spans.time("cord-noc", "Noc::new", None, || {
                let t = Instant::now();
                black_box(Noc::new(black_box(noc_cfg)));
                t.elapsed().as_secs_f64()
            })
        })
        .collect();

    let mut verifier = Verifier::new(workload, size, seed);
    let reference = plain_pass(&inputs);
    verifier.check(&reference);
    let rss_mb = peak_rss_mb();

    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut first: Option<(Vec<RunResult>, u64)> = None;
    let mut profile = Profile::default();
    while plain.is_empty() || start.elapsed() < budget {
        let p = plain_pass(&inputs);
        verifier.check(&p);
        plain.push(p);
        let (p, results, events) = traced_pass(&inputs, &reference, &mut spans);
        verifier.check(&p);
        results.iter().for_each(|r| profile.add(r));
        traced.push(p);
        if first.is_none() {
            first = Some((results, events));
        }
    }
    let (results, trace_events) = first.expect("at least one traced pass");

    let run_s = median_of(&plain.iter().map(|p| p.run_s).collect::<Vec<_>>());
    let traced_s = median_of(&traced.iter().map(|p| p.run_s).collect::<Vec<_>>());
    let proto_s = |i: usize| median_of(&plain.iter().map(|p| p.proto_s[i]).collect::<Vec<_>>());
    let events = reference.events();

    let obs: Vec<&SeriesSet> = results.iter().filter_map(|r| r.obs.as_ref()).collect();
    let (depth_mean, depth_peak) = series_stats(&obs, "queue_depth");
    let (_, far_peak) = series_stats(&obs, "queue_far");
    let (_, unacked_peak) = series_stats(&obs, "xport_unacked");

    // Hold probe at the sampled mean depth, with increments matching the
    // workload's simulated time per event on one queue.
    let queues: u64 = inputs
        .jobs
        .iter()
        .map(|j| {
            if j.sim_threads.is_some() {
                u64::from(j.cfg.noc.hosts)
            } else {
                1
            }
        })
        .max()
        .unwrap_or(1);
    let depth = depth_mean.round().max(1.0) as usize;
    let mean_inc_ps =
        (depth_mean * reference.drained_ps() as f64 * queues as f64 / events.max(1) as f64) as u64;
    let hold_ops = if size == Size::Tiny {
        20_000
    } else {
        1_000_000
    };
    let hold: Vec<f64> = (0..5)
        .map(|i| {
            spans.time("cord-sim", "EventQueue::push+pop", None, || {
                hold_ns_per_op(depth, mean_inc_ps, hold_ops, seed ^ i)
            })
        })
        .collect();

    let sum = |f: &dyn Fn(&RunResult) -> u64| results.iter().map(f).sum::<u64>();
    let max = |f: &dyn Fn(&RunResult) -> u64| results.iter().map(f).max().unwrap_or(0);
    let class_msgs = |r: &RunResult, c: MsgClass| r.traffic[c].inter_msgs + r.traffic[c].intra_msgs;
    let rounds = (profile.phase("execute").count / queues) as f64;
    let shard = |b: Bucket| per(b.nanos as f64, rounds);

    let metrics = vec![
        Metric::single("workloads.gen_s", "s", gen_s),
        Metric::single("workloads.program_ops", "count", inputs.ops as f64),
        Metric::single("noc.build_s", "s", median_of(&noc_build)),
        Metric::single(
            "noc.inter_msgs",
            "count",
            sum(&|r| r.traffic.inter_msgs()) as f64,
        ),
        Metric::single(
            "noc.inter_bytes",
            "B",
            sum(&|r| r.traffic.inter_bytes()) as f64,
        ),
        Metric::single(
            "noc.intra_msgs",
            "count",
            sum(&|r| r.traffic.iter().map(|(_, c)| c.intra_msgs).sum()) as f64,
        ),
        Metric::single(
            "noc.notify_msgs",
            "count",
            sum(&|r| class_msgs(r, MsgClass::ReqNotify) + class_msgs(r, MsgClass::Notify)) as f64,
        ),
        Metric::single(
            "noc.active_pairs",
            "count",
            sum(&|r| {
                r.pair_flows.as_deref().map_or(0, |f| {
                    f.iter().filter(|(_, _, p)| p.msgs > 0).count() as u64
                })
            }) as f64,
        ),
        Metric::single("queue.depth_mean", "count", depth_mean),
        Metric::single("queue.depth_peak", "count", depth_peak as f64),
        Metric::single("queue.far_peak", "count", far_peak as f64),
        Metric::single("queue.hold_ns_per_op", "ns", median_of(&hold)),
        Metric::single("engine.events", "count", events as f64),
        Metric::single("engine.events_per_s", "1/s", per(events as f64, run_s)),
        Metric::single("engine.ns_per_event", "ns", per(run_s * 1e9, events as f64)),
        Metric::single(
            "frontend.steps",
            "count",
            profile.class("core_step").count as f64,
        ),
        Metric::single(
            "frontend.step_ns",
            "ns",
            profile.class("core_step").mean_ns(),
        ),
        Metric::single(
            "frontend.wake_ns",
            "ns",
            profile.class("core_wake").mean_ns(),
        ),
        Metric::single("frontend.polls", "count", sum(&|r| r.polls) as f64),
        Metric::single("dir.deliver_ns", "ns", profile.class("deliver").mean_ns()),
        Metric::single("dir.wake_ns", "ns", profile.class("dir_wake").mean_ns()),
        Metric::single("proto.cord_s", "s", proto_s(0)),
        Metric::single("proto.so_s", "s", proto_s(1)),
        Metric::single("proto.mp_s", "s", proto_s(2)),
        Metric::single("proto.wb_s", "s", proto_s(3)),
        Metric::single(
            "dir.lut_peak_b",
            "B",
            max(&|r| r.dir_storage_peak().peak_lut_bytes) as f64,
        ),
        Metric::single(
            "dir.buf_peak_b",
            "B",
            max(&|r| r.dir_storage_peak().peak_buf_bytes) as f64,
        ),
        Metric::single(
            "core.cnt_peak_b",
            "B",
            max(&|r| {
                r.proc_storages
                    .iter()
                    .map(|s| s.peak_cnt_bytes)
                    .max()
                    .unwrap_or(0)
            }) as f64,
        ),
        Metric::single(
            "core.table_full_stalls",
            "count",
            sum(&|r| r.metrics.as_ref().map_or(0, |m| m.table_full_stalls)) as f64,
        ),
        Metric::single(
            "xport.retransmits",
            "count",
            sum(&|r| r.traffic.faults.retransmits) as f64,
        ),
        Metric::single(
            "xport.dup_dropped",
            "count",
            sum(&|r| r.traffic.faults.dup_dropped) as f64,
        ),
        Metric::single("xport.unacked_peak", "count", unacked_peak as f64),
        Metric::single("xport.ack_ns", "ns", profile.class("xport_ack").mean_ns()),
        Metric::single(
            "xport.timeout_ns",
            "ns",
            profile.class("xport_timeout").mean_ns(),
        ),
        Metric::single(
            "xport.deliver_seq_ns",
            "ns",
            profile.class("deliver_seq").mean_ns(),
        ),
        Metric::single("shard.rounds", "count", rounds),
        Metric::single(
            "shard.events_per_round",
            "count",
            per(events as f64, rounds),
        ),
        Metric::single("shard.execute_ns", "ns", shard(profile.phase("execute"))),
        Metric::single(
            "shard.inbox_merge_ns",
            "ns",
            shard(profile.phase("inbox_merge")),
        ),
        Metric::single(
            "shard.barrier_wait_ns",
            "ns",
            shard(profile.phase("barrier_wait")),
        ),
        Metric::single(
            "shard.port_arrive_ns",
            "ns",
            profile.class("port_arrive").mean_ns(),
        ),
        Metric::single("trace.events", "count", trace_events as f64),
        Metric::single("trace.overhead_frac", "ratio", per(traced_s - run_s, run_s)),
        Metric::single(
            "mem.bytes_per_session",
            "B",
            per(rss_mb * 1024.0 * 1024.0, inputs.sessions as f64),
        ),
    ];
    verifier.check_engines_agree(&inputs);
    (Traced { metrics, spans }, verifier)
}
