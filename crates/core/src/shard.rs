//! Conservative-lookahead parallel simulation (sharded engine).
//!
//! The simulation is partitioned **by host**: each host's tiles (cores +
//! directory slices), its share of transport state, and its half of every
//! fabric channel become one logical process with a private event queue — a
//! partition is a [`System`] restricted to one host. Crucially the partition
//! count is always the host count, *never* the worker count: worker threads
//! only decide which partitions execute concurrently, so traces, metrics,
//! traffic counters and [`RunResult`]s are bit-identical at 1, 2, or N
//! workers.
//!
//! Progress follows the classic Chandy–Misra/LBTS recipe. Any message from
//! another partition departs no earlier than the global minimum event time
//! `M` and spends at least [`cord_noc::NocConfig::min_latency`] on the
//! fabric, so every event strictly before `M + min_latency` is safe to
//! execute without hearing from the other partitions. Rounds alternate:
//!
//! 1. **drain** — each partition sorts its inbound cross-partition messages
//!    by `(port-arrival, source partition, emission index)` — a
//!    deterministic merge order — and schedules them;
//! 2. **decide** — after a barrier, every worker independently computes the
//!    same LBTS `M`, event-cap and liveness verdicts from per-partition
//!    atomics (no coordinator thread, no worker-count-dependent state);
//! 3. **execute** — each partition runs its queue up to `M + min_latency`,
//!    buffering cross-partition sends in per-destination outboxes that are
//!    flushed to mailboxes before the closing barrier.
//!
//! Cross-host delivery splits at the switch port: the source partition runs
//! the egress half (mesh-to-port, serialization, fabric latency, fault
//! injection with per-channel-pair sequence numbers) and stamps the
//! port-arrival time; the destination applies ingress contention when the
//! [`Event::PortArrive`] fires. Single-host systems have no cross-partition
//! edges at all (`min_latency` is `Time::MAX`), so the one partition runs to
//! completion in a single round with the monolithic loop's own liveness
//! checks.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use cord_sim::obs::{Profiler, Sampler, ScopeTimer, SeriesSet};
use cord_sim::trace::{BufSink, TraceEvent, Tracer};
use cord_sim::Time;

use crate::runner::{CrossMsg, Event, Partition, RunError, RunResult, System};

/// Per-partition loop state carried across rounds.
#[derive(Debug, Clone)]
struct LoopState {
    /// Events processed by this partition so far.
    events: u64,
    /// Last event time processed by this partition.
    drained: Time,
    /// Solo-partition liveness fingerprint (single-host runs execute in one
    /// round, so the in-round watchdog mirrors the monolithic loop's).
    wd_fp: (u64, u64, u64),
    wd_since: Time,
}

/// A run-ending condition detected inside the round loop. `Deadlock` is
/// never produced here — it falls out of the final `check_finished` pass
/// over the gathered partitions.
#[derive(Debug, Clone)]
enum Verdict {
    EventCap {
        events: u64,
    },
    NoProgress {
        since: Time,
        now: Time,
        window: Time,
    },
}

/// Sense-reversing spin barrier. Rounds are short (one lookahead window of
/// events per partition), so parking on a mutex/condvar per phase — what
/// `std::sync::Barrier` does — costs more than the work between barriers;
/// spin briefly, then yield.
struct SpinBarrier {
    arrived: AtomicUsize,
    generation: AtomicUsize,
    parties: usize,
}

impl SpinBarrier {
    fn new(parties: usize) -> Self {
        SpinBarrier {
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            parties,
        }
    }

    fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            self.arrived.store(0, Ordering::Release);
            self.generation
                .store(generation.wrapping_add(1), Ordering::Release);
            return;
        }
        let mut spins = 0u32;
        while self.generation.load(Ordering::Acquire) == generation {
            spins += 1;
            if spins < 4096 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// Shared coordination state. All cross-worker decisions are computed
/// redundantly by every worker from these per-partition cells, so no
/// decision ever depends on which thread got where first.
struct Coord {
    barrier: SpinBarrier,
    /// Per-partition next-event time in ps (`u64::MAX` = empty queue).
    mins: Vec<AtomicU64>,
    /// Per-partition cumulative event counts.
    counts: Vec<AtomicU64>,
    /// Per-partition progress fingerprints (pc sum, done count,
    /// retransmits), summed globally for the round-level watchdog.
    fps: Vec<[AtomicU64; 3]>,
    /// Mailbox lanes, one per *destination* partition — O(nparts), not the
    /// O(nparts²) src-major matrix a 512-host run would otherwise allocate.
    /// Each entry is tagged `(src partition, emission index within this
    /// round's batch)`; the reader sorts by `(port-arrival, src, idx)`, so
    /// the merge order is identical to the per-pair-lane scheme no matter
    /// how writer lock acquisitions interleave. Writers only contend with
    /// the few other workers flushing to the same destination in the same
    /// phase; the reader drains in a different phase.
    mailboxes: Vec<Mutex<Vec<(u32, u32, CrossMsg)>>>,
    /// Set when any worker has decided the run is over (error or panic).
    aborted: AtomicBool,
    /// First error by partition id (lowest wins — deterministic regardless
    /// of which worker recorded first).
    verdict: Mutex<Option<(usize, Verdict)>>,
    /// A panic captured from partition execution, re-raised after join so
    /// workers waiting on the barrier are never abandoned.
    panic: Mutex<Option<(usize, Box<dyn std::any::Any + Send>)>>,
}

impl Coord {
    fn record_verdict(&self, part: usize, v: Verdict) {
        let mut g = self.verdict.lock().expect("verdict lock");
        match &*g {
            Some((p, _)) if *p <= part => {}
            _ => *g = Some((part, v)),
        }
        self.aborted.store(true, Ordering::SeqCst);
    }

    fn record_panic(&self, part: usize, payload: Box<dyn std::any::Any + Send>) {
        let mut g = self.panic.lock().expect("panic lock");
        match &*g {
            Some((p, _)) if *p <= part => {}
            _ => *g = Some((part, payload)),
        }
        self.aborted.store(true, Ordering::SeqCst);
    }
}

impl System {
    /// Executes queued events strictly before `horizon_ps`. `solo` enables
    /// the in-round liveness watchdog (single-partition runs only — with
    /// several partitions liveness is judged globally at round barriers).
    fn run_until(
        &mut self,
        horizon_ps: u64,
        st: &mut LoopState,
        solo: bool,
    ) -> Result<(), Verdict> {
        let profiling = self.profiler.is_some();
        let mut pending = match self.queue.peek_time() {
            Some(t) if t.as_ps() < horizon_ps => self.queue.pop(),
            _ => None,
        };
        while let Some((now, ev)) = pending {
            st.events += 1;
            if st.events > self.max_events {
                return Err(Verdict::EventCap { events: st.events });
            }
            if solo && st.events & 0xFFF == 0 {
                if let Some(window) = self.watchdog {
                    let fp = self.progress_fingerprint();
                    if fp != st.wd_fp {
                        st.wd_fp = fp;
                        st.wd_since = now;
                    } else if now > st.wd_since + window {
                        return Err(Verdict::NoProgress {
                            since: st.wd_since,
                            now,
                            window,
                        });
                    }
                }
            }
            // Deterministic sim-time sampling: the per-partition pop order is
            // worker-count independent, so so are the sampled series.
            if let Some(s) = self.sampler.as_deref() {
                if s.due(now.as_ps()) {
                    self.take_sample(now);
                }
            }
            st.drained = now;
            let prof_label = profiling.then(|| ev.kind_label());
            let prof_t0 = profiling.then(std::time::Instant::now);
            self.handle_event(now, ev);
            if let (Some(label), Some(t0)) = (prof_label, prof_t0) {
                let ns = t0.elapsed().as_nanos() as u64;
                self.profiler
                    .as_mut()
                    .expect("profiling flag implies profiler")
                    .add_class(label, ns);
            }
            pending = match self.queue.pop_if_at(now) {
                Some(ev) => Some((now, ev)),
                None => match self.queue.peek_time() {
                    Some(t) if t.as_ps() < horizon_ps => self.queue.pop(),
                    _ => None,
                },
            };
        }
        Ok(())
    }
}

/// Builds the partition for `host`: a **sparse** `System` holding only that
/// host's tiles (its frontends, engines, directory slices and memories),
/// with transport, tracer and fault state mirrored from the parent. Tile
/// identities stay global (`tile_base = host × tiles_per_host`), so events,
/// traces and engine ids are bit-identical to the monolithic engine's; only
/// the vectors are host-local. The fabric's per-pair latency table is shared
/// with the parent via [`cord_noc::Noc::fork`], so 512 partitions cost
/// O(hosts²) once, not per partition.
fn make_partition(parent: &System, host: u32) -> System {
    let tph = parent.cfg.noc.tiles_per_host;
    let lo = (host * tph) as usize;
    let mut s = System::build(
        parent.cfg.clone(),
        parent.noc.fork(),
        parent.fes[lo..lo + tph as usize]
            .iter()
            .map(|fe| fe.program().clone())
            .collect(),
        host * tph,
    );
    // `System::build` never consults the environment (CORD_SIM_THREADS,
    // CORD_FAULTS, CORD_TRACE); partitions mirror the parent's *effective*
    // state instead, which may have been set programmatically.
    if let Some((plan, xcfg)) = &parent.fault_spec {
        s.set_faults(plan.clone(), *xcfg);
    }
    s.watchdog = parent.watchdog;
    s.max_events = parent.max_events;
    // A buffer sink is only needed when the parent will replay the merged
    // trace into a real sink, metrics recorder or coverage map —
    // flight-recorder-only tracing stays in the per-partition rings.
    s.tracer = if parent.tracer.needs_merged_replay() {
        Tracer::with_sink(Box::new(BufSink::new()))
    } else {
        Tracer::disabled()
    };
    if let Some(cap) = parent.tracer.flight_cap() {
        s.tracer.arm_flight(cap);
    }
    s.sampler = parent
        .sampler
        .as_ref()
        .map(|p| Box::new(Sampler::new(p.interval())));
    s.profiler = parent.profiler.as_ref().map(|_| Box::new(Profiler::new()));
    // Each partition injects only its own host's crash events, so every
    // crash fires exactly once regardless of worker count.
    s.schedule_crashes(Some(host));
    s.part = Some(Partition {
        host,
        outbox: std::collections::BTreeMap::new(),
    });
    s
}

/// Sorts one partition's inbound cross-partition messages into its queue in
/// the deterministic merge order `(port-arrival, source partition, emission
/// index)` — independent of worker count and flush timing.
fn drain_inbox(s: &mut System, me: usize, coord: &Coord) {
    let mut incoming: Vec<(u64, u32, u32, CrossMsg)> = {
        let mut lane = coord.mailboxes[me].lock().expect("mailbox");
        lane.drain(..)
            .map(|(src, idx, cm)| (cm.reach.as_ps(), src, idx, cm))
            .collect()
    };
    incoming.sort_by_key(|&(t, src, idx, _)| (t, src, idx));
    for (_, _, _, cm) in incoming {
        s.queue.push(
            cm.reach,
            Event::PortArrive {
                bytes: cm.bytes,
                wire: cm.wire,
            },
        );
    }
}

/// Flushes one partition's sparse outbox into the destination mailbox
/// lanes, tagging each message with `(src partition, emission index)` so the
/// reader can reconstruct the deterministic merge order. Since every reader
/// drains its lane each phase A, at most one batch per source is ever in a
/// lane, so the per-batch index is unambiguous.
fn flush_outbox(s: &mut System, me: usize, coord: &Coord) {
    let part = s.part.as_mut().expect("partition state");
    for (&dst, msgs) in part.outbox.iter_mut() {
        if msgs.is_empty() {
            continue;
        }
        let mut lane = coord.mailboxes[dst as usize].lock().expect("mailbox");
        lane.extend(
            msgs.drain(..)
                .enumerate()
                .map(|(idx, cm)| (me as u32, idx as u32, cm)),
        );
    }
}

/// One worker's round loop over its contiguous chunk of partitions.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    mut shards: Vec<System>,
    mut states: Vec<LoopState>,
    base: usize,
    wid: usize,
    nparts: usize,
    lookahead_ps: u64,
    watchdog: Option<Time>,
    max_events: u64,
    coord: &Coord,
) -> (Vec<System>, Vec<LoopState>) {
    let solo = nparts == 1;
    let profiling = shards.first().is_some_and(|s| s.profiler.is_some());
    // Wall-clock spent parked at the two round barriers, folded into the
    // chunk's first partition at the end (profiles are merged additively and
    // marked non-deterministic, so the attribution point doesn't matter).
    let mut barrier_ns = 0u64;
    // Round-level watchdog state: every worker tracks it identically from
    // the shared per-partition fingerprints.
    let mut wd_fp: (u64, u64, u64) = global_fingerprint(coord, nparts);
    let mut wd_since = Time::ZERO;
    loop {
        // Phase A: drain inboxes, publish per-partition minimums, event
        // counts and progress fingerprints. *Everything* phase B reads is
        // published here, before the barrier: a worker still deciding must
        // never observe values a faster worker already updated in this
        // round's execute phase, or the two compute different verdicts and
        // part ways at different barriers (deadlock). Caught panics still
        // arrive at the barrier; the run unwinds at the synchronized
        // post-execute check instead of stranding a peer.
        for (k, s) in shards.iter_mut().enumerate() {
            let me = base + k;
            let timer = ScopeTimer::start(profiling);
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| drain_inbox(s, me, coord))) {
                coord.record_panic(me, payload);
            }
            if let (Some(ns), Some(p)) = (timer.stop(), s.profiler.as_mut()) {
                p.add_phase("inbox_merge", ns);
            }
            let min = s.queue.peek_time().map_or(u64::MAX, |t| t.as_ps());
            coord.mins[me].store(min, Ordering::SeqCst);
            coord.counts[me].store(states[k].events, Ordering::SeqCst);
            let fp = s.progress_fingerprint();
            coord.fps[me][0].store(fp.0, Ordering::SeqCst);
            coord.fps[me][1].store(fp.1, Ordering::SeqCst);
            coord.fps[me][2].store(fp.2, Ordering::SeqCst);
        }
        let timer = ScopeTimer::start(profiling);
        coord.barrier.wait();
        if let Some(ns) = timer.stop() {
            barrier_ns += ns;
        }
        // Phase B: global decisions — identical on every worker. There is
        // deliberately *no* `aborted` check here: another worker may set the
        // flag during this same round's execute phase, so reading it outside
        // the post-execute barrier races with scheduling (a worker could
        // break out while its peer still waits at the execute barrier —
        // deadlock). Every abort path is instead either computed identically
        // by all workers below, or latched by the barrier-ordered check
        // after the execute phase.
        let m_ps = (0..nparts)
            .map(|i| coord.mins[i].load(Ordering::SeqCst))
            .min()
            .unwrap_or(u64::MAX);
        let total: u64 = (0..nparts)
            .map(|i| coord.counts[i].load(Ordering::SeqCst))
            .sum();
        if total > max_events {
            if wid == 0 {
                coord.record_verdict(usize::MAX, Verdict::EventCap { events: total });
            }
            break;
        }
        if let Some(window) = watchdog {
            if !solo && m_ps != u64::MAX {
                let fp = global_fingerprint(coord, nparts);
                let now = Time::from_ps(m_ps);
                if fp != wd_fp {
                    wd_fp = fp;
                    wd_since = now;
                } else if now > wd_since + window {
                    if wid == 0 {
                        coord.record_verdict(
                            usize::MAX,
                            Verdict::NoProgress {
                                since: wd_since,
                                now,
                                window,
                            },
                        );
                    }
                    break;
                }
            }
        }
        if m_ps == u64::MAX {
            break; // every queue empty: the run is drained
        }
        let horizon_ps = m_ps.saturating_add(lookahead_ps);
        // Phase C: execute up to the horizon, publish, flush. Keep going
        // through the whole chunk even after an error so the candidate
        // verdict set (and thus the lowest-partition winner) never depends
        // on worker count.
        for (k, s) in shards.iter_mut().enumerate() {
            let me = base + k;
            let st = &mut states[k];
            let timer = ScopeTimer::start(profiling);
            let outcome = catch_unwind(AssertUnwindSafe(|| s.run_until(horizon_ps, st, solo)));
            if let (Some(ns), Some(p)) = (timer.stop(), s.profiler.as_mut()) {
                p.add_phase("execute", ns);
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| flush_outbox(s, me, coord))) {
                coord.record_panic(me, payload);
            }
            match outcome {
                Ok(Ok(())) => {}
                Ok(Err(v)) => coord.record_verdict(me, v),
                Err(payload) => coord.record_panic(me, payload),
            }
        }
        let timer = ScopeTimer::start(profiling);
        coord.barrier.wait();
        if let Some(ns) = timer.stop() {
            barrier_ns += ns;
        }
        if coord.aborted.load(Ordering::SeqCst) {
            break;
        }
    }
    if barrier_ns > 0 {
        if let Some(p) = shards.first_mut().and_then(|s| s.profiler.as_mut()) {
            p.add_phase("barrier_wait", barrier_ns);
        }
    }
    (shards, states)
}

fn global_fingerprint(coord: &Coord, nparts: usize) -> (u64, u64, u64) {
    let mut fp = (0u64, 0u64, 0u64);
    for i in 0..nparts {
        fp.0 += coord.fps[i][0].load(Ordering::SeqCst);
        fp.1 += coord.fps[i][1].load(Ordering::SeqCst);
        fp.2 += coord.fps[i][2].load(Ordering::SeqCst);
    }
    fp
}

/// Cross-partition hang narrative (the sharded counterpart of
/// `System::narrate_hang`).
fn narrate_sharded(shards: &[System]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    for sh in shards.iter() {
        s.push_str(&sh.narrate_stuck_cores());
    }
    let mut pending: Vec<(Time, String)> = shards
        .iter()
        .flat_map(|sh| {
            sh.queue
                .iter()
                .map(|(t, ev)| (t, System::describe_event(ev)))
        })
        .collect();
    pending.sort();
    let _ = writeln!(s, "  in-flight events: {}", pending.len());
    for (t, d) in pending.iter().take(12) {
        let _ = writeln!(s, "    at {t}: {d}");
    }
    if pending.len() > 12 {
        let _ = writeln!(s, "    … {} more", pending.len() - 12);
    }
    let xports: Vec<_> = shards.iter().filter_map(|sh| sh.xport.as_ref()).collect();
    if !xports.is_empty() {
        let _ = writeln!(
            s,
            "  transport: {} unacked ({} retransmits, {} session resets, {} replays, reliable: {})",
            xports.iter().map(|x| x.unacked_total()).sum::<usize>(),
            xports.iter().map(|x| x.stats().retransmits).sum::<u64>(),
            xports.iter().map(|x| x.stats().sessions_reset).sum::<u64>(),
            xports.iter().map(|x| x.stats().replayed).sum::<u64>(),
            xports[0].config().reliable,
        );
    }
    if let Some(plan) = shards.first().and_then(System::crash_plan_summary) {
        s.push_str(&plan);
    }
    s
}

/// Runs `sys` through the sharded engine with `workers` threads and
/// reassembles a [`RunResult`] identical for every worker count.
pub(crate) fn run_sharded(sys: &mut System, workers: usize) -> Result<RunResult, RunError> {
    let nparts = (sys.cfg.noc.hosts as usize).max(1);
    let workers = workers.clamp(1, nparts);
    let lookahead_ps = sys.cfg.noc.min_latency().as_ps();
    let tph = sys.cfg.noc.tiles_per_host as usize;

    // The parent's queue only holds the initial core steps; partitions
    // rebuild their own, so clear it for a sane post-run state.
    while sys.queue.pop().is_some() {}

    let shards: Vec<System> = (0..nparts).map(|h| make_partition(sys, h as u32)).collect();
    let coord = Coord {
        barrier: SpinBarrier::new(workers),
        mins: (0..nparts).map(|_| AtomicU64::new(u64::MAX)).collect(),
        counts: (0..nparts).map(|_| AtomicU64::new(0)).collect(),
        fps: shards
            .iter()
            .map(|s| {
                let fp = s.progress_fingerprint();
                [
                    AtomicU64::new(fp.0),
                    AtomicU64::new(fp.1),
                    AtomicU64::new(fp.2),
                ]
            })
            .collect(),
        mailboxes: (0..nparts).map(|_| Mutex::new(Vec::new())).collect(),
        aborted: AtomicBool::new(false),
        verdict: Mutex::new(None),
        panic: Mutex::new(None),
    };
    let watchdog = sys.watchdog;
    let max_events = sys.max_events;

    // Contiguous chunks of partitions per worker.
    let mut chunks: Vec<(usize, Vec<System>)> = Vec::with_capacity(workers);
    {
        let mut iter = shards.into_iter();
        for wid in 0..workers {
            let lo = wid * nparts / workers;
            let hi = (wid + 1) * nparts / workers;
            chunks.push((lo, iter.by_ref().take(hi - lo).collect()));
        }
    }

    let mut gathered: Vec<(Vec<System>, Vec<LoopState>)> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let coord = &coord;
        let handles: Vec<_> = chunks
            .into_iter()
            .enumerate()
            .map(|(wid, (base, chunk))| {
                let states: Vec<LoopState> = chunk
                    .iter()
                    .map(|s| LoopState {
                        events: 0,
                        drained: Time::ZERO,
                        wd_fp: s.progress_fingerprint(),
                        wd_since: Time::ZERO,
                    })
                    .collect();
                scope.spawn(move || {
                    worker_loop(
                        chunk,
                        states,
                        base,
                        wid,
                        nparts,
                        lookahead_ps,
                        watchdog,
                        max_events,
                        coord,
                    )
                })
            })
            .collect();
        for h in handles {
            gathered.push(
                h.join()
                    .expect("sharded worker panicked outside a partition"),
            );
        }
    });

    let mut shards: Vec<System> = Vec::with_capacity(nparts);
    let mut states: Vec<LoopState> = Vec::with_capacity(nparts);
    for (ss, sts) in gathered {
        shards.extend(ss);
        states.extend(sts);
    }

    // Stash the per-partition flight rings on the parent *before* any exit
    // path so every failure mode (panic, verdict, deadlock) has them: the
    // monolithic `try_run` wrapper dumps on `Err`, and panics dump here.
    for (h, sh) in shards.iter_mut().enumerate() {
        if let Some(ring) = sh.tracer.take_flight() {
            sys.flight_rings.push((h as u32, ring));
        }
    }

    if let Some((part, payload)) = coord.panic.into_inner().expect("panic lock") {
        sys.dump_flight(&format!("worker panic in partition {part}"));
        resume_unwind(payload);
    }
    let events: u64 = states.iter().map(|st| st.events).sum();
    let verdict = coord.verdict.into_inner().expect("verdict lock");

    let drained = states
        .iter()
        .map(|st| st.drained)
        .max()
        .unwrap_or(Time::ZERO);
    // Close stall episodes at the *global* drain time so stall totals and
    // traces match for every worker count. Only on success: the monolithic
    // engine's failure paths leave stalls open too, so failure traces stay
    // comparable across engines.
    if verdict.is_none() {
        for sh in shards.iter_mut() {
            sh.close_stalls(drained);
        }
    }
    // Deterministic trace merge: partition-local buffers, stably ordered by
    // (time, partition, emission index), replayed through the parent tracer
    // (which owns the real sink, metrics recorder and coverage map) to
    // reassign global sequence numbers. The round-barrier loop makes the
    // buffers worker-count independent even when a verdict aborted the run,
    // so the replay also happens on the failure path — coverage maps and
    // sink output for a hang or event-cap repro are identical at any
    // `CORD_SIM_THREADS`.
    if sys.tracer.needs_merged_replay() {
        let mut merged: Vec<(u64, usize, usize, TraceEvent)> = Vec::new();
        for (h, sh) in shards.iter_mut().enumerate() {
            if let Some(mut sink) = sh.tracer.take_sink() {
                if let Some(buf) = sink.as_any_mut().and_then(|a| a.downcast_mut::<BufSink>()) {
                    for (idx, ev) in buf.take().into_iter().enumerate() {
                        merged.push((ev.at.as_ps(), h, idx, ev));
                    }
                }
            }
        }
        merged.sort_by_key(|&(t, h, i, _)| (t, h, i));
        for (_, _, _, ev) in merged {
            sys.tracer.emit(ev.at, ev.data);
        }
    }
    sys.tracer.finish();
    if let Some((_, v)) = verdict {
        return Err(match v {
            Verdict::EventCap { events } => RunError::EventCap { events },
            Verdict::NoProgress { since, now, window } => {
                // A core stuck inside the recovery fence is an unrecovered
                // crash, not a generic hang — report it as such.
                let rec = shards.iter().find_map(|sh| {
                    sh.engines
                        .iter()
                        .position(|e| e.recovering())
                        .map(|lt| sh.tile_base + lt as u32)
                });
                match rec {
                    Some(core) => RunError::Unrecovered {
                        core,
                        since,
                        narrative: narrate_sharded(&shards),
                    },
                    None => RunError::NoProgress {
                        since,
                        now,
                        window,
                        narrative: narrate_sharded(&shards),
                    },
                }
            }
        });
    }
    let metrics = sys.tracer.take_metrics().map(|m| m.snapshot());

    // Merge the per-partition sample series under `p{host}.` prefixes (host
    // order → deterministic key set) and the per-partition profilers.
    let sampling = sys.sampler.take().is_some();
    let mut merged_obs = SeriesSet::default();
    let mut profile = sys.profiler.take();
    for (h, sh) in shards.iter_mut().enumerate() {
        if let Some(s) = sh.sampler.take() {
            merged_obs.absorb_prefixed(&format!("p{h}."), s.finish());
        }
        if let (Some(into), Some(p)) = (profile.as_deref_mut(), sh.profiler.take()) {
            into.merge(&p);
        }
    }

    // Gather per-tile state back into the parent (each tile from its owning
    // partition) and merge the additive counters.
    let mut xr = 0u64;
    let mut xs = 0u64;
    let mut xd = 0u64;
    let mut xsr = 0u64;
    let mut xrp = 0u64;
    let mut xst = 0u64;
    for (h, sh) in shards.into_iter().enumerate() {
        let System {
            fes,
            engines,
            dir_engines,
            mems,
            noc,
            xport,
            ..
        } = sh;
        sys.noc.stats_mut().merge(noc.stats());
        // Pair flows are recorded exactly once per inter-host message, on
        // the *source* partition's egress, so summing per-partition maps
        // reproduces the monolithic map without double counting.
        for (ps, pd, f) in noc.pair_flows_sorted() {
            sys.noc.add_pair_flow(ps, pd, f);
        }
        if let Some(x) = &xport {
            let st = x.stats();
            xr += st.retransmits;
            xs += st.spurious_retransmits;
            xd += st.dup_dropped;
            xsr += st.sessions_reset;
            xrp += st.replayed;
            xst += st.stale_rejected;
        }
        // Partitions are sparse: their vectors hold only their own host's
        // tiles, so local index `t` maps to global `lo + t`.
        let lo = h * tph;
        for (t, fe) in fes.into_iter().enumerate() {
            sys.fes[lo + t] = fe;
        }
        for (t, e) in engines.into_iter().enumerate() {
            sys.engines[lo + t] = e;
        }
        for (t, d) in dir_engines.into_iter().enumerate() {
            sys.dir_engines[lo + t] = d;
        }
        for (t, m) in mems.into_iter().enumerate() {
            sys.mems[lo + t] = m;
        }
    }
    if sys.fault_spec.is_some() {
        let f = sys.noc.fault_stats_mut();
        f.retransmits = xr;
        f.spurious_retransmits = xs;
        f.dup_dropped = xd;
        f.sessions_reset = xsr;
        f.replayed = xrp;
        f.stale_rejected = xst;
    }

    sys.check_finished()?;
    let mut result = sys.collect(drained, events);
    result.metrics = metrics;
    result.obs = sampling.then_some(merged_obs);
    result.profile = profile.map(|p| p.summary());
    Ok(result)
}
