//! Deterministic, trace-derived coverage maps for coverage-guided fuzzing.
//!
//! A [`CoverageMap`] rides the [`trace`](crate::trace) path: when attached
//! to a [`Tracer`](crate::trace::Tracer) it folds every emitted
//! [`TraceEvent`] into a bounded set of [`Edge`]s — behavioral buckets the
//! fuzzer uses as its novelty signal. When nothing is attached the cost is
//! the tracer's usual branch on `None`, exactly like the metrics recorder.
//!
//! The edge taxonomy covers the three signal families the CORD paper's
//! failure modes live in:
//!
//! * **protocol shape** — consecutive event-kind pairs per node
//!   ([`Edge::Pair`]), the message vocabulary on the wire ([`Edge::Msg`]),
//!   and the cross-directory span of closing epochs ([`Edge::Fanout`]),
//! * **fault recovery** — injected faults ([`Edge::Inject`]),
//!   retransmission depth and backoff-cap saturation ([`Edge::Retrans`],
//!   [`Edge::RetransCapHeld`]), duplicate suppression and the
//!   duplicate-after-retransmit race ([`Edge::DupDrop`]), stall recovery
//!   and watchdog near-misses ([`Edge::StallRecover`],
//!   [`Edge::WatchdogNearMiss`]),
//! * **table pressure** — full-table stalls ([`Edge::TableFull`]) and
//!   quantized occupancy high-water marks ([`Edge::Occ`], paper §4.3).
//!
//! Determinism: edges carry only `&'static str` labels and small integers,
//! the map is a `BTreeMap`, and the sharded runner feeds the map through
//! the same stably-merged replay as sinks and metrics — so
//! [`CoverageMap::render`] is byte-identical at any `CORD_THREADS` /
//! `CORD_SIM_THREADS`.
//!
//! # Example
//!
//! ```
//! use cord_sim::coverage::CoverageMap;
//! use cord_sim::trace::{TraceData, Tracer};
//! use cord_sim::Time;
//!
//! let mut tr = Tracer::disabled();
//! tr.attach_coverage(CoverageMap::new());
//! tr.emit(Time::ZERO, TraceData::EpochOpen { core: 0, epoch: 0 });
//! tr.emit(Time::from_ns(2), TraceData::EpochClose { core: 0, epoch: 0, fanout: 1 });
//! let cov = tr.take_coverage().unwrap();
//! assert_eq!(cov.distinct(), 2, "one event pair + the epoch's fan-out bucket");
//! ```

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::trace::{TraceData, TraceEvent};

/// One behavioral coverage bucket.
///
/// All payloads are `&'static str` labels (ordered by content) or small
/// integers, so the derived `Ord` is deterministic and the rendered form is
/// stable across builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Edge {
    /// Two consecutive event kinds observed on one node, keyed by the node
    /// *kind* (`"core"`, `"dir"`, `"tile"`) — node identity feeds the
    /// adjacency tracking but not the edge, so maps stay comparable across
    /// topologies.
    Pair {
        /// Node kind the pair was observed on.
        node: &'static str,
        /// Earlier event's kind label.
        from: &'static str,
        /// Later event's kind label.
        to: &'static str,
    },
    /// A message kind × traffic class seen on the wire.
    Msg {
        /// Message kind label (e.g. `"WtStore"`).
        kind: &'static str,
        /// Traffic-class label.
        class: &'static str,
    },
    /// A fault kind × traffic class actually injected.
    Inject {
        /// Fault label: `"drop"`, `"dup"`, or `"delay"`.
        fault: &'static str,
        /// Traffic-class label.
        class: &'static str,
    },
    /// A retransmission reached attempt `2^bucket` (log₂-bucketed depth).
    Retrans {
        /// `⌊log₂ attempt⌋`.
        bucket: u32,
    },
    /// The exponential-backoff cap was reached *and held*: some message
    /// fired a retransmission at least two attempts past the point where
    /// the delay saturated (`attempt ≥ max_backoff_exp + 2`).
    RetransCapHeld,
    /// The receiver suppressed a duplicate; `after_retrans` distinguishes
    /// the retransmit race (the channel retransmitted earlier in the run)
    /// from a plain fault-injected duplicate.
    DupDrop {
        /// Whether the channel had already retransmitted.
        after_retrans: bool,
    },
    /// A bounded table filled and stalled an operation (paper §4.3).
    TableFull {
        /// Owning node kind.
        node: &'static str,
        /// Table label.
        table: &'static str,
    },
    /// A stall episode ended after `~2^bucket` ns (log₂-bucketed).
    StallRecover {
        /// Stall-cause label.
        cause: &'static str,
        /// `⌊log₂ duration_ns⌋`.
        bucket: u32,
    },
    /// A stall episode lasted at least half the liveness-watchdog window —
    /// the run nearly tripped the hang detector.
    WatchdogNearMiss {
        /// Stall-cause label.
        cause: &'static str,
    },
    /// A table's occupancy reached octile `bucket` of its capacity
    /// (`⌊8·occ/cap⌋`, clamped to 8); unbounded tables bucket by
    /// `⌊log₂ occ⌋` instead.
    Occ {
        /// Owning node kind.
        node: &'static str,
        /// Table label.
        table: &'static str,
        /// Quantized high-water bucket.
        bucket: u32,
    },
    /// A node-scoped crash fault was injected.
    Crash {
        /// Crash-kind label: `"dir"` or `"xport"`.
        kind: &'static str,
    },
    /// A core's recovery fence (crash → quiesce → re-registration) lasted
    /// `~2^bucket` ns (log₂-bucketed duration).
    RecoverDur {
        /// `⌊log₂ duration_ns⌋`.
        bucket: u32,
    },
    /// A recovery fence re-registered with `~2^bucket` re-fence messages
    /// (re-issued Releases + ReqNotifies; bucket 0 also covers zero sends —
    /// the core had nothing pending with the crashed directory).
    Refence {
        /// `⌊log₂ sends⌋` (0 for 0 or 1 sends).
        bucket: u32,
    },
    /// Stale state was rejected after a crash: an old-session transport
    /// arrival (`"sess"`) or an already-committed recovery re-issue at a
    /// directory (`"release"`, `"reqnotify"`, `"notify"`).
    Stale {
        /// What was rejected.
        what: &'static str,
    },
    /// An epoch closed spanning `~2^bucket` directories (log₂-bucketed
    /// notification fan-out): bucket 0 is the single-directory epoch with
    /// no cross-directory ordering to enforce, higher buckets measure how
    /// wide the ReqNotify/Notify fan-out got — the signal that
    /// distinguishes pod-local from cross-pod release ordering on
    /// multi-tier fabrics.
    Fanout {
        /// `⌊log₂ fanout⌋` (0 for fan-out 0 or 1).
        bucket: u32,
    },
}

impl Edge {
    /// The edge's taxonomy family label (used for per-family summaries).
    pub fn family(&self) -> &'static str {
        match self {
            Edge::Pair { .. } => "pair",
            Edge::Msg { .. } => "msg",
            Edge::Inject { .. } => "inject",
            Edge::Retrans { .. } => "retrans",
            Edge::RetransCapHeld => "retrans_cap_held",
            Edge::DupDrop { .. } => "dup_drop",
            Edge::TableFull { .. } => "table_full",
            Edge::StallRecover { .. } => "stall_recover",
            Edge::WatchdogNearMiss { .. } => "watchdog_near_miss",
            Edge::Occ { .. } => "occ",
            Edge::Crash { .. } => "crash",
            Edge::RecoverDur { .. } => "recover_dur",
            Edge::Refence { .. } => "refence",
            Edge::Stale { .. } => "stale",
            Edge::Fanout { .. } => "fanout",
        }
    }

    /// Renders the edge as one canonical space-separated line (no count).
    pub fn render(&self) -> String {
        match *self {
            Edge::Pair { node, from, to } => format!("pair {node} {from} {to}"),
            Edge::Msg { kind, class } => format!("msg {kind} {class}"),
            Edge::Inject { fault, class } => format!("inject {fault} {class}"),
            Edge::Retrans { bucket } => format!("retrans a{bucket}"),
            Edge::RetransCapHeld => "retrans_cap_held".to_string(),
            Edge::DupDrop { after_retrans } => {
                format!("dup_drop {}", if after_retrans { "race" } else { "clean" })
            }
            Edge::TableFull { node, table } => format!("table_full {node} {table}"),
            Edge::StallRecover { cause, bucket } => format!("stall_recover {cause} d{bucket}"),
            Edge::WatchdogNearMiss { cause } => format!("watchdog_near_miss {cause}"),
            Edge::Occ {
                node,
                table,
                bucket,
            } => format!("occ {node} {table} q{bucket}"),
            Edge::Crash { kind } => format!("crash {kind}"),
            Edge::RecoverDur { bucket } => format!("recover_dur d{bucket}"),
            Edge::Refence { bucket } => format!("refence f{bucket}"),
            Edge::Stale { what } => format!("stale {what}"),
            Edge::Fanout { bucket } => format!("fanout n{bucket}"),
        }
    }
}

/// The semantic node a trace event belongs to, for adjacency tracking:
/// `(node kind, flat index)`.
fn node_of(data: &TraceData) -> Option<(&'static str, u32)> {
    Some(match *data {
        TraceData::MsgSend { src, .. } => ("tile", src),
        TraceData::MsgDeliver { dst, .. } => ("tile", dst),
        TraceData::StoreIssue { core, .. }
        | TraceData::EpochOpen { core, .. }
        | TraceData::EpochClose { core, .. }
        | TraceData::NotifyRequest { core, .. }
        | TraceData::StallBegin { core, .. }
        | TraceData::StallEnd { core, .. } => ("core", core),
        TraceData::StoreCommit { dir, .. } | TraceData::NotifyArrive { dir, .. } => ("dir", dir),
        TraceData::TableInsert { node, id, .. }
        | TraceData::TableEvict { node, id, .. }
        | TraceData::TableStallFull { node, id, .. } => (node, id),
        TraceData::FaultInject { src, .. } => ("tile", src),
        TraceData::XportRetrans { src, .. } => ("tile", src),
        TraceData::XportDupDrop { dst, .. } => ("tile", dst),
        TraceData::RecoverBegin { core, .. } | TraceData::RecoverEnd { core, .. } => ("core", core),
        TraceData::StaleDrop { dir, .. } => ("dir", dir),
        TraceData::XportStaleRej { dst, .. } => ("tile", dst),
        // Crashes are host-scoped, not node-scoped: no pair adjacency.
        TraceData::CrashInject { .. } => return None,
    })
}

fn log2_bucket(v: u64) -> u32 {
    v.max(1).ilog2()
}

/// A deterministic map from [`Edge`] to hit count, fed from the trace path.
///
/// Attach one to a tracer with
/// [`Tracer::attach_coverage`](crate::trace::Tracer::attach_coverage) and
/// recover it after the run with
/// [`Tracer::take_coverage`](crate::trace::Tracer::take_coverage). Maps
/// merge ([`CoverageMap::merge`]) and diff ([`CoverageMap::novel_vs`]) so a
/// fuzzer can keep a union map per engine and score scenarios by the edges
/// they add.
#[derive(Debug, Clone, Default)]
pub struct CoverageMap {
    edges: BTreeMap<Edge, u64>,
    /// Last event kind per node, for [`Edge::Pair`] (transient run state;
    /// never iterated, so the `HashMap` cannot leak nondeterminism).
    last_kind: HashMap<(&'static str, u32), &'static str>,
    /// Channels that retransmitted, for the [`Edge::DupDrop`] race bit.
    retransmitted: HashSet<(u32, u32)>,
    /// Liveness-watchdog window (ns), for [`Edge::WatchdogNearMiss`].
    watchdog_ns: Option<u64>,
    /// Transport `max_backoff_exp`, for [`Edge::RetransCapHeld`].
    backoff_cap: Option<u32>,
}

impl CoverageMap {
    /// An empty map.
    pub fn new() -> Self {
        CoverageMap::default()
    }

    /// Installs the run parameters some edges are defined against: the
    /// watchdog window (near-miss threshold is half of it) and the
    /// transport's backoff-cap exponent. The runner calls this before
    /// dispatch; unset parameters disable the corresponding edges.
    pub fn configure(&mut self, watchdog_ns: Option<u64>, backoff_cap: Option<u32>) {
        self.watchdog_ns = watchdog_ns;
        self.backoff_cap = backoff_cap;
    }

    fn hit(&mut self, e: Edge) {
        *self.edges.entry(e).or_insert(0) += 1;
    }

    /// Folds one trace event into the map.
    pub fn observe(&mut self, ev: &TraceEvent) {
        let kind = ev.data.kind_name();
        if let Some((node, id)) = node_of(&ev.data) {
            if let Some(prev) = self.last_kind.insert((node, id), kind) {
                self.hit(Edge::Pair {
                    node,
                    from: prev,
                    to: kind,
                });
            }
        }
        match ev.data {
            TraceData::MsgSend { kind, class, .. } => self.hit(Edge::Msg { kind, class }),
            TraceData::FaultInject { fault, class, .. } => self.hit(Edge::Inject { fault, class }),
            TraceData::XportRetrans {
                src, dst, attempt, ..
            } => {
                self.retransmitted.insert((src, dst));
                self.hit(Edge::Retrans {
                    bucket: log2_bucket(attempt as u64),
                });
                if let Some(cap) = self.backoff_cap {
                    if attempt >= cap + 2 {
                        self.hit(Edge::RetransCapHeld);
                    }
                }
            }
            TraceData::XportDupDrop { src, dst, .. } => {
                let after_retrans = self.retransmitted.contains(&(src, dst));
                self.hit(Edge::DupDrop { after_retrans });
            }
            TraceData::TableStallFull { node, table, .. } => {
                self.hit(Edge::TableFull { node, table })
            }
            TraceData::StallEnd { cause, since, .. } => {
                let dur_ns = ev.at.saturating_sub(since).as_ns();
                self.hit(Edge::StallRecover {
                    cause,
                    bucket: log2_bucket(dur_ns),
                });
                if let Some(w) = self.watchdog_ns {
                    if dur_ns.saturating_mul(2) >= w {
                        self.hit(Edge::WatchdogNearMiss { cause });
                    }
                }
            }
            TraceData::TableInsert {
                node,
                table,
                occ,
                cap,
                ..
            } => {
                let bucket = match occ.saturating_mul(8).checked_div(cap) {
                    Some(eighths) => eighths.min(8) as u32,
                    None => log2_bucket(occ),
                };
                self.hit(Edge::Occ {
                    node,
                    table,
                    bucket,
                });
            }
            TraceData::CrashInject { kind, .. } => self.hit(Edge::Crash { kind }),
            TraceData::RecoverEnd { since, sends, .. } => {
                let dur_ns = ev.at.saturating_sub(since).as_ns();
                self.hit(Edge::RecoverDur {
                    bucket: log2_bucket(dur_ns),
                });
                self.hit(Edge::Refence {
                    bucket: log2_bucket(sends as u64),
                });
            }
            TraceData::XportStaleRej { .. } => self.hit(Edge::Stale { what: "sess" }),
            TraceData::StaleDrop { what, .. } => self.hit(Edge::Stale { what }),
            TraceData::EpochClose { fanout, .. } => self.hit(Edge::Fanout {
                bucket: log2_bucket(fanout as u64),
            }),
            _ => {}
        }
    }

    /// Number of distinct edges.
    pub fn distinct(&self) -> usize {
        self.edges.len()
    }

    /// Whether no edges were observed.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Hit count for one edge (0 when never observed).
    pub fn count(&self, e: &Edge) -> u64 {
        self.edges.get(e).copied().unwrap_or(0)
    }

    /// The edges and their hit counts, in canonical (sorted) order.
    pub fn edges(&self) -> impl Iterator<Item = (&Edge, u64)> {
        self.edges.iter().map(|(e, &c)| (e, c))
    }

    /// Whether `e` was observed at least once.
    pub fn covers(&self, e: &Edge) -> bool {
        self.edges.contains_key(e)
    }

    /// Adds `other`'s hit counts into this map (transient run state is not
    /// merged; merged maps are union summaries, not resumable runs).
    pub fn merge(&mut self, other: &CoverageMap) {
        for (e, c) in &other.edges {
            *self.edges.entry(*e).or_insert(0) += c;
        }
    }

    /// Number of edges in `self` that `base` has never observed — the
    /// fuzzer's novelty score.
    pub fn novel_vs(&self, base: &CoverageMap) -> usize {
        self.edges
            .keys()
            .filter(|e| !base.edges.contains_key(e))
            .count()
    }

    /// Distinct-edge count per taxonomy family, sorted by family label.
    pub fn families(&self) -> BTreeMap<&'static str, usize> {
        let mut out = BTreeMap::new();
        for e in self.edges.keys() {
            *out.entry(e.family()).or_insert(0) += 1;
        }
        out
    }

    /// Canonical text serialization: a version header followed by one
    /// `<edge> <count>` line per edge, lexically sorted. Byte-identical for
    /// identical maps — the determinism suite compares these directly.
    pub fn render(&self) -> String {
        let mut lines: Vec<String> = self
            .edges
            .iter()
            .map(|(e, c)| format!("{} {c}", e.render()))
            .collect();
        lines.sort();
        let mut out = String::from("# cord-coverage v1\n");
        for l in lines {
            out.push_str(&l);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Time;

    fn ev(at_ns: u64, data: TraceData) -> TraceEvent {
        TraceEvent {
            at: Time::from_ns(at_ns),
            seq: 0,
            data,
        }
    }

    #[test]
    fn pairs_are_per_node_and_keyed_by_kind() {
        let mut m = CoverageMap::new();
        m.observe(&ev(1, TraceData::EpochOpen { core: 0, epoch: 0 }));
        // A different core's event must not pair with core 0's.
        m.observe(&ev(2, TraceData::EpochOpen { core: 1, epoch: 0 }));
        m.observe(&ev(
            3,
            TraceData::EpochClose {
                core: 0,
                epoch: 0,
                fanout: 1,
            },
        ));
        assert_eq!(m.distinct(), 2, "the event pair plus the fan-out bucket");
        assert!(m.covers(&Edge::Pair {
            node: "core",
            from: "epoch_open",
            to: "epoch_close",
        }));
        assert!(m.covers(&Edge::Fanout { bucket: 0 }));
    }

    #[test]
    fn fanout_buckets_epoch_spans() {
        let mut m = CoverageMap::new();
        let close = |fanout| {
            ev(
                1,
                TraceData::EpochClose {
                    core: 0,
                    epoch: 0,
                    fanout,
                },
            )
        };
        m.observe(&close(0)); // local epoch: bucket 0
        m.observe(&close(1)); // single remote directory: still bucket 0
        m.observe(&close(5)); // five directories: bucket 2
        m.observe(&close(500)); // pod-scale fan-out: bucket 8
        assert_eq!(m.count(&Edge::Fanout { bucket: 0 }), 2);
        assert!(m.covers(&Edge::Fanout { bucket: 2 }));
        assert!(m.covers(&Edge::Fanout { bucket: 8 }));
        assert_eq!(m.families().get("fanout"), Some(&3));
    }

    #[test]
    fn retrans_buckets_and_cap_held() {
        let mut m = CoverageMap::new();
        m.configure(None, Some(2));
        let retrans = |attempt| {
            ev(
                1,
                TraceData::XportRetrans {
                    src: 0,
                    dst: 8,
                    seq: 1,
                    attempt,
                },
            )
        };
        m.observe(&retrans(1)); // bucket 0
        m.observe(&retrans(2)); // bucket 1
        m.observe(&retrans(3)); // bucket 1, cap reached (exp saturates at 2)
        assert!(!m.covers(&Edge::RetransCapHeld), "cap reached, not held");
        m.observe(&retrans(4)); // bucket 2, cap held
        assert!(m.covers(&Edge::RetransCapHeld));
        assert!(m.covers(&Edge::Retrans { bucket: 0 }));
        assert!(m.covers(&Edge::Retrans { bucket: 1 }));
        assert!(m.covers(&Edge::Retrans { bucket: 2 }));
    }

    #[test]
    fn dup_drop_distinguishes_the_retransmit_race() {
        let mut m = CoverageMap::new();
        m.observe(&ev(
            1,
            TraceData::XportDupDrop {
                src: 0,
                dst: 8,
                seq: 1,
            },
        ));
        assert!(m.covers(&Edge::DupDrop {
            after_retrans: false
        }));
        m.observe(&ev(
            2,
            TraceData::XportRetrans {
                src: 0,
                dst: 8,
                seq: 2,
                attempt: 1,
            },
        ));
        m.observe(&ev(
            3,
            TraceData::XportDupDrop {
                src: 0,
                dst: 8,
                seq: 2,
            },
        ));
        assert!(m.covers(&Edge::DupDrop {
            after_retrans: true
        }));
        // A different channel's dup is still clean.
        m.observe(&ev(
            4,
            TraceData::XportDupDrop {
                src: 1,
                dst: 8,
                seq: 1,
            },
        ));
        assert_eq!(
            m.count(&Edge::DupDrop {
                after_retrans: false
            }),
            2
        );
    }

    #[test]
    fn occupancy_octiles_and_unbounded_log2() {
        let mut m = CoverageMap::new();
        let insert = |occ, cap| {
            ev(
                1,
                TraceData::TableInsert {
                    node: "dir",
                    id: 3,
                    table: "cnt",
                    occ,
                    cap,
                },
            )
        };
        m.observe(&insert(1, 8)); // octile 1
        m.observe(&insert(8, 8)); // octile 8 (full)
        m.observe(&insert(5, 0)); // unbounded: log2 bucket 2
        assert!(m.covers(&Edge::Occ {
            node: "dir",
            table: "cnt",
            bucket: 1
        }));
        assert!(m.covers(&Edge::Occ {
            node: "dir",
            table: "cnt",
            bucket: 8
        }));
        assert!(m.covers(&Edge::Occ {
            node: "dir",
            table: "cnt",
            bucket: 2
        }));
    }

    #[test]
    fn watchdog_near_miss_uses_half_window() {
        let mut m = CoverageMap::new();
        m.configure(Some(1000), None);
        let end = |at, since| {
            ev(
                at,
                TraceData::StallEnd {
                    core: 0,
                    cause: "AckWait",
                    since: Time::from_ns(since),
                },
            )
        };
        m.observe(&end(100, 0)); // 100 ns stall: no near-miss
        assert!(!m.covers(&Edge::WatchdogNearMiss { cause: "AckWait" }));
        m.observe(&end(600, 0)); // 600 ns ≥ 500 ns: near-miss
        assert!(m.covers(&Edge::WatchdogNearMiss { cause: "AckWait" }));
    }

    #[test]
    fn render_is_sorted_and_merge_unions() {
        let mut a = CoverageMap::new();
        a.observe(&ev(
            1,
            TraceData::MsgSend {
                src: 0,
                dst: 8,
                kind: "WtStore",
                class: "Data",
                bytes: 80,
                arrive: Time::from_ns(30),
            },
        ));
        let mut b = CoverageMap::new();
        b.observe(&ev(
            1,
            TraceData::TableStallFull {
                node: "dir",
                id: 1,
                table: "cnt",
                cap: 1,
            },
        ));
        assert_eq!(b.novel_vs(&a), 1, "table_full is novel vs a");
        let mut u = a.clone();
        u.merge(&b);
        assert_eq!(u.distinct(), a.distinct() + b.distinct());
        assert_eq!(b.novel_vs(&u), 0);
        let text = u.render();
        assert!(text.starts_with("# cord-coverage v1\n"), "{text}");
        let lines: Vec<&str> = text.lines().skip(1).collect();
        let mut sorted = lines.clone();
        sorted.sort();
        assert_eq!(lines, sorted, "canonical order is sorted: {text}");
        assert_eq!(u.distinct(), 2);
        assert_eq!(u.families().get("msg"), Some(&1));
    }
}
