//! Reliable-delivery transport shim (sequence numbers, duplicate
//! suppression, timeout retransmission).
//!
//! The clean interconnect delivers every message exactly once and in order,
//! so the protocol engines never see loss, duplication, or reordering. When
//! a [`cord_sim::fault::FaultPlan`] is installed the fabric breaks all three
//! guarantees, and this shim — sitting between the system runner and the
//! engines, like a link-layer retry buffer in CXL/UPI — restores exactly
//! the ones each protocol needs:
//!
//! * **duplicate suppression** and **loss recovery** (acknowledgment plus
//!   timeout retransmission with capped exponential backoff) for every
//!   protocol, and
//! * **FIFO hold-back reassembly** only for the protocols that assume
//!   point-to-point ordering ([`crate::ProtocolKind::needs_fifo`]); CORD,
//!   SO and SEQ run directly over the reordering network.
//!
//! Each message is tagged with a per-(source, destination) sequence number
//! costing [`SEQ_BYTES`] on the wire; every delivery is acknowledged with an
//! [`ACK_BYTES`]-sized ack. Retransmission is unbounded, so as long as the
//! fault plan's drop probability is below 1 every message is eventually
//! delivered — termination then rests on the runner's liveness watchdog
//! only for genuine protocol bugs (or `reliable = false`, which disables
//! retransmission and exists to demonstrate exactly that watchdog).
//!
//! The shim is runner-agnostic: it never schedules events itself. The
//! runner calls [`Transport::wrap`] when sending (and schedules the first
//! timeout), [`Transport::on_deliver`] on arrival (sending an ack and
//! delivering whatever the outcome releases), [`Transport::on_ack`] on ack
//! arrival, and [`Transport::on_timeout`] when a retransmission timer fires.
//!
//! # Channel layout
//!
//! Channels are found through a hash index from `(source, destination)` to
//! a slot in a dense vector, one index per direction. Each channel is a
//! sliding window over its sequence space, so every call above costs one
//! index lookup plus O(1) work on the window:
//!
//! * **Sender:** `base` and a deque of slots for the sequences
//!   `base..next_seq`, each holding the retransmission copy or `None` once
//!   acked. The front slot is never `None`: an ack of the front pops every
//!   acked slot behind it.
//! * **Receiver:** `low` (every sequence below it has been delivered) and a
//!   deque of slots for the sequences from `low` on: a delivered-bit in
//!   non-FIFO mode, the held-back message in FIFO mode. The front slot is
//!   always empty (sequence `low` has not arrived); an arrival that fills
//!   it pops every filled slot behind it.
//!
//! The storage trade-off: an acked (or delivered) slot behind an unacked
//! (or missing) front stays until the front is retired, so a window spans
//! the oldest outstanding sequence to the newest one. A front message that
//! is lost for good — possible only with `reliable = false` — therefore
//! pins its channel's window, which then grows by one slot per later
//! message on that channel.
//!
//! Determinism: the hash index uses a fixed multiply-shift hasher (no
//! per-process random state), and no result depends on its iteration
//! order. [`Transport::reset_src_range`] sorts the channels it visits into
//! ascending `(source, destination)` order and replays each window in
//! sequence order; the unacked counts are sums. Every decision is a pure
//! function of the call sequence.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use cord_sim::Time;

use crate::msg::{Msg, CTRL_BYTES};

/// Wire overhead of the transport sequence number on every tagged message.
pub const SEQ_BYTES: u64 = 8;

/// Wire size of a transport acknowledgment (control header + sequence).
pub const ACK_BYTES: u64 = CTRL_BYTES + 8;

/// Transport tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportConfig {
    /// Initial retransmission timeout.
    pub rto: Time,
    /// Backoff cap: the timeout doubles per attempt up to `rto << max_backoff_exp`.
    pub max_backoff_exp: u32,
    /// When `false`, messages are tagged and deduplicated but never
    /// retransmitted — lost messages stay lost (watchdog demonstrations).
    pub reliable: bool,
    /// Hold back out-of-order arrivals and deliver in sequence order
    /// (required by invalidation-based protocols; see
    /// [`crate::ProtocolKind::needs_fifo`]).
    pub fifo: bool,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            // Comfortably above one switch round trip (~2 × 150 ns + queuing).
            rto: Time::from_ns(1_500),
            max_backoff_exp: 6,
            reliable: true,
            fifo: false,
        }
    }
}

/// Counters kept by the shim (mirrored into `TrafficStats::faults` by the
/// runner so they ride run results).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct XportStats {
    /// Retransmissions issued.
    pub retransmits: u64,
    /// Retransmissions the receiver reported as duplicates (the original
    /// had already arrived).
    pub spurious_retransmits: u64,
    /// Duplicate deliveries suppressed at the receiver.
    pub dup_dropped: u64,
    /// Send channels that entered a new session epoch (host transport
    /// resets × channels).
    pub sessions_reset: u64,
    /// Unacked messages replayed into a new session epoch.
    pub replayed: u64,
    /// Arrivals rejected because they carried a stale session epoch.
    pub stale_rejected: u64,
}

/// Multiply-shift hasher for `(src, dst)` channel keys: the two `u32`
/// writes pack into one word, which one multiply by an odd constant mixes;
/// folding the high half down feeds the well-mixed bits to the table's
/// bucket index. Fixed, so the index is the same in every process.
#[derive(Default)]
struct ChanHasher(u64);

impl Hasher for ChanHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 << 8) | u64::from(b);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0 << 32) | u64::from(n);
    }

    fn finish(&self) -> u64 {
        let h = self.0.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^ (h >> 32)
    }
}

/// The channels of one direction: a hash index from `(src, dst)` to a slot
/// in a dense vector that also records each channel's key.
#[derive(Debug, Clone)]
struct Channels<C> {
    index: HashMap<(u32, u32), usize, BuildHasherDefault<ChanHasher>>,
    slots: Vec<((u32, u32), C)>,
}

impl<C: Default> Channels<C> {
    fn new() -> Self {
        Channels {
            index: HashMap::default(),
            slots: Vec::new(),
        }
    }

    fn get_mut(&mut self, key: (u32, u32)) -> Option<&mut C> {
        let i = *self.index.get(&key)?;
        Some(&mut self.slots[i].1)
    }

    /// The channel for `key`, created empty on first use.
    fn entry(&mut self, key: (u32, u32)) -> &mut C {
        let next = self.slots.len();
        let i = *self.index.entry(key).or_insert(next);
        if i == next {
            self.slots.push((key, C::default()));
        }
        &mut self.slots[i].1
    }
}

#[derive(Debug, Clone)]
struct Unacked {
    msg: Msg,
    attempts: u32,
}

#[derive(Debug, Default, Clone)]
struct SendChan {
    /// Current session epoch; bumped by a host transport reset.
    sess: u32,
    /// Sequence number of `window[0]`.
    base: u64,
    /// Slots for the sequences `base..next_seq`: the retransmission copy,
    /// or `None` once acked. The front slot is never `None`.
    window: VecDeque<Option<Unacked>>,
    /// `Some` slots in `window`.
    live: usize,
}

impl SendChan {
    /// The window slot of `seq`; `None` below `base` (acked) or at and
    /// above `next_seq` (never sent).
    fn slot_mut(&mut self, seq: u64) -> Option<&mut Option<Unacked>> {
        let i = usize::try_from(seq.checked_sub(self.base)?).ok()?;
        self.window.get_mut(i)
    }
}

#[derive(Debug, Default, Clone)]
struct RecvChan {
    /// Largest session epoch seen from the sender (the implicit reconnect
    /// handshake: every message carries its session, and the receiver
    /// adopts any newer one on first arrival).
    sess: u32,
    /// Every sequence below this has been delivered (FIFO: in order).
    low: u64,
    /// Non-FIFO mode: whether sequence `low + i` has been delivered. The
    /// front is always `false`.
    seen: VecDeque<bool>,
    /// FIFO mode: the out-of-order arrival with sequence `low + i`, held
    /// until the gap before it fills. The front is always `None`.
    held: VecDeque<Option<Msg>>,
}

/// Widens `window` with empty slots until it holds index `i`, and returns
/// that slot.
fn slot_at<T: Default>(window: &mut VecDeque<T>, i: usize) -> &mut T {
    if i >= window.len() {
        window.resize_with(i + 1, T::default);
    }
    &mut window[i]
}

/// Receiver verdict for one arrival.
#[derive(Debug, Clone, PartialEq)]
pub enum RecvOutcome {
    /// Already seen — suppress, but still acknowledge (the first ack may
    /// have been lost).
    Duplicate,
    /// The arrival carried a stale session epoch (a retransmission from
    /// before a transport reset): reject without acknowledging — the new
    /// session replayed the message under the same sequence number, so
    /// acking here could retire the replay before it arrives.
    Stale,
    /// Fresh arrival: deliver these messages now (empty when the arrival
    /// was held back for FIFO reassembly; several when it filled a gap).
    Deliver(Vec<Msg>),
}

/// One unacked message re-sent into a new session epoch by
/// [`Transport::reset_src_range`]; the runner retransmits it and arms a
/// fresh timeout carrying the new session.
#[derive(Debug, Clone, PartialEq)]
pub struct Replay {
    /// Source tile of the channel.
    pub src: u32,
    /// Destination tile of the channel.
    pub dst: u32,
    /// New session epoch.
    pub sess: u32,
    /// Sequence number (unchanged: the sequence space continues across
    /// sessions so duplicate suppression and FIFO order survive the reset).
    pub seq: u64,
    /// The message (already sized with [`SEQ_BYTES`]).
    pub msg: Msg,
}

/// Per-system transport state: one sender and one receiver channel per
/// ordered (source tile, destination tile) pair, each a sliding window
/// found through a fixed-hash index (see the module docs for the layout
/// and why no result depends on hash order).
#[derive(Debug, Clone)]
pub struct Transport {
    cfg: TransportConfig,
    send: Channels<SendChan>,
    recv: Channels<RecvChan>,
    stats: XportStats,
}

impl Transport {
    /// Creates an idle transport.
    pub fn new(cfg: TransportConfig) -> Self {
        Transport {
            cfg,
            send: Channels::new(),
            recv: Channels::new(),
            stats: XportStats::default(),
        }
    }

    /// The configuration this transport was built with.
    pub fn config(&self) -> &TransportConfig {
        &self.cfg
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &XportStats {
        &self.stats
    }

    /// Messages currently awaiting acknowledgment (diagnostics).
    pub fn unacked_total(&self) -> usize {
        self.send.slots.iter().map(|(_, c)| c.live).sum()
    }

    /// Messages awaiting acknowledgment on channels sourced at tile `src`
    /// (the crash-recovery quiesce condition: a core's outbound traffic has
    /// fully drained when this reaches zero).
    pub fn unacked_from(&self, src: u32) -> usize {
        self.send
            .slots
            .iter()
            .filter(|((s, _), _)| *s == src)
            .map(|(_, c)| c.live)
            .sum()
    }

    /// Tags `msg` with the next sequence number on the `(src, dst)` channel,
    /// adds [`SEQ_BYTES`] to its wire size, and retains a retransmission
    /// copy. Returns the channel's session epoch and the assigned sequence
    /// number; the runner schedules the first [`Transport::on_timeout`] at
    /// `now + config().rto` (when `reliable`).
    pub fn wrap(&mut self, src: u32, dst: u32, msg: &mut Msg) -> (u32, u64) {
        let chan = self.send.entry((src, dst));
        let seq = chan.base + chan.window.len() as u64;
        msg.bytes += SEQ_BYTES;
        chan.window.push_back(Some(Unacked {
            msg: msg.clone(),
            attempts: 1,
        }));
        chan.live += 1;
        (chan.sess, seq)
    }

    /// Resets the transport of every source tile in `[src_lo, src_hi)` (a
    /// host's tile range): each of its send channels enters a new session
    /// epoch — in-flight acks and retransmission timers from the old
    /// session become stale, per-message attempt counts reset — and every
    /// unacked message is replayed into the new session under its original
    /// sequence number. Returns the replays for the runner to retransmit,
    /// in ascending `(src, dst, seq)` order.
    pub fn reset_src_range(&mut self, src_lo: u32, src_hi: u32) -> Vec<Replay> {
        let mut hit: Vec<usize> = (0..self.send.slots.len())
            .filter(|&i| (src_lo..src_hi).contains(&self.send.slots[i].0 .0))
            .collect();
        hit.sort_unstable_by_key(|&i| self.send.slots[i].0);
        let mut out = Vec::new();
        for i in hit {
            let ((src, dst), chan) = &mut self.send.slots[i];
            chan.sess += 1;
            self.stats.sessions_reset += 1;
            for (seq, slot) in (chan.base..).zip(chan.window.iter_mut()) {
                let Some(u) = slot else { continue };
                u.attempts = 1;
                self.stats.replayed += 1;
                out.push(Replay {
                    src: *src,
                    dst: *dst,
                    sess: chan.sess,
                    seq,
                    msg: u.msg.clone(),
                });
            }
        }
        out
    }

    /// Handles the arrival of sequence `seq` tagged with session `sess` on
    /// the `(src, dst)` channel.
    pub fn on_deliver(&mut self, src: u32, dst: u32, sess: u32, seq: u64, msg: Msg) -> RecvOutcome {
        let chan = self.recv.entry((src, dst));
        if sess < chan.sess {
            self.stats.stale_rejected += 1;
            return RecvOutcome::Stale;
        }
        // Adopt a newer session (the sender's transport reset): sequence
        // numbering continues across sessions, so dedup/FIFO state carries.
        chan.sess = sess;
        let Some(i) = seq.checked_sub(chan.low) else {
            self.stats.dup_dropped += 1;
            return RecvOutcome::Duplicate;
        };
        let i = usize::try_from(i).expect("sequence window exceeds the address space");
        if self.cfg.fifo {
            let slot = slot_at(&mut chan.held, i);
            if slot.is_some() {
                self.stats.dup_dropped += 1;
                return RecvOutcome::Duplicate;
            }
            *slot = Some(msg);
            let mut out = Vec::new();
            while let Some(Some(_)) = chan.held.front() {
                out.extend(chan.held.pop_front().flatten());
                chan.low += 1;
            }
            RecvOutcome::Deliver(out)
        } else {
            let slot = slot_at(&mut chan.seen, i);
            if *slot {
                self.stats.dup_dropped += 1;
                return RecvOutcome::Duplicate;
            }
            *slot = true;
            while chan.seen.front() == Some(&true) {
                chan.seen.pop_front();
                chan.low += 1;
            }
            RecvOutcome::Deliver(vec![msg])
        }
    }

    /// Handles an acknowledgment of sequence `seq` from session `sess`;
    /// `dup` is the receiver's report that the acknowledged delivery was a
    /// duplicate. Acks from a stale session are ignored — the reset already
    /// replayed the message, so only the new session's delivery may retire
    /// it. Returns `true` if this retired an outstanding message.
    pub fn on_ack(&mut self, src: u32, dst: u32, sess: u32, seq: u64, dup: bool) -> bool {
        let Some(chan) = self.send.get_mut((src, dst)) else {
            return false;
        };
        if sess != chan.sess {
            return false;
        }
        let Some(u) = chan.slot_mut(seq).and_then(Option::take) else {
            return false; // already retired by an earlier ack, or never sent
        };
        if dup && u.attempts > 1 {
            self.stats.spurious_retransmits += 1;
        }
        chan.live -= 1;
        while let Some(None) = chan.window.front() {
            chan.window.pop_front();
            chan.base += 1;
        }
        true
    }

    /// Handles a retransmission timer for sequence `seq` armed in session
    /// `sess`. Returns the message to retransmit together with its new
    /// attempt count and the backed-off delay until the next timer, or
    /// `None` if the message was acknowledged in the meantime, the timer
    /// belongs to a stale session (a transport reset cancelled it), or
    /// retransmission is disabled.
    pub fn on_timeout(
        &mut self,
        src: u32,
        dst: u32,
        sess: u32,
        seq: u64,
    ) -> Option<(Msg, u32, Time)> {
        if !self.cfg.reliable {
            return None;
        }
        let chan = self.send.get_mut((src, dst))?;
        if sess != chan.sess {
            return None;
        }
        let u = chan.slot_mut(seq)?.as_mut()?;
        u.attempts += 1;
        self.stats.retransmits += 1;
        let exp = (u.attempts - 1).min(self.cfg.max_backoff_exp);
        let delay = Time::from_ps(self.cfg.rto.as_ps() << exp);
        Some((u.msg.clone(), u.attempts, delay))
    }
}

/// A parsed fault-campaign specification: the fabric-level fault plan plus
/// the transport configuration, from one spec string (the `CORD_FAULTS`
/// environment variable / `--faults` flag grammar).
///
/// Transport directives extend the [`cord_sim::fault::FaultPlan::parse`]
/// grammar: `rto=NANOS` sets the retransmission timeout and the bare word
/// `unreliable` (no `=`) disables retransmission. Everything else is
/// delegated to the plan parser with [`cord_noc::MsgClass`] labels
/// (case-insensitive) as the class vocabulary. FIFO hold-back is *not* part
/// of the spec — it is derived from the protocol under test.
#[derive(Debug, Clone)]
pub struct FaultSpec {
    /// Fabric fault plan.
    pub plan: cord_sim::fault::FaultPlan,
    /// Transport configuration (with `fifo` left at its default; the runner
    /// overrides it per protocol).
    pub xport: TransportConfig,
}

impl FaultSpec {
    /// Parses `spec`, e.g.
    /// `seed=7; drop=0.01; drop.Notify=0.1; jitter=200; rto=2000`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed directive.
    pub fn parse(spec: &str) -> Result<FaultSpec, String> {
        let mut xport = TransportConfig::default();
        let mut plan_directives = Vec::new();
        for raw in spec
            .split([';', ','])
            .map(str::trim)
            .filter(|s| !s.is_empty())
        {
            match raw.split_once('=') {
                Some(("rto", v)) => {
                    let ns: u64 = v.parse().map_err(|_| format!("bad rto {v:?}"))?;
                    xport.rto = Time::from_ns(ns);
                }
                None if raw == "unreliable" => xport.reliable = false,
                None => return Err(format!("fault spec directive {raw:?} is not key=value")),
                _ => plan_directives.push(raw),
            }
        }
        let plan = cord_sim::fault::FaultPlan::parse(&plan_directives.join(";"), |name| {
            cord_noc::MsgClass::ALL
                .iter()
                .find(|c| c.label().eq_ignore_ascii_case(name))
                .map(|&c| c as usize)
        })?;
        Ok(FaultSpec { plan, xport })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{CoreId, DirId, MsgKind, NodeRef};
    use crate::StoreOrd;
    use cord_mem::Addr;

    fn msg(tid: u64) -> Msg {
        Msg::new(
            NodeRef::Core(CoreId(0)),
            NodeRef::Dir(DirId(8)),
            MsgKind::WtStore {
                tid,
                addr: Addr::new(0x40),
                bytes: 8,
                value: tid,
                ord: StoreOrd::Relaxed,
                meta: crate::msg::WtMeta::None,
                needs_ack: false,
            },
        )
    }

    #[test]
    fn wrap_tags_and_costs_seq_bytes() {
        let mut x = Transport::new(TransportConfig::default());
        let mut m = msg(1);
        let base = m.bytes;
        assert_eq!(x.wrap(0, 8, &mut m), (0, 0));
        assert_eq!(m.bytes, base + SEQ_BYTES);
        let mut m2 = msg(2);
        assert_eq!(x.wrap(0, 8, &mut m2), (0, 1));
        assert_eq!(x.wrap(8, 0, &mut msg(3).clone()), (0, 0)); // independent channel
        assert_eq!(x.unacked_total(), 3);
        assert_eq!((x.unacked_from(0), x.unacked_from(8)), (2, 1));
    }

    #[test]
    fn duplicate_deliveries_are_suppressed() {
        let mut x = Transport::new(TransportConfig::default());
        let mut m = msg(1);
        let (_, seq) = x.wrap(0, 8, &mut m);
        assert_eq!(
            x.on_deliver(0, 8, 0, seq, m.clone()),
            RecvOutcome::Deliver(vec![m.clone()])
        );
        assert_eq!(
            x.on_deliver(0, 8, 0, seq, m.clone()),
            RecvOutcome::Duplicate
        );
        assert_eq!(x.on_deliver(0, 8, 0, seq, m), RecvOutcome::Duplicate);
        assert_eq!(x.stats().dup_dropped, 2);
    }

    #[test]
    fn unordered_mode_delivers_immediately_out_of_order() {
        let mut x = Transport::new(TransportConfig::default());
        let (mut a, mut b) = (msg(1), msg(2));
        let (_, s0) = x.wrap(0, 8, &mut a);
        let (_, s1) = x.wrap(0, 8, &mut b);
        // Arrivals reversed: both deliver at once, no hold-back.
        assert_eq!(
            x.on_deliver(0, 8, 0, s1, b.clone()),
            RecvOutcome::Deliver(vec![b])
        );
        assert_eq!(
            x.on_deliver(0, 8, 0, s0, a.clone()),
            RecvOutcome::Deliver(vec![a])
        );
    }

    #[test]
    fn fifo_mode_holds_back_and_releases_in_order() {
        let mut x = Transport::new(TransportConfig {
            fifo: true,
            ..TransportConfig::default()
        });
        let (mut a, mut b, mut c) = (msg(1), msg(2), msg(3));
        let (_, s0) = x.wrap(0, 8, &mut a);
        let (_, s1) = x.wrap(0, 8, &mut b);
        let (_, s2) = x.wrap(0, 8, &mut c);
        assert_eq!(
            x.on_deliver(0, 8, 0, s2, c.clone()),
            RecvOutcome::Deliver(vec![])
        );
        assert_eq!(
            x.on_deliver(0, 8, 0, s1, b.clone()),
            RecvOutcome::Deliver(vec![])
        );
        // The gap fills: everything releases in sequence order.
        assert_eq!(
            x.on_deliver(0, 8, 0, s0, a.clone()),
            RecvOutcome::Deliver(vec![a, b, c])
        );
        // Late duplicate of a held-then-delivered seq is still a duplicate.
        assert_eq!(x.on_deliver(0, 8, 0, s1, msg(2)), RecvOutcome::Duplicate);
    }

    #[test]
    fn ack_retires_and_timeout_backs_off() {
        let cfg = TransportConfig {
            rto: Time::from_ns(100),
            max_backoff_exp: 2,
            ..TransportConfig::default()
        };
        let mut x = Transport::new(cfg);
        let mut m = msg(1);
        let (_, seq) = x.wrap(0, 8, &mut m);
        let (r1, a1, d1) = x.on_timeout(0, 8, 0, seq).unwrap();
        assert_eq!((r1.bytes, a1, d1), (m.bytes, 2, Time::from_ns(200)));
        let (_, a2, d2) = x.on_timeout(0, 8, 0, seq).unwrap();
        assert_eq!((a2, d2), (3, Time::from_ns(400)));
        // Backoff caps at rto << 2.
        let (_, a3, d3) = x.on_timeout(0, 8, 0, seq).unwrap();
        assert_eq!((a3, d3), (4, Time::from_ns(400)));
        assert!(x.on_ack(0, 8, 0, seq, true));
        assert!(!x.on_ack(0, 8, 0, seq, false)); // stale ack
        assert!(x.on_timeout(0, 8, 0, seq).is_none()); // stale timer
        assert_eq!(x.stats().retransmits, 3);
        assert_eq!(x.stats().spurious_retransmits, 1);
        assert_eq!(x.unacked_total(), 0);
    }

    #[test]
    fn unreliable_mode_never_retransmits() {
        let mut x = Transport::new(TransportConfig {
            reliable: false,
            ..TransportConfig::default()
        });
        let mut m = msg(1);
        let (_, seq) = x.wrap(0, 8, &mut m);
        assert!(x.on_timeout(0, 8, 0, seq).is_none());
        assert_eq!(x.stats().retransmits, 0);
    }

    #[test]
    fn session_reset_replays_unacked_and_stales_old_session() {
        let mut x = Transport::new(TransportConfig::default());
        let (mut a, mut b) = (msg(1), msg(2));
        let (_, s0) = x.wrap(0, 8, &mut a);
        let (_, s1) = x.wrap(0, 8, &mut b);
        // First message delivered and acked in session 0; second in flight.
        assert!(matches!(
            x.on_deliver(0, 8, 0, s0, a.clone()),
            RecvOutcome::Deliver(_)
        ));
        assert!(x.on_ack(0, 8, 0, s0, false));
        // Host 0 (tiles 0..8) transport resets.
        let replays = x.reset_src_range(0, 8);
        assert_eq!(replays.len(), 1, "only the unacked message replays");
        let r = &replays[0];
        assert_eq!((r.src, r.dst, r.sess, r.seq), (0, 8, 1, s1));
        assert_eq!(r.msg, b);
        assert_eq!(x.stats().sessions_reset, 1);
        assert_eq!(x.stats().replayed, 1);
        // The old session's retransmission timer is stale (satellite:
        // cancelled RTO timers), as is an old-session ack.
        assert!(x.on_timeout(0, 8, 0, s1).is_none());
        assert!(!x.on_ack(0, 8, 0, s1, false));
        // The replay delivers once under the new session…
        assert_eq!(
            x.on_deliver(0, 8, 1, s1, b.clone()),
            RecvOutcome::Deliver(vec![b.clone()])
        );
        // …after which an old-session in-flight copy (e.g. a pre-reset
        // retransmission still in the fabric) is rejected without acking.
        assert_eq!(x.on_deliver(0, 8, 0, s1, b), RecvOutcome::Stale);
        assert_eq!(x.stats().stale_rejected, 1);
        assert!(x.on_ack(0, 8, 1, s1, false));
        assert_eq!(x.unacked_total(), 0);
        // A second reset of an idle channel still bumps the session.
        assert!(x.reset_src_range(0, 8).is_empty());
        let mut c = msg(3);
        assert_eq!(x.wrap(0, 8, &mut c).0, 2);
    }

    #[test]
    fn session_reset_preserves_dedup_across_sessions() {
        let mut x = Transport::new(TransportConfig::default());
        let mut m = msg(1);
        let (_, seq) = x.wrap(0, 8, &mut m);
        // Delivered in session 0, but the ack is lost: still unacked.
        assert!(matches!(
            x.on_deliver(0, 8, 0, seq, m.clone()),
            RecvOutcome::Deliver(_)
        ));
        let replays = x.reset_src_range(0, 8);
        assert_eq!(replays.len(), 1);
        // The replay arrives under the new session with the same sequence
        // number: the receiver adopts the session and suppresses the dup,
        // so the engine never sees the message twice.
        assert_eq!(x.on_deliver(0, 8, 1, seq, m), RecvOutcome::Duplicate);
        assert!(x.on_ack(0, 8, 1, seq, true));
        assert_eq!(x.unacked_total(), 0);
    }

    #[test]
    fn session_reset_scopes_to_the_host_tile_range() {
        let mut x = Transport::new(TransportConfig::default());
        let (mut a, mut b) = (msg(1), msg(2));
        x.wrap(0, 8, &mut a); // host 0 tile
        x.wrap(9, 0, &mut b); // host 1 tile
        assert_eq!(x.unacked_from(0), 1);
        assert_eq!(x.unacked_from(9), 1);
        let replays = x.reset_src_range(0, 8);
        assert_eq!(replays.len(), 1);
        assert_eq!(replays[0].src, 0);
        // Host 1's channel kept its session and timers.
        assert!(x.on_timeout(9, 0, 0, 0).is_some());
        assert_eq!(x.wrap(9, 0, &mut msg(4).clone()).0, 0);
    }

    #[test]
    fn windows_shrink_to_nothing_once_the_front_retires() {
        const LATER: u64 = 10_000;
        for fifo in [false, true] {
            let mut x = Transport::new(TransportConfig {
                fifo,
                ..TransportConfig::default()
            });
            let mut front = msg(0);
            let (_, s0) = x.wrap(0, 8, &mut front);
            for tid in 1..=LATER {
                let mut m = msg(tid);
                let (_, seq) = x.wrap(0, 8, &mut m);
                assert!(matches!(
                    x.on_deliver(0, 8, 0, seq, m),
                    RecvOutcome::Deliver(_)
                ));
                assert!(x.on_ack(0, 8, 0, seq, false));
            }
            // Acked and delivered holes stay behind the outstanding front.
            assert_eq!(x.unacked_total(), 1);
            assert_eq!(x.send.slots[0].1.window.len(), LATER as usize + 1);
            let RecvOutcome::Deliver(out) = x.on_deliver(0, 8, 0, s0, front) else {
                panic!("the front arrival must deliver");
            };
            assert_eq!(out.len(), if fifo { LATER as usize + 1 } else { 1 });
            assert!(x.on_ack(0, 8, 0, s0, false));
            let (send, recv) = (&x.send.slots[0].1, &x.recv.slots[0].1);
            assert_eq!(send.window.len(), 0);
            assert_eq!((send.base, send.live), (LATER + 1, 0));
            assert_eq!((recv.seen.len(), recv.held.len()), (0, 0));
            assert_eq!(recv.low, LATER + 1);
            assert_eq!(x.unacked_total(), 0);
        }
    }

    #[test]
    fn fault_spec_parses_transport_and_plan_directives() {
        let spec = FaultSpec::parse(
            "seed=9; drop=0.01; drop.Notify.0-1=0.2; jitter=150; rto=2500; unreliable",
        )
        .unwrap();
        assert_eq!(spec.xport.rto, Time::from_ns(2500));
        assert!(!spec.xport.reliable);
        assert_eq!(spec.plan.seed(), 9);
        assert!(!spec.plan.is_noop());
        // Class names are case-insensitive MsgClass labels.
        assert!(FaultSpec::parse("drop.notify=0.5").is_ok());
        assert!(FaultSpec::parse("drop.NoSuchClass=0.5").is_err());
        assert!(FaultSpec::parse("bogus").is_err());
    }
}
