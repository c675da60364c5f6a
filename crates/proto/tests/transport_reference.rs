//! Differential test of the sliding-window [`Transport`] against the
//! ordered-map implementation it replaced, whose logic is kept here
//! unchanged as a reference (less the three counters nothing read: `sent`,
//! `held_back`, `max_attempts`). Both are driven from the same `DetRng` op
//! streams in every `fifo` × `reliable` combination, and every return
//! value, the counters and the unacked counts must agree after every op.

use cord_mem::Addr;
use cord_proto::{
    CoreId, DirId, Msg, MsgKind, NodeRef, RecvOutcome, StoreOrd, Transport, TransportConfig, WtMeta,
};
use cord_sim::{DetRng, Time};

mod reference {
    use std::collections::{BTreeMap, BTreeSet};

    use cord_proto::transport::Replay;
    use cord_proto::{Msg, RecvOutcome, TransportConfig, XportStats, SEQ_BYTES};
    use cord_sim::Time;

    #[derive(Debug, Clone)]
    struct Unacked {
        msg: Msg,
        attempts: u32,
    }

    #[derive(Debug, Default, Clone)]
    struct SendChan {
        sess: u32,
        next_seq: u64,
        unacked: BTreeMap<u64, Unacked>,
    }

    #[derive(Debug, Default, Clone)]
    struct RecvChan {
        sess: u32,
        low: u64,
        above: BTreeSet<u64>,
        held: BTreeMap<u64, Msg>,
    }

    /// The ordered-map transport: one `BTreeMap` entry per channel, an
    /// ordered map of unacked messages per sender, and an ordered set (or
    /// map of held-back messages) above `low` per receiver.
    #[derive(Debug, Clone)]
    pub struct Transport {
        cfg: TransportConfig,
        send: BTreeMap<(u32, u32), SendChan>,
        recv: BTreeMap<(u32, u32), RecvChan>,
        stats: XportStats,
    }

    impl Transport {
        pub fn new(cfg: TransportConfig) -> Self {
            Transport {
                cfg,
                send: BTreeMap::new(),
                recv: BTreeMap::new(),
                stats: XportStats::default(),
            }
        }

        pub fn stats(&self) -> &XportStats {
            &self.stats
        }

        pub fn unacked_total(&self) -> usize {
            self.send.values().map(|c| c.unacked.len()).sum()
        }

        pub fn unacked_from(&self, src: u32) -> usize {
            self.send
                .range((src, 0)..(src + 1, 0))
                .map(|(_, c)| c.unacked.len())
                .sum()
        }

        pub fn wrap(&mut self, src: u32, dst: u32, msg: &mut Msg) -> (u32, u64) {
            let chan = self.send.entry((src, dst)).or_default();
            let seq = chan.next_seq;
            chan.next_seq += 1;
            msg.bytes += SEQ_BYTES;
            chan.unacked.insert(
                seq,
                Unacked {
                    msg: msg.clone(),
                    attempts: 1,
                },
            );
            (chan.sess, seq)
        }

        pub fn reset_src_range(&mut self, src_lo: u32, src_hi: u32) -> Vec<Replay> {
            let mut out = Vec::new();
            for (&(src, dst), chan) in self.send.range_mut((src_lo, 0)..(src_hi, 0)) {
                chan.sess += 1;
                self.stats.sessions_reset += 1;
                for (&seq, u) in chan.unacked.iter_mut() {
                    u.attempts = 1;
                    self.stats.replayed += 1;
                    out.push(Replay {
                        src,
                        dst,
                        sess: chan.sess,
                        seq,
                        msg: u.msg.clone(),
                    });
                }
            }
            out
        }

        pub fn on_deliver(
            &mut self,
            src: u32,
            dst: u32,
            sess: u32,
            seq: u64,
            msg: Msg,
        ) -> RecvOutcome {
            let chan = self.recv.entry((src, dst)).or_default();
            if sess < chan.sess {
                self.stats.stale_rejected += 1;
                return RecvOutcome::Stale;
            }
            chan.sess = sess;
            if seq < chan.low {
                self.stats.dup_dropped += 1;
                return RecvOutcome::Duplicate;
            }
            if self.cfg.fifo {
                if chan.held.contains_key(&seq) {
                    self.stats.dup_dropped += 1;
                    return RecvOutcome::Duplicate;
                }
                chan.held.insert(seq, msg);
                let mut out = Vec::new();
                while let Some(m) = chan.held.remove(&chan.low) {
                    out.push(m);
                    chan.low += 1;
                }
                RecvOutcome::Deliver(out)
            } else {
                if !chan.above.insert(seq) {
                    self.stats.dup_dropped += 1;
                    return RecvOutcome::Duplicate;
                }
                while chan.above.remove(&chan.low) {
                    chan.low += 1;
                }
                RecvOutcome::Deliver(vec![msg])
            }
        }

        pub fn on_ack(&mut self, src: u32, dst: u32, sess: u32, seq: u64, dup: bool) -> bool {
            let Some(chan) = self.send.get_mut(&(src, dst)) else {
                return false;
            };
            if sess != chan.sess {
                return false;
            }
            match chan.unacked.remove(&seq) {
                Some(u) => {
                    if dup && u.attempts > 1 {
                        self.stats.spurious_retransmits += 1;
                    }
                    true
                }
                None => false,
            }
        }

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
            let chan = self.send.get_mut(&(src, dst))?;
            if sess != chan.sess {
                return None;
            }
            let u = chan.unacked.get_mut(&seq)?;
            u.attempts += 1;
            self.stats.retransmits += 1;
            let exp = (u.attempts - 1).min(self.cfg.max_backoff_exp);
            let delay = Time::from_ps(self.cfg.rto.as_ps() << exp);
            Some((u.msg.clone(), u.attempts, delay))
        }
    }
}

/// A store message whose payload names `tid`, so every message differs.
fn msg(tid: u64) -> Msg {
    Msg::new(
        NodeRef::Core(CoreId(0)),
        NodeRef::Dir(DirId(1)),
        MsgKind::WtStore {
            tid,
            addr: Addr::new(0x40 * (tid % 64)),
            bytes: 8,
            value: tid,
            ord: StoreOrd::Relaxed,
            meta: WtMeta::None,
            needs_ack: false,
        },
    )
}

/// One transmission the stream may deliver, ack or time out later: the
/// copy a `wrap` or a replay put on the wire.
#[derive(Clone)]
struct Sent {
    src: u32,
    dst: u32,
    sess: u32,
    seq: u64,
    msg: Msg,
}

/// Tiles per simulated host; resets cover one host's tile range.
const TPH: u32 = 3;

/// How often each interesting outcome occurred, so a stream generator that
/// stopped producing one shows up as a failure instead of a vacuous pass.
#[derive(Default)]
struct Tally {
    duplicate: u64,
    stale: u64,
    held_back: u64,
    gap_filled: u64,
    ack_retired: u64,
    ack_ignored: u64,
    retransmitted: u64,
    replayed: u64,
}

fn check(x: &Transport, r: &reference::Transport, tiles: u32, ctx: &dyn Fn() -> String) {
    assert_eq!(x.stats(), r.stats(), "{}", ctx());
    assert_eq!(x.unacked_total(), r.unacked_total(), "{}", ctx());
    for src in 0..tiles {
        assert_eq!(
            x.unacked_from(src),
            r.unacked_from(src),
            "{} src {src}",
            ctx()
        );
    }
}

/// Drives both transports through one random op stream. Deliveries pick
/// any earlier transmission (so duplicates, stale sessions and
/// out-of-order sequences all occur), sometimes under a session one older
/// than its own, and sometimes a few sequences ahead of its own (possibly
/// one never sent); acks and
/// timeouts pick earlier transmissions too (double and stale acks, timers
/// of acked messages), and resets cover one host's tiles.
fn run_stream(cfg: TransportConfig, rng: &mut DetRng, label: &str, tally: &mut Tally) {
    let hosts = rng.range_u64(1..4) as u32;
    let tiles = hosts * TPH;
    let mut x = Transport::new(cfg);
    let mut r = reference::Transport::new(cfg);
    let mut sent: Vec<Sent> = Vec::new();
    let mut tid = 0u64;
    for step in 0..rng.range_usize(1..600) {
        let ctx = || format!("{label} step {step}");
        let pick = |rng: &mut DetRng, sent: &[Sent]| {
            // Favour recent transmissions so channels both drain and grow.
            let n = sent.len();
            let back = rng.range_usize(0..n.min(24));
            if rng.chance(0.7) {
                sent[n - 1 - back].clone()
            } else {
                sent[rng.range_usize(0..n)].clone()
            }
        };
        match rng.range_u64(0..20) {
            _ if sent.is_empty() => {}
            0..=4 => {} // a send-only step
            5..=9 => {
                let mut s = pick(rng, &sent);
                match rng.range_u64(0..10) {
                    0 => s.sess = s.sess.saturating_sub(1),
                    1 => {
                        s.seq += rng.range_u64(1..4);
                        tid += 1;
                        s.msg = msg(tid);
                    }
                    _ => {}
                }
                let got = x.on_deliver(s.src, s.dst, s.sess, s.seq, s.msg.clone());
                let want = r.on_deliver(s.src, s.dst, s.sess, s.seq, s.msg);
                assert_eq!(got, want, "{}", ctx());
                match got {
                    RecvOutcome::Duplicate => tally.duplicate += 1,
                    RecvOutcome::Stale => tally.stale += 1,
                    RecvOutcome::Deliver(v) if v.is_empty() => tally.held_back += 1,
                    RecvOutcome::Deliver(v) if v.len() > 1 => tally.gap_filled += 1,
                    RecvOutcome::Deliver(_) => {}
                }
            }
            10..=14 => {
                let s = pick(rng, &sent);
                let dup = rng.chance(0.5);
                let got = x.on_ack(s.src, s.dst, s.sess, s.seq, dup);
                let want = r.on_ack(s.src, s.dst, s.sess, s.seq, dup);
                assert_eq!(got, want, "{}", ctx());
                if got {
                    tally.ack_retired += 1;
                } else {
                    tally.ack_ignored += 1;
                }
            }
            15..=18 => {
                let s = pick(rng, &sent);
                let got = x.on_timeout(s.src, s.dst, s.sess, s.seq);
                let want = r.on_timeout(s.src, s.dst, s.sess, s.seq);
                assert_eq!(got, want, "{}", ctx());
                if let Some((m, _, _)) = got {
                    tally.retransmitted += 1;
                    sent.push(Sent { msg: m, ..s });
                }
            }
            _ => {
                let h = rng.range_u64(0..u64::from(hosts)) as u32;
                let got = x.reset_src_range(h * TPH, (h + 1) * TPH);
                let want = r.reset_src_range(h * TPH, (h + 1) * TPH);
                assert_eq!(got, want, "{}", ctx());
                tally.replayed += got.len() as u64;
                sent.extend(got.into_iter().map(|p| Sent {
                    src: p.src,
                    dst: p.dst,
                    sess: p.sess,
                    seq: p.seq,
                    msg: p.msg,
                }));
            }
        }
        // Sends ride every step, so streams keep growing under the other ops.
        if rng.chance(0.45) || sent.is_empty() {
            let (src, dst) = (
                rng.range_u64(0..u64::from(tiles)) as u32,
                rng.range_u64(0..u64::from(tiles)) as u32,
            );
            tid += 1;
            let (mut a, mut b) = (msg(tid), msg(tid));
            let got = x.wrap(src, dst, &mut a);
            let want = r.wrap(src, dst, &mut b);
            assert_eq!((got, &a), (want, &b), "{}", ctx());
            sent.push(Sent {
                src,
                dst,
                sess: got.0,
                seq: got.1,
                msg: a,
            });
        }
        check(&x, &r, tiles, &ctx);
    }
}

#[test]
fn sliding_window_transport_matches_ordered_map_reference() {
    for fifo in [false, true] {
        for reliable in [false, true] {
            let mut tally = Tally::default();
            let cfg = TransportConfig {
                rto: Time::from_ns(100),
                max_backoff_exp: 3,
                reliable,
                fifo,
            };
            for case in 0..96 {
                let mut rng = DetRng::new(0x7A45_00E7).stream(case);
                let label = format!("fifo {fifo} reliable {reliable} case {case}");
                run_stream(cfg, &mut rng, &label, &mut tally);
            }
            let label = format!("fifo {fifo} reliable {reliable}");
            for (what, n) in [
                ("duplicate", tally.duplicate),
                ("stale", tally.stale),
                ("ack retired", tally.ack_retired),
                ("ack ignored", tally.ack_ignored),
                ("replayed", tally.replayed),
            ] {
                assert!(n >= 50, "{label}: only {n} {what} outcome(s)");
            }
            if fifo {
                assert!(
                    tally.held_back >= 50,
                    "{label}: {} held back",
                    tally.held_back
                );
                assert!(
                    tally.gap_filled >= 50,
                    "{label}: {} gaps filled",
                    tally.gap_filled
                );
            }
            if reliable {
                assert!(
                    tally.retransmitted >= 50,
                    "{label}: {} retransmitted",
                    tally.retransmitted
                );
            }
        }
    }
}
