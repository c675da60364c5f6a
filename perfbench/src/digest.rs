//! The output digest: FNV-1a over an explicit list of simulated fields.
//!
//! Only simulated quantities enter it — never `events` (an engine detail)
//! and nothing host-side — and every field is hashed as a number, never
//! through `Debug` text, so a refactor that keeps the simulated semantics
//! keeps the digest. Adding a field to `RunResult` does not change it;
//! changing the list below bumps `VERSION`.

use cord::RunResult;
use cord_proto::StallCause;

/// Folded into every digest so a change to the field list cannot collide
/// with an older record.
const VERSION: u64 = 1;

/// Stall causes in a fixed order (the result stores them in a `HashMap`).
const STALL_CAUSES: [StallCause; 7] = [
    StallCause::AckWait,
    StallCause::StoreWindow,
    StallCause::TableFull,
    StallCause::Overflow,
    StallCause::StoreBuffer,
    StallCause::Recovery,
    StallCause::Other,
];

/// 64-bit FNV-1a over little-endian words.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes one word into the hash.
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash so far.
    fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of one run: makespan, drain time, final registers, per-class
/// traffic and fault counters, stalls by cause, storage peaks and polls.
pub fn run_digest(r: &RunResult) -> u64 {
    let mut h = Fnv::default();
    h.word(VERSION);
    h.word(r.makespan.as_ps());
    h.word(r.drained.as_ps());
    h.word(r.regs.len() as u64);
    for regs in &r.regs {
        regs.iter().for_each(|&v| h.word(v));
    }
    for (class, c) in r.traffic.iter() {
        h.word(class as u64);
        for v in [c.inter_bytes, c.inter_msgs, c.intra_bytes, c.intra_msgs] {
            h.word(v);
        }
    }
    let f = &r.traffic.faults;
    for v in [
        f.dropped,
        f.duplicated,
        f.delayed,
        f.retransmits,
        f.spurious_retransmits,
        f.dup_dropped,
        f.sessions_reset,
        f.replayed,
        f.stale_rejected,
    ] {
        h.word(v);
    }
    for cause in STALL_CAUSES {
        h.word(r.stall(cause).as_ps());
    }
    h.word(r.proc_storages.len() as u64);
    for s in &r.proc_storages {
        h.word(s.peak_cnt_bytes);
        h.word(s.peak_other_bytes);
    }
    h.word(r.dir_storages.len() as u64);
    for s in &r.dir_storages {
        h.word(s.peak_lut_bytes);
        h.word(s.peak_buf_bytes);
    }
    h.word(r.polls);
    h.finish()
}

/// Digest of a workload pass: the run digests folded in job order.
pub fn fold(digests: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv::default();
    h.word(VERSION);
    digests.into_iter().for_each(|d| h.word(d));
    h.finish()
}

/// Digest of the final registers alone: the part of a run both engines
/// must agree on.
pub fn regs_digest(r: &RunResult) -> u64 {
    let mut h = Fnv::default();
    h.word(r.regs.len() as u64);
    for regs in &r.regs {
        regs.iter().for_each(|&v| h.word(v));
    }
    h.finish()
}
