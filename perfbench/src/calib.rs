//! Host-speed calibration for the end-to-end times.
//!
//! On a shared host the simulator's speed drifts by 10–20% over tens of
//! seconds as other tenants come and go. A fixed loop owned by this
//! benchmark, run between passes, slows down with it: hash-map and B-tree
//! churn over a few MB, branchy and allocation-heavy like the simulator's
//! event loop. Scaling each pass by `REFERENCE_S / calibration seconds`
//! reports it in seconds on a host that runs the loop in `REFERENCE_S`.
//! Nothing in the loop depends on the simulator, so a change to the
//! simulator moves the pass time and not the calibration.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Seconds the loop is scaled to.
pub const REFERENCE_S: f64 = 0.15;

/// Loop iterations: about 0.15 s on a 2-vCPU Xeon VM.
const ITERS: u64 = 1_000_000;

/// Host seconds for the calibration loop run on `threads` threads at once,
/// so it loads as many cores as the workload's engine does.
pub fn churn_s(threads: usize) -> f64 {
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 1..threads {
            s.spawn(churn);
        }
        churn();
    });
    t.elapsed().as_secs_f64()
}

fn churn() {
    // A fixed-key hasher, so every process does identical work.
    let mut h: HashMap<u64, (u64, u32), BuildHasherDefault<DefaultHasher>> =
        HashMap::with_capacity_and_hasher(1 << 18, Default::default());
    let mut b = BTreeMap::new();
    let mut q = VecDeque::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for i in 0..ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = x % (1 << 19);
        match x >> 61 {
            0..=2 => {
                let e = h.entry(k).or_insert((0, 0));
                e.0 += i;
                e.1 += 1;
            }
            3 => acc = acc.wrapping_add(h.get(&k).map_or(0, |v| v.0)),
            4 => {
                b.insert(k, i);
            }
            5 => acc ^= b.range(k..).next().map_or(0, |(_, v)| *v),
            6 => {
                q.push_back(k);
                if q.len() > 4096 {
                    acc = acc.wrapping_add(q.pop_front().unwrap_or(0));
                }
            }
            _ => {
                h.remove(&k);
            }
        }
    }
    black_box(acc);
}
