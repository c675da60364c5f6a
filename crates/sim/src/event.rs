//! Deterministic event queue.
//!
//! Events are ordered by timestamp; ties are broken by insertion order so a
//! simulation run is bit-for-bit reproducible regardless of payload type.
//!
//! # Implementation
//!
//! The queue is a **calendar queue** (Brown 1988) rather than a binary heap:
//! pending events live in an array of power-of-two "day" buckets indexed by
//! `(timestamp / bucket_width) % nbuckets`, so enqueue is an append and
//! dequeue scans forward from the current day instead of percolating through
//! a heap. Three refinements adapt the classic design to the simulator's
//! workload:
//!
//! * **Sorted active day** — when the first pop reaches a day, that day's
//!   bucket is sorted once by `(time, seq)`, descending, and every later pop
//!   in the day is a `Vec::pop` off its end. A busy day holds dozens of
//!   distinct picosecond timestamps; they share that one sort instead of
//!   each paying a pass over the bucket. Appends arrive as ascending runs,
//!   which the stable sort handles in linear time, so a pop costs O(1)
//!   amortised. A push into the day being drained is a binary-search
//!   insert. [`pop_if_at`](EventQueue::pop_if_at) is a cached-head compare
//!   plus the same pop.
//! * **Drained days release their storage** — a bucket that empties gives
//!   back any allocation beyond a few entries, so the queue's memory follows
//!   the number of pending events rather than the busiest day ever seen.
//! * **Far rung** — events scheduled beyond the calendar's horizon
//!   (retransmission timers, degradation windows) go to an overflow rung and
//!   migrate into the calendar only when the scan reaches their timestamp,
//!   so sparse far-future timers never slow down the dense near-term scan.
//!
//! Dequeue order is exactly `(time, insertion seq)` — identical to the
//! previous `BinaryHeap` implementation, which the property tests in
//! `crates/sim/tests` pin against a reference heap.

use crate::time::Time;

/// log2 of the bucket width in picoseconds (4.096 ns per day). Wide enough
/// that mesh-hop-scale event gaps (5 ns) skip at most a bucket or two,
/// narrow enough that a busy 8-host run keeps per-bucket occupancy small.
const WIDTH_SHIFT: u32 = 12;
/// Initial number of day buckets (4.096 ns × 256 ≈ 1 µs horizon).
const INIT_BUCKETS: usize = 256;
/// Hard ceiling on bucket growth.
const MAX_BUCKETS: usize = 1 << 20;
/// Entries a drained bucket may keep allocated; anything larger is freed.
const RETAIN_CAP: usize = 8;

/// A priority queue of `(Time, E)` events with deterministic FIFO tie-breaking.
///
/// # Example
///
/// ```
/// use cord_sim::{EventQueue, Time};
///
/// let mut q = EventQueue::new();
/// q.push(Time::from_ns(3), 'x');
/// q.push(Time::from_ns(3), 'y'); // same time: FIFO order preserved
/// q.push(Time::from_ns(1), 'z');
/// assert_eq!(q.pop(), Some((Time::from_ns(1), 'z')));
/// assert_eq!(q.pop(), Some((Time::from_ns(3), 'x')));
/// assert_eq!(q.pop(), Some((Time::from_ns(3), 'y')));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Day buckets; always a power of two. Invariant: every resident entry's
    /// day lies in `[cur_day, cur_day + nbuckets)`, so each bucket holds
    /// entries of exactly one day.
    buckets: Vec<Vec<Entry<E>>>,
    mask: u64,
    /// No bucket-resident event has a day earlier than this.
    cur_day: u64,
    /// Whether `cur_day`'s bucket is sorted by `(time, seq)` descending —
    /// set by the first pop in the day, cleared by anything that appends to
    /// the bucket out of order (growth, far-rung migration).
    sorted: bool,
    /// Overflow rung for events at/beyond the calendar horizon.
    far: Vec<Entry<E>>,
    /// Earliest timestamp in `far` (`Time::MAX` when empty).
    far_min: Time,
    /// Cached earliest pending timestamp, so the runner's quiescence /
    /// next-event checks don't touch the calendar.
    head: Option<Time>,
    /// Bucket-resident entry count (excludes the far rung) — drives
    /// calendar growth.
    resident: usize,
    next_seq: u64,
    now: Time,
}

#[derive(Debug)]
struct Entry<E> {
    time: Time,
    seq: u64,
    payload: E,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at time zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue sized for roughly `cap` concurrently pending
    /// events before the calendar grows (hot-path optimization for sized
    /// systems).
    pub fn with_capacity(cap: usize) -> Self {
        let nbuckets = (cap / 4)
            .next_power_of_two()
            .clamp(INIT_BUCKETS, MAX_BUCKETS);
        EventQueue {
            buckets: (0..nbuckets).map(|_| Vec::new()).collect(),
            mask: (nbuckets - 1) as u64,
            cur_day: 0,
            sorted: false,
            far: Vec::new(),
            far_min: Time::MAX,
            head: None,
            resident: 0,
            next_seq: 0,
            now: Time::ZERO,
        }
    }

    #[inline]
    fn day_of(at: Time) -> u64 {
        at.as_ps() >> WIDTH_SHIFT
    }

    #[inline]
    fn nbuckets(&self) -> u64 {
        self.mask + 1
    }

    #[inline]
    fn bucket_of(&self, day: u64) -> usize {
        (day & self.mask) as usize
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current simulation time — an event
    /// in the past indicates a component bug, and silently reordering it
    /// would make runs nondeterministic.
    #[inline]
    pub fn push(&mut self, at: Time, payload: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at:?} now={:?}",
            self.now
        );
        let e = Entry {
            time: at,
            seq: self.next_seq,
            payload,
        };
        self.next_seq += 1;
        if self.head.is_none_or(|h| at < h) {
            self.head = Some(at);
        }
        let day = Self::day_of(at);
        if day >= self.cur_day + self.nbuckets() {
            if at < self.far_min {
                self.far_min = at;
            }
            self.far.push(e);
            return;
        }
        let idx = self.bucket_of(day);
        let b = &mut self.buckets[idx];
        if self.sorted && day == self.cur_day {
            // The newest seq sorts after every pending event at `at` and
            // before every later one.
            b.insert(b.partition_point(|x| x.time > at), e);
        } else {
            b.push(e);
        }
        self.resident += 1;
        if self.resident > self.buckets.len() * 4 && self.buckets.len() < MAX_BUCKETS {
            self.grow();
        }
    }

    /// Removes and returns the earliest event, advancing the queue's notion
    /// of "now" to its timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let at = self.head?;
        let day = Self::day_of(at);
        if day != self.cur_day {
            // Nothing is pending before `at` (it is the head), so no bucket
            // holds an earlier day and advancing the window start is safe.
            self.cur_day = day;
            self.sorted = false;
        }
        if self.far_min <= at {
            self.migrate(day);
            self.sorted = false;
        }
        let idx = self.bucket_of(day);
        let b = &mut self.buckets[idx];
        if !self.sorted {
            // Descending, so the next event out is last.
            b.sort_by_key(|e| std::cmp::Reverse((e.time, e.seq)));
            self.sorted = true;
        }
        let e = b.pop().expect("cached head implies a pending event");
        debug_assert_eq!(e.time, at);
        self.now = at;
        self.resident -= 1;
        self.head = match b.last() {
            // A far-rung leftover can share the active day.
            Some(next) => Some(next.time.min(self.far_min)),
            None => {
                if b.capacity() > RETAIN_CAP {
                    *b = Vec::new();
                }
                self.find_min()
            }
        };
        Some((at, e.payload))
    }

    /// Removes and returns the earliest event **only if** it fires exactly
    /// at `at` — the batch-drain fast path for same-timestamp event bursts.
    ///
    /// The miss case is a single cached-field compare and the hit case is an
    /// ordinary [`pop`], so a dispatch loop can ask "more work at the time
    /// I'm already processing?" after every event for free.
    ///
    /// [`pop`]: EventQueue::pop
    #[inline]
    pub fn pop_if_at(&mut self, at: Time) -> Option<E> {
        if self.head != Some(at) {
            return None;
        }
        self.pop().map(|(_, e)| e)
    }

    /// Scans the calendar forward from `cur_day` for the earliest pending
    /// timestamp. `None` iff nothing is pending. Pure read: `cur_day` is
    /// only ever advanced by [`pop`](Self::pop), because pushes at the
    /// current time remain legal after this scan and must still land in
    /// front of the window.
    fn find_min(&self) -> Option<Time> {
        if self.resident == 0 && self.far.is_empty() {
            return None;
        }
        let far_day = Self::day_of(self.far_min);
        let mut day = self.cur_day;
        let end = self.cur_day + self.nbuckets();
        while day < end && day <= far_day {
            let bucket = &self.buckets[self.bucket_of(day)];
            debug_assert!(bucket.iter().all(|e| Self::day_of(e.time) == day));
            if let Some(t) = bucket.iter().map(|e| e.time).min() {
                return Some(t.min(self.far_min));
            }
            day += 1;
        }
        // Either the whole window is empty (everything pending is far) or
        // the scan crossed the far rung's day: the far minimum wins, since
        // any unscanned in-window entry has a strictly later day.
        debug_assert!(!self.far.is_empty());
        Some(self.far_min)
    }

    /// Moves far-rung events whose day falls inside the window starting at
    /// `day` into their buckets. Called with `day == cur_day` so the window
    /// invariant is preserved.
    fn migrate(&mut self, day: u64) {
        let horizon = day + self.nbuckets();
        let mut far_min = Time::MAX;
        let mut i = 0;
        while i < self.far.len() {
            if Self::day_of(self.far[i].time) < horizon {
                let e = self.far.swap_remove(i);
                let idx = self.bucket_of(Self::day_of(e.time));
                self.buckets[idx].push(e);
                self.resident += 1;
            } else {
                if self.far[i].time < far_min {
                    far_min = self.far[i].time;
                }
                i += 1;
            }
        }
        self.far_min = far_min;
    }

    /// Doubles the bucket count and redistributes resident events.
    fn grow(&mut self) {
        let new_n = (self.buckets.len() * 2).min(MAX_BUCKETS);
        let old: Vec<Entry<E>> = self
            .buckets
            .iter_mut()
            .flat_map(std::mem::take)
            .chain(std::mem::take(&mut self.far))
            .collect();
        self.buckets = (0..new_n).map(|_| Vec::new()).collect();
        self.mask = (new_n - 1) as u64;
        self.sorted = false;
        self.resident = 0;
        self.far_min = Time::MAX;
        let horizon = self.cur_day + new_n as u64;
        for e in old {
            if Self::day_of(e.time) >= horizon {
                if e.time < self.far_min {
                    self.far_min = e.time;
                }
                self.far.push(e);
            } else {
                let idx = self.bucket_of(Self::day_of(e.time));
                self.buckets[idx].push(e);
                self.resident += 1;
            }
        }
    }

    /// Timestamp of the earliest pending event, if any — a cached O(1)
    /// field read (no calendar access), cheap enough for per-event
    /// quiescence checks in the runner.
    #[inline]
    pub fn peek_time(&self) -> Option<Time> {
        self.head
    }

    /// The timestamp of the most recently popped event.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.resident + self.far.len()
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled (diagnostics).
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Occupancy of the queue's three rungs — `(other bucket-resident,
    /// staged, far rung)` — for observability sampling. "Staged" events are
    /// those still pending at [`now`](EventQueue::now) in the sorted active
    /// day. The three always sum to [`len`](EventQueue::len).
    pub fn rung_depths(&self) -> (usize, usize, usize) {
        let staged = if self.sorted {
            let b = &self.buckets[self.bucket_of(self.cur_day)];
            b.iter().rev().take_while(|e| e.time == self.now).count()
        } else {
            0
        };
        (self.resident - staged, staged, self.far.len())
    }

    /// Iterates the pending events in **arbitrary** order — diagnostics only
    /// (e.g. the liveness watchdog's in-flight dump); callers needing a
    /// stable order must sort what they collect.
    pub fn iter(&self) -> impl Iterator<Item = (Time, &E)> {
        self.buckets
            .iter()
            .flatten()
            .chain(&self.far)
            .map(|e| (e.time, &e.payload))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time_then_fifo() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(5), 1);
        q.push(Time::from_ns(2), 2);
        q.push(Time::from_ns(5), 3);
        q.push(Time::from_ns(2), 4);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![2, 4, 1, 3]);
    }

    #[test]
    fn now_advances_with_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), Time::ZERO);
        q.push(Time::from_ns(9), ());
        q.pop();
        assert_eq!(q.now(), Time::from_ns(9));
    }

    #[test]
    #[should_panic(expected = "event scheduled in the past")]
    fn past_event_panics() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(10), ());
        q.pop();
        q.push(Time::from_ns(5), ());
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(Time::from_ns(1), ());
        q.push(Time::from_ns(1), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(Time::from_ns(1)));
    }

    #[test]
    fn pop_if_at_drains_only_the_asked_timestamp() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(3), 'a');
        q.push(Time::from_ns(3), 'b');
        q.push(Time::from_ns(5), 'c');
        assert_eq!(q.pop_if_at(Time::from_ns(5)), None, "head is at 3, not 5");
        assert_eq!(q.pop(), Some((Time::from_ns(3), 'a')));
        // Same-time burst drains FIFO via the fast path…
        assert_eq!(q.pop_if_at(Time::from_ns(3)), Some('b'));
        // …and stops at the next timestamp without consuming it.
        assert_eq!(q.pop_if_at(Time::from_ns(3)), None);
        assert_eq!(q.now(), Time::from_ns(3), "miss must not advance time");
        assert_eq!(q.pop(), Some((Time::from_ns(5), 'c')));
        assert_eq!(q.pop_if_at(Time::from_ns(5)), None, "empty queue misses");
    }

    #[test]
    fn pop_if_at_agrees_with_pop_on_a_mixed_schedule() {
        // Drain the same schedule two ways; the event orders must match.
        let schedule = [4u64, 1, 4, 4, 2, 9, 2, 4];
        let mut plain = EventQueue::new();
        let mut fast = EventQueue::new();
        for (i, &ns) in schedule.iter().enumerate() {
            plain.push(Time::from_ns(ns), i);
            fast.push(Time::from_ns(ns), i);
        }
        let mut via_plain = Vec::new();
        while let Some((t, e)) = plain.pop() {
            via_plain.push((t, e));
        }
        let mut via_fast = Vec::new();
        while let Some((t, e)) = fast.pop() {
            via_fast.push((t, e));
            while let Some(e) = fast.pop_if_at(t) {
                via_fast.push((t, e));
            }
        }
        assert_eq!(via_fast, via_plain);
    }

    #[test]
    fn peek_time_tracks_head_through_pushes_and_pops() {
        let mut q = EventQueue::with_capacity(16);
        assert_eq!(q.peek_time(), None);
        q.push(Time::from_ns(9), 'a');
        assert_eq!(q.peek_time(), Some(Time::from_ns(9)));
        q.push(Time::from_ns(4), 'b'); // new minimum
        assert_eq!(q.peek_time(), Some(Time::from_ns(4)));
        q.push(Time::from_ns(7), 'c'); // not a new minimum
        assert_eq!(q.peek_time(), Some(Time::from_ns(4)));
        assert_eq!(q.pop(), Some((Time::from_ns(4), 'b')));
        assert_eq!(q.peek_time(), Some(Time::from_ns(7)));
        q.pop();
        q.pop();
        assert_eq!(q.peek_time(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn push_at_the_timestamp_being_served_keeps_fifo_order() {
        let mut q = EventQueue::new();
        let t = Time::from_ns(2);
        q.push(t, 0);
        q.push(t, 1);
        q.push(Time::from_ns(7), 99);
        assert_eq!(q.pop(), Some((t, 0)));
        // A push at the served timestamp must come out after the events
        // already pending there (it has the largest seq).
        q.push(t, 2);
        assert_eq!(q.pop_if_at(t), Some(1));
        assert_eq!(q.pop_if_at(t), Some(2));
        assert_eq!(q.pop_if_at(t), None);
        assert_eq!(q.pop(), Some((Time::from_ns(7), 99)));
    }

    #[test]
    fn far_future_events_round_trip_through_the_overflow_rung() {
        let mut q = EventQueue::new();
        q.push(Time::from_us(100), 'z'); // way past the calendar horizon
        q.push(Time::from_ns(1), 'a');
        q.push(Time::from_us(90), 'y');
        assert_eq!(q.peek_time(), Some(Time::from_ns(1)));
        assert_eq!(q.pop(), Some((Time::from_ns(1), 'a')));
        assert_eq!(q.peek_time(), Some(Time::from_us(90)));
        assert_eq!(q.pop(), Some((Time::from_us(90), 'y')));
        assert_eq!(q.pop(), Some((Time::from_us(100), 'z')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_timestamp_split_across_far_rung_and_calendar_stays_fifo() {
        // Push at T while it is beyond the horizon (goes to the far rung),
        // advance the calendar near T, push at T again (goes to a bucket),
        // then drain: FIFO order must hold across the two homes.
        let t = Time::from_us(50);
        let mut q = EventQueue::new();
        q.push(t, 1); // far
        q.push(Time::from_us(49), 0); // also far, slightly earlier
        q.push(Time::from_ns(1), -1);
        assert_eq!(q.pop(), Some((Time::from_ns(1), -1)));
        assert_eq!(q.pop(), Some((Time::from_us(49), 0)));
        // Now cur_day is near t, so this lands in a bucket while seq-1 for
        // the same timestamp migrated from the far rung.
        q.push(t, 2);
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), Some((t, 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn far_leftovers_inside_the_active_day_keep_order() {
        // Two far-rung timers sit in a day that the window later reaches
        // through bucket-resident events. They must still come out in
        // `(time, seq)` order, whether they migrate at their own pop or
        // through calendar growth while that day is being drained.
        fn push(q: &mut EventQueue<usize>, log: &mut Vec<(Time, usize)>, ps: u64) {
            let e = (Time::from_ps(ps), log.len());
            log.push(e);
            q.push(e.0, e.1);
        }
        let t0 = 2_000_000; // day 488: beyond the initial 256-day horizon
        for grow in [false, true] {
            let mut q = EventQueue::new();
            let mut log = Vec::new();
            push(&mut q, &mut log, t0);
            push(&mut q, &mut log, t0 + 100);
            push(&mut q, &mut log, t0 / 2);
            let mut out = vec![q.pop().unwrap()]; // the window now covers day 488
            for ps in [t0 - 50, t0 + 50, t0 + 200] {
                push(&mut q, &mut log, ps);
            }
            out.push(q.pop().unwrap()); // day 488 is the active day
            assert_eq!(
                q.peek_time(),
                Some(Time::from_ps(t0)),
                "far leftover is the head"
            );
            if grow {
                for i in 0..4 * INIT_BUCKETS as u64 {
                    push(&mut q, &mut log, t0 + 400_000 + i);
                }
            }
            out.extend(std::iter::from_fn(|| q.pop()));
            log.sort_unstable();
            assert_eq!(out, log, "grow={grow}");
        }
    }

    #[test]
    fn grows_past_initial_bucket_count() {
        let mut q = EventQueue::new();
        let n = 8 * INIT_BUCKETS as u64;
        for i in 0..n {
            q.push(Time::from_ps(i * 37), i);
        }
        assert_eq!(q.len(), n as usize);
        let mut prev = (Time::ZERO, 0);
        let mut count = 0;
        while let Some((t, e)) = q.pop() {
            assert!((t, e) >= prev, "out of order: {prev:?} then {:?}", (t, e));
            prev = (t, e);
            count += 1;
        }
        assert_eq!(count, n);
    }

    #[test]
    fn iter_covers_active_day_buckets_and_far() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(1), 'a');
        q.push(Time::from_ns(1), 'b');
        q.push(Time::from_ns(3), 'c');
        q.push(Time::from_us(999), 'd');
        assert_eq!(q.pop(), Some((Time::from_ns(1), 'a'))); // 'b' now staged
        let mut seen: Vec<char> = q.iter().map(|(_, &c)| c).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec!['b', 'c', 'd']);
        assert_eq!(q.len(), 3);
        assert_eq!(q.rung_depths(), (1, 1, 1));
    }

    #[test]
    fn drained_days_release_their_storage() {
        let mut q = EventQueue::with_capacity(4 * 1024);
        let bucket_cap = |q: &EventQueue<u64>| q.buckets.iter().map(Vec::capacity).sum::<usize>();
        // A burst of 64 distinct timestamps per day over 512 days.
        let (days, per_day) = (512u64, 64u64);
        for round in 0..2u64 {
            let base = round * (days << WIDTH_SHIFT);
            for i in 0..days * per_day {
                let day = i % days;
                let ps = base + (day << WIDTH_SHIFT) + (i / days) * 61;
                q.push(Time::from_ps(ps), i);
            }
            assert!(bucket_cap(&q) >= (days * per_day) as usize);
            while q.pop().is_some() {}
            assert!(
                bucket_cap(&q) <= days as usize * RETAIN_CAP,
                "round {round}: drained buckets still hold {} entries of capacity",
                bucket_cap(&q)
            );
        }
    }
}
