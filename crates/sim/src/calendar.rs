//! A calendar queue: O(1) amortized event scheduling for dense timelines.
//!
//! Discrete-event simulators with steady event rates (like a router under
//! constant packet load) spend measurable time in the priority queue. A
//! calendar queue (Brown 1988) buckets events by time modulo a rotating
//! "year" and dequeues in O(1) amortized when the event-density assumption
//! holds, degrading gracefully (by resizing) when it does not.
//!
//! The engine runs on [`EventQueue`](crate::event::EventQueue) alone; this
//! queue stays for the benchmark's queue micro-loops, which drive both
//! through [`Scheduler`](crate::sched::Scheduler)'s `schedule` and `pop`.
//! It honours the same FIFO tie-break, and property tests in this module
//! prove the two dequeue in exactly the same order.
//!
//! Three hot-path properties matter:
//!
//! * buckets are [`VecDeque`]s, so dequeuing the head of a bucket is O(1)
//!   rather than `Vec::remove(0)`'s O(bucket);
//! * the location of the earliest pending event is cached (`next_cache`),
//!   maintained in O(1) on [`schedule`](CalendarQueue::schedule) and kept
//!   across a [`pop`](CalendarQueue::pop) whenever the popped bucket's
//!   new front is provably the minimum, so a same-cycle burst pops
//!   without an O(buckets) rescan;
//! * [`resize`](CalendarQueue::schedule) re-derives the bucket width from
//!   the *median* consecutive spacing of the pending events, so a single
//!   far-future outlier (a clock tick scheduled a full period ahead of a
//!   dense packet burst) cannot skew the width the way a `span / len` mean
//!   does.

use std::collections::VecDeque;

use crate::time::Cycles;

struct Entry<E> {
    at: Cycles,
    seq: u64,
    payload: E,
}

/// A calendar-queue event scheduler with FIFO tie-breaking.
pub struct CalendarQueue<E> {
    /// `buckets[i]` holds events with `(at / width) % buckets.len() == i`,
    /// each bucket sorted ascending by (at, seq) — kept sorted on insert
    /// (buckets are short when sized right).
    buckets: Vec<VecDeque<Entry<E>>>,
    /// Bucket width in cycles. Always a power of two, so every
    /// `time / width` on the hot paths compiles to a shift by
    /// [`Self::shift`] instead of a 64-bit division.
    width: u64,
    /// `width.trailing_zeros()`: the shift equivalent of dividing by
    /// `width`.
    shift: u32,
    /// Current dequeue position: the bucket holding `cursor_time`.
    cursor_bucket: usize,
    /// Lower bound of the time range the cursor bucket is being scanned
    /// for in the current year.
    cursor_time: u64,
    /// `buckets.len() - 1`. The bucket count is always a power of two
    /// (16 grown by power-of-two factors), so `(at / width) & mask`
    /// replaces the modulo on every hot path.
    mask: u64,
    /// Cached location of the earliest pending event as
    /// `(bucket, time)` — the front of that bucket is the global minimum.
    /// `None` means "not currently known" (not "empty"); [`Self::locate`]
    /// recomputes it on demand.
    next_cache: Option<(usize, Cycles)>,
    /// Occupancy bitmask: bit `i` of word `i / 64` is set exactly when
    /// `buckets[i]` is nonempty. The year scan in [`Self::locate`] and the
    /// far-jump minimum in [`Self::min_time`] hop between set bits instead
    /// of probing every (mostly empty) bucket one at a time.
    nonempty: Vec<u64>,
    /// Events at or past this absolute time live in [`Self::overflow`],
    /// not in the buckets. Grows monotonically as [`Self::locate`] crosses
    /// year boundaries and migrates due years in.
    boundary: u64,
    /// Unsorted far-future events (`at >= boundary`). A timeline scheduled
    /// far ahead (like a whole trial's packet arrivals) would otherwise
    /// leave multiple "years" of events in every bucket, turning each
    /// near-future insert into a sorted mid-bucket splice; parking the far
    /// future here keeps bucket inserts on the append fast path.
    overflow: Vec<Entry<E>>,
    /// Overflow inserts since the last (re)size — a chronically high rate
    /// relative to `len` means the bucket width is far too narrow for the
    /// live event horizon (every event overshoots the year), so the queue
    /// re-derives the width from the pending gaps without growing.
    overflow_pushes: usize,
    len: usize,
    next_seq: u64,
}

const INITIAL_BUCKETS: usize = 16;

impl<E> CalendarQueue<E> {
    /// Creates an empty queue with the given expected inter-event spacing
    /// (the bucket width; any positive value is correct, a value near the
    /// mean spacing is fast).
    pub fn new(expected_spacing: Cycles) -> Self {
        CalendarQueue {
            buckets: (0..INITIAL_BUCKETS).map(|_| VecDeque::new()).collect(),
            width: expected_spacing.raw().max(1).next_power_of_two(),
            shift: expected_spacing.raw().max(1).next_power_of_two().trailing_zeros(),
            cursor_bucket: 0,
            cursor_time: 0,
            mask: INITIAL_BUCKETS as u64 - 1,
            next_cache: None,
            nonempty: vec![0; INITIAL_BUCKETS.div_ceil(64)],
            boundary: expected_spacing.raw().max(1).next_power_of_two() * INITIAL_BUCKETS as u64,
            overflow: Vec::new(),
            overflow_pushes: 0,
            len: 0,
            next_seq: 0,
        }
    }

    /// Returns `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn bucket_of(&self, at: Cycles) -> usize {
        ((at.raw() >> self.shift) & self.mask) as usize
    }

    /// Index of the first nonempty bucket at or after `from`, if any.
    fn next_nonempty(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = self.nonempty[w] & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            w += 1;
            if w == self.nonempty.len() {
                return None;
            }
            bits = self.nonempty[w];
        }
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before an already-dequeued event (time cannot run
    /// backwards).
    pub fn schedule(&mut self, at: Cycles, payload: E) {
        assert!(
            at.raw() >= self.cursor_time.saturating_sub(self.width),
            "scheduling into the past"
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        if at.raw() >= self.boundary {
            // Beyond the migrated horizon: park it unsorted; `locate`
            // pulls it into a bucket when the scan reaches its year. The
            // min cache (always earlier than `boundary` when set) is
            // unaffected.
            self.overflow.push(Entry { at, seq, payload });
            self.overflow_pushes += 1;
        } else {
            let idx = self.bucket_of(at);
            let bucket = &mut self.buckets[idx];
            // Fast path: `seq` is the largest ever issued, so an `at` at
            // or past the bucket's tail appends — the overwhelmingly
            // common case (timelines are scheduled roughly in order).
            match bucket.back() {
                Some(b) if (b.at, b.seq) > (at, seq) => {
                    // Second fast path: zero-delay events (handlers posting
                    // work "for right now") land ahead of everything still
                    // pending in their slice — push_front is O(1) and, in
                    // the measured mix, catches half of all non-appends.
                    let lands_in_front = bucket
                        .front()
                        .is_some_and(|front| (front.at, front.seq) > (at, seq));
                    if lands_in_front {
                        bucket.push_front(Entry { at, seq, payload });
                    } else {
                        let pos = bucket.partition_point(|e| (e.at, e.seq) <= (at, seq));
                        bucket.insert(pos, Entry { at, seq, payload });
                    }
                }
                _ => bucket.push_back(Entry { at, seq, payload }),
            }
            self.nonempty[idx / 64] |= 1 << (idx % 64);
            // Maintain the min cache in O(1). A strictly earlier event is
            // the new global minimum, and provably the front of its
            // bucket: every other pending event is >= the old minimum >
            // `at`. An equal-time event keeps the cached front (smaller
            // seq wins the FIFO tie).
            match self.next_cache {
                Some((_, t)) if at < t => self.next_cache = Some((idx, at)),
                None if self.len == 0 => self.next_cache = Some((idx, at)),
                _ => {}
            }
        }
        self.len += 1;
        if self.len > self.buckets.len() * 4 {
            self.resize(self.buckets.len() * 4);
        } else if self.overflow_pushes > 64 && self.overflow_pushes > self.len * 4 {
            // The pending set is small but almost everything overshoots
            // the current year: the width is stale (e.g. sized for a past
            // dense phase, or the initial guess). Re-derive it at the same
            // bucket count so scheduling returns to the in-bucket path.
            self.resize(self.buckets.len());
        }
    }

    /// Samples up to 64 pending event times (deterministic stride over the
    /// buckets) and returns the median *nonzero* gap between consecutive
    /// sampled times, or `None` when every sample collides.
    ///
    /// The mean (span / len) is skewed arbitrarily far by one distant
    /// outlier — e.g. the next clock tick scheduled a full period beyond a
    /// dense burst of packet arrivals — which inflates every bucket's
    /// window and degrades pop back to a linear scan. Zero gaps (same-cycle
    /// bursts) are excluded for the dual reason: they would drive the
    /// median to zero and shrink every bucket window to a single cycle,
    /// making the scan between bursts crawl. The median of what remains
    /// tracks the dense part of the timeline, and a bounded sample keeps
    /// the whole derivation O(1) regardless of queue size (a full sort of
    /// the pending set showed up as the top resize cost in profiles).
    fn sampled_gap_median(&self) -> Option<u64> {
        const MAX_SAMPLE: usize = 64;
        let mut times: Vec<u64> = Vec::with_capacity(MAX_SAMPLE);
        let stride = (self.len / MAX_SAMPLE).max(1);
        let mut skip = 0usize;
        // Walk only the occupied buckets (then the overflow): a sparse
        // table can have thousands of empty buckets per pending event,
        // and this runs inside resize.
        'outer: for (w, &word) in self.nonempty.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                for e in &self.buckets[b] {
                    if skip == 0 {
                        times.push(e.at.raw());
                        if times.len() == MAX_SAMPLE {
                            break 'outer;
                        }
                        skip = stride - 1;
                    } else {
                        skip -= 1;
                    }
                }
            }
        }
        if times.len() < MAX_SAMPLE {
            for e in &self.overflow {
                if skip == 0 {
                    times.push(e.at.raw());
                    if times.len() == MAX_SAMPLE {
                        break;
                    }
                    skip = stride - 1;
                } else {
                    skip -= 1;
                }
            }
        }
        times.sort_unstable();
        let mut gaps: Vec<u64> = times
            .windows(2)
            .map(|w| w[1] - w[0])
            .filter(|&g| g > 0)
            .collect();
        if gaps.is_empty() {
            return None;
        }
        let mid = gaps.len() / 2;
        let (_, &mut median, _) = gaps.select_nth_unstable(mid);
        Some(median.max(1))
    }

    fn resize(&mut self, new_size: usize) {
        if let Some(w) = self.sampled_gap_median() {
            self.width = w.next_power_of_two();
            self.shift = self.width.trailing_zeros();
        }
        // Drain only the occupied buckets (occupancy bits): a sparse
        // table can have thousands of empty buckets per pending event.
        let mut all: Vec<Entry<E>> = Vec::with_capacity(self.len);
        for w in 0..self.nonempty.len() {
            let mut bits = self.nonempty[w];
            while bits != 0 {
                let b = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                all.extend(self.buckets[b].drain(..));
            }
            self.nonempty[w] = 0;
        }
        all.append(&mut self.overflow);
        debug_assert!(new_size.is_power_of_two());
        if new_size != self.buckets.len() {
            self.mask = new_size as u64 - 1;
            self.buckets = (0..new_size).map(|_| VecDeque::new()).collect();
            self.nonempty = vec![0; new_size.div_ceil(64)];
        }
        let old_len = self.len;
        self.len = 0;
        self.overflow_pushes = 0;
        let floor = self.cursor_time;
        // Re-derive the horizon for the new year length: one full year
        // past the cursor's year stays in the buckets, the rest goes back
        // to the overflow.
        let year = self.width.saturating_mul(self.mask + 1);
        self.boundary = (floor / year).saturating_add(1).saturating_mul(year);
        for e in all {
            if e.at.raw() >= self.boundary {
                self.overflow.push(e);
                self.len += 1;
                continue;
            }
            let idx = ((e.at.raw() >> self.shift) & self.mask) as usize;
            self.buckets[idx].push_back(e);
            self.nonempty[idx / 64] |= 1 << (idx % 64);
            self.len += 1;
        }
        debug_assert_eq!(self.len, old_len);
        // Each bucket must be ascending by (at, seq); sorting the short
        // buckets individually is much cheaper than globally sorting the
        // whole pending set before distribution. (at, seq) is unique, so
        // an unstable sort is deterministic.
        for b in &mut self.buckets {
            if b.len() > 1 {
                b.make_contiguous().sort_unstable_by_key(|e| (e.at, e.seq));
            }
        }
        // Restart the scan from the earliest pending time, and re-prime
        // the min cache from the buckets (an overflow event can never be
        // the minimum while any bucket event exists, and the cache must
        // only ever point at a bucket front).
        let min = self.bucket_min();
        self.cursor_time = floor.min(min.map_or(floor, |t| t.raw()));
        self.cursor_bucket = ((self.cursor_time >> self.shift) & self.mask) as usize;
        self.next_cache = min.map(|t| (self.bucket_of(t), t));
    }

    /// Earliest front across the (sorted) buckets, via the occupancy bits.
    fn bucket_min(&self) -> Option<Cycles> {
        let mut min: Option<Cycles> = None;
        for (w, &word) in self.nonempty.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                #[expect(
                    clippy::expect_used,
                    reason = "b was derived from a set occupancy bit, and push/pop keep bits in lockstep with bucket emptiness"
                )]
                let t = self.buckets[b].front().expect("occupancy bit set").at;
                min = Some(min.map_or(t, |m| m.min(t)));
            }
        }
        min
    }

    fn min_time(&self) -> Option<Cycles> {
        // Bucket events are all earlier than `boundary` <= every overflow
        // event, so the overflow only matters when the buckets are empty.
        self.bucket_min()
            .or_else(|| self.overflow.iter().map(|e| e.at).min())
    }

    /// Moves every overflow event earlier than `target` into its bucket
    /// and advances the horizon. Called when the year scan crosses into a
    /// new year, so it runs once per year of virtual time, not per event.
    fn migrate_overflow_below(&mut self, target: u64) {
        if target <= self.boundary {
            return;
        }
        self.boundary = target;
        if self.overflow.is_empty() {
            return;
        }
        let mut i = 0;
        while i < self.overflow.len() {
            if self.overflow[i].at.raw() < target {
                let e = self.overflow.swap_remove(i);
                let idx = self.bucket_of(e.at);
                let bucket = &mut self.buckets[idx];
                let pos = bucket.partition_point(|b| (b.at, b.seq) <= (e.at, e.seq));
                bucket.insert(pos, e);
                self.nonempty[idx / 64] |= 1 << (idx % 64);
            } else {
                i += 1;
            }
        }
    }

    /// Locates the bucket whose front is the earliest pending `(at, seq)`
    /// and caches the answer. Runs the calendar year scan with *local*
    /// cursor variables: the real cursor only ever advances in
    /// [`pop`](CalendarQueue::pop), once the event is removed.
    fn locate(&mut self) -> (usize, Cycles) {
        debug_assert!(self.len > 0, "locate() on an empty queue");
        if let Some(hit) = self.next_cache {
            return hit;
        }
        let n = self.mask as usize + 1;
        let year = self.width * (self.mask + 1);
        let mut bucket = self.cursor_bucket;
        let mut time = self.cursor_time;
        loop {
            // Hop straight to the next occupied bucket; empty ones only
            // contribute `width` to the running time each, so the skip is
            // pure arithmetic. The `bucket == (time / width) & mask`
            // invariant of the plain one-step scan is preserved.
            if let Some(nb) = self.next_nonempty(bucket) {
                time = time.saturating_add((nb - bucket) as u64 * self.width);
                bucket = nb;
                let window_end = time.saturating_add(self.width);
                #[expect(
                    clippy::expect_used,
                    reason = "next_nonempty only returns buckets whose occupancy bit is set"
                )]
                let first = self.buckets[bucket].front().expect("occupancy bit set");
                if first.at.raw() < window_end {
                    let hit = (bucket, first.at);
                    self.next_cache = Some(hit);
                    return hit;
                }
                // The front belongs to a later year: move past it.
                time = window_end;
                bucket += 1;
            } else {
                time = time.saturating_add((n - bucket) as u64 * self.width);
                bucket = n;
            }
            // Reaching bucket `n` means a year boundary was crossed; a
            // full empty year past the next event's year means it is far
            // away: jump straight to its year.
            if bucket == n {
                bucket = 0;
                if let Some(min) = self.min_time() {
                    if min.raw() >= time + year {
                        time = min.raw() >> self.shift << self.shift;
                        bucket = ((time >> self.shift) & self.mask) as usize;
                    }
                }
                // The scan is about to cover [time, year-end-of(time));
                // pull that range's events out of the overflow first so
                // the window checks below can see them.
                self.migrate_overflow_below(
                    (time / year).saturating_add(1).saturating_mul(year),
                );
            }
        }
    }

    /// Removes and returns the earliest event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(Cycles, E)> {
        if self.is_empty() {
            return None;
        }
        let (bucket, _) = self.locate();
        #[expect(
            clippy::expect_used,
            reason = "locate() only caches (bucket, at) pairs it just observed via front(), and the cache is invalidated on every mutation"
        )]
        let e = self.buckets[bucket]
            .pop_front()
            .expect("cached bucket is nonempty");
        self.len -= 1;
        self.cursor_bucket = bucket;
        self.cursor_time = e.at.raw();
        // Same-slice retention: if the popped bucket's new front falls in
        // the same width-slice as the popped event, it is provably the
        // global minimum — any earlier event would hash to this bucket and
        // sort ahead of it — so the cache survives the pop. Same-cycle
        // bursts (the engine's due-event drain) then pop at O(1) each.
        self.next_cache = match self.buckets[bucket].front() {
            Some(f) if f.at.raw() >> self.shift == e.at.raw() >> self.shift => {
                Some((bucket, f.at))
            }
            Some(_) => None,
            None => {
                self.nonempty[bucket / 64] &= !(1 << (bucket % 64));
                None
            }
        };
        Some((e.at, e.payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventQueue;
    use proptest::prelude::*;

    #[test]
    fn orders_by_time() {
        let mut q = CalendarQueue::new(Cycles::new(10));
        q.schedule(Cycles::new(30), 3);
        q.schedule(Cycles::new(10), 1);
        q.schedule(Cycles::new(20), 2);
        assert_eq!(q.pop(), Some((Cycles::new(10), 1)));
        assert_eq!(q.pop(), Some((Cycles::new(20), 2)));
        assert_eq!(q.pop(), Some((Cycles::new(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_tie_break() {
        let mut q = CalendarQueue::new(Cycles::new(10));
        for i in 0..50 {
            q.schedule(Cycles::new(7), i);
        }
        for i in 0..50 {
            assert_eq!(q.pop(), Some((Cycles::new(7), i)));
        }
    }

    #[test]
    fn sparse_far_future_events() {
        let mut q = CalendarQueue::new(Cycles::new(10));
        q.schedule(Cycles::new(1_000_000_000), 'z');
        q.schedule(Cycles::new(5), 'a');
        assert_eq!(q.pop(), Some((Cycles::new(5), 'a')));
        assert_eq!(q.pop(), Some((Cycles::new(1_000_000_000), 'z')));
    }

    #[test]
    fn interleaved_schedule_pop() {
        let mut q = CalendarQueue::new(Cycles::new(100));
        q.schedule(Cycles::new(100), 1);
        assert_eq!(q.pop(), Some((Cycles::new(100), 1)));
        q.schedule(Cycles::new(150), 2);
        q.schedule(Cycles::new(120), 3);
        assert_eq!(q.pop(), Some((Cycles::new(120), 3)));
        q.schedule(Cycles::new(130), 4);
        assert_eq!(q.pop(), Some((Cycles::new(130), 4)));
        assert_eq!(q.pop(), Some((Cycles::new(150), 2)));
    }

    #[test]
    fn resize_preserves_everything() {
        let mut q = CalendarQueue::new(Cycles::new(1));
        // Force several growth steps.
        for i in 0..1000u64 {
            q.schedule(Cycles::new(i * 13 % 997), i);
        }
        let mut last = (Cycles::ZERO, 0u64);
        let mut count = 0;
        let mut prev_at = Cycles::ZERO;
        while let Some((t, v)) = q.pop() {
            assert!(
                t >= prev_at,
                "out of order at {count}: {t:?} after {prev_at:?}"
            );
            prev_at = t;
            last = (t, v);
            count += 1;
        }
        assert_eq!(count, 1000);
        let _ = last;
    }

    #[test]
    fn min_cache_survives_equal_time_inserts() {
        let mut q = CalendarQueue::new(Cycles::new(10));
        // The first event into an empty queue primes the cache.
        q.schedule(Cycles::new(25), 0);
        // Same-time insert must not displace the cached head (FIFO).
        q.schedule(Cycles::new(25), 1);
        assert_eq!(q.pop(), Some((Cycles::new(25), 0)));
        assert_eq!(q.pop(), Some((Cycles::new(25), 1)));
    }

    proptest! {
        /// The calendar queue dequeues in exactly the order of the
        /// reference binary-heap queue, including FIFO tie-breaks.
        #[test]
        fn equivalent_to_heap_queue(
            times in proptest::collection::vec(0u64..100_000, 1..400),
            spacing in 1u64..10_000,
        ) {
            let mut cal = CalendarQueue::new(Cycles::new(spacing));
            let mut heap = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                cal.schedule(Cycles::new(t), i);
                heap.schedule(Cycles::new(t), i);
            }
            loop {
                let a = cal.pop();
                let b = heap.pop();
                prop_assert_eq!(&a, &b);
                if a.is_none() {
                    break;
                }
            }
        }

        /// Interleaved operation: schedule batches between pops, compare.
        #[test]
        fn equivalent_under_interleaving(
            batches in proptest::collection::vec(
                proptest::collection::vec(0u64..50_000, 0..20), 1..20),
        ) {
            let mut cal = CalendarQueue::new(Cycles::new(100));
            let mut heap = EventQueue::new();
            let mut next_id = 0usize;
            let mut floor = 0u64;
            for batch in batches {
                for t in batch {
                    // Keep times monotone-safe for the calendar's cursor.
                    let at = floor + t;
                    cal.schedule(Cycles::new(at), next_id);
                    heap.schedule(Cycles::new(at), next_id);
                    next_id += 1;
                }
                for _ in 0..3 {
                    let a = cal.pop();
                    let b = heap.pop();
                    prop_assert_eq!(&a, &b);
                    if let Some((t, _)) = a {
                        floor = floor.max(t.raw());
                    }
                }
            }
        }

        /// The engine's access pattern: a virtual clock advances in
        /// jumps, every event due by then is drained (a same-cycle burst
        /// one after another), and handlers schedule new events relative
        /// to `now` — never into the past. Both queues must agree on
        /// every dequeued event.
        #[test]
        fn equivalent_under_engine_interleaving(
            steps in proptest::collection::vec(
                (0u64..5_000, proptest::collection::vec(0u64..20_000, 0..8)),
                1..60),
            spacing in 1u64..5_000,
        ) {
            let mut cal = CalendarQueue::new(Cycles::new(spacing));
            let mut heap = EventQueue::new();
            let mut next_id = 0usize;
            let mut now = 0u64;
            for (advance, schedules) in steps {
                // Handlers schedule strictly at-or-after `now`, exactly
                // like `EnvState::schedule_at`'s clamp.
                for d in schedules {
                    let at = now + d;
                    cal.schedule(Cycles::new(at), next_id);
                    heap.schedule(Cycles::new(at), next_id);
                    next_id += 1;
                }
                // The executor advances either to a deadline or to the
                // next event time, whichever it likes.
                now += advance;
                if let Some(t) = heap.peek_time() {
                    now = now.max(t.raw());
                }
                // Drain everything due, like the engine's step 1.
                while heap.peek_time().is_some_and(|t| t.raw() <= now) {
                    prop_assert_eq!(cal.pop(), heap.pop());
                }
            }
            loop {
                let a = cal.pop();
                prop_assert_eq!(&a, &heap.pop());
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
