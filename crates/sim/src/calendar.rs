//! A calendar queue of per-component wake times.
//!
//! The GPU's drive loop keeps one priority queue instead of scanning
//! every core every cycle: every timer source in the machine —
//! each shader core, the CPU fault-handler queue, the shootdown-storm
//! schedule, the interval sampler, the watchdog deadline — owns one
//! *key* whose next wake cycle lives here. The loop pops the earliest
//! wake, jumps the clock straight to it, and touches only the
//! components whose keys fired.
//!
//! The structure is a *time-wheel front* over a lazy min-heap. Wakes
//! landing within the next [`WHEEL_SLOTS`] cycles — the overwhelming
//! majority: cores reschedule themselves a handful of cycles ahead —
//! go into a per-cycle bucket of a circular wheel, which costs one
//! `Vec::push` instead of a heap sift. Only far-future wakes (and
//! wakes scheduled behind the wheel's cursor) take the heap path. Both
//! tiers share one staleness rule, the same stale-entry-discard scheme
//! [`gmmu_mem`]'s MSHR file uses: rescheduling a key never removes its
//! old entry; instead, a drained entry is valid only when it still
//! matches `wake[key]`. This keeps `schedule` at `O(1)` for near wakes,
//! `O(log n)` for far ones, with no decrease-key.
//!
//! Ordering proof sketch: `take_due(now)` must emit exactly the keys
//! with `wake[key] <= now`, sorted by key. Every `schedule` that sets
//! `wake[key] = at` deposits one entry carrying `(at, key)` in either
//! tier, so an authoritative wake always has at least one live entry;
//! draining both tiers up to `now` therefore finds every due key, and
//! stale duplicates are rejected by the `wake[key] == at` check (the
//! first valid hit clears the slot to [`NEVER`], killing the rest).
//! Because the result is sorted by key at the end, the *order* in which
//! the two tiers surface entries is immaterial — the wheel cannot
//! perturb the loop's core-index tie-break.

use crate::{Cycle, NEVER};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Number of per-cycle buckets in the wheel front (power of two). Wakes
/// within `now + WHEEL_SLOTS` cycles bypass the heap entirely.
const WHEEL_SLOTS: usize = 64;
const WHEEL_MASK: u64 = WHEEL_SLOTS as u64 - 1;

/// A calendar of wake times, one slot per key.
///
/// # Examples
///
/// ```
/// use gmmu_sim::calendar::Calendar;
/// let mut cal = Calendar::new(3);
/// cal.schedule(0, 10);
/// cal.schedule(1, 10);
/// cal.schedule(2, 40);
/// cal.schedule(2, 20); // reschedule: earlier entry wins
/// assert_eq!(cal.peek_cycle(), Some(10));
/// let mut due = Vec::new();
/// cal.take_due(10, &mut due);
/// assert_eq!(due, vec![0, 1]);
/// assert_eq!(cal.peek_cycle(), Some(20));
/// ```
#[derive(Debug, Clone)]
pub struct Calendar {
    /// Authoritative next wake per key; [`NEVER`] = unscheduled.
    wake: Vec<Cycle>,
    /// Wheel front: bucket `c & WHEEL_MASK` holds `(cycle, key)` entries
    /// for cycle `c` in the window `[wheel_base, wheel_base + SLOTS)`.
    /// Entries are lazily validated against `wake` when drained. Bucket
    /// `Vec`s keep their capacity forever — steady state pushes into
    /// warm buffers and never touches the allocator.
    wheel: Vec<Vec<(Cycle, u32)>>,
    /// First cycle the wheel window covers; buckets for cycles below it
    /// have been drained.
    wheel_base: Cycle,
    /// Total entries (live + stale) across wheel buckets, so empty-wheel
    /// scans and big clock jumps can skip bucket iteration entirely.
    wheel_len: usize,
    /// Lazy min-heap of `(cycle, key)` entries for wakes beyond the
    /// wheel window (or behind its cursor); an entry is stale (and
    /// discarded at pop) unless it equals `wake[key]`.
    heap: BinaryHeap<Reverse<(Cycle, u32)>>,
}

impl Calendar {
    /// Creates a calendar with `n_keys` unscheduled keys.
    pub fn new(n_keys: usize) -> Self {
        Self {
            wake: vec![NEVER; n_keys],
            wheel: vec![Vec::new(); WHEEL_SLOTS],
            wheel_base: 0,
            wheel_len: 0,
            heap: BinaryHeap::with_capacity(n_keys),
        }
    }

    /// Number of keys.
    pub fn n_keys(&self) -> usize {
        self.wake.len()
    }

    /// Schedules `key` to fire at `at`, replacing any earlier schedule.
    /// Scheduling at [`NEVER`] cancels. Re-scheduling the cycle the key
    /// already fires at is free (no heap growth).
    ///
    /// # Panics
    ///
    /// Panics if `key` is out of range.
    pub fn schedule(&mut self, key: u32, at: Cycle) {
        let slot = &mut self.wake[key as usize];
        if *slot == at {
            return;
        }
        *slot = at;
        if at == NEVER {
            return;
        }
        // Near wakes ride the wheel; far (or behind-cursor) wakes take
        // the heap, which handles any cycle.
        if at.wrapping_sub(self.wheel_base) < WHEEL_SLOTS as u64 && at >= self.wheel_base {
            self.wheel[(at & WHEEL_MASK) as usize].push((at, key));
            self.wheel_len += 1;
        } else {
            self.heap.push(Reverse((at, key)));
        }
    }

    /// Unschedules `key` (its stale heap entries are discarded lazily).
    pub fn cancel(&mut self, key: u32) {
        self.wake[key as usize] = NEVER;
    }

    /// The wake cycle `key` is scheduled for ([`NEVER`] = unscheduled).
    pub fn wake_of(&self, key: u32) -> Cycle {
        self.wake[key as usize]
    }

    /// The earliest scheduled wake cycle, discarding stale heap entries,
    /// or `None` when nothing is scheduled.
    pub fn peek_cycle(&mut self) -> Option<Cycle> {
        let wheel_cand = self.peek_wheel();
        let mut heap_cand = None;
        while let Some(&Reverse((at, key))) = self.heap.peek() {
            if self.wake[key as usize] == at {
                heap_cand = Some(at);
                break;
            }
            self.heap.pop();
        }
        match (wheel_cand, heap_cand) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Earliest cycle with a live wheel entry, compacting stale entries
    /// as it scans (at most [`WHEEL_SLOTS`] buckets; the scan stops at
    /// the first live one, which in steady state is the very next
    /// bucket).
    fn peek_wheel(&mut self) -> Option<Cycle> {
        if self.wheel_len == 0 {
            return None;
        }
        for off in 0..WHEEL_SLOTS as u64 {
            let c = self.wheel_base + off;
            let bucket = &mut self.wheel[(c & WHEEL_MASK) as usize];
            if bucket.is_empty() {
                continue;
            }
            let before = bucket.len();
            let wake = &self.wake;
            bucket.retain(|&(at, key)| wake[key as usize] == at);
            self.wheel_len -= before - bucket.len();
            if !bucket.is_empty() {
                return Some(c);
            }
        }
        None
    }

    /// Pops every key scheduled at or before `now` into `out`, sorted
    /// ascending by key (so cores fire in index order — the serial
    /// engine's tie-break), and unschedules them.
    pub fn take_due(&mut self, now: Cycle, out: &mut Vec<u32>) {
        out.clear();
        // Wheel tier: drain every bucket covering a cycle `<= now`. A
        // clock jump past the whole window empties all buckets at once;
        // otherwise at most `now - wheel_base + 1` buckets are touched.
        if self.wheel_len > 0 && now >= self.wheel_base {
            let span = now - self.wheel_base;
            let buckets = if span >= WHEEL_SLOTS as u64 - 1 {
                WHEEL_SLOTS as u64
            } else {
                span + 1
            };
            for off in 0..buckets {
                let c = self.wheel_base + off;
                let bucket = &mut self.wheel[(c & WHEEL_MASK) as usize];
                self.wheel_len -= bucket.len();
                for (at, key) in bucket.drain(..) {
                    let slot = &mut self.wake[key as usize];
                    if *slot == at {
                        *slot = NEVER;
                        out.push(key);
                    }
                }
            }
        }
        if now >= self.wheel_base {
            self.wheel_base = now + 1;
        }
        // Heap tier.
        while let Some(&Reverse((at, key))) = self.heap.peek() {
            if at > now {
                break;
            }
            self.heap.pop();
            let slot = &mut self.wake[key as usize];
            if *slot == at {
                *slot = NEVER;
                out.push(key);
            }
        }
        out.sort_unstable();
    }

    /// The authoritative wake array (for checkpointing).
    pub fn wakes(&self) -> &[Cycle] {
        &self.wake
    }

    /// Rebuilds the calendar from an authoritative wake array (the heap
    /// is reconstructed, dropping any staleness a checkpoint never
    /// carried).
    pub fn from_wakes(wake: Vec<Cycle>) -> Self {
        // Everything starts on the heap tier; the wheel fills back up as
        // the engine reschedules (a restore-time transient only — the
        // two tiers are observationally identical).
        let heap = wake
            .iter()
            .enumerate()
            .filter(|&(_, &at)| at != NEVER)
            .map(|(k, &at)| Reverse((at, k as u32)))
            .collect();
        Self {
            wake,
            wheel: vec![Vec::new(); WHEEL_SLOTS],
            wheel_base: 0,
            wheel_len: 0,
            heap,
        }
    }
}

impl crate::ckpt::Ckpt for Calendar {
    fn save(&self, w: &mut crate::ckpt::Saver) {
        self.wake.save(w);
    }
    /// Restores into a calendar of the same key count (the count is
    /// config-derived geometry and is never serialized).
    fn load(&mut self, r: &mut crate::ckpt::Loader<'_>) -> Result<(), crate::ckpt::CkptError> {
        let mut wake: Vec<Cycle> = Vec::new();
        wake.load(r)?;
        if wake.len() != self.wake.len() {
            return Err(crate::ckpt::CkptError::Corrupt(
                "calendar key count differs from the checkpoint",
            ));
        }
        *self = Calendar::from_wakes(wake);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::mix3;

    #[test]
    fn empty_calendar_has_no_events() {
        let mut cal = Calendar::new(4);
        assert_eq!(cal.peek_cycle(), None);
        let mut due = Vec::new();
        cal.take_due(1_000, &mut due);
        assert!(due.is_empty());
    }

    #[test]
    fn due_keys_come_out_sorted_and_unscheduled() {
        let mut cal = Calendar::new(5);
        cal.schedule(3, 10);
        cal.schedule(1, 10);
        cal.schedule(4, 11);
        let mut due = Vec::new();
        cal.take_due(10, &mut due);
        assert_eq!(due, vec![1, 3]);
        assert_eq!(cal.wake_of(1), NEVER);
        assert_eq!(cal.wake_of(3), NEVER);
        assert_eq!(cal.wake_of(4), 11);
        assert_eq!(cal.peek_cycle(), Some(11));
    }

    #[test]
    fn reschedule_and_cancel_discard_stale_entries() {
        let mut cal = Calendar::new(2);
        cal.schedule(0, 50);
        cal.schedule(0, 20); // moved earlier
        cal.schedule(1, 30);
        cal.cancel(1);
        assert_eq!(cal.peek_cycle(), Some(20));
        let mut due = Vec::new();
        cal.take_due(60, &mut due);
        assert_eq!(due, vec![0], "cancelled/stale entries must not fire");
    }

    #[test]
    fn rescheduling_the_same_cycle_is_idempotent() {
        let mut cal = Calendar::new(1);
        for _ in 0..100 {
            cal.schedule(0, 7);
        }
        let mut due = Vec::new();
        cal.take_due(7, &mut due);
        assert_eq!(due, vec![0], "one key fires once");
    }

    #[test]
    fn cancel_then_reschedule_same_cycle_fires_once() {
        let mut cal = Calendar::new(1);
        cal.schedule(0, 5);
        cal.cancel(0);
        cal.schedule(0, 5); // a second (5, 0) heap entry now exists
        let mut due = Vec::new();
        cal.take_due(5, &mut due);
        assert_eq!(due, vec![0]);
        cal.take_due(5, &mut due);
        assert!(due.is_empty(), "the duplicate entry must be discarded");
    }

    #[test]
    fn checkpoint_round_trip_preserves_schedule() {
        let mut cal = Calendar::new(4);
        cal.schedule(0, 10);
        cal.schedule(2, 99);
        cal.schedule(2, 15);
        let mut restored = Calendar::from_wakes(cal.wakes().to_vec());
        assert_eq!(restored.peek_cycle(), cal.peek_cycle());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        cal.take_due(20, &mut a);
        restored.take_due(20, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn wheel_and_heap_tiers_agree_across_window_jumps() {
        let mut cal = Calendar::new(8);
        let mut due = Vec::new();
        // Near wake (wheel), far wake (heap), and a wake exactly at the
        // window edge.
        cal.schedule(0, 3);
        cal.schedule(1, 10_000);
        cal.schedule(2, 63);
        cal.schedule(3, 64);
        assert_eq!(cal.peek_cycle(), Some(3));
        // Jump the clock far past the whole wheel window.
        cal.take_due(200, &mut due);
        assert_eq!(due, vec![0, 2, 3]);
        assert_eq!(cal.peek_cycle(), Some(10_000));
        // Scheduling behind the cursor must still fire.
        cal.schedule(4, 150);
        cal.schedule(5, 201);
        assert_eq!(cal.peek_cycle(), Some(150));
        cal.take_due(201, &mut due);
        assert_eq!(due, vec![4, 5]);
        cal.take_due(10_000, &mut due);
        assert_eq!(due, vec![1]);
        assert_eq!(cal.peek_cycle(), None);
        // A reschedule from the heap tier into the wheel tier leaves a
        // stale heap entry behind; it must not double-fire.
        cal.schedule(6, 90_000);
        cal.schedule(6, 10_005);
        cal.take_due(100_000, &mut due);
        assert_eq!(due, vec![6]);
        cal.take_due(100_000, &mut due);
        assert!(due.is_empty());
    }

    /// Cross-check against a linear scan of the authoritative array
    /// under a deterministic mixed schedule/cancel/pop workload.
    #[test]
    fn matches_linear_reference_under_mixed_traffic() {
        let n = 16usize;
        let mut cal = Calendar::new(n);
        let mut now: Cycle = 0;
        let mut due = Vec::new();
        for step in 0..2_000u64 {
            let key = (mix3(step, 1, 0) % n as u64) as u32;
            match mix3(step, 2, 0) % 3 {
                0 => cal.schedule(key, now + 1 + mix3(step, 3, 0) % 64),
                1 => cal.cancel(key),
                _ => {}
            }
            // Reference: earliest wake straight from the wake array.
            let reference = cal.wakes().iter().copied().filter(|&c| c != NEVER).min();
            assert_eq!(cal.peek_cycle(), reference, "step {step}");
            if let Some(target) = reference {
                if mix3(step, 4, 0).is_multiple_of(4) {
                    let expected: Vec<u32> = cal
                        .wakes()
                        .iter()
                        .enumerate()
                        .filter(|&(_, &c)| c <= target)
                        .map(|(k, _)| k as u32)
                        .collect();
                    cal.take_due(target, &mut due);
                    assert_eq!(due, expected, "step {step}");
                    now = target;
                }
            }
        }
    }
}
