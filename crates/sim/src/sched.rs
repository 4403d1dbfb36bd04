//! The event core's bookkeeping: processor sets, per-processor clocks and
//! the wake heap.
//!
//! [`System`](crate::System) keeps one `Phase` per processor and changes
//! it only through `set_phase`. That choke point keeps these structures in
//! step with the phases, so no part of a simulated step has to scan every
//! processor:
//!
//! - [`ProcSets`]: word-array bitsets of the ready processors, the pending
//!   bus requests, the armed and the woken lock waiters, and the sleeping
//!   waiters whose timeout came up. Members come out in ascending order,
//!   and [`ProcSets::next`] starts anywhere, so round-robin arbitration
//!   from any point costs one `trailing_zeros` per candidate.
//! - [`Clock`]: when the current phase began (its cycles are credited in
//!   closed form when it ends) and when the processor next needs a step.
//! - The wake heap: a min-heap of `(cycle, processor)` wakes. Changing a
//!   processor's wake pushes the new one and leaves the old entry in
//!   place; an entry is live only while it still equals its processor's
//!   wake, so superseded entries are dropped when they surface.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A named processor set in [`ProcSets`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Set {
    /// Processors in `Phase::Ready`, polled for work every step.
    Ready,
    /// Processors in `Phase::Pending`: normal-priority bus requests.
    Pending,
    /// Woken lock waiters: their busy-wait register heard the block's
    /// unlock broadcast, and they request at the reserved high priority.
    /// Always a subset of `Watch`. `set_phase` clears a processor's bit on
    /// every phase change, and so does another cache's lock fetch of the
    /// block (the waiter lost the race and sleeps again).
    Woken,
    /// Armed lock waiters: exactly the processors in `Phase::WaitingLock`,
    /// which names the watched block. Written only by `set_phase` (and
    /// `Sched::reset`). The only processors an unlock or relock broadcast
    /// must visit.
    Watch,
    /// Sleeping waiters whose busy-wait timeout came up this step,
    /// gathered while deliveries run and emptied before the step ends.
    Due,
}

/// Number of [`Set`] variants.
const SETS: usize = 5;

/// Every [`Set`] over `n` processors, as word-array bitsets in one
/// allocation.
#[derive(Debug, Clone)]
pub(crate) struct ProcSets {
    words: Vec<u64>,
    /// Words per set: `ceil(n / 64)`.
    stride: usize,
}

impl ProcSets {
    fn new(n: usize) -> Self {
        let stride = n.div_ceil(64);
        ProcSets {
            words: vec![0; stride * SETS],
            stride,
        }
    }

    #[inline]
    fn slot(&self, set: Set, i: usize) -> (usize, u64) {
        (set as usize * self.stride + i / 64, 1 << (i % 64))
    }

    /// Adds processor `i` to `set`.
    #[inline]
    pub(crate) fn insert(&mut self, set: Set, i: usize) {
        let (w, bit) = self.slot(set, i);
        self.words[w] |= bit;
    }

    /// Removes processor `i` from `set`.
    #[inline]
    pub(crate) fn remove(&mut self, set: Set, i: usize) {
        let (w, bit) = self.slot(set, i);
        self.words[w] &= !bit;
    }

    /// Whether processor `i` is in `set`.
    #[inline]
    pub(crate) fn contains(&self, set: Set, i: usize) -> bool {
        let (w, bit) = self.slot(set, i);
        self.words[w] & bit != 0
    }

    /// Whether any bus request is queued: a pending one or a woken
    /// register's (the two sets are adjacent in `words`).
    #[inline]
    pub(crate) fn any_request(&self) -> bool {
        let base = Set::Pending as usize * self.stride;
        self.words[base..base + 2 * self.stride]
            .iter()
            .any(|&w| w != 0)
    }

    /// The smallest member of `set` that is `>= from`.
    #[inline]
    pub(crate) fn next(&self, set: Set, from: usize) -> Option<usize> {
        let base = set as usize * self.stride;
        let words = &self.words[base..base + self.stride];
        let start = from / 64;
        let mut bits = *words.get(start)? & (!0u64 << (from % 64));
        let mut w = start;
        while bits == 0 {
            w += 1;
            bits = *words.get(w)?;
        }
        Some(w * 64 + bits.trailing_zeros() as usize)
    }

    /// Empties `set`.
    pub(crate) fn clear(&mut self, set: Set) {
        let base = set as usize * self.stride;
        self.words[base..base + self.stride].fill(0);
    }
}

/// One processor's scheduling and accounting state beside its phase.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Clock {
    /// Cycle the current phase began.
    pub(crate) since: u64,
    /// Cycle the processor next needs a step (`u64::MAX`: none): a phase's
    /// `until`, a sleeping waiter's timeout, or a workload idle hint.
    wake: u64,
    /// Cycle the busy-wait register last woke, for the arbitration wait of
    /// its high-priority request.
    pub(crate) woken_at: u64,
}

/// The processor sets, the clocks and the wake heap, kept together so the
/// heap can tell live entries from stale ones.
#[derive(Debug, Clone)]
pub(crate) struct Sched {
    pub(crate) sets: ProcSets,
    pub(crate) clocks: Vec<Clock>,
    heap: BinaryHeap<Reverse<(u64, usize)>>,
}

impl Sched {
    /// Scheduling state for `n` ready processors at cycle 0.
    pub(crate) fn new(n: usize) -> Self {
        let clock = Clock {
            since: 0,
            wake: u64::MAX,
            woken_at: 0,
        };
        let mut sched = Sched {
            sets: ProcSets::new(n),
            clocks: vec![clock; n],
            heap: BinaryHeap::new(),
        };
        sched.reset(0);
        sched
    }

    /// Every processor ready from `now`, with nothing queued, watched or
    /// scheduled.
    pub(crate) fn reset(&mut self, now: u64) {
        self.heap.clear();
        self.sets.words.fill(0);
        for (i, clock) in self.clocks.iter_mut().enumerate() {
            clock.since = now;
            clock.wake = u64::MAX;
            self.sets.insert(Set::Ready, i);
        }
    }

    /// Schedules processor `i`'s next step at cycle `at` (`u64::MAX`
    /// cancels), superseding whatever was scheduled before. `now` is the
    /// current step's cycle; a wake at or before it is due at the next
    /// step, which comes at `now + 1` in both engine modes.
    pub(crate) fn set_wake(&mut self, i: usize, at: u64, now: u64) {
        let at = at.max(now + 1);
        let clock = &mut self.clocks[i];
        if clock.wake == at {
            return;
        }
        clock.wake = at;
        if at != u64::MAX {
            self.heap.push(Reverse((at, i)));
        }
    }

    /// The processor of a heap entry, if the entry still carries its wake.
    /// Every wake lies after the step that set it and is consumed when it
    /// pops, so a stale entry never equals its processor's wake.
    #[inline]
    fn live(&self, (at, i): (u64, usize)) -> Option<usize> {
        (self.clocks[i].wake == at).then_some(i)
    }

    /// Pops the next processor whose wake cycle is `<= now`, consuming its
    /// wake. Neither engine mode steps past a live wake, so every live wake
    /// popped is due exactly at `now` and they come out in processor order.
    pub(crate) fn pop_due(&mut self, now: u64) -> Option<usize> {
        while let Some(&Reverse(entry)) = self.heap.peek() {
            if entry.0 > now {
                break;
            }
            self.heap.pop();
            if let Some(i) = self.live(entry) {
                self.clocks[i].wake = u64::MAX;
                return Some(i);
            }
        }
        None
    }

    /// The earliest live wake cycle, dropping stale entries above it.
    pub(crate) fn next_wake(&mut self) -> Option<u64> {
        while let Some(&Reverse(entry)) = self.heap.peek() {
            if self.live(entry).is_some() {
                return Some(entry.0);
            }
            self.heap.pop();
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_walks_members_across_words() {
        let mut s = ProcSets::new(130);
        for i in [0, 63, 64, 127, 129] {
            s.insert(Set::Pending, i);
        }
        s.insert(Set::Ready, 5);
        let mut seen = Vec::new();
        let mut next = s.next(Set::Pending, 0);
        while let Some(i) = next {
            seen.push(i);
            next = s.next(Set::Pending, i + 1);
        }
        assert_eq!(seen, [0, 63, 64, 127, 129]);
        assert_eq!(s.next(Set::Pending, 65), Some(127));
        assert_eq!(s.next(Set::Pending, 130), None);
        assert_eq!(s.next(Set::Ready, 6), None);
        s.remove(Set::Pending, 129);
        assert_eq!(s.next(Set::Pending, 128), None);
        assert!(s.any_request());
        s.clear(Set::Pending);
        assert!(s.next(Set::Pending, 0).is_none() && !s.any_request());
        s.insert(Set::Woken, 129);
        assert!(s.any_request());
        assert_eq!(s.next(Set::Ready, 0), Some(5), "sets are independent");
    }

    #[test]
    fn reset_makes_every_processor_ready() {
        let sched = Sched::new(70);
        let ready: Vec<usize> = (0..70)
            .filter(|&i| sched.sets.next(Set::Ready, i) == Some(i))
            .collect();
        assert_eq!(ready.len(), 70);
        assert!(!sched.sets.any_request());
    }

    #[test]
    fn superseded_wakes_are_skipped() {
        let mut sched = Sched::new(4);
        sched.set_wake(2, 50, 0);
        sched.set_wake(1, 30, 0);
        sched.set_wake(1, 70, 0); // supersedes 30
        sched.set_wake(3, 40, 0);
        sched.set_wake(3, u64::MAX, 0); // cancels
        assert_eq!(sched.next_wake(), Some(50));
        assert_eq!(sched.pop_due(50), Some(2));
        assert_eq!(sched.pop_due(50), None);
        assert_eq!(sched.next_wake(), Some(70));
        // A consumed wake can be scheduled again at the same cycle.
        sched.set_wake(2, 50, 0);
        assert_eq!(sched.next_wake(), Some(50));
    }

    #[test]
    fn a_wake_changed_back_and_forth_pops_once() {
        let mut sched = Sched::new(2);
        sched.set_wake(1, 20, 0);
        sched.set_wake(1, 30, 0);
        sched.set_wake(1, 20, 0); // two entries for (20, 1) now
        assert_eq!(sched.pop_due(20), Some(1));
        // The duplicate is stale once the wake is consumed, and stays
        // stale after a new wake, which always lies past the step.
        sched.set_wake(1, 25, 20);
        assert_eq!(sched.pop_due(20), None);
        assert_eq!(sched.next_wake(), Some(25));
    }

    #[test]
    fn overdue_wakes_come_due_at_the_next_step_in_processor_order() {
        let mut sched = Sched::new(6);
        // At step 10: 5 and 1 wake at 11; 3 was scheduled for 11 long ago;
        // 4 has an overdue idle hint; 0 is superseded.
        sched.set_wake(3, 11, 2);
        sched.set_wake(5, 11, 10);
        sched.set_wake(1, 11, 10);
        sched.set_wake(4, 7, 10);
        sched.set_wake(0, 11, 10);
        sched.set_wake(0, 90, 10);
        assert_eq!(sched.next_wake(), Some(11));
        assert_eq!(sched.pop_due(10), None, "nothing set at step 10 is due at it");
        let due: Vec<usize> = std::iter::from_fn(|| sched.pop_due(11)).collect();
        assert_eq!(due, [1, 3, 4, 5]);
        assert_eq!(sched.next_wake(), Some(90));
    }
}
