//! Virtual-time serialization for shared software structures.
//!
//! Concurrent worklists, OBIM buckets, and lock-protected maps serialize
//! their critical sections. [`SharedResource`] models one such serialization
//! point: an acquisition at virtual time `now` occupies the earliest free
//! interval at or after `now`, and pays an extra *hand-off* cost when the
//! previous holder was a different core (the lock/queue cache line must
//! ping-pong through the coherence fabric).
//!
//! Because the simulated executor advances one thread through several
//! operations before returning to others, acquisition requests do **not**
//! arrive in virtual-time order. The resource therefore keeps a window of
//! future busy intervals and gap-fills: a request at `t=0` slots into an
//! idle gap even if a later-issued request already reserved `t=500`.
//!
//! This single mechanism produces the paper's software-worklist pathologies:
//! rising cycles-per-operation with thread count (Fig. 11), the worklist
//! share of the cycle breakdown (Fig. 5), and CC's scalability collapse past
//! 16 threads (Fig. 15).

use crate::cycles::Cycle;
use crate::stats::Counter;

/// Maximum reservations a timeline remembers (far more than any realistic
/// number of in-flight operations). Past the cap, the two oldest
/// reservations are coalesced into one, closing the gap between them: past
/// occupancy is never forgotten, only coarsened.
const MAX_INTERVALS: usize = 256;

/// A maximal busy run: `reservations` back-to-back reservations covering
/// `[start, end)` without a gap.
#[derive(Debug, Clone, Copy)]
struct Run {
    start: Cycle,
    end: Cycle,
    reservations: u32,
}

/// A single-server occupancy timeline that accepts out-of-order requests.
///
/// `reserve(now, duration)` books the earliest interval of `duration` at or
/// after `now`, gap-filling between existing reservations. Used by
/// [`SharedResource`], NoC links, and DRAM channels — anywhere one physical
/// resource serves requests arriving at non-monotonic virtual times.
///
/// Reservations that touch are stored as one run, so a saturated channel
/// is a handful of runs rather than hundreds of back-to-back intervals.
/// The runs live in a sliding `Vec`: coalescing retires front slots by
/// advancing `head`, and retired slots are compacted in bulk.
#[derive(Debug, Clone, Default)]
pub struct GapTracker {
    /// `runs[head..]` are live, in time order, separated by non-empty gaps.
    runs: Vec<Run>,
    head: usize,
    /// Reservations held by the live runs (at most [`MAX_INTERVALS`]).
    reservations: usize,
}

impl GapTracker {
    /// Creates an idle timeline.
    pub fn new() -> Self {
        GapTracker::default()
    }

    /// Books the earliest `duration`-cycle slot at or after `now`; returns
    /// the slot's begin time.
    pub fn reserve(&mut self, now: Cycle, duration: Cycle) -> Cycle {
        if duration == 0 {
            return now;
        }
        // Runs are disjoint with strictly increasing starts and ends, so a
        // run ending at or before `now` can neither host this reservation
        // nor raise `begin` above `now`. Requests mostly land near the
        // newest run: gallop back from it to bracket the first run ending
        // after `now`, then binary-search the bracket.
        let live = &self.runs[self.head..];
        let (mut lo, mut hi, mut step) = (0, live.len(), 1);
        while hi > 0 {
            let probe = hi.saturating_sub(step);
            if live[probe].end <= now {
                lo = probe + 1;
                break;
            }
            hi = probe;
            step *= 2;
        }
        let mut at = lo + live[lo..hi].partition_point(|r| r.end <= now);
        let mut begin = now;
        while at < live.len() && begin + duration > live[at].start {
            begin = begin.max(live[at].end);
            at += 1;
        }
        let end = begin + duration;
        let at = self.head + at;
        let joins_prev = at > self.head && self.runs[at - 1].end == begin;
        let joins_next = at < self.runs.len() && self.runs[at].start == end;
        match (joins_prev, joins_next) {
            (true, true) => {
                let next = self.runs.remove(at);
                let prev = &mut self.runs[at - 1];
                prev.end = next.end;
                prev.reservations += next.reservations + 1;
            }
            (true, false) => {
                let prev = &mut self.runs[at - 1];
                prev.end = end;
                prev.reservations += 1;
            }
            (false, true) => {
                let next = &mut self.runs[at];
                next.start = begin;
                next.reservations += 1;
            }
            (false, false) => self.runs.insert(
                at,
                Run {
                    start: begin,
                    end,
                    reservations: 1,
                },
            ),
        }
        self.reservations += 1;
        if self.reservations > MAX_INTERVALS {
            self.reservations = MAX_INTERVALS;
            // Coalesce the two oldest reservations. Inside one run they
            // already touch; otherwise the lone front reservation joins
            // the next run and the gap between them closes.
            let front = &mut self.runs[self.head];
            if front.reservations > 1 {
                front.reservations -= 1;
            } else {
                let start = front.start;
                self.head += 1;
                self.runs[self.head].start = start;
                // Compact once retired slots outnumber live runs: the Vec
                // stays within twice the live window, at O(1) amortized.
                if 2 * self.head >= self.runs.len() {
                    self.runs.drain(..self.head);
                    self.head = 0;
                }
            }
        }
        begin
    }

    /// The latest reserved end time (0 when idle).
    pub fn horizon(&self) -> Cycle {
        self.runs.last().map_or(0, |r| r.end)
    }
}

/// Result of acquiring a [`SharedResource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Acquire {
    /// When the critical section began (>= request time; includes any
    /// hand-off transfer).
    pub start: Cycle,
    /// When the resource was released again.
    pub done: Cycle,
    /// Cycles between the request and the start of the critical section.
    pub waited: Cycle,
}

/// One serialization point in virtual time.
#[derive(Debug, Clone)]
pub struct SharedResource {
    timeline: GapTracker,
    last_core: Option<usize>,
    handoff_cost: Cycle,
    acquisitions: Counter,
    handoffs: Counter,
}

impl SharedResource {
    /// Creates an idle resource. `handoff_cost` is the extra latency paid
    /// when consecutive holders are different cores (coherence transfer of
    /// the protected cache line, typically an L3 round trip).
    pub fn new(handoff_cost: Cycle) -> Self {
        SharedResource {
            timeline: GapTracker::new(),
            last_core: None,
            handoff_cost,
            acquisitions: Counter::new(),
            handoffs: Counter::new(),
        }
    }

    /// Acquires the resource for `core` at time `now`, holding it `hold`
    /// cycles (plus a hand-off transfer when the holder changes).
    pub fn acquire(&mut self, core: usize, now: Cycle, hold: Cycle) -> Acquire {
        self.acquisitions.inc();
        let handoff = match self.last_core {
            Some(prev) if prev != core => {
                self.handoffs.inc();
                self.handoff_cost
            }
            _ => 0,
        };
        self.last_core = Some(core);
        let duration = handoff + hold;
        let begin = self.timeline.reserve(now, duration);
        let start = begin + handoff;
        let done = begin + duration;
        let waited = start - now;
        Acquire { start, done, waited }
    }

    /// The latest time any reserved interval ends (0 when idle forever).
    pub fn horizon(&self) -> Cycle {
        self.timeline.horizon()
    }

    /// Total acquisitions.
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions.get()
    }

    /// Acquisitions that required a cross-core hand-off.
    pub fn handoffs(&self) -> u64 {
        self.handoffs.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_same_core_has_no_wait() {
        let mut r = SharedResource::new(50);
        let a = r.acquire(0, 100, 10);
        assert_eq!(a, Acquire { start: 100, done: 110, waited: 0 });
        let b = r.acquire(0, 200, 10);
        assert_eq!(b.waited, 0);
        assert_eq!(r.handoffs(), 0);
    }

    #[test]
    fn back_to_back_same_core_serializes() {
        let mut r = SharedResource::new(50);
        r.acquire(0, 0, 10);
        let b = r.acquire(0, 5, 10);
        assert_eq!(b.start, 10);
        assert_eq!(b.waited, 5);
    }

    #[test]
    fn cross_core_handoff_costs_extra() {
        let mut r = SharedResource::new(50);
        r.acquire(0, 0, 10);
        let b = r.acquire(1, 0, 10);
        // Slot opens at 10; 50 cycles of line transfer, then 10 held.
        assert_eq!(b.start, 60);
        assert_eq!(b.done, 70);
        assert_eq!(r.handoffs(), 1);
    }

    #[test]
    fn early_request_fills_idle_gap() {
        let mut r = SharedResource::new(0);
        // A thread raced ahead and reserved far in the future.
        r.acquire(0, 1000, 10);
        // Another thread requests much earlier: must NOT queue behind it.
        let b = r.acquire(0, 0, 10);
        assert_eq!(b.start, 0);
        assert_eq!(b.waited, 0);
        // And a third fits between the two.
        let c = r.acquire(0, 500, 10);
        assert_eq!(c.start, 500);
        assert_eq!(r.horizon(), 1010);
    }

    #[test]
    fn gap_too_small_is_skipped() {
        let mut r = SharedResource::new(0);
        r.acquire(0, 0, 10); // [0,10)
        r.acquire(0, 15, 10); // [15,25)
        // 5-cycle gap at [10,15) cannot hold 10 cycles: lands at 25.
        let c = r.acquire(0, 8, 10);
        assert_eq!(c.start, 25);
        assert_eq!(c.waited, 17);
    }

    #[test]
    fn contention_grows_with_participants() {
        let finish_of = |cores: usize| {
            let mut r = SharedResource::new(40);
            let mut finish = 0;
            for i in 0..100 {
                let a = r.acquire(i % cores, 0, 20);
                finish = finish.max(a.done);
            }
            finish
        };
        assert!(finish_of(8) > finish_of(1));
    }

    #[test]
    fn interval_window_is_bounded() {
        let mut r = SharedResource::new(0);
        for i in 0..10_000u64 {
            r.acquire(0, i * 100, 10);
        }
        assert!(r.acquisitions() == 10_000);
        // Every acquisition left a gap, so each is its own run: the window
        // holds exactly the cap, and retired slots never outnumber it.
        let t = &r.timeline;
        assert_eq!(t.reservations, MAX_INTERVALS);
        assert_eq!(t.runs.len() - t.head, MAX_INTERVALS);
        assert!(t.head < MAX_INTERVALS);
        assert_eq!(r.horizon(), 999_910);
    }

    #[test]
    fn acquisitions_and_handoffs_are_counted() {
        let mut r = SharedResource::new(10);
        r.acquire(0, 0, 5);
        let b = r.acquire(1, 0, 5);
        assert_eq!(b.waited, 15);
        assert_eq!(r.acquisitions(), 2);
        assert_eq!(r.handoffs(), 1);
    }

    #[test]
    fn saturated_timeline_collapses_to_one_run() {
        let mut t = GapTracker::new();
        for i in 0..1000u64 {
            // Every request arrives before the backlog drains.
            assert_eq!(t.reserve(i, 8), i.max(8 * i));
        }
        assert_eq!(t.runs.len() - t.head, 1);
        assert_eq!(t.reservations, MAX_INTERVALS);
        assert_eq!(t.horizon(), 8000);
    }

    #[test]
    fn coalescing_closes_the_oldest_gap() {
        let mut t = GapTracker::new();
        // 256 isolated reservations fill the window; the next one merges
        // the two oldest, so [0,1) and [10,11) become [0,11).
        for i in 0..=MAX_INTERVALS as u64 {
            t.reserve(i * 10, 1);
        }
        let front = t.runs[t.head];
        assert_eq!((front.start, front.end, front.reservations), (0, 11, 1));
        // The closed gap can no longer host a request.
        assert_eq!(t.reserve(5, 1), 11);
    }
}
