//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;

use minnow::bench::sweep::{Sweep, SweepConfig, SweepParams};
use minnow::engine::CreditPool;
use minnow::graph::Csr;
use minnow::runtime::split::split_task;
use minnow::runtime::worklist::PolicyKind;
use minnow::runtime::Task;
use minnow::sim::cache::Cache;
use minnow::sim::config::CacheParams;
use minnow::sim::contend::GapTracker;
use minnow::sim::stats::{CycleAccounting, CycleBin, Histogram};
use std::collections::VecDeque;

fn any_task() -> impl Strategy<Value = Task> {
    (0u64..1000, 0u32..500).prop_map(|(p, n)| Task::new(p, n))
}

/// One cache operation for the oracle-equivalence property.
#[derive(Debug, Clone, Copy)]
enum CacheOp {
    /// Demand access; on a miss, fill when the flag is set (mirroring the
    /// hierarchy's access-then-fill protocol).
    Access { addr: u64, write: bool, fill: bool },
    /// Prefetch fill (marked line).
    PrefetchFill { addr: u64 },
    /// Clear a mark without a full access.
    ConsumeMark { addr: u64 },
    /// Directory-initiated invalidation.
    Invalidate { addr: u64 },
}

fn any_cache_op() -> impl Strategy<Value = CacheOp> {
    // Addresses over 16 lines mapping onto 4 sets: heavy conflict traffic.
    let addr = (0u64..16).prop_map(|l| l * 64 + (l % 7));
    // The vendored proptest stub's `prop_oneof!` is unweighted; bias
    // toward demand traffic by listing the access arm twice.
    prop_oneof![
        (addr.clone(), any::<bool>(), any::<bool>())
            .prop_map(|(addr, write, fill)| CacheOp::Access { addr, write, fill }),
        (addr.clone(), any::<bool>(), any::<bool>())
            .prop_map(|(addr, write, fill)| CacheOp::Access { addr, write, fill }),
        addr.clone().prop_map(|addr| CacheOp::PrefetchFill { addr }),
        addr.clone().prop_map(|addr| CacheOp::ConsumeMark { addr }),
        addr.prop_map(|addr| CacheOp::Invalidate { addr }),
    ]
}

/// Naive array-of-structs reference cache: one `Option<Line>` per way,
/// scanned linearly, LRU victim chosen by strict-`<` first minimum — the
/// exact model the packed SoA [`Cache`] replaced. Tick semantics match
/// the production model's documented contract: the clock advances exactly
/// when a recency timestamp is recorded (hits and fills), never on
/// no-fill misses or metadata-only operations.
struct OracleCache {
    slots: Vec<Option<OracleLine>>,
    sets: usize,
    ways: usize,
    line_shift: u32,
    tick: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OracleLine {
    line_addr: u64,
    last_use: u64,
    dirty: bool,
    prefetch: bool,
}

/// The oracle's answer for one operation, compared field-for-field with
/// the packed implementation's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OracleOutcome {
    Lookup { hit: bool, prefetch_consumed: bool },
    Fill { evicted: Option<(u64, bool, bool)> },
    Consumed(bool),
    Invalidated(Option<(bool, bool)>),
}

impl OracleCache {
    fn new(params: &CacheParams) -> Self {
        let sets = params.sets();
        OracleCache {
            slots: vec![None; sets * params.ways],
            sets,
            ways: params.ways,
            line_shift: params.line_bytes.trailing_zeros(),
            tick: 0,
        }
    }

    fn set_base(&self, line_addr: u64) -> usize {
        (line_addr as usize % self.sets) * self.ways
    }

    fn find(&self, line_addr: u64) -> Option<usize> {
        let base = self.set_base(line_addr);
        (base..base + self.ways)
            .find(|&i| self.slots[i].map(|l| l.line_addr) == Some(line_addr))
    }

    fn access(&mut self, addr: u64, write: bool) -> OracleOutcome {
        let line_addr = addr >> self.line_shift;
        if let Some(idx) = self.find(line_addr) {
            self.tick += 1;
            let line = self.slots[idx].as_mut().unwrap();
            line.last_use = self.tick;
            line.dirty |= write;
            let prefetch_consumed = line.prefetch;
            line.prefetch = false;
            OracleOutcome::Lookup {
                hit: true,
                prefetch_consumed,
            }
        } else {
            OracleOutcome::Lookup {
                hit: false,
                prefetch_consumed: false,
            }
        }
    }

    fn fill(&mut self, addr: u64, write: bool, prefetch: bool) -> OracleOutcome {
        let line_addr = addr >> self.line_shift;
        self.tick += 1;
        let base = self.set_base(line_addr);
        if let Some(idx) = self.find(line_addr) {
            let line = self.slots[idx].as_mut().unwrap();
            line.last_use = self.tick;
            line.dirty |= write;
            return OracleOutcome::Fill { evicted: None };
        }
        let newcomer = OracleLine {
            line_addr,
            last_use: self.tick,
            dirty: write,
            prefetch,
        };
        if let Some(free) = (base..base + self.ways).find(|&i| self.slots[i].is_none()) {
            self.slots[free] = Some(newcomer);
            return OracleOutcome::Fill { evicted: None };
        }
        let victim = (base..base + self.ways)
            .min_by_key(|&i| self.slots[i].unwrap().last_use)
            .unwrap();
        let old = self.slots[victim].unwrap();
        self.slots[victim] = Some(newcomer);
        OracleOutcome::Fill {
            evicted: Some((old.line_addr, old.dirty, old.prefetch)),
        }
    }

    fn consume_mark(&mut self, addr: u64) -> OracleOutcome {
        let line_addr = addr >> self.line_shift;
        if let Some(idx) = self.find(line_addr) {
            let line = self.slots[idx].as_mut().unwrap();
            if line.prefetch {
                line.prefetch = false;
                return OracleOutcome::Consumed(true);
            }
        }
        OracleOutcome::Consumed(false)
    }

    fn invalidate(&mut self, addr: u64) -> OracleOutcome {
        let line_addr = addr >> self.line_shift;
        match self.find(line_addr) {
            Some(idx) => {
                let old = self.slots[idx].take().unwrap();
                OracleOutcome::Invalidated(Some((old.dirty, old.prefetch)))
            }
            None => OracleOutcome::Invalidated(None),
        }
    }

    fn resident(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    fn marked(&self) -> usize {
        self.slots.iter().flatten().filter(|l| l.prefetch).count()
    }
}

/// The interval-per-reservation timeline `GapTracker` replaced, kept as
/// the reference for the run-length implementation: one `(start, end)` per
/// reservation, a linear gap-fill scan, and the same 256-reservation cap
/// that closes the gap between the two oldest reservations.
#[derive(Default)]
struct OracleGapTracker {
    busy: VecDeque<(u64, u64)>,
}

impl OracleGapTracker {
    fn reserve(&mut self, now: u64, duration: u64) -> u64 {
        if duration == 0 {
            return now;
        }
        let lo = self.busy.partition_point(|&(_, e)| e <= now);
        let mut begin = now;
        let mut insert_at = self.busy.len();
        for i in lo..self.busy.len() {
            let (s, e) = self.busy[i];
            if begin + duration <= s {
                insert_at = i;
                break;
            }
            begin = begin.max(e);
        }
        self.busy.insert(insert_at, (begin, begin + duration));
        if self.busy.len() > 256 {
            let (s0, _) = self.busy.pop_front().unwrap();
            let front = self.busy.front_mut().unwrap();
            front.0 = s0.min(front.0);
        }
        begin
    }

    fn horizon(&self) -> u64 {
        self.busy.back().map_or(0, |&(_, e)| e)
    }
}

/// One timeline request of the gap-tracker differential property. The
/// test resolves it against a clock that drifts forward every step.
#[derive(Debug, Clone, Copy)]
enum GapReq {
    /// Just below the horizon: the NoC-link pattern of inserts near the
    /// newest reservations.
    NearTail { back: u64, dur: u64 },
    /// At the previous request's time: queues back to back, as on a
    /// saturated DRAM channel.
    BackToBack { dur: u64 },
    /// Far behind the clock: deep in the window or below its oldest run.
    FarPast { back: u64, dur: u64 },
    /// A zero-length request, which must not touch the timeline.
    Zero { back: u64 },
}

fn any_gap_req() -> impl Strategy<Value = GapReq> {
    // Tail and back-to-back arms are listed twice to weight them: they
    // are the fabric's common cases.
    prop_oneof![
        (0u64..64, 1u64..12).prop_map(|(back, dur)| GapReq::NearTail { back, dur }),
        (0u64..64, 1u64..12).prop_map(|(back, dur)| GapReq::NearTail { back, dur }),
        (1u64..12).prop_map(|dur| GapReq::BackToBack { dur }),
        (1u64..12).prop_map(|dur| GapReq::BackToBack { dur }),
        (0u64..1_500, 1u64..40).prop_map(|(back, dur)| GapReq::FarPast { back, dur }),
        (0u64..1_500).prop_map(|back| GapReq::Zero { back }),
    ]
}

/// Filter strings for the sweep-selection property: meaningful id
/// fragments plus arbitrary short strings over the id alphabet (the
/// proptest stub has no native string strategy, so build from indices).
fn any_filter() -> impl Strategy<Value = String> {
    const ALPHABET: [char; 12] = ['S', 'B', 'C', 'P', 'T', 'G', '/', 't', 'c', 'm', '1', 'z'];
    prop_oneof![
        Just("SSSP".to_string()),
        Just("/BFS/".to_string()),
        Just("minnow".to_string()),
        Just("wdp".to_string()),
        Just("serial".to_string()),
        Just(String::new()),
        Just("no-such-point".to_string()),
        prop::collection::vec(0usize..ALPHABET.len(), 0..5)
            .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect()),
    ]
}

fn any_sweep_params() -> impl Strategy<Value = SweepParams> {
    (0u64..1 << 48, 1usize..64, 1usize..64).prop_map(|(seed, headline, max)| SweepParams {
        scale: 0.02,
        seed,
        headline_threads: headline,
        max_threads: max,
    })
}

fn any_policy() -> impl Strategy<Value = PolicyKind> {
    prop_oneof![
        Just(PolicyKind::Fifo),
        Just(PolicyKind::Lifo),
        (1usize..32).prop_map(PolicyKind::Chunked),
        (0u32..8).prop_map(PolicyKind::Obim),
        Just(PolicyKind::Strict),
    ]
}

proptest! {
    /// Every policy returns exactly the multiset of pushed tasks.
    #[test]
    fn worklists_conserve_tasks(tasks in prop::collection::vec(any_task(), 0..200),
                                kind in any_policy()) {
        let mut wl = kind.build();
        for &t in &tasks {
            wl.push(t);
        }
        prop_assert_eq!(wl.len(), tasks.len());
        let mut out = Vec::new();
        while let Some(t) = wl.pop() {
            out.push(t);
        }
        prop_assert!(wl.is_empty());
        let mut a: Vec<_> = tasks.iter().map(|t| (t.priority, t.node)).collect();
        let mut b: Vec<_> = out.iter().map(|t| (t.priority, t.node)).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    /// OBIM pops never go back to a strictly smaller bucket unless a more
    /// urgent task was pushed in between (drain-only check).
    #[test]
    fn obim_buckets_drain_in_order(tasks in prop::collection::vec(any_task(), 1..200),
                                   lg in 0u32..6) {
        let mut wl = PolicyKind::Obim(lg).build();
        for &t in &tasks {
            wl.push(t);
        }
        let mut last_bucket = 0u64;
        while let Some(t) = wl.pop() {
            let b = t.bucket(lg);
            prop_assert!(b >= last_bucket, "bucket went backwards: {b} < {last_bucket}");
            last_bucket = b;
        }
    }

    /// Strict priority pops a non-decreasing priority sequence.
    #[test]
    fn strict_priority_sorts(tasks in prop::collection::vec(any_task(), 1..200)) {
        let mut wl = PolicyKind::Strict.build();
        for &t in &tasks {
            wl.push(t);
        }
        let mut last = 0u64;
        while let Some(t) = wl.pop() {
            prop_assert!(t.priority >= last);
            last = t.priority;
        }
    }

    /// Task splitting covers each edge slot exactly once and preserves
    /// priority and node.
    #[test]
    fn split_partitions_exactly(degree in 0usize..40_000,
                                threshold in 1u32..5_000,
                                priority in 0u64..100) {
        let parts = split_task(Task::new(priority, 3), degree, threshold);
        let mut covered = 0usize;
        let mut next = 0usize;
        for p in &parts {
            prop_assert_eq!(p.priority, priority);
            prop_assert_eq!(p.node, 3);
            let r = p.resolve_range(degree);
            prop_assert_eq!(r.start, next, "ranges must be contiguous");
            prop_assert!(r.len() <= threshold as usize || parts.len() == 1);
            covered += r.len();
            next = r.end;
        }
        prop_assert_eq!(covered, degree);
    }

    /// Credit pools conserve credits under arbitrary consume/release
    /// interleavings.
    #[test]
    fn credit_pool_conserves(total in 1u32..64, ops in prop::collection::vec(any::<bool>(), 0..500)) {
        let mut pool = CreditPool::new(total);
        let mut outstanding = 0u32;
        for consume in ops {
            if consume {
                if pool.try_consume() {
                    outstanding += 1;
                }
            } else if outstanding > 0 {
                pool.release(1);
                outstanding -= 1;
            }
            prop_assert!(pool.check_conservation());
            prop_assert!(pool.available() <= total);
        }
    }

    /// The cache never exceeds its capacity, and a fill makes the line
    /// immediately visible.
    #[test]
    fn cache_capacity_and_presence(addrs in prop::collection::vec(0u64..(1 << 16), 1..300)) {
        let params = CacheParams { size_bytes: 2048, ways: 4, line_bytes: 64, latency: 1 };
        let mut cache = Cache::new(params);
        for &a in &addrs {
            cache.fill(a, false, false);
            prop_assert!(cache.probe(a), "just-filled line must be present");
            prop_assert!(cache.resident_lines() <= params.lines());
        }
    }

    /// Oracle equivalence for the packed SoA cache: replay an arbitrary
    /// operation stream against both the production [`Cache`] and the naive
    /// array-of-structs [`OracleCache`] it replaced, and demand identical
    /// decisions op by op — hit/miss, consumed marks, victim identity and
    /// metadata, invalidation results — plus identical resident/marked
    /// counts at every step.
    #[test]
    fn packed_cache_matches_naive_oracle(ops in prop::collection::vec(any_cache_op(), 1..400)) {
        let params = CacheParams { size_bytes: 512, ways: 2, line_bytes: 64, latency: 1 };
        let mut packed = Cache::new(params);
        let mut oracle = OracleCache::new(&params);
        for (step, op) in ops.into_iter().enumerate() {
            let (got, want) = match op {
                CacheOp::Access { addr, write, fill } => {
                    let l = packed.access(addr, write);
                    let want = oracle.access(addr, write);
                    let got = OracleOutcome::Lookup {
                        hit: l.hit,
                        prefetch_consumed: l.prefetch_consumed,
                    };
                    prop_assert_eq!(got, want, "lookup diverged at step {}: {:?}", step, op);
                    if !l.hit && fill {
                        let ev = packed.fill(addr, write, false);
                        (
                            OracleOutcome::Fill {
                                evicted: ev.map(|e| (e.line_addr, e.dirty, e.prefetch_unused)),
                            },
                            oracle.fill(addr, write, false),
                        )
                    } else {
                        (got, want)
                    }
                }
                CacheOp::PrefetchFill { addr } => {
                    let ev = packed.fill(addr, false, true);
                    (
                        OracleOutcome::Fill {
                            evicted: ev.map(|e| (e.line_addr, e.dirty, e.prefetch_unused)),
                        },
                        oracle.fill(addr, false, true),
                    )
                }
                CacheOp::ConsumeMark { addr } => (
                    OracleOutcome::Consumed(packed.consume_mark(addr)),
                    oracle.consume_mark(addr),
                ),
                CacheOp::Invalidate { addr } => (
                    OracleOutcome::Invalidated(
                        packed.invalidate(addr).map(|e| (e.dirty, e.prefetch_unused)),
                    ),
                    oracle.invalidate(addr),
                ),
            };
            prop_assert_eq!(got, want, "decision diverged at step {}: {:?}", step, op);
            prop_assert_eq!(packed.resident_lines(), oracle.resident(),
                "resident count diverged at step {}", step);
            prop_assert_eq!(packed.marked_lines(), oracle.marked(),
                "marked count diverged at step {}", step);
        }
    }

    /// Gap-tracker reservations never overlap, regardless of request order.
    #[test]
    fn gap_tracker_reservations_disjoint(reqs in prop::collection::vec((0u64..10_000, 1u64..50), 1..100)) {
        let mut g = GapTracker::new();
        let mut intervals: Vec<(u64, u64)> = Vec::new();
        for (now, dur) in reqs {
            let begin = g.reserve(now, dur);
            prop_assert!(begin >= now);
            for &(s, e) in &intervals {
                prop_assert!(begin + dur <= s || begin >= e,
                    "overlap: [{begin},{}) vs [{s},{e})", begin + dur);
            }
            intervals.push((begin, begin + dur));
        }
    }

    /// The run-length `GapTracker` is observably the interval-per-
    /// reservation oracle: equal `begin` and `horizon` after every request,
    /// over sequences long enough to hit the 256-reservation cap many times.
    /// `pace` scales the clock drift, from a saturated timeline (one long
    /// run) to a sparse one whose oldest gaps the cap must close.
    #[test]
    fn gap_tracker_matches_interval_oracle(
        pace in 1u64..24,
        reqs in prop::collection::vec((any_gap_req(), 0u64..8), 300..3000),
    ) {
        let mut g = GapTracker::new();
        let mut oracle = OracleGapTracker::default();
        let (mut clock, mut last) = (0u64, 0u64);
        for (step, (req, drift)) in reqs.into_iter().enumerate() {
            clock += drift * pace;
            let (now, dur) = match req {
                GapReq::NearTail { back, dur } => (oracle.horizon().saturating_sub(back), dur),
                GapReq::BackToBack { dur } => (last, dur),
                GapReq::FarPast { back, dur } => (clock.saturating_sub(back * pace), dur),
                GapReq::Zero { back } => (clock.saturating_sub(back * pace), 0),
            };
            last = now;
            prop_assert_eq!(g.reserve(now, dur), oracle.reserve(now, dur),
                "begin diverged at step {}: {:?} at {}", step, req, now);
            prop_assert_eq!(g.horizon(), oracle.horizon(), "horizon diverged at step {}", step);
        }
    }

    /// Sweep enumeration is complete and duplicate-free for every named
    /// sweep under arbitrary parameters, and per-point seeds depend only
    /// on the workload (all configurations of one workload must share an
    /// input graph).
    #[test]
    fn sweeps_enumerate_unique_points(params in any_sweep_params()) {
        for name in Sweep::NAMES {
            let sweep = Sweep::named(name, &params).unwrap();
            prop_assert!(!sweep.points.is_empty(), "{name} enumerated nothing");
            let mut ids: Vec<&str> = sweep.points.iter().map(|p| p.id.as_str()).collect();
            ids.sort_unstable();
            let before = ids.len();
            ids.dedup();
            prop_assert_eq!(ids.len(), before, "{} has duplicate ids", name);
            let mut seed_of = std::collections::HashMap::new();
            for point in &sweep.points {
                let prior = seed_of.insert(point.run.kind, point.run.seed);
                prop_assert!(prior.is_none_or(|s| s == point.run.seed),
                    "{}: {} configs disagree on the input seed", name, point.run.kind);
            }
        }
    }

    /// Filtered selection picks exactly the matching points — none
    /// duplicated, none missing, enumeration order preserved — for any
    /// filter string.
    #[test]
    fn sweep_filter_selects_exactly_the_matches(params in any_sweep_params(),
                                                filter in any_filter()) {
        let sweep = Sweep::fig15(&params);
        let cfg = SweepConfig::serial().with_filter(filter.clone());
        let picked: Vec<&str> = sweep.selected(&cfg).iter().map(|p| p.id.as_str()).collect();
        let want: Vec<&str> = sweep.points.iter()
            .map(|p| p.id.as_str())
            .filter(|id| id.contains(filter.as_str()))
            .collect();
        prop_assert_eq!(picked, want);
        // No filter selects everything.
        prop_assert_eq!(sweep.selected(&SweepConfig::serial()).len(), sweep.points.len());
    }

    /// The credit ceiling holds under arbitrary consume/release
    /// interleavings with multi-credit releases, and the pool's own
    /// accounting (available + outstanding == total) never drifts.
    #[test]
    fn credit_pool_never_exceeds_ceiling(total in 1u32..64,
                                         ops in prop::collection::vec((any::<bool>(), 1u32..8), 0..500)) {
        let mut pool = CreditPool::new(total);
        let mut outstanding = 0u32;
        let mut denied = 0u64;
        for (consume, n) in ops {
            if consume {
                if pool.try_consume() {
                    outstanding += 1;
                } else {
                    denied += 1;
                    prop_assert_eq!(pool.available(), 0, "denial only when empty");
                }
            } else {
                let give_back = n.min(outstanding);
                if give_back > 0 {
                    pool.release(give_back);
                    outstanding -= give_back;
                }
            }
            prop_assert!(pool.available() <= pool.total(), "ceiling exceeded");
            prop_assert_eq!(pool.available() + outstanding, total, "credits leaked");
            prop_assert!(pool.check_conservation());
        }
        prop_assert_eq!(pool.starvations(), denied);
        prop_assert_eq!(pool.consumed() - pool.returned(), outstanding as u64);
    }

    /// Splitting a value stream at any point and merging the two
    /// histograms is exact: counts, sum, and every bucket match the
    /// histogram that recorded the whole stream.
    #[test]
    fn histogram_merge_preserves_any_split(values in prop::collection::vec(any::<u64>(), 0..300),
                                           cut in 0usize..300) {
        let cut = cut.min(values.len());
        let mut whole = Histogram::default();
        for &v in &values {
            whole.record(v);
        }
        let mut left = Histogram::default();
        for &v in &values[..cut] {
            left.record(v);
        }
        let mut right = Histogram::default();
        for &v in &values[cut..] {
            right.record(v);
        }
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert_eq!(left.sum(), whole.sum());
        prop_assert_eq!(left.count(), values.len() as u64);
        prop_assert_eq!(left.sum(), values.iter().map(|&v| u128::from(v)).sum::<u128>());
        for bucket in 0..minnow::sim::stats::HISTOGRAM_BUCKETS {
            prop_assert_eq!(left.bucket_count(bucket), whole.bucket_count(bucket),
                "bucket {} diverged after merge", bucket);
        }
    }

    /// Histogram merge is associative: (a + b) + c == a + (b + c).
    #[test]
    fn histogram_merge_is_associative(a in prop::collection::vec(any::<u64>(), 0..100),
                                      b in prop::collection::vec(any::<u64>(), 0..100),
                                      c in prop::collection::vec(any::<u64>(), 0..100)) {
        let build = |vs: &[u64]| {
            let mut h = Histogram::default();
            for &v in vs {
                h.record(v);
            }
            h
        };
        let mut left = build(&a);
        left.merge(&build(&b));
        left.merge(&build(&c));
        let mut bc = build(&b);
        bc.merge(&build(&c));
        let mut right = build(&a);
        right.merge(&bc);
        prop_assert_eq!(left.count(), right.count());
        prop_assert_eq!(left.sum(), right.sum());
        for bucket in 0..minnow::sim::stats::HISTOGRAM_BUCKETS {
            prop_assert_eq!(left.bucket_count(bucket), right.bucket_count(bucket));
        }
    }

    /// Cycle-bin accumulation commutes: charging the same multiset of
    /// (core, bin, cycles) in any order yields identical books, and
    /// closing distributes the identical drain.
    #[test]
    fn cycle_accounting_is_order_independent(
        cores in 1usize..8,
        charges in prop::collection::vec((0usize..8, 0usize..5, 0u64..1000), 0..200),
    ) {
        let charge_all = |acct: &mut CycleAccounting, order: &[(usize, usize, u64)]| {
            for &(core, bin, cycles) in order {
                acct.charge(core % cores, CycleBin::ALL[bin], cycles);
            }
        };
        let mut forward = CycleAccounting::new(cores);
        charge_all(&mut forward, &charges);
        let mut reversed = CycleAccounting::new(cores);
        let back: Vec<_> = charges.iter().rev().copied().collect();
        charge_all(&mut reversed, &back);
        let makespan = (0..cores).map(|c| forward.core(c).total()).max().unwrap_or(0);
        forward.close(makespan);
        reversed.close(makespan);
        prop_assert!(forward.verify_closed(makespan).is_ok());
        for core in 0..cores {
            for bin in CycleBin::ALL {
                prop_assert_eq!(forward.core(core).get(bin), reversed.core(core).get(bin),
                    "core {} bin {} depends on charge order", core, bin.name());
            }
            prop_assert_eq!(forward.core(core).total(), makespan);
        }
        prop_assert_eq!(forward.merged().total(), makespan * cores as u64);
    }

    /// CSR construction round-trips an arbitrary edge list.
    #[test]
    fn csr_roundtrip(edges in prop::collection::vec((0u32..50, 0u32..50), 0..300)) {
        let g = Csr::from_edges(50, &edges, None);
        prop_assert!(g.validate().is_ok());
        prop_assert_eq!(g.edges(), edges.len());
        let mut want = edges.clone();
        want.sort_unstable();
        let mut got = Vec::new();
        for v in 0..50u32 {
            for &u in g.neighbors(v) {
                got.push((v, u));
            }
        }
        got.sort_unstable();
        prop_assert_eq!(got, want);
    }
}
