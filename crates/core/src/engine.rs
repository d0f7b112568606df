//! The Minnow engine: front-end local task queue + back-end prefetch
//! pipeline (paper §5, Fig. 10/12/13).
//!
//! The front-end is a hardened FSM holding up to 64 tasks of the current
//! highest-priority bucket; `minnow_dequeue` hits it in 10 cycles. The
//! back-end runs threadlets for worklist spills/fills and worklist-directed
//! prefetching on the engine's own timeline, off the worker's critical
//! path.

use std::collections::VecDeque;

use minnow_runtime::Task;
use minnow_sim::config::EngineParams;
use minnow_sim::cycles::Cycle;
use minnow_sim::hierarchy::MemoryHierarchy;

use crate::wdp::PrefetchPipeline;

/// Per-engine statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Tasks accepted directly into the local queue.
    pub local_accepts: u64,
    /// Tasks spilled to the software global worklist.
    pub spills: u64,
    /// Refill operations from the global worklist.
    pub refills: u64,
    /// Tasks streamed in by refills.
    pub refilled_tasks: u64,
    /// Dequeues served from the local queue.
    pub local_hits: u64,
    /// Dequeues that had to wait on a refill.
    pub local_misses: u64,
}

/// One core's Minnow engine.
#[derive(Debug)]
pub struct Engine {
    core: usize,
    params: EngineParams,
    local: VecDeque<Task>,
    /// Bucket priority of the local queue; `u64::MAX` = unset (accept any).
    local_bucket: u64,
    /// Engine back-end busy-until time (worklist spill/fill threadlets).
    clock: Cycle,
    /// Tasks streamed from the global worklist, landing at their fill time.
    incoming: VecDeque<(Cycle, Task)>,
    /// Worklist-directed prefetch pipeline (None = prefetching disabled).
    pipeline: Option<PrefetchPipeline>,
    stats: EngineStats,
}

impl Engine {
    /// Builds an idle engine for `core`; `credits` enables worklist-directed
    /// prefetching with that many credits.
    pub fn new(core: usize, params: EngineParams, credits: Option<u32>) -> Self {
        Engine {
            core,
            params,
            local: VecDeque::with_capacity(params.local_queue),
            local_bucket: u64::MAX,
            clock: 0,
            incoming: VecDeque::new(),
            pipeline: credits.map(|c| PrefetchPipeline::new(&params, c)),
            stats: EngineStats::default(),
        }
    }

    /// The paired core's id.
    pub fn core(&self) -> usize {
        self.core
    }

    /// Engine parameters.
    pub fn params(&self) -> &EngineParams {
        &self.params
    }

    /// Engine back-end busy-until time.
    pub fn clock(&self) -> Cycle {
        self.clock
    }

    /// Advances the engine back-end to at least `start` and occupies it for
    /// `work` cycles; returns the completion time.
    pub fn busy(&mut self, start: Cycle, work: Cycle) -> Cycle {
        self.clock = self.clock.max(start) + work;
        self.clock
    }

    /// Local-queue occupancy.
    pub fn local_len(&self) -> usize {
        self.local.len()
    }

    /// Tasks in flight from a refill.
    pub fn incoming_len(&self) -> usize {
        self.incoming.len()
    }

    /// The local queue's current bucket priority.
    pub fn local_bucket(&self) -> u64 {
        self.local_bucket
    }

    /// Statistics.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// The prefetch pipeline, when enabled.
    pub fn pipeline(&self) -> Option<&PrefetchPipeline> {
        self.pipeline.as_ref()
    }

    /// Mutable access for the offload scheduler.
    pub(crate) fn pipeline_mut(&mut self) -> Option<&mut PrefetchPipeline> {
        self.pipeline.as_mut()
    }

    /// Fig. 12 enqueue filter: accepts the task into the local queue when
    /// there is room and its bucket is at least as urgent as the local
    /// bucket. Returns `true` on acceptance (caller then queues the task's
    /// prefetch program — acceptance guarantees local consumption).
    pub fn try_local_enqueue(&mut self, task: Task, bucket: u64) -> bool {
        // Accept only while the queue is short: a full 64-entry queue of
        // already-committed tasks is a staleness window that costs work
        // efficiency; beyond the refill threshold, tasks go to the global
        // worklist where priority order is authoritative.
        let fits = self.local.len() + self.incoming.len() < self.params.refill_threshold;
        if fits && (self.local.is_empty() || bucket <= self.local_bucket) {
            self.local.push_back(task);
            self.local_bucket = if self.local.len() == 1 {
                bucket
            } else {
                self.local_bucket.min(bucket)
            };
            self.stats.local_accepts += 1;
            true
        } else {
            self.stats.spills += 1;
            false
        }
    }

    /// Pops the next local task (FIFO within the local queue, paper §5.2).
    pub fn local_pop(&mut self) -> Option<Task> {
        let t = self.local.pop_front();
        if t.is_some() {
            self.stats.local_hits += 1;
            if let Some(p) = self.pipeline.as_mut() {
                p.note_pop();
            }
            if self.local.is_empty() && self.incoming.is_empty() {
                self.local_bucket = u64::MAX;
            }
        }
        t
    }

    /// Records a dequeue that found the local queue empty.
    pub fn note_local_miss(&mut self) {
        self.stats.local_misses += 1;
    }

    /// Whether occupancy has dropped below the proactive refill threshold.
    pub fn wants_refill(&self) -> bool {
        self.local.len() + self.incoming.len() < self.params.refill_threshold
    }

    /// Queues tasks streamed from the global worklist, arriving at `at`.
    pub fn stream_in(&mut self, at: Cycle, tasks: impl IntoIterator<Item = Task>, bucket: u64) {
        let mut n = 0;
        for t in tasks {
            self.incoming.push_back((at, t));
            n += 1;
        }
        if n > 0 {
            self.stats.refills += 1;
            self.stats.refilled_tasks += n;
            self.local_bucket = bucket;
        }
    }

    /// Moves arrived incoming tasks into the local queue.
    pub fn admit_incoming(&mut self, now: Cycle) {
        while let Some(&(at, t)) = self.incoming.front() {
            if at <= now && self.local.len() < self.params.local_queue {
                self.local.push_back(t);
                self.incoming.pop_front();
            } else {
                break;
            }
        }
    }

    /// Earliest arrival among in-flight incoming tasks.
    pub fn next_incoming_at(&self) -> Option<Cycle> {
        self.incoming.front().map(|&(at, _)| at)
    }

    /// Drains the local queue and in-flight refills (the `minnow_flush`
    /// context-switch operation, paper §4.1).
    pub fn flush(&mut self) -> Vec<Task> {
        let mut out: Vec<Task> = self.local.drain(..).collect();
        out.extend(self.incoming.drain(..).map(|(_, t)| t));
        self.local_bucket = u64::MAX;
        out
    }

    /// Pumps the prefetch pipeline to `now`.
    pub fn pump_prefetch(&mut self, now: Cycle, mem: &mut MemoryHierarchy) {
        let core = self.core;
        if let Some(p) = self.pipeline.as_mut() {
            p.pump(core, now, mem);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minnow_sim::SimConfig;

    fn engine() -> Engine {
        Engine::new(0, EngineParams::paper(), None)
    }

    #[test]
    fn local_enqueue_respects_bucket_filter() {
        let mut e = engine();
        assert!(e.try_local_enqueue(Task::new(8, 0), 2));
        assert_eq!(e.local_bucket(), 2);
        // Lower-priority (bigger bucket) task must spill.
        assert!(!e.try_local_enqueue(Task::new(16, 1), 4));
        assert_eq!(e.stats().spills, 1);
        // Higher-priority task is accepted and updates the bucket.
        assert!(e.try_local_enqueue(Task::new(2, 2), 0));
        assert_eq!(e.local_bucket(), 0);
        // Contents unchanged: FIFO pop returns the first accepted task.
        assert_eq!(e.local_pop().unwrap().node, 0);
    }

    #[test]
    fn full_local_queue_spills() {
        let mut e = engine();
        let cap = e.params().refill_threshold;
        for i in 0..cap as u32 {
            assert!(e.try_local_enqueue(Task::new(0, i), 0));
        }
        assert!(!e.try_local_enqueue(Task::new(0, 99), 0));
        assert_eq!(e.stats().spills, 1);
        assert_eq!(e.local_len(), cap);
    }

    #[test]
    fn pop_to_empty_resets_bucket() {
        let mut e = engine();
        e.try_local_enqueue(Task::new(4, 0), 1);
        assert_eq!(e.local_pop().unwrap().node, 0);
        assert_eq!(e.local_bucket(), u64::MAX);
        assert!(e.local_pop().is_none());
        // Any bucket is now acceptable again.
        assert!(e.try_local_enqueue(Task::new(400, 1), 100));
    }

    #[test]
    fn stream_in_arrives_over_time() {
        let mut e = engine();
        e.stream_in(500, [Task::new(0, 1), Task::new(0, 2)], 0);
        assert_eq!(e.incoming_len(), 2);
        e.admit_incoming(100);
        assert_eq!(e.local_len(), 0, "not arrived yet");
        assert_eq!(e.next_incoming_at(), Some(500));
        e.admit_incoming(500);
        assert_eq!(e.local_len(), 2);
        assert_eq!(e.incoming_len(), 0);
    }

    #[test]
    fn wants_refill_below_threshold() {
        let mut e = engine();
        assert!(e.wants_refill());
        for i in 0..16 {
            e.try_local_enqueue(Task::new(0, i), 0);
        }
        assert!(!e.wants_refill());
    }

    #[test]
    fn flush_returns_everything() {
        let mut e = engine();
        e.try_local_enqueue(Task::new(0, 1), 0);
        e.stream_in(1000, [Task::new(0, 2)], 0);
        let flushed = e.flush();
        assert_eq!(flushed.len(), 2);
        assert_eq!(e.local_len() + e.incoming_len(), 0);
        assert_eq!(e.local_bucket(), u64::MAX);
    }

    #[test]
    fn busy_advances_engine_clock() {
        let mut e = engine();
        assert_eq!(e.busy(100, 50), 150);
        assert_eq!(e.busy(0, 10), 160, "engine cannot travel back in time");
        assert_eq!(e.clock(), 160);
    }

    #[test]
    fn prefetch_pipeline_is_optional() {
        let cfg = SimConfig::small(1);
        let mut off = Engine::new(0, cfg.engine, None);
        assert!(off.pipeline().is_none());
        let mut mem = MemoryHierarchy::new(&cfg);
        off.pump_prefetch(100, &mut mem); // no-op, must not panic
        let on = Engine::new(0, cfg.engine, Some(32));
        assert!(on.pipeline().is_some());
    }
}
