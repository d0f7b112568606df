//! Scheduler timing models.
//!
//! [`SchedulerModel`] is the executor's view of "where tasks come from and
//! what an operation costs". Two families implement it:
//!
//! * [`SoftwareScheduler`] (here) — the Galois software baseline: every
//!   enqueue/dequeue runs on the worker core, pays the policy's instruction
//!   cost, serializes on shared structures ([`SharedResource`]) and touches
//!   worklist cache lines through the real hierarchy. At high thread counts
//!   the serialization and line ping-pong dominate (paper Fig. 5, 11).
//! * `MinnowScheduler` (in `minnow-core`) — worklist offload: the worker
//!   pays only a short accelerator call; spills/refills happen on the Minnow
//!   engine's own timeline.

use minnow_graph::layout;
use minnow_sim::contend::SharedResource;
use minnow_sim::cycles::Cycle;
use minnow_sim::hierarchy::{AccessKind, MemoryHierarchy};

use crate::task::Task;
use crate::worklist::Worklist;

/// Result of a dequeue request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DequeueOutcome {
    /// The task, if one was available.
    pub task: Option<Task>,
    /// Cycles the worker spent on the operation (including waiting).
    pub cost: Cycle,
}

/// Aggregate scheduler-side statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedStats {
    /// Enqueue operations performed.
    pub enqueues: u64,
    /// Dequeue operations that returned a task.
    pub dequeues: u64,
    /// Dequeue attempts that found nothing.
    pub empty_dequeues: u64,
    /// Total cycles workers spent in scheduler operations.
    pub op_cycles: u64,
    /// Portion of `op_cycles` spent waiting on serialization.
    pub wait_cycles: u64,
    /// Dynamic instructions executed by scheduler code on workers.
    pub instrs: u64,
}

impl SchedStats {
    /// Mean worker-side cost of one operation.
    pub fn mean_op_cost(&self) -> f64 {
        let ops = self.enqueues + self.dequeues + self.empty_dequeues;
        if ops == 0 {
            0.0
        } else {
            self.op_cycles as f64 / ops as f64
        }
    }
}

/// Where tasks come from and what each operation costs the worker.
pub trait SchedulerModel {
    /// Human-readable configuration label.
    fn label(&self) -> String;

    /// Cost-free insertion of the initial tasks (worklist initialization is
    /// outside every measured region in the paper).
    fn seed(&mut self, tasks: Vec<Task>);

    /// Enqueues `task` from `thread` at virtual time `now`; returns the
    /// cycles charged to the worker.
    fn enqueue(
        &mut self,
        thread: usize,
        task: Task,
        now: Cycle,
        mem: &mut MemoryHierarchy,
    ) -> Cycle;

    /// Attempts to dequeue for `thread` at `now`.
    fn dequeue(&mut self, thread: usize, now: Cycle, mem: &mut MemoryHierarchy)
        -> DequeueOutcome;

    /// Total tasks pending anywhere in the scheduler.
    fn pending(&self) -> usize;

    /// Scheduler-side statistics.
    fn stats(&self) -> SchedStats;

    /// Lets time-driven schedulers (the Minnow engine) advance background
    /// work up to `now`. Software schedulers do everything synchronously.
    fn tick(&mut self, _now: Cycle, _mem: &mut MemoryHierarchy) {}
}

/// Worklist-code IPC: scheduler code is pointer-chasing with compares; it
/// does not sustain the core's peak issue width.
const SCHED_IPC: u64 = 2;

/// The Galois-like software scheduler: policy + contention + cache traffic.
///
/// Threads are grouped into *sockets* of 8 (the paper's §6.2.1 topology
/// override treats the 64-core machine as 8 sockets x 8 cores); operations
/// serialize within a socket, and OBIM bucket-map changes additionally
/// serialize globally.
#[derive(Debug)]
pub struct SoftwareScheduler {
    worklist: Box<dyn Worklist + Send>,
    sockets: Vec<SharedResource>,
    threads_per_socket: usize,
    global: SharedResource,
    last_head_bucket: Option<u64>,
    stats: SchedStats,
}

impl SoftwareScheduler {
    /// Wraps a policy for `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(worklist: Box<dyn Worklist + Send>, threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        let threads_per_socket = 8;
        let sockets = threads.div_ceil(threads_per_socket);
        SoftwareScheduler {
            worklist,
            sockets: (0..sockets).map(|_| SharedResource::new(40)).collect(),
            threads_per_socket,
            global: SharedResource::new(60),
            last_head_bucket: None,
            stats: SchedStats::default(),
        }
    }

    /// The wrapped policy (for inspection in tests).
    pub fn worklist(&self) -> &dyn Worklist {
        self.worklist.as_ref()
    }

    fn socket_of(&self, thread: usize) -> usize {
        (thread / self.threads_per_socket).min(self.sockets.len() - 1)
    }

    /// Address of the cache line that an operation on `bucket` touches.
    fn bucket_line(bucket: u64) -> u64 {
        layout::WORKLIST_BASE + bucket * 64
    }
}

impl SchedulerModel for SoftwareScheduler {
    fn label(&self) -> String {
        format!("software({})", self.worklist.name())
    }

    fn seed(&mut self, tasks: Vec<Task>) {
        for t in tasks {
            self.worklist.push(t);
        }
        self.last_head_bucket = self.worklist.head_bucket();
    }

    fn enqueue(
        &mut self,
        thread: usize,
        task: Task,
        now: Cycle,
        mem: &mut MemoryHierarchy,
    ) -> Cycle {
        let cost_model = self.worklist.op_cost();
        let mut cycles = cost_model.enq_instrs / SCHED_IPC;
        self.stats.instrs += cost_model.enq_instrs;

        // Serialize on the socket's structure.
        let socket = self.socket_of(thread);
        let acq = self.sockets[socket].acquire(thread, now, cost_model.hold);
        cycles += acq.waited + cost_model.hold;
        self.stats.wait_cycles += acq.waited;

        // Touch the destination bucket's cache line (write: tail update).
        let bucket = self.worklist.bucket_of(&task);
        let line = Self::bucket_line(bucket.min(1 << 20));
        let access = mem.access(thread, line, AccessKind::Store, acq.start);
        cycles += access.latency;

        self.worklist.push(task);

        // OBIM bucket-map transition: creating a new head bucket serializes
        // globally (paper §3.1: "OBIM assumes changing buckets is rare").
        let head = self.worklist.head_bucket();
        if head.is_some() && head != self.last_head_bucket {
            let g = self.global.acquire(thread, now + cycles, 30);
            cycles += g.waited + 30;
            self.stats.wait_cycles += g.waited;
            self.last_head_bucket = head;
        }

        self.stats.enqueues += 1;
        self.stats.op_cycles += cycles;
        cycles
    }

    fn dequeue(
        &mut self,
        thread: usize,
        now: Cycle,
        mem: &mut MemoryHierarchy,
    ) -> DequeueOutcome {
        let cost_model = self.worklist.op_cost();
        let mut cycles = cost_model.deq_instrs / SCHED_IPC;
        self.stats.instrs += cost_model.deq_instrs;

        let socket = self.socket_of(thread);
        let acq = self.sockets[socket].acquire(thread, now, cost_model.hold);
        cycles += acq.waited + cost_model.hold;
        self.stats.wait_cycles += acq.waited;

        let head = self.worklist.head_bucket().unwrap_or(0);
        let line = Self::bucket_line(head.min(1 << 20));
        let access = mem.access(thread, line, AccessKind::Store, acq.start);
        cycles += access.latency;

        let task = self.worklist.pop();
        let new_head = self.worklist.head_bucket();
        if task.is_some() && new_head != self.last_head_bucket {
            // Bucket emptied: head moves, serializing on the bucket map.
            let g = self.global.acquire(thread, now + cycles, 30);
            cycles += g.waited + 30;
            self.stats.wait_cycles += g.waited;
            self.last_head_bucket = new_head;
        }

        if task.is_some() {
            self.stats.dequeues += 1;
        } else {
            self.stats.empty_dequeues += 1;
        }
        self.stats.op_cycles += cycles;
        DequeueOutcome { task, cost: cycles }
    }

    fn pending(&self) -> usize {
        self.worklist.len()
    }

    fn stats(&self) -> SchedStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worklist::PolicyKind;
    use minnow_sim::SimConfig;

    fn setup(threads: usize, kind: PolicyKind) -> (SoftwareScheduler, MemoryHierarchy) {
        let sched = SoftwareScheduler::new(kind.build(), threads);
        let mem = MemoryHierarchy::new(&SimConfig::small(threads.max(1)));
        (sched, mem)
    }

    #[test]
    fn enqueue_dequeue_roundtrip() {
        let (mut s, mut mem) = setup(2, PolicyKind::Fifo);
        let c = s.enqueue(0, Task::new(5, 7), 0, &mut mem);
        assert!(c > 0);
        assert_eq!(s.pending(), 1);
        let d = s.dequeue(1, 100, &mut mem);
        assert_eq!(d.task.unwrap().node, 7);
        assert!(d.cost > 0);
        assert_eq!(s.pending(), 0);
        let empty = s.dequeue(1, 200, &mut mem);
        assert!(empty.task.is_none());
        assert_eq!(s.stats().empty_dequeues, 1);
    }

    #[test]
    fn seeding_is_free() {
        let (mut s, _mem) = setup(1, PolicyKind::Obim(2));
        s.seed(vec![Task::new(1, 1), Task::new(2, 2)]);
        assert_eq!(s.pending(), 2);
        assert_eq!(s.stats().enqueues, 0);
    }

    #[test]
    fn contention_raises_op_cost_with_threads() {
        let mean_cost = |threads: usize| {
            let (mut s, mut mem) = setup(threads, PolicyKind::Fifo);
            // All threads bang on the worklist at the same virtual instant.
            for round in 0..50u64 {
                for t in 0..threads {
                    s.enqueue(t, Task::new(0, t as u32), round * 10, &mut mem);
                }
            }
            s.stats().mean_op_cost()
        };
        let one = mean_cost(1);
        let eight = mean_cost(8);
        assert!(
            eight > one * 1.5,
            "8 threads must contend: {one:.1} vs {eight:.1}"
        );
    }

    #[test]
    fn obim_bucket_transitions_serialize_globally() {
        let (mut s, mut mem) = setup(4, PolicyKind::Obim(0));
        // Every push opens a new, more urgent bucket -> global churn.
        let mut churn_cost = 0;
        for i in 0..20u64 {
            churn_cost += s.enqueue(0, Task::new(100 - i, i as u32), i * 5, &mut mem);
        }
        let (mut s2, mut mem2) = setup(4, PolicyKind::Obim(20));
        // One giant bucket: no transitions after the first.
        let mut flat_cost = 0;
        for i in 0..20u64 {
            flat_cost += s2.enqueue(0, Task::new(100 - i, i as u32), i * 5, &mut mem2);
        }
        assert!(
            churn_cost > flat_cost,
            "bucket churn must cost more: {churn_cost} vs {flat_cost}"
        );
    }

    #[test]
    fn label_names_policy() {
        let (s, _) = setup(1, PolicyKind::Lifo);
        assert_eq!(s.label(), "software(lifo)");
    }

    #[test]
    fn stats_mean_op_cost_handles_zero_ops() {
        let s = SchedStats::default();
        assert_eq!(s.mean_op_cost(), 0.0);
    }
}
