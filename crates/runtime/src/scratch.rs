//! Reusable per-run scratch state for the executors' task-charging loop.
//!
//! Every executor (software, Minnow, WDP, BSP) repeats the same inner
//! sequence per task: record the operator's trace into a [`TaskCtx`],
//! replay the recorded accesses against the [`MemoryHierarchy`], collect
//! the delinquent-load latencies, and fold the result through the
//! [`CoreModel`]. Done naively that costs several heap allocations per
//! task (fresh `TaskCtx` buffers, a fresh delinquent vector, a fresh
//! split buffer). [`TaskScratch`] owns all of those buffers once per run
//! and clears them between tasks, so steady-state task charging performs
//! no heap allocation at all — `tests/alloc_steady_state.rs` pins that
//! with a counting global allocator.
//!
//! [`charge_task`] is the shared charging path itself; keeping it in one
//! place guarantees the asynchronous and BSP executors charge identically.

use minnow_graph::AddressMap;
use minnow_sim::core::{CoreModel, TaskCycles};
use minnow_sim::cycles::Cycle;
use minnow_sim::hierarchy::{AccessKind, CacheLevel, MemoryHierarchy};
use minnow_sim::observer::{HwPrefetcher, MemoryImage};

use crate::op::TaskCtx;
use crate::task::Task;

use minnow_sim::core::TaskTrace;

/// Per-run scratch buffers threaded through an executor's task loop.
///
/// Construct once before the loop, call [`TaskScratch::begin_task`] per
/// task, run the operator against [`TaskScratch::ctx`], then charge with
/// [`charge_task`]. Nothing here affects simulated time — it is purely a
/// host-side allocation-reuse vehicle.
#[derive(Debug)]
pub struct TaskScratch {
    /// The operator-facing recorder (access trace, push list).
    pub ctx: TaskCtx,
    /// The core-model input; its delinquent-latency vector is the reused
    /// buffer the hierarchy's resolved miss latencies land in.
    pub trace: TaskTrace,
    /// Split buffer for the enqueue loop ([`crate::split::split_task_into`]).
    pub parts: Vec<Task>,
}

impl TaskScratch {
    /// Fresh scratch for one run.
    pub fn new(map: AddressMap, count_atomics_as_stores: bool) -> Self {
        TaskScratch {
            ctx: TaskCtx::new(map, count_atomics_as_stores),
            trace: TaskTrace::default(),
            parts: Vec::new(),
        }
    }

    /// Clears all per-task state, keeping every allocation.
    #[inline]
    pub fn begin_task(&mut self) {
        self.ctx.reset();
    }
}

/// Counters [`charge_task`] accumulates for the run report.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChargeCounters {
    /// Delinquent *loads* observed (first-touch loads that left the L1).
    pub delinquent_loads: u64,
    /// Total loads (first-touch + ordinary).
    pub total_loads: u64,
}

/// Replays the trace recorded in `scratch.ctx` against the hierarchy
/// starting at `t0` on `thread`, gathers delinquent latencies into the
/// reused trace buffer, and maps the task through the core model.
///
/// Identical in behavior to the loop previously duplicated inside
/// `sim_exec::run_with_prefetcher` and `bsp::run_bsp`: accesses issue at
/// `t0 + 2k`, loads feed the optional hardware prefetcher, and first
/// touches that left the L1 count as delinquent.
#[inline]
pub fn charge_task(
    scratch: &mut TaskScratch,
    mem: &mut MemoryHierarchy,
    core_model: &CoreModel,
    thread: usize,
    t0: Cycle,
    hw_prefetcher: &mut Option<(&mut dyn HwPrefetcher, &dyn MemoryImage)>,
    counters: &mut ChargeCounters,
) -> TaskCycles {
    scratch.trace.delinquent_latencies.clear();
    let ctx = &scratch.ctx;
    let delinquent = &mut scratch.trace.delinquent_latencies;
    let mut first_touch_loads = 0u64;
    for (k, acc) in ctx.accesses().iter().enumerate() {
        let at = t0 + 2 * k as Cycle;
        let res = mem.access(thread, acc.addr, acc.kind, at);
        if acc.kind == AccessKind::Load {
            first_touch_loads += u64::from(acc.first_touch);
            if let Some((hw, image)) = hw_prefetcher.as_mut() {
                hw.on_demand_load(thread, acc.addr, acc.value, at, mem, *image);
            }
        }
        if acc.first_touch && res.level > CacheLevel::L1 {
            delinquent.push(res.latency);
            if acc.kind == AccessKind::Load {
                counters.delinquent_loads += 1;
            }
        }
    }
    counters.total_loads += first_touch_loads + ctx.other_loads();

    scratch.trace.instructions = ctx.instrs().max(1);
    scratch.trace.branches = ctx.branches();
    scratch.trace.atomics = ctx.atomics();
    scratch.trace.other_loads = ctx.other_loads();
    scratch.trace.stores = ctx.stores();
    core_model.task_cycles(&scratch.trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minnow_sim::config::SimConfig;
    use minnow_sim::core::CoreMode;

    #[test]
    fn charge_matches_a_fresh_trace() {
        let cfg = SimConfig::small(1);
        let core_model = CoreModel::new(cfg.ooo, CoreMode::realistic(), 0.05);

        // Record the same synthetic task twice: once through the scratch
        // path, once by hand against a second identical hierarchy.
        let record = |ctx: &mut TaskCtx| {
            ctx.load_node(3);
            ctx.load_node(90);
            ctx.add_branches(2);
            ctx.add_instrs(20);
            ctx.atomic_node(90);
        };

        let mut scratch = TaskScratch::new(AddressMap::standard(), false);
        let mut mem = MemoryHierarchy::new(&cfg);
        let mut counters = ChargeCounters::default();
        scratch.begin_task();
        record(&mut scratch.ctx);
        let got = charge_task(
            &mut scratch,
            &mut mem,
            &core_model,
            0,
            0,
            &mut None,
            &mut counters,
        );

        let mut mem2 = MemoryHierarchy::new(&cfg);
        let mut ctx = TaskCtx::new(AddressMap::standard(), false);
        record(&mut ctx);
        let mut delinquent = Vec::new();
        for (k, acc) in ctx.accesses().iter().enumerate() {
            let res = mem2.access(0, acc.addr, acc.kind, 2 * k as Cycle);
            if acc.first_touch && res.level > CacheLevel::L1 {
                delinquent.push(res.latency);
            }
        }
        let trace = TaskTrace {
            instructions: ctx.instrs().max(1),
            branches: ctx.branches(),
            atomics: ctx.atomics(),
            delinquent_latencies: delinquent,
            other_loads: ctx.other_loads(),
            stores: ctx.stores(),
        };
        assert_eq!(got, core_model.task_cycles(&trace));
        assert!(counters.total_loads > 0);
    }

    #[test]
    fn begin_task_clears_recordings_but_keeps_mode() {
        let mut scratch = TaskScratch::new(AddressMap::standard(), true);
        scratch.ctx.atomic_node(1); // demoted to store in serial mode
        scratch.ctx.push(Task::new(0, 1));
        assert_eq!(scratch.ctx.stores(), 1);
        scratch.begin_task();
        assert_eq!(scratch.ctx.stores(), 0);
        assert!(scratch.ctx.pushes().is_empty());
        assert!(scratch.ctx.accesses().is_empty());
        scratch.ctx.atomic_node(2);
        assert_eq!(scratch.ctx.atomics(), 0, "serial-baseline mode survives");
        assert_eq!(scratch.ctx.stores(), 1);
    }
}
