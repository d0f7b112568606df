//! Helpers every workload shares: the metric catalogs, the seed bank and
//! reference digests, host probes, and per-point aggregation.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use minnow_algos::WorkloadKind;
use minnow_bench::eval::EvalReport;
use minnow_bench::runner::{BenchRun, SchedSpec};
use minnow_runtime::sim_exec::RunReport;

use crate::report::{Identity, Metric, RunResult, Tally};
use crate::span::{closure_err, Trace, CLOSURE_TOLERANCE};

/// The end-to-end metrics every workload reports with tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
];

/// Trace-event categories the simulator emits; anything else is
/// counted as `other`.
pub const EVENT_CATEGORIES: [&str; 7] =
    ["cache", "dram", "exec", "noc", "prefetch", "sched", "task"];

/// The per-layer metrics every workload reports in a traced run (zero
/// where a metric does not apply to the workload; see the README).
pub fn per_layer_catalog() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| out.push((name.to_string(), unit));
    for layer in ["graph", "runtime", "bench", "serve", "explore"] {
        add(&format!("{layer}.self_s"), "s");
    }
    add("graph.gen_s", "s");
    add("graph.image_load_s", "s");
    add("runtime.run_s", "s");
    for kind in WorkloadKind::ALL {
        add(&format!("runtime.run_s.{}", kind.name()), "s");
    }
    add("runtime.ns_per_task", "ns");
    add("runtime.ns_per_access", "ns");
    add("runtime.pt_used", "count");
    add("runtime.front_used", "count");
    add("runtime.lane_used", "count");
    add("runtime.spec_attempts", "count");
    add("runtime.spec_commit_ratio", "ratio");
    add("runtime.front_wait_share", "ratio");
    add("runtime.sched.ops", "count");
    add("core.offload_extra_s", "s");
    add("core.wdp_extra_s", "s");
    add("core.prefetch_fills", "count");
    add("core.prefetch_efficiency", "ratio");
    add("bench.critical_point_s", "s");
    add("bench.pool_idle_s", "s");
    add("bench.serialize_s", "s");
    add("serve.parse_key_us", "us");
    add("serve.store_get_us", "us");
    add("serve.store_insert_us", "us");
    add("serve.report_json_us", "us");
    add("serve.transport_us", "us");
    for counter in [
        "hits",
        "misses",
        "coalesced",
        "rejected",
        "evictions",
        "sim_invocations",
    ] {
        add(&format!("serve.{counter}"), "count");
    }
    add("serve.store_file_bytes", "bytes");
    add("serve.qps", "1/s");
    add("serve.warm_p50_us", "us");
    add("serve.warm_tail_us", "us");
    add("serve.cold_p50_ms", "ms");
    add("serve.cold_tail_ms", "ms");
    add("explore.evals", "count");
    add("explore.sim_s", "s");
    add("explore.journal_append_us", "us");
    add("explore.frontier_s", "s");
    for counter in ["tasks", "instructions", "mem_accesses", "l2_misses"] {
        add(&format!("sim.{counter}"), "count");
    }
    add("sim.mpki", "ratio");
    for cat in EVENT_CATEGORIES.iter().chain(&["other"]) {
        add(&format!("trace.events.{cat}"), "count");
    }
    add("trace.wall_s", "s");
    add("trace.closure_err", "ratio");
    add("trace.overhead_s", "s");
    out
}

/// Per-layer values by name; [`Layers::metrics`] fills the rest of the
/// catalog with zeros.
#[derive(Debug, Default)]
pub struct Layers(pub BTreeMap<String, f64>);

impl Layers {
    /// Sets one value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// Adds to one value.
    pub fn add(&mut self, name: impl Into<String>, value: f64) {
        *self.0.entry(name.into()).or_insert(0.0) += value;
    }

    /// Every catalog metric, in catalog order.
    ///
    /// # Panics
    ///
    /// Panics on a value outside the catalog: a typo in a workload.
    pub fn metrics(&self) -> Vec<Metric> {
        let catalog = per_layer_catalog();
        for name in self.0.keys() {
            assert!(
                catalog.iter().any(|(n, _)| n == name),
                "per-layer metric `{name}` is not in the catalog"
            );
        }
        catalog
            .into_iter()
            .map(|(name, unit)| Metric {
                value: self.0.get(&name).copied().unwrap_or(0.0),
                name,
                unit,
            })
            .collect()
    }
}

/// The end-to-end metrics, in catalog order, from the five values.
pub fn end_to_end(
    setup_s: f64,
    wall_s: f64,
    peak_rss_mb: f64,
    p50_ms: f64,
    tail_ms: f64,
) -> Vec<Metric> {
    END_TO_END
        .iter()
        .zip([setup_s, wall_s, peak_rss_mb, p50_ms, tail_ms])
        .map(|(&(name, unit), value)| Metric {
            name: name.into(),
            value,
            unit,
        })
        .collect()
}

/// Input seeds of the main family. Generated inputs differ in size
/// from seed to seed by more than host noise (a fig16 sweep's simulated
/// tasks vary by 30% across seeds), so a run covers a whole family and
/// `--seed n` picks the family and its rotation: which input goes first
/// (and which one a workload with a single input uses).
pub const FAMILY: [u64; 4] = [0, 1, 2, 3];

/// The argument that selects the held-out family: inputs kept out of
/// all tuning, on which later claims are re-checked.
pub const HELD_OUT_SEED: u64 = 1009;

/// The held-out family.
pub const HELD_OUT_FAMILY: [u64; 4] = [1009, 1010, 1011, 1012];

/// The input seeds a `--seed` argument selects, in run order.
pub fn family(arg: u64) -> Vec<u64> {
    let base = if arg == HELD_OUT_SEED {
        HELD_OUT_FAMILY
    } else {
        FAMILY
    };
    let k = (arg % base.len() as u64) as usize;
    base[k..].iter().chain(&base[..k]).copied().collect()
}

/// Every seed the reference table covers.
pub fn reference_seeds() -> Vec<u64> {
    FAMILY.iter().chain(&HELD_OUT_FAMILY).copied().collect()
}

/// Reference digests recorded from the unchanged program:
/// `workload seed id digest` lines.
const REFERENCE: &str = include_str!("../reference.tsv");

/// The reference digest of one output, if recorded.
pub fn reference(workload: &str, seed: u64, id: &str) -> Option<&'static str> {
    REFERENCE.lines().find_map(|line| {
        let mut f = line.split('\t');
        match (f.next(), f.next(), f.next(), f.next()) {
            (Some(w), Some(s), Some(i), Some(d))
                if w == workload && s.parse() == Ok(seed) && i == id =>
            {
                Some(d)
            }
            _ => None,
        }
    })
}

/// The digest the reference table stores for a text.
pub fn digest(text: &str) -> String {
    format!("{:016x}", minnow_serve::store::fnv64(text.as_bytes()))
}

/// Checks one output against the reference table.
pub fn check_output(workload: &str, seed: u64, id: &str, text: &str) -> crate::report::OpOutcome {
    use crate::report::OpOutcome;
    match reference(workload, seed, id) {
        Some(want) if want == digest(text) => OpOutcome::Ok,
        Some(want) => {
            OpOutcome::Mismatch(format!("{id}: digest {} != reference {want}", digest(text)))
        }
        None => OpOutcome::Mismatch(format!("{id}: no reference digest for seed {seed}")),
    }
}

/// Host threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set (`VmHWM`) of a process in MB (2^20 bytes).
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time the hypervisor took from this machine so far (`steal` in
/// `/proc/stat`, counted in 1/100 s), in seconds; 0 where unknown. The
/// run reports how much was stolen while it ran, since that time shows
/// up in every wall it measures.
pub fn host_steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|cpu| cpu.split_whitespace().nth(8))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Share of the host's CPU time the hypervisor may take during a unit
/// before the unit's timings are discarded. A quiet host loses about
/// 0.2%; a contended one loses tens of percent in bursts, and a unit
/// whose threads wait on each other slows by more than that.
const STEAL_LIMIT: f64 = 0.02;

/// Stolen time below this never discards a unit: `/proc/stat` counts
/// it in 10 ms ticks, too coarse for short units on their own.
const STEAL_FLOOR_S: f64 = 0.05;

/// Discards the timings of units the hypervisor disturbed, so that a
/// burst of stolen time does not become a reading. A disturbed unit is
/// run again, at most half as many times as the run has units (but at
/// least twice); after that every unit counts, disturbed or not. Outputs
/// of discarded units are still checked.
#[derive(Debug)]
pub struct StealGuard {
    budget: usize,
    /// Units run again so far.
    pub redone: usize,
    mark: f64,
}

impl StealGuard {
    /// A guard for a run of `units` units.
    pub fn new(units: usize) -> StealGuard {
        StealGuard {
            budget: units.div_ceil(2).max(2),
            redone: 0,
            mark: host_steal_s(),
        }
    }

    /// Called after each unit, with its wall: whether to discard its
    /// timings and run it again.
    pub fn redo(&mut self, wall: f64) -> bool {
        let now = host_steal_s();
        let stolen = now - std::mem::replace(&mut self.mark, now);
        let disturbed = stolen > (STEAL_LIMIT * wall * nproc() as f64).max(STEAL_FLOOR_S);
        if disturbed && self.redone < self.budget {
            self.redone += 1;
            true
        } else {
            false
        }
    }

    /// Starts timing the next unit (after work between units).
    pub fn reset(&mut self) {
        self.mark = host_steal_s();
    }
}

/// Fewest setups a run times.
const SETUP_MIN: usize = 3;

/// Setups stop once they have taken this long in total (or at `max`),
/// so a cheap setup is sampled often enough for a steady median.
const SETUP_BUDGET_S: f64 = 1.0;

/// Most setups a run times, unless a workload caps them lower.
pub const SETUP_MAX: usize = 31;

/// Times setups (`f(i)` runs setup `i` and returns its seconds), at
/// most `max` of them, and returns each one's seconds.
///
/// # Errors
///
/// The first setup error.
pub fn timed_setups(
    max: usize,
    mut f: impl FnMut(usize) -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let mut out: Vec<f64> = Vec::new();
    while out.len() < SETUP_MIN || (out.iter().sum::<f64>() < SETUP_BUDGET_S && out.len() < max) {
        out.push(f(out.len())?);
    }
    Ok(out)
}

/// Units of work a run measures: `seconds` over the unit's nominal cost
/// on a 2-core host, at least `min`. A function of the arguments only,
/// so every run of a workload at the same `--seconds` takes the same
/// number of samples and reports the same percentiles.
pub fn units(seconds: u64, nominal_s: f64, min: usize) -> usize {
    ((seconds as f64 / nominal_s).round() as usize).max(min)
}

/// The commit the program was built from, when the checkout is a git
/// repository.
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|c| !c.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Build profile of this binary (and of the program linked into it).
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Run arguments shared by every workload.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Input seeds, in run order (see [`family`]).
    pub seeds: Vec<u64>,
    /// The first input seed: the one a single-input workload uses.
    pub seed: u64,
    /// Measured seconds asked for.
    pub seconds: u64,
    /// Traced run.
    pub trace: bool,
    /// Scratch directory of this run (inside the checkout).
    pub dir: PathBuf,
}

impl Ctx {
    /// A file in the run's scratch directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Builds a result with provenance filled in.
    pub fn result(
        &self,
        identity: Identity,
        tally: Tally,
        correct: bool,
        metrics: Vec<Metric>,
    ) -> RunResult {
        RunResult {
            identity,
            commit: commit(),
            profile: profile(),
            correct: correct && tally.failed == 0,
            tally,
            metrics,
            notes: Vec::new(),
            spans: String::new(),
        }
    }
}

impl Ctx {
    /// Builds a traced run's result: the layers' self times in `trace`,
    /// how far they miss the traced `wall`, the tracing overhead against
    /// the `untraced` wall of the same work, and the spans. The run is
    /// not correct unless the split closes.
    pub fn traced_result(
        &self,
        identity: Identity,
        tally: Tally,
        mut layers: Layers,
        trace: &Trace,
        wall: f64,
        untraced: f64,
    ) -> RunResult {
        let split = trace.layer_self();
        for (layer, s) in &split {
            layers.set(format!("{layer}.self_s"), *s);
        }
        let err = closure_err(wall, &split);
        layers.set("trace.wall_s", wall);
        layers.set("trace.closure_err", err);
        layers.set("trace.overhead_s", wall - untraced);
        let closes = err <= CLOSURE_TOLERANCE && trace.min_self() > -1e-3;
        let mut r = self.result(identity, tally, closes, layers.metrics());
        r.spans = trace.jsonl();
        r.notes.push((
            "closure".into(),
            format!("{err:.4} of {wall:.3} s (tolerance {CLOSURE_TOLERANCE})"),
        ));
        r
    }
}

/// A generated input: workload, scale, seed.
pub type InputKey = (WorkloadKind, f64, u64);

/// The distinct generated inputs of some runs, in first-use order.
pub fn distinct_inputs<'a>(runs: impl IntoIterator<Item = &'a BenchRun>) -> Vec<InputKey> {
    let mut out = Vec::new();
    for run in runs {
        let key = (run.kind, run.scale, run.seed);
        if !out.contains(&key) {
            out.push(key);
        }
    }
    out
}

/// Generates inputs and returns the seconds it took: through
/// `WorkloadKind::input`, which fills the process-wide cache the runs
/// read, or (`cached` false) through the same generator uncached.
pub fn generate(inputs: &[InputKey], cached: bool) -> f64 {
    let t = std::time::Instant::now();
    for &(kind, scale, seed) in inputs {
        if cached {
            kind.input(scale, seed);
        } else {
            std::hint::black_box(kind.generate_input(scale, seed));
        }
    }
    t.elapsed().as_secs_f64()
}

/// Recreates a directory, empty.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("{}: {e}", dir.display())),
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

/// Simulated counts summed over reports: the denominators that a
/// host-only change must leave exactly equal.
pub fn sim_counts(layers: &mut Layers, reports: &[EvalReport]) {
    let sum = |f: fn(&EvalReport) -> u64| reports.iter().map(f).sum::<u64>();
    let (instructions, l2_misses) = (sum(|r| r.instructions), sum(|r| r.l2_misses));
    let (fills, used) = (sum(|r| r.prefetch_fills), sum(|r| r.prefetch_used));
    layers.set("sim.tasks", sum(|r| r.tasks) as f64);
    layers.set("sim.instructions", instructions as f64);
    layers.set("sim.mem_accesses", sum(|r| r.mem_accesses) as f64);
    layers.set("sim.l2_misses", l2_misses as f64);
    layers.set(
        "sim.mpki",
        if instructions == 0 {
            0.0
        } else {
            l2_misses as f64 * 1000.0 / instructions as f64
        },
    );
    layers.set("core.prefetch_fills", fills as f64);
    layers.set(
        "core.prefetch_efficiency",
        if fills == 0 {
            0.0
        } else {
            used as f64 / fills as f64
        },
    );
    layers.set(
        "runtime.sched.ops",
        sum(|r| r.enqueues + r.dequeues + r.empty_dequeues) as f64,
    );
}

/// One simulated point as the per-layer split sees it.
pub struct PointTime<'a> {
    /// Workload label (`BFS`, ...).
    pub kind: WorkloadKind,
    /// Scheduler class: `software`, `minnow` or `wdp`.
    pub class: &'static str,
    /// Host seconds the point took.
    pub wall_s: f64,
    /// The simulation report.
    pub report: &'a EvalReport,
}

/// Host-time split of simulated points: per-algorithm run time, time
/// per simulated task and access, and the cost of offload and WDP.
pub fn run_split(layers: &mut Layers, points: &[PointTime]) {
    let run_s: f64 = points.iter().map(|p| p.wall_s).sum();
    let tasks: u64 = points.iter().map(|p| p.report.tasks).sum();
    let accesses: u64 = points.iter().map(|p| p.report.mem_accesses).sum();
    layers.set("runtime.run_s", run_s);
    for p in points {
        layers.add(format!("runtime.run_s.{}", p.kind.name()), p.wall_s);
    }
    layers.set(
        "runtime.ns_per_task",
        if tasks == 0 {
            0.0
        } else {
            run_s * 1e9 / tasks as f64
        },
    );
    layers.set(
        "runtime.ns_per_access",
        if accesses == 0 {
            0.0
        } else {
            run_s * 1e9 / accesses as f64
        },
    );
    let class_s = |c: &str| {
        points
            .iter()
            .filter(|p| p.class == c)
            .map(|p| p.wall_s)
            .sum::<f64>()
    };
    let has = |c: &str| points.iter().any(|p| p.class == c);
    if has("software") && has("minnow") {
        layers.set(
            "core.offload_extra_s",
            class_s("minnow") - class_s("software"),
        );
    }
    if has("minnow") && has("wdp") {
        layers.set("core.wdp_extra_s", class_s("wdp") - class_s("minnow"));
    }
    let reports: Vec<EvalReport> = points.iter().map(|p| p.report.clone()).collect();
    sim_counts(layers, &reports);
}

/// The planner's split and speculation counters, averaged per point
/// (split) or summed (speculation), from full run reports.
pub fn planner_split(layers: &mut Layers, reports: &[&RunReport]) {
    let n = reports.len().max(1) as f64;
    let mean = |f: fn(&RunReport) -> usize| reports.iter().map(|r| f(r) as f64).sum::<f64>() / n;
    layers.set("runtime.pt_used", mean(|r| r.point_threads_used));
    layers.set("runtime.front_used", mean(|r| r.front_threads_used));
    layers.set("runtime.lane_used", mean(|r| r.lane_threads_used));
    let attempts: u64 = reports.iter().map(|r| r.spec_attempts).sum();
    let commits: u64 = reports.iter().map(|r| r.spec_commits).sum();
    layers.set("runtime.spec_attempts", attempts as f64);
    layers.set(
        "runtime.spec_commit_ratio",
        if attempts == 0 {
            0.0
        } else {
            commits as f64 / attempts as f64
        },
    );
    let hold: u64 = reports.iter().flat_map(|r| &r.front_hold_us).sum();
    let wait: u64 = reports.iter().flat_map(|r| &r.front_wait_us).sum();
    layers.set(
        "runtime.front_wait_share",
        if hold + wait == 0 {
            0.0
        } else {
            wait as f64 / (hold + wait) as f64
        },
    );
}

/// The scheduler class of a run: `software`, `wdp` (Minnow with
/// prefetch credits) or `minnow`.
pub fn class_of(run: &BenchRun) -> &'static str {
    match run.sched {
        SchedSpec::Software(_) => "software",
        SchedSpec::Minnow {
            wdp_credits: Some(_),
        } => "wdp",
        _ => "minnow",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::valid_name;

    #[test]
    fn catalogs_hold_only_legal_unique_names() {
        let mut names: Vec<String> = per_layer_catalog().into_iter().map(|(n, _)| n).collect();
        names.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate metric name");
    }

    #[test]
    fn benchmark_json_lists_the_catalogs() {
        let doc = include_str!("../../BENCHMARK.json");
        for (name, unit) in per_layer_catalog() {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
            assert!(
                doc.contains(&entry),
                "BENCHMARK.json lacks per-layer {name}"
            );
        }
        for (name, unit) in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"lower\", \"bound\": "
            );
            assert!(
                doc.contains(&entry),
                "BENCHMARK.json lacks end-to-end {name}"
            );
        }
        assert_eq!(
            doc.matches("\"name\":").count(),
            per_layer_catalog().len() + END_TO_END.len() + 4
        );
    }

    #[test]
    fn seeds_pick_a_family_and_its_rotation() {
        assert_eq!(family(0), vec![0, 1, 2, 3]);
        assert_eq!(family(6), vec![2, 3, 0, 1]);
        assert_eq!(family(HELD_OUT_SEED), vec![1010, 1011, 1012, 1009]);
        for arg in [0, 7, 12345, u64::MAX] {
            assert!(family(arg).iter().all(|s| reference_seeds().contains(s)));
        }
    }

    #[test]
    fn units_depend_only_on_the_arguments() {
        assert_eq!(units(10, 2.5, 1), 4);
        assert_eq!(units(1, 14.0, 1), 1);
        assert_eq!(units(10, 0.8, 3), 13);
    }
}
