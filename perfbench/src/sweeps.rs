//! The two sweep workloads.
//!
//! * `sweep-fig16` runs the fig16 sweep (7 algorithms x software,
//!   minnow, wdp) at scale 0.3 on a pool as wide as the host, one host
//!   thread per point. The simulator's hot path does nearly all the work.
//! * `point-rmat16` runs the smoke sweep's BFS points one at a time on a
//!   scale-16 RMAT image, each with a point budget of the host's
//!   threads, so the intra-point planner, weave and speculation do the
//!   work and the pool idles.
//!
//! One unit of work is the sweep plus its artifacts (the bench document
//! and `write_artifacts`), as `minnow-sweep` produces them.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

use minnow_bench::eval::EvalReport;
use minnow_bench::runner::InputSpec;
use minnow_bench::sweep::{
    run_sweep, run_sweep_observed, PointResult, Sweep, SweepConfig, SweepHooks, SweepParams,
    SweepResult,
};
use minnow_graph::gen::rmat::{self, RmatConfig};
use minnow_graph::ingest::{ingest_file_to_image, IngestOptions};
use minnow_sim::trace::Tracer;

use crate::common::StealGuard;
use crate::common::{
    check_output, class_of, distinct_inputs, end_to_end, fresh_dir, generate, nproc, peak_rss_mb,
    planner_split, run_split, timed_setups, units, Ctx, Layers, PointTime, EVENT_CATEGORIES,
    SETUP_MAX,
};
use crate::report::{family_wall, median, tail, Identity, OpOutcome, RunResult, Tally};
use crate::span::Trace;

/// Input scale of the fig16 sweep.
const FIG16_SCALE: f64 = 0.3;

/// Nominal host seconds of one fig16 unit on a 2-core host.
const FIG16_UNIT_S: f64 = 3.8;

/// RMAT scale and edge factor of the `point-rmat16` image.
const RMAT_SCALE: u32 = 16;
const RMAT_EDGE_FACTOR: usize = 16;

/// Nominal host seconds of one `point-rmat16` unit on a 2-core host.
const POINT_UNIT_S: f64 = 14.0;

/// Most image loads a run times: each loaded image stays mapped.
const IMAGE_SETUP_MAX: usize = 5;

/// Events buffered per traced point when counting trace categories;
/// the rest are counted as `other`.
const EVENT_CAP: usize = 1 << 21;

/// Runs one more setup through the uncached path, recording its spans.
type Resetup = Box<dyn FnMut(&mut Trace) -> Result<(), String>>;

/// A prepared sweep workload.
struct Plan {
    /// One sweep per input seed, in run order.
    sweeps: Vec<(u64, Sweep)>,
    cfg: SweepConfig,
    /// Scale recorded in the identity (the RMAT scale for the image).
    scale: f64,
    unit_s: f64,
    /// Seconds of each timed setup.
    setup: Vec<f64>,
    /// One more setup, for the traced window.
    resetup: Resetup,
    /// The per-layer metric the setup's time goes to.
    setup_metric: &'static str,
    /// Count trace-event categories with `execute_traced`.
    count_events: bool,
}

/// Runs a sweep workload by name.
pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    measure(ctx, plan(ctx)?)
}

/// The reference outputs of a sweep workload: each point's JSONL
/// record, by point id. Records do not depend on host threading, so the
/// points run one host thread each.
pub fn reference(ctx: &Ctx) -> Result<Vec<(String, String)>, String> {
    let mut plan = plan(ctx)?;
    plan.cfg.point_threads = 1;
    let result = run_sweep(&plan.sweeps[0].1, &plan.cfg);
    Ok(result
        .points
        .iter()
        .zip(result.jsonl().lines())
        .map(|(p, line)| (p.id.clone(), line.to_string()))
        .collect())
}

fn plan(ctx: &Ctx) -> Result<Plan, String> {
    match ctx.workload.as_str() {
        "sweep-fig16" => Ok(plan_fig16(ctx)),
        "point-rmat16" => plan_rmat16(ctx),
        other => Err(format!("not a sweep workload: {other}")),
    }
}

/// `sweep-fig16`.
fn plan_fig16(ctx: &Ctx) -> Plan {
    let sweeps: Vec<(u64, Sweep)> = ctx
        .seeds
        .iter()
        .map(|&seed| {
            let params = SweepParams {
                scale: FIG16_SCALE,
                seed,
                headline_threads: 16,
                max_threads: 64,
            };
            (seed, Sweep::fig16(&params))
        })
        .collect();
    // The first setup fills the process-wide input cache the sweeps
    // read; the others regenerate through the same uncached generator.
    let inputs = distinct_inputs(sweeps.iter().flat_map(|(_, s)| &s.points).map(|p| &p.run));
    let setup =
        timed_setups(SETUP_MAX, |i| Ok(generate(&inputs, i == 0))).expect("generation cannot fail");
    // The traced window regenerates the inputs of the sweep it runs.
    let first = distinct_inputs(sweeps[0].1.points.iter().map(|p| &p.run));
    let resetup = Box::new(move |trace: &mut Trace| {
        for &(kind, scale, seed) in &first {
            trace.time(
                "graph",
                &format!("generate_input.{}", kind.name()),
                None,
                || std::hint::black_box(kind.generate_input(scale, seed)),
            );
        }
        Ok(())
    });
    Plan {
        sweeps,
        cfg: SweepConfig::serial().with_threads(nproc()),
        scale: FIG16_SCALE,
        unit_s: FIG16_UNIT_S,
        setup,
        resetup,
        setup_metric: "graph.gen_s",
        count_events: true,
    }
}

/// Writes the RMAT edge samples `minnow-ingest --gen rmat:16:16` makes
/// and ingests them the way its hint says: symmetrized, deduplicated,
/// without self-loops, over all `2^16` nodes.
fn build_image(ctx: &Ctx, out: &Path) -> Result<(), String> {
    use std::io::Write;
    let cfg = RmatConfig::graph500(RMAT_SCALE, RMAT_EDGE_FACTOR);
    let edges = ctx.path("rmat16.g500");
    let file = std::fs::File::create(&edges).map_err(|e| format!("{}: {e}", edges.display()))?;
    let mut w = std::io::BufWriter::new(file);
    let mut err = None;
    rmat::for_each_edge(&cfg, ctx.seed, |u, v| {
        if err.is_none() {
            if let Err(e) = w
                .write_all(&u64::from(u).to_le_bytes())
                .and_then(|()| w.write_all(&u64::from(v).to_le_bytes()))
            {
                err = Some(e);
            }
        }
    });
    if let Some(e) = err {
        return Err(format!("{}: {e}", edges.display()));
    }
    w.flush().map_err(|e| format!("{}: {e}", edges.display()))?;
    drop(w);
    let opts = IngestOptions {
        dedup: true,
        drop_self_loops: true,
        symmetrize: true,
        nodes_hint: Some(cfg.nodes() as u64),
        temp_dir: Some(ctx.dir.clone()),
        ..IngestOptions::default()
    };
    ingest_file_to_image(&edges, None, out, &opts).map_err(|e| format!("ingest: {e}"))?;
    std::fs::remove_file(&edges).map_err(|e| format!("{}: {e}", edges.display()))
}

/// `point-rmat16`.
fn plan_rmat16(ctx: &Ctx) -> Result<Plan, String> {
    // One image file per load and seed: the program caches loaded files
    // by path, so every timed load reads a path it has not seen before.
    let (dir, seed) = (ctx.dir.clone(), ctx.seed);
    let image = move |i: usize| dir.join(format!("rmat16-s{seed}-{i}.mcsr"));
    let first = image(0);
    build_image(ctx, &first)?;
    let copy = move |i: usize| -> Result<PathBuf, String> {
        let path = image(i);
        if i > 0 {
            std::fs::copy(image(0), &path).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        Ok(path)
    };
    let params = SweepParams {
        scale: FIG16_SCALE,
        seed: ctx.seed,
        headline_threads: 16,
        max_threads: 64,
    };
    let sweep = Sweep::smoke(&params);
    let cfg = SweepConfig::serial()
        .with_point_threads(nproc())
        .with_filter("/BFS/")
        .with_input(InputSpec::new(&first));
    let probe = sweep.points[0].run.clone();
    let load = move |path: &PathBuf| {
        let mut run = probe.clone();
        run.input = Some(InputSpec::new(path));
        run.try_input().map(|g| g.nodes())
    };
    let setup = timed_setups(IMAGE_SETUP_MAX, |i| {
        let img = copy(i)?;
        let t = Instant::now();
        load(&img)?;
        Ok(t.elapsed().as_secs_f64())
    })?;
    let mut next = setup.len();
    let resetup = Box::new(move |trace: &mut Trace| {
        let img = copy(next)?;
        next += 1;
        trace
            .time("graph", "try_input", None, || load(&img))
            .0
            .map(|_| ())
    });
    Ok(Plan {
        sweeps: vec![(ctx.seed, sweep)],
        cfg,
        scale: f64::from(RMAT_SCALE),
        unit_s: POINT_UNIT_S,
        setup,
        resetup,
        setup_metric: "graph.image_load_s",
        count_events: false,
    })
}

/// Runs one unit (sweep + artifacts); with a trace, records the sweep,
/// its pool lanes and points, and the serialization as spans.
fn unit(
    plan: &Plan,
    sweep: &Sweep,
    dir: &Path,
    mut trace: Option<&mut Trace>,
) -> Result<(SweepResult, f64, f64), String> {
    let t0 = Instant::now();
    let result = match trace.as_deref_mut() {
        None => run_sweep(sweep, &plan.cfg),
        Some(trace) => {
            let ends: Mutex<Vec<(ThreadId, Instant, f64, String)>> = Mutex::new(Vec::new());
            let hook = |p: &PointResult| {
                let end = Instant::now();
                ends.lock().expect("hook lock").push((
                    std::thread::current().id(),
                    end,
                    p.wall.as_secs_f64(),
                    p.id.clone(),
                ));
            };
            let hooks = SweepHooks {
                cancel: None,
                on_point: Some(&hook),
            };
            let start = trace.now();
            let result = run_sweep_observed(sweep, &plan.cfg, &hooks);
            let dur = trace.now() - start;
            let root = trace.push("bench", "run_sweep_observed", None, start, dur, 1.0);
            let w = 1.0 / result.pool_threads as f64;
            let mut lanes: Vec<(ThreadId, usize)> = Vec::new();
            for (tid, end, wall, id) in ends.into_inner().expect("hook lock") {
                let lane = match lanes.iter().find(|(t, _)| *t == tid) {
                    Some(&(_, lane)) => lane,
                    None => {
                        let lane = trace.push("bench", "pool_lane", Some(root), start, dur, w);
                        lanes.push((tid, lane));
                        lane
                    }
                };
                trace.push("runtime", id, Some(lane), trace.at(end) - wall, wall, w);
            }
            for _ in lanes.len()..result.pool_threads {
                trace.push("bench", "pool_lane", Some(root), start, dur, w);
            }
            result
        }
    };
    let s0 = Instant::now();
    let doc = result.bench_json() + "\n";
    std::fs::write(dir.join("bench.json"), doc).map_err(|e| format!("bench.json: {e}"))?;
    result
        .write_artifacts(dir)
        .map_err(|e| format!("artifacts: {e}"))?;
    let serialize_s = s0.elapsed().as_secs_f64();
    if let Some(trace) = trace {
        trace.push("bench", "serialize", None, trace.at(s0), serialize_s, 1.0);
    }
    Ok((result, t0.elapsed().as_secs_f64(), serialize_s))
}

/// Checks every point's JSONL record against the reference table; a
/// timed-out point fails too.
fn check(ctx: &Ctx, seed: u64, result: &SweepResult, tally: &mut Tally) {
    let jsonl = result.jsonl();
    for (point, line) in result.points.iter().zip(jsonl.lines()) {
        let outcome = if point.report.timed_out {
            OpOutcome::Error(format!("{} timed out", point.id))
        } else {
            check_output(&ctx.workload, seed, &point.id, line)
        };
        tally.record(outcome);
    }
}

/// The identity of the sweeps that ran (one result per input seed).
fn identity(ctx: &Ctx, plan: &Plan, results: &[&SweepResult]) -> Identity {
    Identity {
        workload: ctx.workload.clone(),
        scale: plan.scale,
        seeds: plan
            .sweeps
            .iter()
            .take(results.len())
            .map(|(s, _)| *s)
            .collect(),
        points: results.iter().map(|r| r.points.len() as u64).sum(),
        total_tasks: results
            .iter()
            .flat_map(|r| &r.points)
            .map(|p| p.report.tasks)
            .sum(),
        nproc: nproc() as u64,
    }
}

fn measure(ctx: &Ctx, mut plan: Plan) -> Result<RunResult, String> {
    let art = ctx.path("artifacts");
    fresh_dir(&art)?;
    let mut tally = Tally::default();
    let setup_s = median(&plan.setup).expect("at least one setup");
    if !ctx.trace {
        let mut walls = Vec::new();
        let mut point_ms = Vec::new();
        let mut firsts: Vec<SweepResult> = Vec::new();
        let n = plan.sweeps.len();
        let total = units(ctx.seconds, plan.unit_s * n as f64, 1) * n;
        let mut steal = StealGuard::new(total);
        while walls.len() < total {
            let i = walls.len();
            let (seed, sweep) = &plan.sweeps[i % n];
            steal.reset();
            let (result, wall, _) = unit(&plan, sweep, &art, None)?;
            let redo = steal.redo(wall);
            check(ctx, *seed, &result, &mut tally);
            if redo {
                continue;
            }
            walls.push(wall);
            point_ms.extend(result.points.iter().map(|p| p.wall.as_secs_f64() * 1e3));
            if i < n {
                firsts.push(result);
            }
        }
        let t = tail(&point_ms).expect("points ran");
        let metrics = end_to_end(
            setup_s,
            family_wall(&walls, plan.sweeps.len()).expect("units ran"),
            peak_rss_mb("self"),
            median(&point_ms).expect("points ran"),
            t.value,
        );
        let mut r = ctx.result(
            identity(ctx, &plan, &firsts.iter().collect::<Vec<_>>()),
            tally,
            true,
            metrics,
        );
        r.notes.push(("units".into(), walls.len().to_string()));
        r.notes
            .push(("units_redone".into(), steal.redone.to_string()));
        r.notes
            .push(("unit_walls_s".into(), format!("{walls:.3?}")));
        r.notes
            .push(("op_tail".into(), format!("p{} of {} points", t.p, t.n)));
        return Ok(r);
    }

    // Traced run: one untraced unit, then the same work (one setup
    // through the uncached path, the sweep, the artifacts) under spans.
    let u0 = Instant::now();
    let mut scratch = Trace::default();
    (plan.resetup)(&mut scratch)?;
    let (seed, sweep) = &plan.sweeps[0];
    let (plain, _, _) = unit(&plan, sweep, &art, None)?;
    let untraced_s = u0.elapsed().as_secs_f64();
    check(ctx, *seed, &plain, &mut tally);

    let mut trace = Trace::default();
    let w0 = Instant::now();
    (plan.resetup)(&mut trace)?;
    let (result, unit_wall, serialize_s) = unit(&plan, sweep, &art, Some(&mut trace))?;
    let wall = w0.elapsed().as_secs_f64();
    check(ctx, *seed, &result, &mut tally);

    let mut layers = Layers::default();
    let graph_s = trace
        .spans()
        .iter()
        .filter(|s| s.layer == "graph")
        .map(|s| s.dur_s)
        .sum();
    layers.set(plan.setup_metric, graph_s);

    let reports: Vec<EvalReport> = result
        .points
        .iter()
        .map(|p| EvalReport::from_report(&p.report))
        .collect();
    let points: Vec<PointTime> = result
        .points
        .iter()
        .zip(&reports)
        .map(|(p, report)| PointTime {
            kind: p.run.kind,
            class: class_of(&p.run),
            wall_s: p.wall.as_secs_f64(),
            report,
        })
        .collect();
    run_split(&mut layers, &points);
    planner_split(
        &mut layers,
        &result.points.iter().map(|p| &p.report).collect::<Vec<_>>(),
    );
    let point_sum: f64 = points.iter().map(|p| p.wall_s).sum();
    let sweep_s = unit_wall - serialize_s;
    layers.set(
        "bench.critical_point_s",
        points.iter().map(|p| p.wall_s).fold(0.0, f64::max),
    );
    layers.set(
        "bench.pool_idle_s",
        result.pool_threads as f64 * sweep_s - point_sum,
    );
    layers.set("bench.serialize_s", serialize_s);

    if plan.count_events {
        let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
        for (point, want) in result.points.iter().zip(&reports) {
            let tracer = Tracer::with_cap(EVENT_CAP);
            let mut run = point.run.clone();
            run.point_threads = 1;
            let got = EvalReport::from_report(&run.execute_traced(&tracer));
            tally.record(if &got == want {
                OpOutcome::Ok
            } else {
                OpOutcome::Mismatch(format!("{}: traced report differs from untraced", point.id))
            });
            for ev in tracer.take_events() {
                let cat = EVENT_CATEGORIES
                    .iter()
                    .find(|c| **c == ev.cat)
                    .copied()
                    .unwrap_or("other");
                *counts.entry(cat).or_insert(0) += 1;
            }
            *counts.entry("other").or_insert(0) += tracer.dropped();
        }
        for (cat, n) in counts {
            layers.set(format!("trace.events.{cat}"), n as f64);
        }
    }

    let identity = identity(ctx, &plan, &[&result]);
    Ok(ctx.traced_result(identity, tally, layers, &trace, wall, untraced_s))
}
