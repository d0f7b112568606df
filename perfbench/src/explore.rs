//! `explore-credits`: the `credits-bfs` space searched by successive
//! halving (eta 2), with a fresh journal for every search and a pool as
//! wide as the host. The only workload that runs explore's strategy,
//! frontier and per-batch-fsync journal.

use std::time::Instant;

use minnow_bench::eval::{EvalReport, EvalRequest, EvalResponse, Evaluator, LocalEvaluator};
use minnow_explore::{
    build_frontier, explore_with, ExploreConfig, ExploreOutcome, Journal, JournalHeader, Space,
    Strategy,
};

use crate::common::StealGuard;
use crate::common::{
    check_output, class_of, distinct_inputs, end_to_end, generate, nproc, peak_rss_mb, run_split,
    timed_setups, units, Ctx, Layers, PointTime, SETUP_MAX,
};
use crate::report::{family_wall, median, tail, Identity, OpOutcome, RunResult, Tally};
use crate::span::Trace;

/// Nominal host seconds of one search on a 2-core host.
const UNIT_S: f64 = 0.8;

/// Id of the frontier in the reference table.
const FRONTIER_ID: &str = "frontier";

fn config(ctx: &Ctx, seed: u64) -> ExploreConfig {
    ExploreConfig {
        space: Space::credits_bfs(),
        strategy: Strategy::Halving { eta: 2 },
        seed,
        pool_threads: nproc(),
        point_threads: 1,
        pin_point_threads: false,
        front_shards: None,
        speculate: None,
        max_fresh_evals: None,
        journal_path: ctx.path(&format!("credits-bfs.s{seed}.journal.jsonl")),
        verbose: false,
    }
}

/// An evaluator that forwards to the in-process pool and keeps what the
/// split needs: each batch's size and time, each answer, and (traced)
/// spans for the batch and its points.
struct Recording<'t> {
    inner: LocalEvaluator,
    batches: Vec<usize>,
    answers: Vec<(EvalRequest, EvalResponse)>,
    trace: Option<(&'t mut Trace, usize)>,
}

impl Evaluator for Recording<'_> {
    fn evaluate(&mut self, batch: Vec<EvalRequest>) -> Result<Vec<EvalResponse>, String> {
        let requests = batch.clone();
        let start = Instant::now();
        let responses = self.inner.evaluate(batch)?;
        let dur = start.elapsed().as_secs_f64();
        if let Some((trace, root)) = self.trace.as_mut() {
            let s = trace.at(start);
            let b = trace.push("bench", "LocalEvaluator.evaluate", Some(*root), s, dur, 1.0);
            let w = 1.0 / self.inner.pool_threads.min(requests.len()).max(1) as f64;
            for r in &responses {
                trace.push(
                    "runtime",
                    r.id.clone(),
                    Some(b),
                    s,
                    r.wall_us as f64 / 1e6,
                    w,
                );
            }
        }
        self.batches.push(requests.len());
        self.answers
            .extend(requests.into_iter().zip(responses.iter().cloned()));
        Ok(responses)
    }
}

/// One search with a fresh journal.
fn search<'t>(
    cfg: &ExploreConfig,
    trace: Option<&'t mut Trace>,
) -> Result<(Recording<'t>, String, f64), String> {
    let _ = std::fs::remove_file(&cfg.journal_path);
    let start = Instant::now();
    let inner = LocalEvaluator {
        pool_threads: cfg.pool_threads,
        tag: "explore".into(),
        ..LocalEvaluator::serial()
    };
    let trace = trace.map(|t| {
        let s = t.at(start);
        let root = t.push("explore", "explore_with", None, s, 0.0, 1.0);
        (t, root)
    });
    let mut rec = Recording {
        inner,
        batches: Vec::new(),
        answers: Vec::new(),
        trace,
    };
    let outcome = explore_with(cfg, &mut rec).map_err(|e| format!("explore: {e}"))?;
    let wall = start.elapsed().as_secs_f64();
    if let Some((t, root)) = rec.trace.as_mut() {
        t.set_dur(*root, wall);
    }
    match outcome {
        ExploreOutcome::Complete { frontier, .. } => Ok((rec, frontier.to_jsonl(), wall)),
        ExploreOutcome::Paused { .. } => Err("search paused without a budget".into()),
    }
}

fn check(ctx: &Ctx, seed: u64, rec: &Recording, frontier: &str, tally: &mut Tally) {
    for (_, resp) in &rec.answers {
        tally.record(if resp.report.timed_out {
            OpOutcome::Error(format!("{} timed out", resp.id))
        } else {
            OpOutcome::Ok
        });
    }
    tally.record(check_output(&ctx.workload, seed, FRONTIER_ID, frontier));
}

/// Reference outputs: the frontier document.
pub fn reference(ctx: &Ctx) -> Result<Vec<(String, String)>, String> {
    let (_, frontier, _) = search(&config(ctx, ctx.seed), None)?;
    Ok(vec![(FRONTIER_ID.to_string(), frontier)])
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    let cfgs: Vec<ExploreConfig> = ctx.seeds.iter().map(|&seed| config(ctx, seed)).collect();
    let mut runs = Vec::new();
    for cfg in &cfgs {
        for rung in &cfg.space.rungs {
            runs.extend(
                cfg.space
                    .configs()
                    .iter()
                    .map(|p| p.bench_run(rung, cfg.seed)),
            );
        }
    }
    // The first setup fills the process-wide input cache the searches
    // read; the others regenerate through the same uncached generator.
    let inputs = distinct_inputs(&runs);
    let setup_s =
        median(&timed_setups(SETUP_MAX, |i| Ok(generate(&inputs, i == 0)))?).expect("setups ran");
    let identity = |seeds: &[u64], recs: &[&Recording]| Identity {
        workload: ctx.workload.clone(),
        scale: cfgs[0].space.rungs.last().map_or(0.0, |r| r.scale_value()),
        seeds: seeds.to_vec(),
        points: recs.iter().map(|r| r.answers.len() as u64).sum(),
        total_tasks: recs
            .iter()
            .flat_map(|r| &r.answers)
            .map(|(_, r)| r.report.tasks)
            .sum(),
        nproc: nproc() as u64,
    };
    let mut tally = Tally::default();

    if !ctx.trace {
        let mut walls = Vec::new();
        let mut eval_ms = Vec::new();
        let mut firsts = Vec::new();
        let n = cfgs.len();
        let total = units(ctx.seconds, UNIT_S * n as f64, 1) * n;
        let mut steal = StealGuard::new(total);
        while walls.len() < total {
            let i = walls.len();
            let cfg = &cfgs[i % n];
            steal.reset();
            let (rec, frontier, wall) = search(cfg, None)?;
            let redo = steal.redo(wall);
            check(ctx, cfg.seed, &rec, &frontier, &mut tally);
            if redo {
                continue;
            }
            walls.push(wall);
            eval_ms.extend(rec.answers.iter().map(|(_, r)| r.wall_us as f64 / 1e3));
            if i < n {
                firsts.push(rec);
            }
        }
        let t = tail(&eval_ms).expect("evaluations ran");
        let metrics = end_to_end(
            setup_s,
            family_wall(&walls, cfgs.len()).expect("searches ran"),
            peak_rss_mb("self"),
            median(&eval_ms).expect("evaluations ran"),
            t.value,
        );
        let ident = identity(
            &ctx.seeds[..firsts.len()],
            &firsts.iter().collect::<Vec<_>>(),
        );
        let mut r = ctx.result(ident, tally, true, metrics);
        r.notes.push(("units".into(), walls.len().to_string()));
        r.notes
            .push(("units_redone".into(), steal.redone.to_string()));
        r.notes
            .push(("unit_walls_s".into(), format!("{walls:.3?}")));
        r.notes
            .push(("op_tail".into(), format!("p{} of {} evaluations", t.p, t.n)));
        return Ok(r);
    }

    let cfg = &cfgs[0];
    let (plain, plain_frontier, untraced_s) = search(cfg, None)?;
    check(ctx, cfg.seed, &plain, &plain_frontier, &mut tally);
    drop(plain);
    let mut trace = Trace::default();
    let w0 = Instant::now();
    let (rec, frontier, _) = search(cfg, Some(&mut trace))?;
    let wall = w0.elapsed().as_secs_f64();
    check(ctx, cfg.seed, &rec, &frontier, &mut tally);
    let batches = rec.batches.clone();
    let reports: Vec<EvalReport> = rec.answers.iter().map(|(_, r)| r.report.clone()).collect();
    let points: Vec<PointTime> = rec
        .answers
        .iter()
        .zip(&reports)
        .map(|((req, resp), report)| PointTime {
            kind: req.run.kind,
            class: class_of(&req.run),
            wall_s: resp.wall_us as f64 / 1e6,
            report,
        })
        .collect();
    let ident = identity(&ctx.seeds[..1], &[&rec]);
    drop(rec);

    let mut layers = Layers::default();
    run_split(&mut layers, &points);
    layers.set("explore.evals", points.len() as f64);
    layers.set(
        "explore.sim_s",
        trace.total("bench", "LocalEvaluator.evaluate"),
    );

    // Journal appends and the frontier build run inside explore_with;
    // replay both on the finished journal to time them one by one.
    let header = JournalHeader {
        space: cfg.space.name.clone(),
        seed: cfg.seed,
        strategy: cfg.strategy.label(),
        rungs: cfg.space.rungs.clone(),
    };
    let done =
        Journal::open(&cfg.journal_path, header.clone()).map_err(|e| format!("journal: {e}"))?;
    let mut records: Vec<_> = done.records().cloned().collect();
    records.sort_by_key(|r| r.seq);
    let replay_path = ctx.path("replay.journal.jsonl");
    let _ = std::fs::remove_file(&replay_path);
    let mut replay = Journal::open(&replay_path, header).map_err(|e| format!("journal: {e}"))?;
    let mut append_us = Vec::new();
    let mut rest = records.into_iter();
    for n in batches {
        let batch: Vec<_> = rest.by_ref().take(n).collect();
        let t = Instant::now();
        replay
            .append_batch(batch)
            .map_err(|e| format!("journal: {e}"))?;
        append_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    layers.set(
        "explore.journal_append_us",
        median(&append_us).unwrap_or(0.0),
    );
    let t = Instant::now();
    let rebuilt = build_frontier(&cfg.space, &cfg.strategy, cfg.seed, &replay)
        .map_err(|e| format!("frontier: {e}"))?;
    layers.set("explore.frontier_s", t.elapsed().as_secs_f64());
    tally.record(if rebuilt.to_jsonl() == frontier {
        OpOutcome::Ok
    } else {
        OpOutcome::Mismatch("frontier rebuilt from the replayed journal differs".into())
    });

    Ok(ctx.traced_result(ident, tally, layers, &trace, wall, untraced_s))
}
