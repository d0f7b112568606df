//! Checkpointed design-space exploration over the Minnow simulator.
//!
//! The Minnow paper fixes one engine design and evaluates it; this
//! crate asks the question the paper's §5.4 area model makes
//! answerable: *which* engine configuration buys the most speedup per
//! mm²? A search is declared as a [`space::Space`] (axes: workload,
//! thread count, prefetch credits, L2 geometry, engine queue sizing,
//! input-scale rungs), driven by a [`strategy::Strategy`] (full grid,
//! seeded random sampling, or successive halving up the rung ladder),
//! and every simulated evaluation is journaled to an append-only
//! checkpoint ([`journal::Journal`]) before the search advances.
//!
//! # Resume model
//!
//! Strategies are pure functions of `(space, seed, recorded results)`;
//! the journal is an evaluation cache keyed `(configuration, rung)`.
//! Re-running a killed search replays the same waves, serves finished
//! evaluations from the journal, and simulates only what is missing —
//! so an interrupted-and-resumed search produces a final frontier
//! artifact **byte-identical** to an uninterrupted one (the volatile
//! host wall time never leaves the journal). The same mechanism gives
//! deterministic pausing: [`ExploreConfig::max_fresh_evals`] bounds how
//! many *new* simulations one invocation may run, taking a prefix of
//! the pending work in enumeration order.
//!
//! # Objective
//!
//! [`frontier::build_frontier`] scores every final-rung configuration
//! by speedup over its software baseline and by §5.4 engine area at
//! 14nm, marks per-(workload, threads) Pareto-optimal rows, and emits
//! the versioned `minnow-explore-frontier/v1` JSONL artifact plus a
//! human-readable table.

pub mod frontier;
pub mod journal;
pub mod space;
pub mod strategy;

// The JSON reader moved into `minnow-bench` so the serving layer can
// parse wire requests; the old path keeps working.
pub use minnow_bench::json_read;

use std::path::{Path, PathBuf};

use minnow_bench::eval::{EvalRequest, Evaluator, LocalEvaluator};

pub use frontier::{build_frontier, FrontierDoc, FrontierRow, FRONTIER_SCHEMA};
pub use journal::{EvalRecord, ExploreError, Journal, JournalHeader, JOURNAL_SCHEMA};
pub use space::{ConfigPoint, Rung, Space};
pub use strategy::{EvalKey, Strategy};

/// One exploration invocation's configuration.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// The declared space.
    pub space: Space,
    /// Search strategy.
    pub strategy: Strategy,
    /// Sweep seed: drives graph generation and random sampling.
    pub seed: u64,
    /// Sweep-pool worker threads (simulations in flight at once).
    pub pool_threads: usize,
    /// Accepted and ignored, like the three fields below: every point
    /// simulates on one host thread. The field set is kept so callers
    /// that build this struct literally keep compiling.
    pub point_threads: usize,
    /// Accepted and ignored (see [`ExploreConfig::point_threads`]).
    pub pin_point_threads: bool,
    /// Accepted and ignored (see [`ExploreConfig::point_threads`]).
    pub front_shards: Option<usize>,
    /// Accepted and ignored (see [`ExploreConfig::point_threads`]).
    pub speculate: Option<bool>,
    /// Budget of *fresh* simulations this invocation may run; `None`
    /// is unbounded. Cached journal hits are always free. The budget
    /// selects a prefix of pending evaluations in enumeration order,
    /// so pausing is as deterministic as completing.
    pub max_fresh_evals: Option<usize>,
    /// Journal (checkpoint) path.
    pub journal_path: PathBuf,
    /// Narrate per-wave progress to stderr.
    pub verbose: bool,
}

/// What an exploration invocation ended with.
#[derive(Debug)]
pub enum ExploreOutcome {
    /// Every wave ran; the frontier is final.
    Complete {
        /// The frontier document.
        frontier: FrontierDoc,
        /// Fresh simulations this invocation ran.
        fresh: usize,
        /// Evaluations served from the journal.
        resumed: usize,
    },
    /// The fresh-evaluation budget ran out mid-search; re-invoking with
    /// the same journal continues exactly here.
    Paused {
        /// Fresh simulations this invocation ran before pausing.
        fresh: usize,
        /// Evaluations served from the journal.
        resumed: usize,
        /// The wave the search paused inside.
        wave: usize,
        /// Evaluations of that wave still unsimulated.
        remaining_in_wave: usize,
    },
}

/// Runs (or resumes) an exploration.
///
/// # Errors
///
/// Fails on invalid spaces, journal identity mismatches, interior
/// journal corruption, and filesystem errors. A truncated final
/// journal line — the footprint of a killed process — is not an error;
/// the lost evaluation simply re-runs.
pub fn explore(cfg: &ExploreConfig) -> Result<ExploreOutcome, ExploreError> {
    let mut local = LocalEvaluator {
        pool_threads: cfg.pool_threads.max(1),
        verbose: cfg.verbose,
        tag: "explore".into(),
    };
    explore_with(cfg, &mut local)
}

/// [`explore`] with an explicit [`Evaluator`]: the daemon serves
/// searches through its memoizing store and remote workers by passing
/// its own implementation here. The search logic — waves, journal
/// replay, budgets, frontier — is identical, so the frontier artifact
/// is byte-identical for any conforming evaluator.
///
/// # Errors
///
/// Everything [`explore`] fails on, plus evaluator transport errors.
pub fn explore_with(
    cfg: &ExploreConfig,
    evaluator: &mut dyn Evaluator,
) -> Result<ExploreOutcome, ExploreError> {
    cfg.space.validate().map_err(ExploreError::Config)?;
    let configs = cfg.space.configs();
    let mut journal = Journal::open(
        &cfg.journal_path,
        JournalHeader {
            space: cfg.space.name.clone(),
            seed: cfg.seed,
            strategy: cfg.strategy.label(),
            rungs: cfg.space.rungs.clone(),
        },
    )?;
    let resumed = journal.resumed();
    let mut fresh = 0usize;

    let mut wave_idx = 0;
    loop {
        let wave = {
            let lookup = |id: &str, rung: usize| journal.get(id, rung).map(|r| r.makespan);
            match cfg
                .strategy
                .wave(wave_idx, &cfg.space, &configs, cfg.seed, &lookup)
            {
                Some(wave) => wave,
                None => break,
            }
        };
        let pending: Vec<EvalKey> = wave
            .iter()
            .copied()
            .filter(|e| journal.get(&configs[e.config].id, e.rung).is_none())
            .collect();
        if cfg.verbose && !wave.is_empty() {
            eprintln!(
                "[explore] wave {wave_idx}: {} evaluations ({} cached, {} to simulate)",
                wave.len(),
                wave.len() - pending.len(),
                pending.len()
            );
        }
        let allowed = cfg
            .max_fresh_evals
            .map_or(pending.len(), |b| b.saturating_sub(fresh).min(pending.len()));
        // Checkpoint in chunks so a kill forfeits at most one chunk of
        // simulation, not the whole wave.
        let chunk_size = (cfg.pool_threads * 2).max(4);
        for chunk in pending[..allowed].chunks(chunk_size) {
            let batch = simulate(cfg, &configs, chunk, evaluator)?;
            fresh += batch.records.len();
            let base_seq = journal.next_seq();
            journal.append_batch(
                batch
                    .records
                    .into_iter()
                    .enumerate()
                    .map(|(i, mut rec)| {
                        rec.seq = base_seq + i as u64;
                        rec
                    })
                    .collect(),
            )?;
        }
        if allowed < pending.len() {
            return Ok(ExploreOutcome::Paused {
                fresh,
                resumed,
                wave: wave_idx,
                remaining_in_wave: pending.len() - allowed,
            });
        }
        wave_idx += 1;
    }

    let frontier = build_frontier(&cfg.space, &cfg.strategy, cfg.seed, &journal)?;
    Ok(ExploreOutcome::Complete {
        frontier,
        fresh,
        resumed,
    })
}

struct Batch {
    records: Vec<EvalRecord>,
}

/// Simulates one chunk of evaluations through the evaluator and turns
/// the responses into journal records (sequence numbers assigned by
/// the caller). Request ids encode the rung (`<config>@r<rung>`) so
/// one chunk may mix rungs without collision.
fn simulate(
    cfg: &ExploreConfig,
    configs: &[ConfigPoint],
    chunk: &[EvalKey],
    evaluator: &mut dyn Evaluator,
) -> Result<Batch, ExploreError> {
    let requests: Vec<EvalRequest> = chunk
        .iter()
        .map(|e| {
            let point = &configs[e.config];
            EvalRequest {
                id: format!("{}@r{}", point.id, e.rung),
                run: point.bench_run(&cfg.space.rungs[e.rung], cfg.seed),
            }
        })
        .collect();
    let seeds: Vec<u64> = requests.iter().map(|r| r.run.seed).collect();
    let responses = evaluator
        .evaluate(requests)
        .map_err(|e| ExploreError::Config(format!("evaluator: {e}")))?;
    if responses.len() != chunk.len() {
        return Err(ExploreError::Config(format!(
            "evaluator answered {} of {} requests",
            responses.len(),
            chunk.len()
        )));
    }
    let records = chunk
        .iter()
        .zip(&seeds)
        .zip(&responses)
        .map(|((e, seed), resp)| EvalRecord {
            seq: 0, // assigned at append time
            id: configs[e.config].id.clone(),
            rung: e.rung,
            scale: cfg.space.rungs[e.rung].scale_value(),
            seed: *seed,
            makespan: resp.report.makespan,
            tasks: resp.report.tasks,
            instructions: resp.report.instructions,
            l2_misses: resp.report.l2_misses,
            mem_accesses: resp.report.mem_accesses,
            timed_out: resp.report.timed_out,
            wall_us: resp.wall_us,
        })
        .collect();
    Ok(Batch { records })
}

/// Writes `<space>.frontier.jsonl` and `<space>.frontier.txt` under
/// `dir`, returning their paths.
///
/// # Errors
///
/// Propagates filesystem errors from directory creation or writes.
pub fn write_frontier_artifacts(
    dir: &Path,
    doc: &FrontierDoc,
) -> std::io::Result<(PathBuf, PathBuf)> {
    std::fs::create_dir_all(dir)?;
    let jsonl = dir.join(format!("{}.frontier.jsonl", doc.space));
    let table = dir.join(format!("{}.frontier.txt", doc.space));
    std::fs::write(&jsonl, doc.to_jsonl())?;
    std::fs::write(&table, doc.table())?;
    Ok((jsonl, table))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_journal(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "minnow-explore-{}-{name}.journal.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn grid_smoke_completes_and_resume_is_free_and_byte_identical() {
        let path = tmp_journal("grid-smoke");
        let _ = std::fs::remove_file(&path);
        let cfg = ExploreConfig {
            space: Space::smoke(),
            strategy: Strategy::Grid,
            seed: 42,
            pool_threads: 2,
            point_threads: 1,
            pin_point_threads: false,
            front_shards: None,
            speculate: None,
            max_fresh_evals: None,
            journal_path: path.clone(),
            verbose: false,
        };
        let ExploreOutcome::Complete { frontier, fresh, resumed } = explore(&cfg).unwrap() else {
            panic!("unbudgeted grid must complete");
        };
        assert_eq!(resumed, 0);
        assert_eq!(fresh, frontier.evaluated, "grid evaluates final rung only");
        assert_eq!(frontier.evaluated, Space::smoke().configs().len());
        // The baseline anchors the frontier at (area 0, speedup 1).
        let base = frontier.rows.iter().find(|r| r.baseline).unwrap();
        assert!(base.pareto && base.area_mm2 == 0.0 && base.speedup == 1.0);

        // Resume: everything is served from the journal, and the
        // artifact bytes do not move.
        let ExploreOutcome::Complete { frontier: again, fresh, resumed } =
            explore(&cfg).unwrap()
        else {
            panic!("resume must complete");
        };
        assert_eq!(fresh, 0, "resume re-simulated nothing");
        assert_eq!(resumed, frontier.evals);
        assert_eq!(again.to_jsonl(), frontier.to_jsonl());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn input_rung_spaces_explore_external_graphs() {
        let dir = std::env::temp_dir().join(format!("minnow-explore-input-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let graph = dir.join("ring.el");
        // A 64-node ring, both directions, so BFS has work on every node.
        let mut text = String::new();
        for u in 0..64u32 {
            let v = (u + 1) % 64;
            text.push_str(&format!("{u} {v}\n{v} {u}\n"));
        }
        std::fs::write(&graph, text).unwrap();
        let mut space = Space::smoke();
        space.name = "input-smoke".into();
        space.rungs = vec![Rung::Input(graph.to_string_lossy().into_owned())];
        let path = tmp_journal("input-rung");
        let _ = std::fs::remove_file(&path);
        let cfg = ExploreConfig {
            space,
            strategy: Strategy::Grid,
            seed: 42,
            pool_threads: 2,
            point_threads: 1,
            pin_point_threads: false,
            front_shards: None,
            speculate: None,
            max_fresh_evals: None,
            journal_path: path.clone(),
            verbose: false,
        };
        let ExploreOutcome::Complete { frontier, fresh, .. } = explore(&cfg).unwrap() else {
            panic!("input-rung grid must complete");
        };
        assert_eq!(fresh, frontier.evaluated);
        assert!(frontier.rows.iter().all(|r| r.scale == 0.0));
        assert!(frontier.rows.iter().all(|r| r.makespan > 0));
        // Resume is free and byte-identical, same as generated inputs.
        let ExploreOutcome::Complete { frontier: again, fresh, .. } = explore(&cfg).unwrap()
        else {
            panic!("resume must complete");
        };
        assert_eq!(fresh, 0);
        assert_eq!(again.to_jsonl(), frontier.to_jsonl());
        std::fs::remove_file(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_pauses_deterministically_and_resumes_to_the_same_frontier() {
        let base = tmp_journal("budget-a");
        let _ = std::fs::remove_file(&base);
        let cfg = ExploreConfig {
            space: Space::smoke(),
            strategy: Strategy::Grid,
            seed: 42,
            pool_threads: 2,
            point_threads: 1,
            pin_point_threads: false,
            front_shards: None,
            speculate: None,
            max_fresh_evals: Some(1),
            journal_path: base.clone(),
            verbose: false,
        };
        // Drive the search one fresh evaluation at a time.
        let mut pauses = 0;
        let budgeted = loop {
            match explore(&cfg).unwrap() {
                ExploreOutcome::Complete { frontier, fresh, .. } => {
                    assert!(fresh <= 1);
                    break frontier;
                }
                ExploreOutcome::Paused { fresh, remaining_in_wave, .. } => {
                    assert_eq!(fresh, 1);
                    assert!(remaining_in_wave > 0);
                    pauses += 1;
                    assert!(pauses < 100, "budget loop did not converge");
                }
            }
        };
        assert!(pauses >= 2, "a budget of 1 must pause repeatedly");

        // An uninterrupted run of the same search: byte-identical.
        let other = tmp_journal("budget-b");
        let _ = std::fs::remove_file(&other);
        let unbudgeted_cfg = ExploreConfig {
            max_fresh_evals: None,
            journal_path: other.clone(),
            ..cfg
        };
        let ExploreOutcome::Complete { frontier, .. } = explore(&unbudgeted_cfg).unwrap() else {
            panic!("must complete");
        };
        assert_eq!(budgeted.to_jsonl(), frontier.to_jsonl());
        std::fs::remove_file(&base).unwrap();
        std::fs::remove_file(&other).unwrap();
    }
}
