//! The daemon's headline contract: artifacts served through
//! `minnow-serve` are **byte-identical** to artifacts produced by the
//! direct binaries — cold, warm from the persistent store, across a
//! daemon restart, and through remote workers with one killed
//! mid-evaluation.

use std::path::PathBuf;
use std::sync::atomic::Ordering;

use minnow::bench::json_read::Json;
use minnow::bench::sweep::{run_sweep, Sweep, SweepConfig, SweepParams};
use minnow::explore::{explore, ExploreConfig, ExploreOutcome, Space, Strategy};
use minnow::serve::client::request_ok;
use minnow::serve::{run_worker, Daemon, ServeAddr, ServeConfig, WorkerConfig};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("minnow-serve-dist-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn served_sweep_is_byte_identical_cold_warm_and_across_restart() {
    let dir = scratch("sweep");

    // The oracle: the direct path, exactly what `minnow-sweep` writes.
    let mut params = SweepParams::from_env();
    params.scale = 0.05;
    params.seed = 7;
    let sweep = Sweep::named("smoke", &params).unwrap();
    let direct = run_sweep(&sweep, &SweepConfig::serial());
    let direct_jsonl = direct.jsonl();
    let direct_breakdown = direct.breakdown_jsonl();
    assert!(!direct.points.is_empty());

    let serve_cfg = |dir: &PathBuf| {
        let mut cfg = ServeConfig::new(dir.join("serve.sock"));
        cfg.local_executors = 1;
        cfg.store_path = Some(dir.join("store.jsonl"));
        cfg.out_dir = dir.clone();
        cfg
    };
    let sweep_req = "{\"op\":\"sweep\",\"sweep\":\"smoke\",\"scale\":0.05,\"seed\":7}";

    // Pass 1: cold daemon — every point is a fresh simulation, and the
    // served artifact matches the direct one byte for byte.
    let daemon = Daemon::start(serve_cfg(&dir)).unwrap();
    let addr = ServeAddr::Unix(daemon.socket().to_path_buf());
    let cold = request_ok(&addr, sweep_req).unwrap();
    assert_eq!(cold.u64_field("points").unwrap() as usize, direct.points.len());
    assert_eq!(cold.u64_field("cached").unwrap(), 0);
    assert_eq!(cold.str_field("jsonl").unwrap(), direct_jsonl);
    assert_eq!(cold.str_field("breakdown").unwrap(), direct_breakdown);

    // Pass 2 on the same daemon: all store hits.
    let warm = request_ok(&addr, sweep_req).unwrap();
    assert_eq!(warm.u64_field("fresh").unwrap(), 0);
    assert_eq!(warm.str_field("jsonl").unwrap(), direct_jsonl);
    daemon.trigger_shutdown();
    daemon.join();

    // Pass 3: a *new* daemon on the persisted store — still zero
    // simulator invocations, still the same bytes.
    let daemon = Daemon::start(serve_cfg(&dir)).unwrap();
    let addr = ServeAddr::Unix(daemon.socket().to_path_buf());
    let restarted = request_ok(&addr, sweep_req).unwrap();
    assert_eq!(
        restarted.u64_field("fresh").unwrap(),
        0,
        "the store must survive the restart"
    );
    assert_eq!(restarted.str_field("jsonl").unwrap(), direct_jsonl);
    assert_eq!(restarted.str_field("breakdown").unwrap(), direct_breakdown);
    assert_eq!(daemon.stats().sim_invocations.load(Ordering::Relaxed), 0);
    daemon.trigger_shutdown();
    daemon.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn search_survives_worker_death_with_a_byte_identical_frontier() {
    let dir = scratch("workers");

    // The oracle: a single-process search over the same space.
    let strategy = Strategy::from_flags("halving", 8, 2).unwrap();
    let oracle_journal = dir.join("oracle.journal.jsonl");
    let oracle = match explore(&ExploreConfig {
        space: Space::smoke(),
        strategy,
        seed: 42,
        pool_threads: 2,
        point_threads: 1,
        pin_point_threads: false,
        front_shards: None,
        speculate: None,
        max_fresh_evals: None,
        journal_path: oracle_journal,
        verbose: false,
    })
    .unwrap()
    {
        ExploreOutcome::Complete { frontier, .. } => frontier,
        ExploreOutcome::Paused { .. } => panic!("unbudgeted oracle paused"),
    };

    // The daemon simulates nothing itself: every evaluation goes to a
    // remote worker, one of which is rigged to die mid-search.
    let mut cfg = ServeConfig::new(dir.join("serve.sock"));
    cfg.local_executors = 0;
    cfg.out_dir = dir.clone();
    let daemon = Daemon::start(cfg).unwrap();
    let addr = ServeAddr::Unix(daemon.socket().to_path_buf());
    let stats = daemon.stats();

    let doomed_addr = addr.clone();
    let doomed = std::thread::spawn(move || {
        let mut cfg = WorkerConfig::new(doomed_addr);
        cfg.name = "doomed".into();
        // Serve one evaluation, then drop the connection while holding
        // the second — without acknowledging it.
        cfg.die_after = Some(1);
        run_worker(&cfg)
    });
    let healthy_addr = addr.clone();
    let healthy = std::thread::spawn(move || {
        let mut cfg = WorkerConfig::new(healthy_addr);
        cfg.name = "healthy".into();
        run_worker(&cfg)
    });

    let doc = request_ok(&addr, "{\"op\":\"explore\",\"space\":\"smoke\"}").unwrap();
    assert_eq!(doc.str_field("status").unwrap(), "complete");
    assert_eq!(
        doc.str_field("frontier_jsonl").unwrap(),
        oracle.to_jsonl(),
        "a search that lost a worker must still produce the oracle's bytes"
    );

    // The fault actually fired and was absorbed by re-issue.
    let err = doomed.join().unwrap().unwrap_err();
    assert!(err.contains("injected fault"), "{err}");
    assert!(
        stats.requeues.load(Ordering::Relaxed) >= 1,
        "the dropped job must have been re-issued"
    );
    assert_eq!(
        stats.sim_invocations.load(Ordering::Relaxed),
        0,
        "no local executor exists; every result came over the wire"
    );
    assert!(stats.worker_results.load(Ordering::Relaxed) > 0);

    // The daemon's frontier artifact on disk matches too.
    let artifact = std::fs::read_to_string(dir.join("smoke.frontier.jsonl"));
    if let Ok(artifact) = artifact {
        assert_eq!(artifact, oracle.to_jsonl());
    }

    daemon.trigger_shutdown();
    daemon.join();
    assert!(healthy.join().unwrap().unwrap() > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Ensure the wire sweep response parses as a JSON object all the way
/// down (the jsonl payload is a string field containing the artifact).
#[test]
fn sweep_response_artifact_lines_parse_as_json() {
    let dir = scratch("parse");
    let mut cfg = ServeConfig::new(dir.join("serve.sock"));
    cfg.local_executors = 1;
    cfg.out_dir = dir.clone();
    let daemon = Daemon::start(cfg).unwrap();
    let addr = ServeAddr::Unix(daemon.socket().to_path_buf());

    let doc = request_ok(
        &addr,
        "{\"op\":\"sweep\",\"sweep\":\"smoke\",\"scale\":0.05,\"seed\":9,\"filter\":\"BFS\"}",
    )
    .unwrap();
    let jsonl = doc.str_field("jsonl").unwrap();
    let mut lines = 0;
    for line in jsonl.lines() {
        let rec = Json::parse(line).unwrap();
        assert_eq!(rec.str_field("sweep").unwrap(), "smoke");
        assert!(rec.u64_field("makespan").unwrap() > 0);
        lines += 1;
    }
    assert_eq!(lines as u64, doc.u64_field("points").unwrap());
    assert!(lines > 0, "the BFS filter must select at least one point");

    daemon.trigger_shutdown();
    daemon.join();
    let _ = std::fs::remove_dir_all(&dir);
}
