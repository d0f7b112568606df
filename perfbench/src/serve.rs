//! `serve-mixed`: a `minnow-serve` daemon process whose persisted store
//! is already at its cap, driven by a closed loop of `eval` requests on
//! as many connections as the host has threads.
//!
//! About nine requests in ten repeat a hot set and hit the store: parse,
//! lookup and transport, no simulation. The rest are new points that
//! miss, simulate, are inserted with an fsync and evict an entry. A few
//! misses are sent on every connection at the same position, which
//! exercises coalescing. The loop is closed because the daemon's real
//! callers (sweep and explore clients) each wait for their reply.
//!
//! The daemon runs in a child process of this binary that does exactly
//! what `minnow-serve` does with the same settings (`Daemon::start`,
//! then `join`), so it is built from the checkout with the benchmark.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use minnow_algos::WorkloadKind;
use minnow_bench::eval::{
    run_from_json, run_to_json, EvalReport, EvalRequest, Evaluator, LocalEvaluator,
};
use minnow_bench::json::JsonObject;
use minnow_bench::json_read::Json;
use minnow_bench::runner::{BenchRun, SchedSpec};
use minnow_bench::sweep::derive_seed;
use minnow_serve::client::{request_ok, Client};
use minnow_serve::store::StoredEval;
use minnow_serve::{store_key, Daemon, ServeAddr, ServeConfig, ServeStats, Store};

use crate::common::StealGuard;
use crate::common::{
    class_of, end_to_end, nproc, peak_rss_mb, run_split, timed_setups, units, Ctx, Layers,
    PointTime, SETUP_MAX,
};
use crate::report::{median, tail, Identity, OpOutcome, RunResult, Tally};
use crate::span::Trace;

/// First argument that turns this binary into the daemon process.
pub const DAEMON_ARG: &str = "serve-daemon";

/// Store cap: the smallest `minnow-serve --store-cap-mb` allows.
const STORE_CAP_BYTES: u64 = 1 << 20;

/// Input scale of every served run.
const SCALE: f64 = 0.02;

/// Hot runs that the store holds and most requests repeat.
const HOT: usize = 32;

/// Requests per connection in one batch (the unit of work).
const PER_CONN: usize = 500;

/// Misses per connection per batch: one request in ten.
const MISSES_PER_CONN: usize = PER_CONN / 10;

/// Of those, misses sent on every connection at the same position.
const SHARED_MISSES: usize = 5;

/// Nominal host seconds of one batch on a 2-core host.
const UNIT_S: f64 = 0.35;

/// Fewest batches a run measures.
const MIN_UNITS: usize = 3;

/// Batches the traced window covers, and a traced run sends plainly
/// before it (one batch is short next to the imbalance between
/// connections at its end).
const TRACED_BATCHES: usize = 4;

/// SplitMix64: the benchmark's own deterministic generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Every run the workload may send, shuffled by the seed: the first
/// [`HOT`] are the hot set, the rest are sent once each as misses.
fn run_space(seed: u64) -> Vec<BenchRun> {
    let mut runs = Vec::new();
    for kind in [WorkloadKind::Bfs, WorkloadKind::Cc, WorkloadKind::Sssp] {
        for threads in [2, 4, 8] {
            runs.push(BenchRun::software_default(kind, threads));
            for credits in (0..=1024u32).map(|c| (c > 0).then_some(c)) {
                let sched = SchedSpec::Minnow {
                    wdp_credits: credits,
                };
                runs.push(BenchRun::new(kind, threads, sched));
            }
        }
    }
    for run in &mut runs {
        run.scale = SCALE;
        run.seed = derive_seed(seed, run.kind.name());
    }
    Rng(seed ^ 0x5e7e).shuffle(&mut runs);
    runs
}

/// The request sequences of one batch, one per connection, as indices
/// into the run space. `next_cold` advances past the misses used.
fn batch_plan(rng: &mut Rng, conns: usize, next_cold: &mut usize) -> Vec<Vec<usize>> {
    let mut shared_at: Vec<usize> = (0..PER_CONN).collect();
    rng.shuffle(&mut shared_at);
    shared_at.truncate(SHARED_MISSES);
    let shared: Vec<usize> = (0..SHARED_MISSES).map(|i| HOT + *next_cold + i).collect();
    *next_cold += SHARED_MISSES;
    (0..conns)
        .map(|_| {
            let mut seq: Vec<usize> = (0..PER_CONN).map(|_| rng.below(HOT)).collect();
            let mut free: Vec<usize> = (0..PER_CONN).filter(|i| !shared_at.contains(i)).collect();
            rng.shuffle(&mut free);
            for &pos in free.iter().take(MISSES_PER_CONN - SHARED_MISSES) {
                seq[pos] = HOT + *next_cold;
                *next_cold += 1;
            }
            for (&pos, &run) in shared_at.iter().zip(&shared) {
                seq[pos] = run;
            }
            seq
        })
        .collect()
}

/// What the daemon answered to one request.
#[derive(Debug, Clone)]
struct Answer {
    run: usize,
    /// Client-side latency.
    latency_s: f64,
    /// When the answer arrived.
    end: Instant,
    /// The answer: served from the store, daemon-side wall, report.
    served: Result<(bool, u64, EvalReport), OpOutcome>,
}

/// Classifies a daemon response. A refusal by admission control (the
/// HTTP 429 answer, `queue full` on the socket) and every other
/// `"ok": false` answer are failures.
fn classify(doc: &Json) -> Result<(bool, u64, EvalReport), OpOutcome> {
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        let error = doc
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("daemon refused the request");
        return Err(
            if doc.get("retry_after_ms").is_some() || error == "queue full" {
                OpOutcome::Refused
            } else {
                OpOutcome::Error(error.to_string())
            },
        );
    }
    let report = doc
        .get("report")
        .ok_or_else(|| OpOutcome::Error("answer has no report".into()))
        .and_then(|r| EvalReport::from_json(r).map_err(OpOutcome::Error))?;
    Ok((
        doc.get("cached").and_then(Json::as_bool).unwrap_or(false),
        doc.get("wall_us").and_then(Json::as_u64).unwrap_or(0),
        report,
    ))
}

/// The daemon child process; killed and reaped if dropped unstopped.
struct DaemonProc {
    child: Child,
    addr: ServeAddr,
}

impl DaemonProc {
    /// Spawns the daemon and waits for its first `ping` answer; returns
    /// it with the seconds that took.
    fn start(socket: &Path, store: &Path, out: &Path) -> Result<(DaemonProc, f64), String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let log = std::fs::File::create(out.join("daemon.log"))
            .map_err(|e| format!("daemon.log: {e}"))?;
        let t0 = Instant::now();
        let child = Command::new(exe)
            .arg(DAEMON_ARG)
            .arg(socket)
            .arg(store)
            .arg(out)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawning the daemon: {e}"))?;
        let mut d = DaemonProc {
            child,
            addr: ServeAddr::parse(&socket.to_string_lossy()),
        };
        let deadline = t0 + Duration::from_secs(60);
        loop {
            if request_ok(&d.addr, "{\"op\":\"ping\"}").is_ok() {
                return Ok((d, t0.elapsed().as_secs_f64()));
            }
            if let Ok(Some(status)) = d.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("daemon did not answer ping within 60 s".into());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn stats(&self) -> Result<Json, String> {
        let doc = request_ok(&self.addr, "{\"op\":\"stats\"}")?;
        doc.get("serve_stats")
            .cloned()
            .ok_or_else(|| "stats answer lacks serve_stats".into())
    }

    /// Asks the daemon to shut down and reaps it.
    fn stop(mut self) -> Result<(), String> {
        request_ok(&self.addr, "{\"op\":\"shutdown\"}")?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => return Err("daemon did not exit after shutdown".into()),
            }
        }
    }
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The daemon process: `serve-daemon SOCKET STORE OUT`, with
/// `minnow-serve`'s defaults for everything else.
pub fn daemon_main(args: &[String]) -> Result<(), String> {
    let [socket, store, out] = args else {
        return Err(format!("{DAEMON_ARG} takes SOCKET STORE OUT"));
    };
    let mut cfg = ServeConfig::new(socket);
    cfg.store_path = Some(PathBuf::from(store));
    cfg.store_cap_bytes = STORE_CAP_BYTES;
    cfg.out_dir = PathBuf::from(out);
    Daemon::start(cfg)?.join();
    Ok(())
}

/// Evaluates runs in process, on a pool as wide as the host.
fn direct(runs: &[&BenchRun]) -> Result<Vec<(EvalReport, f64)>, String> {
    let mut eval = LocalEvaluator {
        pool_threads: nproc(),
        tag: "direct".into(),
        ..LocalEvaluator::serial()
    };
    let batch = runs
        .iter()
        .enumerate()
        .map(|(i, run)| EvalRequest {
            id: format!("r{i}"),
            run: (*run).clone(),
        })
        .collect();
    Ok(eval
        .evaluate(batch)?
        .into_iter()
        .map(|r| (r.report, r.wall_us as f64 / 1e6))
        .collect())
}

/// Writes a store at its cap: filler entries, then the hot set (most
/// recently used, so evictions take fillers first).
///
/// Fillers are hot runs under a task limit the run never reaches, so a
/// filler's report is its hot run's report; one simulation per hot run
/// answers them all.
fn build_store(path: &Path, runs: &[BenchRun], hot: &[EvalReport]) -> Result<(), String> {
    let stats = Arc::new(ServeStats::new());
    let store = Store::open(Some(path.to_path_buf()), STORE_CAP_BYTES, stats.clone())?;
    let evictions = || stats.evictions.load(std::sync::atomic::Ordering::Relaxed);
    let mut extra = 1u64;
    while evictions() == 0 {
        for (run, report) in runs.iter().zip(hot) {
            assert!(
                !report.timed_out && report.tasks < run.task_limit,
                "a filler must not reach its task limit"
            );
            let mut filler = run.clone();
            filler.task_limit += extra;
            let key = store_key("adhoc", &filler)?;
            store.insert(
                &key,
                &StoredEval {
                    report: report.clone(),
                    sim_wall_us: 0,
                },
            );
        }
        extra += 1;
    }
    for (run, report) in runs.iter().zip(hot) {
        let key = store_key("adhoc", run)?;
        store.insert(
            &key,
            &StoredEval {
                report: report.clone(),
                sim_wall_us: 0,
            },
        );
    }
    Ok(())
}

fn request_line(i: usize, run: &BenchRun) -> String {
    JsonObject::new()
        .str("op", "eval")
        .str("id", &format!("q{i}"))
        .raw("run", &run_to_json(run))
        .finish()
}

/// Sends one batch: each connection its own sequence, one request at a
/// time. Returns the answers and the batch wall.
fn send_batch(clients: &mut [Client], plan: &[Vec<usize>], lines: &[String]) -> (Vec<Answer>, f64) {
    let t0 = Instant::now();
    let answers = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(plan)
            .map(|(client, seq)| {
                s.spawn(move || {
                    let mut out = Vec::with_capacity(seq.len());
                    for &run in seq {
                        let t = Instant::now();
                        let served = client
                            .request(&lines[run])
                            .map_err(OpOutcome::Error)
                            .and_then(|doc| classify(&doc));
                        let end = Instant::now();
                        out.push(Answer {
                            run,
                            latency_s: (end - t).as_secs_f64(),
                            end,
                            served,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    (answers, t0.elapsed().as_secs_f64())
}

/// Checks every answer against the in-process report for its run.
fn check(answers: &[Answer], reference: &dyn Fn(usize) -> EvalReport, tally: &mut Tally) {
    for a in answers {
        tally.record(match &a.served {
            Ok((_, _, report)) if *report == reference(a.run) => OpOutcome::Ok,
            Ok(_) => OpOutcome::Mismatch(format!(
                "run {}: served report differs from the direct one",
                a.run
            )),
            Err(e) => e.clone(),
        });
    }
}

/// Warm (store hit) and cold latencies of answered requests, in
/// seconds.
fn split_latencies(answers: &[Answer]) -> (Vec<f64>, Vec<f64>) {
    let (mut warm, mut cold) = (Vec::new(), Vec::new());
    for a in answers {
        match a.served {
            Ok((true, _, _)) => warm.push(a.latency_s),
            Ok((false, _, _)) => cold.push(a.latency_s),
            Err(_) => {}
        }
    }
    (warm, cold)
}

fn counter(doc: &Json, name: &str) -> f64 {
    doc.get(name).and_then(Json::as_u64).unwrap_or(0) as f64
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    let conns = nproc();
    let runs = run_space(ctx.seed);
    let lines: Vec<String> = runs
        .iter()
        .enumerate()
        .map(|(i, r)| request_line(i, r))
        .collect();
    // A traced run sends TRACED_BATCHES batches plainly, then as many
    // inside the traced window.
    let plain = if ctx.trace {
        TRACED_BATCHES
    } else {
        units(ctx.seconds, UNIT_S, MIN_UNITS)
    };
    let mut steal = StealGuard::new(plain);
    // Plans for the plain batches, for as many redone ones, and for the
    // traced window.
    let batches = 2 * plain + if ctx.trace { TRACED_BATCHES } else { 0 };
    let mut rng = Rng(ctx.seed);
    let mut next_cold = 0;
    let plans: Vec<Vec<Vec<usize>>> = (0..batches)
        .map(|_| batch_plan(&mut rng, conns, &mut next_cold))
        .collect();
    if HOT + next_cold > runs.len() {
        return Err(format!(
            "{batches} batches need {next_cold} new runs; the run space has {}",
            runs.len() - HOT
        ));
    }

    let hot_refs: Vec<&BenchRun> = runs[..HOT].iter().collect();
    let hot: Vec<EvalReport> = direct(&hot_refs)?.into_iter().map(|(r, _)| r).collect();
    let store = ctx.path("store.jsonl");
    build_store(&store, &runs[..HOT], &hot)?;

    let socket = ctx.path("d.sock");
    let start = || DaemonProc::start(&socket, &store, &ctx.dir);
    let mut setup = timed_setups(SETUP_MAX, |_| {
        let (d, secs) = start()?;
        d.stop()?;
        Ok(secs)
    })?;
    let (daemon, secs) = start()?;
    setup.push(secs);
    let mut clients: Vec<Client> = (0..conns)
        .map(|_| Client::connect(&daemon.addr))
        .collect::<Result<_, _>>()?;

    let mut walls = Vec::new();
    let mut answers: Vec<Answer> = Vec::new();
    // Answers of batches the hypervisor disturbed: checked, not timed.
    let mut discarded: Vec<Answer> = Vec::new();
    let mut plans_left = plans.iter();
    while walls.len() < plain {
        let plan = plans_left.next().expect("a plan for every redone batch");
        steal.reset();
        let (a, wall) = send_batch(&mut clients, plan, &lines);
        if steal.redo(wall) {
            discarded.extend(a);
            continue;
        }
        walls.push(wall);
        answers.extend(a);
    }
    let mut trace = Trace::default();
    let mut traced: Vec<Answer> = Vec::new();
    let (mut before, mut after, mut store_bytes) = (Json::Null, Json::Null, (0u64, 0u64));
    let replay_copy = ctx.path("replay.store.jsonl");
    let mut traced_wall = 0.0;
    if ctx.trace {
        before = daemon.stats()?;
        std::fs::copy(&store, &replay_copy).map_err(|e| format!("store copy: {e}"))?;
        store_bytes.0 = std::fs::metadata(&store).map_or(0, |m| m.len());
        let t0 = Instant::now();
        for plan in plans_left.take(TRACED_BATCHES) {
            traced.extend(send_batch(&mut clients, plan, &lines).0);
        }
        traced_wall = t0.elapsed().as_secs_f64();
        store_bytes.1 = std::fs::metadata(&store).map_or(0, |m| m.len());
        after = daemon.stats()?;
    }
    let peak = peak_rss_mb(&daemon.pid());
    drop(clients);
    daemon.stop()?;

    // Reference reports: hot runs from the store build, new runs now.
    let mut cold_ids: Vec<usize> = answers
        .iter()
        .chain(&traced)
        .chain(&discarded)
        .map(|a| a.run)
        .filter(|&r| r >= HOT)
        .collect();
    cold_ids.sort_unstable();
    cold_ids.dedup();
    let cold_refs: Vec<&BenchRun> = cold_ids.iter().map(|&i| &runs[i]).collect();
    let cold = direct(&cold_refs)?;
    let reference = |run: usize| {
        if run < HOT {
            hot[run].clone()
        } else {
            cold[cold_ids.binary_search(&run).expect("checked run")]
                .0
                .clone()
        }
    };
    let mut tally = Tally::default();
    check(&answers, &reference, &mut tally);
    check(&traced, &reference, &mut tally);
    check(&discarded, &reference, &mut tally);

    let identity = Identity {
        workload: ctx.workload.clone(),
        scale: SCALE,
        seeds: vec![ctx.seed],
        points: (PER_CONN * conns) as u64,
        total_tasks: plans[0].iter().flatten().map(|&r| reference(r).tasks).sum(),
        nproc: conns as u64,
    };
    let setup_s = median(&setup).expect("setups ran");

    if !ctx.trace {
        let all_ms: Vec<f64> = answers.iter().map(|a| a.latency_s * 1e3).collect();
        let t = tail(&all_ms).expect("requests ran");
        let metrics = end_to_end(
            setup_s,
            median(&walls).expect("batches ran"),
            peak,
            median(&all_ms).expect("requests ran"),
            t.value,
        );
        let mut r = ctx.result(identity, tally, true, metrics);
        let (warm, cold) = split_latencies(&answers);
        let (wt, ct) = (tail(&warm), tail(&cold));
        r.notes.push((
            "units".into(),
            format!("{} batches of {} requests", walls.len(), PER_CONN * conns),
        ));
        r.notes
            .push(("units_redone".into(), steal.redone.to_string()));
        r.notes
            .push(("unit_walls_s".into(), format!("{walls:.3?}")));
        r.notes
            .push(("op_tail".into(), format!("p{} of {} requests", t.p, t.n)));
        r.notes.push((
            "serve_qps".into(),
            format!("{:.1}", answers.len() as f64 / walls.iter().sum::<f64>()),
        ));
        r.notes.push((
            "warm_us".into(),
            format!(
                "p50 {:.1}, p{} {:.1} ({} samples)",
                median(&warm).unwrap_or(0.0) * 1e6,
                wt.map_or(0.0, |t| t.p),
                wt.map_or(0.0, |t| t.value) * 1e6,
                warm.len()
            ),
        ));
        r.notes.push((
            "cold_ms".into(),
            format!(
                "p50 {:.3}, p{} {:.3} ({} samples)",
                median(&cold).unwrap_or(0.0) * 1e3,
                ct.map_or(0.0, |t| t.p),
                ct.map_or(0.0, |t| t.value) * 1e3,
                cold.len()
            ),
        ));
        return Ok(r);
    }

    let untraced_s: f64 = walls.iter().sum();
    let mut layers = Layers::default();
    let w = 1.0 / conns as f64;
    let sim_wall = |run: usize| {
        if run < HOT {
            0.0
        } else {
            cold[cold_ids.binary_search(&run).expect("checked run")].1
        }
    };
    for a in &traced {
        let start = trace.at(a.end) - a.latency_s;
        let req = trace.push("serve", "eval", None, start, a.latency_s, w);
        if let Ok((cached, wall_us, _)) = &a.served {
            let daemon_s = (*wall_us as f64 / 1e6).min(a.latency_s);
            let d = trace.push("serve", "daemon_eval", Some(req), start, daemon_s, w);
            if !cached {
                trace.push(
                    "runtime",
                    "simulate",
                    Some(d),
                    start,
                    sim_wall(a.run).min(daemon_s),
                    w,
                );
            }
        }
    }

    let (warm, cold_lat) = split_latencies(&traced);
    let warm_p50 = median(&warm).unwrap_or(0.0) * 1e6;
    layers.set("serve.qps", traced.len() as f64 / traced_wall);
    layers.set("serve.warm_p50_us", warm_p50);
    layers.set(
        "serve.warm_tail_us",
        tail(&warm).map_or(0.0, |t| t.value) * 1e6,
    );
    layers.set("serve.cold_p50_ms", median(&cold_lat).unwrap_or(0.0) * 1e3);
    layers.set(
        "serve.cold_tail_ms",
        tail(&cold_lat).map_or(0.0, |t| t.value) * 1e3,
    );
    for name in [
        "hits",
        "misses",
        "coalesced",
        "rejected",
        "evictions",
        "sim_invocations",
    ] {
        layers.set(
            format!("serve.{name}"),
            counter(&after, name) - counter(&before, name),
        );
    }
    layers.set(
        "serve.store_file_bytes",
        store_bytes.1.saturating_sub(store_bytes.0) as f64,
    );

    // Replay the traced requests, in the order they were answered, on a
    // copy of the store as it stood before them, timing each step the
    // daemon takes in process.
    let mut order: Vec<&Answer> = traced.iter().collect();
    order.sort_by_key(|a| a.end);
    let replay = Store::open(
        Some(replay_copy),
        STORE_CAP_BYTES,
        Arc::new(ServeStats::new()),
    )?;
    let (mut key_us, mut get_us, mut insert_us, mut json_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for a in order {
        let t = Instant::now();
        let doc = Json::parse(&lines[a.run])?;
        let run = run_from_json(doc.get("run").ok_or("request has no run")?)?;
        let key = store_key("adhoc", &run)?;
        key_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let hit = replay.get(&key);
        get_us.push(t.elapsed().as_secs_f64() * 1e6);
        match hit {
            Some(eval) => {
                let t = Instant::now();
                std::hint::black_box(eval.report.to_json());
                json_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
            None => {
                let eval = StoredEval {
                    report: reference(a.run),
                    sim_wall_us: 0,
                };
                let t = Instant::now();
                replay.insert(&key, &eval);
                insert_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    let (k, g, j) = (
        median(&key_us).unwrap_or(0.0),
        median(&get_us).unwrap_or(0.0),
        median(&json_us).unwrap_or(0.0),
    );
    layers.set("serve.parse_key_us", k);
    layers.set("serve.store_get_us", g);
    layers.set("serve.store_insert_us", median(&insert_us).unwrap_or(0.0));
    layers.set("serve.report_json_us", j);
    layers.set("serve.transport_us", warm_p50 - k - g - j);

    let cold_traced: Vec<usize> = {
        let mut v: Vec<usize> = traced.iter().map(|a| a.run).filter(|&r| r >= HOT).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let reports: Vec<EvalReport> = cold_traced.iter().map(|&r| reference(r)).collect();
    let points: Vec<PointTime> = cold_traced
        .iter()
        .zip(&reports)
        .map(|(&r, report)| PointTime {
            kind: runs[r].kind,
            class: class_of(&runs[r]),
            wall_s: sim_wall(r),
            report,
        })
        .collect();
    run_split(&mut layers, &points);

    Ok(ctx.traced_result(identity, tally, layers, &trace, traced_wall, untraced_s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refusals_and_errors_are_failures() {
        let refused = Json::parse(
            "{\"ok\":false,\"op\":\"eval\",\"error\":\"queue full\",\"open_jobs\":64,\"retry_after_ms\":5000}",
        )
        .unwrap();
        assert_eq!(classify(&refused).unwrap_err(), OpOutcome::Refused);
        let error =
            Json::parse("{\"ok\":false,\"op\":\"eval\",\"error\":\"run: unknown workload `X`\"}")
                .unwrap();
        assert!(matches!(classify(&error), Err(OpOutcome::Error(_))));
        let no_report = Json::parse("{\"ok\":true,\"op\":\"eval\"}").unwrap();
        assert!(matches!(classify(&no_report), Err(OpOutcome::Error(_))));
        let ok = format!(
            "{{\"ok\":true,\"op\":\"eval\",\"id\":\"q\",\"cached\":true,\"wall_us\":12,\"report\":{}}}",
            EvalReport::default().to_json()
        );
        let (cached, wall, report) = classify(&Json::parse(&ok).unwrap()).unwrap();
        assert!(cached);
        assert_eq!((wall, report), (12, EvalReport::default()));
    }

    #[test]
    fn batches_mix_one_miss_in_ten_with_shared_misses() {
        let mut rng = Rng(3);
        let mut next = 0;
        let plan = batch_plan(&mut rng, 2, &mut next);
        assert_eq!(next, 2 * MISSES_PER_CONN - SHARED_MISSES);
        for seq in &plan {
            assert_eq!(seq.len(), PER_CONN);
            assert_eq!(seq.iter().filter(|&&r| r >= HOT).count(), MISSES_PER_CONN);
        }
        let shared = (0..PER_CONN)
            .filter(|&i| plan[0][i] >= HOT && plan[0][i] == plan[1][i])
            .count();
        assert_eq!(shared, SHARED_MISSES);
        assert_eq!(run_space(9).len(), 3 * 3 * 1026);
    }
}
