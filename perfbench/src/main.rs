//! `perfbench` — the Minnow workspace's end-to-end and per-layer
//! host-time benchmark. See `README.md` beside this package.
//!
//! ```sh
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep-fig16 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is the result: `correct`,
//! `attempted`, `failed` and the metrics (end-to-end with `--trace 0`,
//! per-layer with `--trace 1`). The full result, with provenance, is
//! written under `.perfbench/results/`.

mod common;
mod explore;
mod report;
mod serve;
mod span;
mod sweeps;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use common::{family, fresh_dir, reference_seeds, Ctx};

/// Every workload, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = [
    "sweep-fig16",
    "point-rmat16",
    "serve-mixed",
    "explore-credits",
];

/// Where runs keep their scratch files and results (inside the checkout).
const OUT_DIR: &str = ".perfbench";

const USAGE: &str = "\
usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
       perfbench reference [WORKLOAD...]   print reference digests
       perfbench compare A.json B.json     compare two result documents

workloads: sweep-fig16 | point-rmat16 | serve-mixed | explore-credits";

fn parse_run(args: &[String]) -> Result<(String, u64, u64, bool), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("`{flag}`: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.clamp(1, 600)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("`--trace` is 0 or 1, not {value}")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok((
        workload,
        seed.ok_or("missing --seed")?,
        seconds.ok_or("missing --seconds")?,
        trace.ok_or("missing --trace")?,
    ))
}

fn ctx(workload: &str, seeds: Vec<u64>, seconds: u64, trace: bool) -> Result<Ctx, String> {
    let dir = Path::new(OUT_DIR).join(workload);
    fresh_dir(&dir)?;
    Ok(Ctx {
        workload: workload.to_string(),
        seed: seeds[0],
        seeds,
        seconds,
        trace,
        dir,
    })
}

fn run_workload(ctx: &Ctx) -> Result<report::RunResult, String> {
    match ctx.workload.as_str() {
        "sweep-fig16" | "point-rmat16" => sweeps::run(ctx),
        "serve-mixed" => serve::run(ctx),
        "explore-credits" => explore::run(ctx),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn reference_outputs(ctx: &Ctx) -> Result<Vec<(String, String)>, String> {
    match ctx.workload.as_str() {
        "sweep-fig16" | "point-rmat16" => sweeps::reference(ctx),
        "explore-credits" => explore::reference(ctx),
        other => Err(format!(
            "`{other}` checks its outputs in the run, not by reference"
        )),
    }
}

fn main() -> ExitCode {
    // The program's environment knobs (input caches, speculation, pool
    // width, test hooks) would change what it does between otherwise
    // identical runs; the benchmark sets everything explicitly.
    for (var, _) in std::env::vars_os() {
        if var.to_string_lossy().starts_with("MINNOW_") {
            std::env::remove_var(var);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some(serve::DAEMON_ARG) => serve::daemon_main(&args[1..]),
        Some("reference") => reference_main(&args[1..]),
        Some("compare") => compare_main(&args[1..]),
        _ => run_main(&args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run_main(args: &[String]) -> Result<(), String> {
    let (workload, seed_arg, seconds, trace) = parse_run(args)?;
    let ctx = ctx(&workload, family(seed_arg), seconds, trace)?;
    let steal0 = common::host_steal_s();
    let mut result = run_workload(&ctx)?;
    result.notes.push((
        "host_steal_s".into(),
        format!("{:.2}", common::host_steal_s() - steal0),
    ));
    if let Some(m) = result.metrics.iter().find(|m| !report::valid_name(&m.name)) {
        return Err(format!("illegal metric name `{}`", m.name));
    }
    let doc = result.document();
    let results = Path::new(OUT_DIR).join("results");
    std::fs::create_dir_all(&results).map_err(|e| format!("{}: {e}", results.display()))?;
    let file: PathBuf = results.join(format!(
        "{workload}-seed{seed_arg}-trace{}.json",
        u8::from(trace)
    ));
    std::fs::write(&file, doc + "\n").map_err(|e| format!("{}: {e}", file.display()))?;
    if !result.spans.is_empty() {
        let spans = file.with_extension("spans.jsonl");
        std::fs::write(&spans, &result.spans).map_err(|e| format!("{}: {e}", spans.display()))?;
    }
    // Scratch inputs (images, stores, journals) can be large; results stay.
    let _ = std::fs::remove_dir_all(&ctx.dir);

    println!(
        "{workload}: seed {} (input seeds {:?}), {} s, trace {}, commit {}, {} build, nproc {}",
        seed_arg,
        ctx.seeds,
        seconds,
        u8::from(trace),
        result.commit,
        result.profile,
        result.identity.nproc
    );
    println!("identity: {}", result.identity.json());
    println!(
        "operations: {} attempted, {} failed (fail_share {})",
        result.tally.attempted,
        result.tally.failed,
        result.tally.fail_share()
    );
    for why in &result.tally.first_failures {
        println!("  failure: {why}");
    }
    for (k, v) in &result.notes {
        println!("{k}: {v}");
    }
    for m in &result.metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("result document: {}", file.display());
    println!("{}", result.line());
    Ok(())
}

fn reference_main(args: &[String]) -> Result<(), String> {
    let names: Vec<&str> = if args.is_empty() {
        vec!["sweep-fig16", "point-rmat16", "explore-credits"]
    } else {
        args.iter().map(String::as_str).collect()
    };
    for name in names {
        for seed in reference_seeds() {
            let ctx = ctx(name, vec![seed], 1, false)?;
            for (id, text) in reference_outputs(&ctx)? {
                println!("{name}\t{seed}\t{id}\t{}", common::digest(&text));
            }
            let _ = std::fs::remove_dir_all(&ctx.dir);
        }
    }
    Ok(())
}

/// Compares two result documents metric by metric.
fn compare_main(args: &[String]) -> Result<(), String> {
    use minnow_bench::json_read::Json;
    let [a, b] = args else {
        return Err("compare takes two result documents".into());
    };
    let load = |p: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(text.trim()).map_err(|e| format!("{p}: {e}"))
    };
    for (name, x, y) in report::compare(&load(a)?, &load(b)?)? {
        match (x, y) {
            (Some(x), Some(y)) if x != 0.0 => println!(
                "{name:<28} {x:>14.6} {y:>14.6} {:>+8.2}%",
                (y / x - 1.0) * 100.0
            ),
            (Some(x), Some(y)) => println!("{name:<28} {x:>14.6} {y:>14.6}"),
            _ => println!("{name:<28} missing in one document"),
        }
    }
    Ok(())
}
