//! `minnow-serve` — the resident evaluation daemon (and its workers).
//!
//! In daemon mode the process binds a Unix domain socket (plus an
//! optional HTTP/1.1 listener), keeps the hot input graphs in memory,
//! and memoizes every evaluation in a content-addressed store so a
//! repeated request is answered in microseconds without touching the
//! simulator. In worker mode (`--worker ADDR`) the process connects
//! *out* to a daemon and pulls simulation jobs, streaming back
//! journal-schema results; a killed worker's unacknowledged job is
//! simply re-issued.
//!
//! ```sh
//! minnow-serve --socket target/serve.sock --store target/store.jsonl &
//! minnow-client --socket target/serve.sock sweep smoke --scale 0.1
//! minnow-serve --worker target/serve.sock        # extra horsepower
//! minnow-client --socket target/serve.sock shutdown
//! ```
//!
//! There is no signal handling: stop the daemon with the `shutdown` op
//! (`minnow-client shutdown`). A hard kill is safe — the store and the
//! exploration journals are append-only with torn-tail recovery — but
//! skips the shutdown summary.

use std::path::PathBuf;
use std::process::ExitCode;

use minnow::bench::cli::ArgStream;
use minnow::serve::{run_worker, Daemon, ServeAddr, ServeConfig, WorkerConfig};

const USAGE: &str = "\
usage: minnow-serve [options]                start the daemon
       minnow-serve --worker ADDR [options]  pull jobs from a daemon

daemon options:
  --socket PATH     Unix socket to listen on
                    (default target/minnow-serve/serve.sock)
  --http ADDR       also serve HTTP/1.1 on host:port (POST /eval,
                    POST /sweep, POST /explore, GET /stats)
  --store PATH      persist the result store to this JSONL file
                    (default: memory-only)
  --store-cap-mb N  store size cap in MiB (default 64)
  --executors N     local simulation threads (default: host cores;
                    0 = serve only from the store and remote workers)
  --queue-cap N     admission-control cap on open jobs (default 64)
  --out DIR         artifact + journal directory for sweep/explore ops
                    (default target/minnow-serve)
  --verbose         narrate requests to stderr

worker options (with --worker ADDR; ADDR is a socket path or host:port):
  --name NAME       handshake name (default worker-<pid>)
  --die-after N     fault injection: drop the connection, without
                    acknowledging, on receiving job N+1
  --verbose         narrate jobs to stderr

stop the daemon with: minnow-client shutdown
";

struct Args {
    worker: Option<String>,
    socket: String,
    http: Option<String>,
    store: Option<String>,
    store_cap_mb: u64,
    executors: Option<usize>,
    queue_cap: usize,
    out: String,
    name: Option<String>,
    die_after: Option<usize>,
    verbose: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        worker: None,
        socket: "target/minnow-serve/serve.sock".into(),
        http: None,
        store: None,
        store_cap_mb: 64,
        executors: None,
        queue_cap: 64,
        out: "target/minnow-serve".into(),
        name: None,
        die_after: None,
        verbose: false,
    };
    let mut argv = ArgStream::from_env();
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--worker" => args.worker = Some(argv.value("--worker")?),
            "--socket" => args.socket = argv.value("--socket")?,
            "--http" => args.http = Some(argv.value("--http")?),
            "--store" => args.store = Some(argv.value("--store")?),
            "--store-cap-mb" => {
                args.store_cap_mb = argv.parse_at_least("--store-cap-mb", 1)?
            }
            "--executors" => args.executors = Some(argv.parse::<u64>("--executors")? as usize),
            "--queue-cap" => args.queue_cap = argv.parse_at_least("--queue-cap", 1)? as usize,
            "--out" => args.out = argv.value("--out")?,
            "--name" => args.name = Some(argv.value("--name")?),
            "--die-after" => args.die_after = Some(argv.parse::<u64>("--die-after")? as usize),
            "--verbose" => args.verbose = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(addr) = &args.worker {
        let mut cfg = WorkerConfig::new(ServeAddr::parse(addr));
        if let Some(name) = args.name {
            cfg.name = name;
        }
        cfg.die_after = args.die_after;
        cfg.verbose = args.verbose;
        eprintln!("minnow-serve worker `{}` pulling from {}", cfg.name, cfg.addr);
        return match run_worker(&cfg) {
            Ok(done) => {
                eprintln!("worker `{}` done: {done} evaluations served", cfg.name);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let mut cfg = ServeConfig::new(&args.socket);
    cfg.http = args.http;
    cfg.store_path = args.store.map(PathBuf::from);
    cfg.store_cap_bytes = args.store_cap_mb << 20;
    if let Some(n) = args.executors {
        cfg.local_executors = n;
    }
    cfg.queue_cap = args.queue_cap;
    cfg.out_dir = PathBuf::from(&args.out);
    cfg.verbose = args.verbose;

    let daemon = match Daemon::start(cfg) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "minnow-serve listening on {}{}",
        daemon.socket().display(),
        daemon
            .http_addr()
            .map(|a| format!(" and http://{a}"))
            .unwrap_or_default()
    );
    daemon.join();
    ExitCode::SUCCESS
}
