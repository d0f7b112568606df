//! The content-addressed result store.
//!
//! Every completed evaluation is memoized under a key that names
//! everything the simulated outcome depends on:
//!
//! ```text
//! {namespace}|{run wire form}|in:{input digest}
//! ```
//!
//! * **namespace** — the space identity the request arrived under
//!   (`adhoc` for single evaluations, `sweep/<name>` for named sweeps,
//!   `space/<name>` for explorations). The ISSUE's key tuple — space
//!   identity, point fingerprint, seed, scale, input digest — is all
//!   here: seed and scale live inside the wire form.
//! * **run wire form** — `minnow_bench::eval::run_to_json`, the
//!   canonical serialization of exactly the simulation-relevant fields
//!   (and none of the outcome-neutral host-threading knobs), so two
//!   requests that must simulate identically share a key.
//! * **input digest** — FNV-1a/64 over the input file's bytes for
//!   external graphs (`gen` for generated inputs), so editing a graph
//!   on disk invalidates its cached results even at the same path.
//!
//! The store is size-capped with LRU eviction and persists itself as a
//! [`JsonlLog`] (`minnow-serve-store/v1`): one line per insert, replayed
//! in order on open (later lines win, the cap re-applied in replay
//! order; unparsable lines are skipped and counted). Whenever the file
//! holds more than twice as many lines as live entries (plus slack), on
//! open or after an insert, it is rewritten to the live entries alone,
//! so evictions and superseded inserts never grow it without bound.
//! Torn tails follow the log's rule (see [`minnow_bench::jsonl_log`]).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::SystemTime;

use minnow_bench::eval::{run_to_json, EvalReport};
use minnow_bench::json::JsonObject;
use minnow_bench::json_read::Json;
use minnow_bench::jsonl_log::JsonlLog;
use minnow_bench::runner::BenchRun;
use minnow_bench::Fnv;

use crate::stats::ServeStats;

/// Schema identifier stamped on the persisted store's header line.
pub const STORE_SCHEMA: &str = "minnow-serve-store/v1";

/// FNV-1a over a byte string, the repo's stock 64-bit content hash.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.update(bytes);
    h.finish()
}

/// Per-path digest memo: (file length, mtime) stamp plus the hex digest
/// computed when that stamp was last seen.
type DigestMemo = HashMap<PathBuf, (u64, Option<SystemTime>, String)>;

fn digest_cache() -> &'static Mutex<DigestMemo> {
    static CACHE: OnceLock<Mutex<DigestMemo>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The FNV-1a/64 digest of an input file's bytes, hex-encoded. Cached
/// per path and invalidated on length/mtime change, so a daemon serving
/// thousands of evaluations against one graph hashes it once.
///
/// # Errors
///
/// Returns a message naming the unreadable path.
pub fn input_digest(path: &Path) -> Result<String, String> {
    let meta =
        std::fs::metadata(path).map_err(|e| format!("input {}: {e}", path.display()))?;
    let stamp = (meta.len(), meta.modified().ok());
    if let Some((len, mtime, digest)) = digest_cache().lock().unwrap().get(path) {
        if (*len, *mtime) == stamp {
            return Ok(digest.clone());
        }
    }
    let bytes = std::fs::read(path).map_err(|e| format!("input {}: {e}", path.display()))?;
    let digest = format!("{:016x}", fnv64(&bytes));
    digest_cache()
        .lock()
        .unwrap()
        .insert(path.to_path_buf(), (stamp.0, stamp.1, digest.clone()));
    Ok(digest)
}

/// The content address of one evaluation: namespace, canonical run wire
/// form, input digest.
///
/// # Errors
///
/// Returns a message when the run names an unreadable input file.
pub fn store_key(namespace: &str, run: &BenchRun) -> Result<String, String> {
    let digest = match &run.input {
        Some(spec) => input_digest(&spec.path)?,
        None => "gen".into(),
    };
    Ok(format!("{namespace}|{}|in:{digest}", run_to_json(run)))
}

/// One memoized evaluation: the deterministic report plus the original
/// simulation's wall time (informational; repeat answers echo it).
#[derive(Debug, Clone, PartialEq)]
pub struct StoredEval {
    /// The deterministic simulation outcome.
    pub report: EvalReport,
    /// Wall microseconds the original simulation took.
    pub sim_wall_us: u64,
}

#[derive(Debug)]
struct Entry {
    eval: StoredEval,
    /// Store-local LRU clock value at last touch.
    last_used: u64,
    /// Accounted size: the persisted line's length.
    bytes: u64,
}

#[derive(Debug)]
struct Inner {
    entries: HashMap<String, Entry>,
    bytes: u64,
    tick: u64,
    log: Option<JsonlLog>,
}

/// The size-capped, persistent, content-addressed store.
#[derive(Debug)]
pub struct Store {
    inner: Mutex<Inner>,
    path: Option<PathBuf>,
    cap_bytes: u64,
    stats: Arc<ServeStats>,
}

fn header_line() -> String {
    JsonObject::new().str("schema", STORE_SCHEMA).finish()
}

fn persist_line(key: &str, eval: &StoredEval) -> String {
    JsonObject::new()
        .str("key", key)
        .u64("sim_wall_us", eval.sim_wall_us)
        .raw("report", &eval.report.to_json())
        .finish()
}

impl Store {
    /// Opens a store, replaying `path` when given (a missing file is an
    /// empty store). Entries beyond `cap_bytes` are LRU-evicted; the
    /// cap is a floor of one entry so a single oversized result still
    /// caches.
    ///
    /// # Errors
    ///
    /// Returns a message for an unreadable or schema-incompatible file.
    pub fn open(
        path: Option<PathBuf>,
        cap_bytes: u64,
        stats: Arc<ServeStats>,
    ) -> Result<Store, String> {
        let cap_bytes = cap_bytes.max(1);
        let mut inner = Inner {
            entries: HashMap::new(),
            bytes: 0,
            tick: 0,
            log: None,
        };
        if let Some(p) = &path {
            let mut skipped = 0usize;
            let log = JsonlLog::open(
                p,
                &header_line(),
                |line| {
                    let doc = Json::parse(line).ok();
                    let schema = doc.as_ref().and_then(|d| d.str_field("schema").ok());
                    match schema {
                        Some(STORE_SCHEMA) => Ok(()),
                        other => Err(std::io::Error::other(format!(
                            "schema `{}`, expected `{STORE_SCHEMA}`",
                            other.unwrap_or("?")
                        ))),
                    }
                },
                |_, line| {
                    // Isolated corruption: skip, keep serving.
                    match Json::parse(line).and_then(|doc| parse_entry(&doc)) {
                        Ok((key, eval)) => {
                            insert_unlocked(&mut inner, &key, &eval, cap_bytes, None)
                        }
                        Err(_) => skipped += 1,
                    }
                    Ok(())
                },
            )
            .map_err(|e| format!("store {}: {e}", p.display()))?;
            if skipped > 0 {
                eprintln!(
                    "minnow-serve: store {}: skipped {skipped} unparsable line(s)",
                    p.display()
                );
            }
            inner.log = Some(log);
            compact_if_bloated(&mut inner)?;
        }
        Ok(Store {
            inner: Mutex::new(inner),
            path,
            cap_bytes,
            stats,
        })
    }

    /// Looks up a key, bumping the hit/miss counters and LRU clock.
    pub fn get(&self, key: &str) -> Option<StoredEval> {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                ServeStats::bump(&self.stats.hits);
                Some(entry.eval.clone())
            }
            None => {
                ServeStats::bump(&self.stats.misses);
                None
            }
        }
    }

    /// Memoizes an evaluation: appends it to the persistence file
    /// (fsynced — results are worth milliseconds each), LRU-evicts past
    /// the cap, and compacts the file once dead lines dominate it.
    /// Re-inserting a live key supersedes it. Persistence is
    /// best-effort: a full disk degrades the store to memory-only
    /// rather than failing the evaluation that produced the result.
    pub fn insert(&self, key: &str, eval: &StoredEval) {
        let mut inner = self.inner.lock().unwrap();
        insert_unlocked(&mut inner, key, eval, self.cap_bytes, Some(&self.stats));
        let _ = compact_if_bloated(&mut inner);
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().entries.len()
    }

    /// `true` when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Accounted bytes of the live entries.
    pub fn bytes(&self) -> u64 {
        self.inner.lock().unwrap().bytes
    }

    /// The configured size cap in bytes.
    pub fn cap_bytes(&self) -> u64 {
        self.cap_bytes
    }

    /// The persistence path, when the store is durable.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }
}

fn parse_entry(doc: &Json) -> Result<(String, StoredEval), String> {
    let key = doc.str_field("key")?.to_string();
    let report_doc = doc.get("report").ok_or("missing `report`")?;
    let report = EvalReport::from_json(report_doc)?;
    let sim_wall_us = doc.u64_field("sim_wall_us")?;
    Ok((
        key,
        StoredEval {
            report,
            sim_wall_us,
        },
    ))
}

fn insert_unlocked(
    inner: &mut Inner,
    key: &str,
    eval: &StoredEval,
    cap_bytes: u64,
    stats: Option<&ServeStats>,
) {
    let line = persist_line(key, eval);
    let cost = line.len() as u64 + 1;
    if let Some(log) = inner.log.as_mut() {
        let _ = log.append([&line]);
    }
    inner.tick += 1;
    let tick = inner.tick;
    if let Some(old) = inner.entries.remove(key) {
        inner.bytes -= old.bytes;
    }
    inner.entries.insert(
        key.to_string(),
        Entry {
            eval: eval.clone(),
            last_used: tick,
            bytes: cost,
        },
    );
    inner.bytes += cost;
    while inner.bytes > cap_bytes && inner.entries.len() > 1 {
        let victim = inner
            .entries
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k.clone())
            .expect("non-empty");
        if let Some(old) = inner.entries.remove(&victim) {
            inner.bytes -= old.bytes;
        }
        if let Some(stats) = stats {
            ServeStats::bump(&stats.evictions);
        }
    }
}

/// Rewrites the log to the live entries once it carries more dead
/// weight than live entries (evictions and superseding inserts
/// accumulate). Live entries go oldest-touch first so a replay
/// reconstructs the same LRU order.
fn compact_if_bloated(inner: &mut Inner) -> Result<(), String> {
    let Some(log) = inner.log.as_mut() else {
        return Ok(());
    };
    let live = inner.entries.len();
    if log.lines() <= live.saturating_mul(2) + 16 {
        return Ok(());
    }
    let mut order: Vec<(&String, &Entry)> = inner.entries.iter().collect();
    order.sort_by_key(|(_, e)| e.last_used);
    log.rewrite(
        &header_line(),
        order.into_iter().map(|(key, e)| persist_line(key, &e.eval)),
    )
    .map_err(|e| format!("store compaction: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use minnow_algos::WorkloadKind;
    use std::fs::OpenOptions;
    use std::io::Write as _;

    fn report(makespan: u64) -> StoredEval {
        StoredEval {
            report: EvalReport {
                makespan,
                tasks: 1,
                ..EvalReport::default()
            },
            sim_wall_us: 7,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("minnow-store-{}-{name}", std::process::id()))
    }

    #[test]
    fn keys_separate_namespaces_and_simulation_relevant_fields_only() {
        let mut a = BenchRun::minnow(WorkloadKind::Bfs, 2);
        let mut b = a.clone();
        b.point_threads = 8; // accepted and ignored: outcome-neutral
        assert_eq!(
            store_key("adhoc", &a).unwrap(),
            store_key("adhoc", &b).unwrap()
        );
        assert_ne!(
            store_key("adhoc", &a).unwrap(),
            store_key("sweep/smoke", &a).unwrap()
        );
        a.seed = 99;
        assert_ne!(
            store_key("adhoc", &a).unwrap(),
            store_key("adhoc", &b).unwrap(),
            "seed is part of the address"
        );
    }

    #[test]
    fn input_digest_tracks_file_content() {
        let p = tmp("digest.bin");
        std::fs::write(&p, b"hello").unwrap();
        let d1 = input_digest(&p).unwrap();
        assert_eq!(d1, input_digest(&p).unwrap(), "cached digest is stable");
        std::fs::write(&p, b"hello, world, now longer").unwrap();
        assert_ne!(d1, input_digest(&p).unwrap());
        std::fs::remove_file(&p).unwrap();
        assert!(input_digest(&p).is_err());
    }

    #[test]
    fn lru_eviction_honors_the_cap_and_touch_order() {
        let stats = Arc::new(ServeStats::new());
        // Cap sized for roughly two entries.
        let line = persist_line("k0", &report(1)).len() as u64 + 1;
        let store = Store::open(None, line * 2 + 2, Arc::clone(&stats)).unwrap();
        store.insert("k0", &report(10));
        store.insert("k1", &report(11));
        assert_eq!(store.len(), 2);
        // Touch k0 so k1 is the LRU victim.
        assert!(store.get("k0").is_some());
        store.insert("k2", &report(12));
        assert_eq!(store.len(), 2);
        assert!(store.get("k1").is_none(), "k1 was least-recently used");
        assert!(store.get("k0").is_some());
        assert!(store.get("k2").is_some());
        assert_eq!(stats.evictions.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert!(store.bytes() <= store.cap_bytes());
    }

    #[test]
    fn persistence_replays_across_opens_and_supersedes_in_order() {
        let p = tmp("persist.jsonl");
        let _ = std::fs::remove_file(&p);
        let stats = Arc::new(ServeStats::new());
        {
            let store = Store::open(Some(p.clone()), u64::MAX, Arc::clone(&stats)).unwrap();
            store.insert("a", &report(1));
            store.insert("b", &report(2));
            store.insert("a", &report(3)); // supersedes the first line
        }
        let reopened = Store::open(Some(p.clone()), u64::MAX, Arc::clone(&stats)).unwrap();
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.get("a").unwrap().report.makespan, 3);
        assert_eq!(reopened.get("b").unwrap().report.makespan, 2);
        // A torn final line (kill -9 mid-append) is skipped, not fatal.
        drop(reopened);
        let mut f = OpenOptions::new().append(true).open(&p).unwrap();
        f.write_all(b"{\"key\":\"torn").unwrap();
        drop(f);
        let salvaged = Store::open(Some(p.clone()), u64::MAX, stats).unwrap();
        assert_eq!(salvaged.len(), 2);
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn insert_after_a_torn_tail_survives_the_next_open() {
        let p = tmp("torn-then-insert.jsonl");
        let _ = std::fs::remove_file(&p);
        let stats = Arc::new(ServeStats::new());
        {
            let store = Store::open(Some(p.clone()), u64::MAX, Arc::clone(&stats)).unwrap();
            store.insert("a", &report(1));
        }
        let mut f = OpenOptions::new().append(true).open(&p).unwrap();
        f.write_all(b"{\"key\":\"torn").unwrap();
        drop(f);
        {
            let store = Store::open(Some(p.clone()), u64::MAX, Arc::clone(&stats)).unwrap();
            assert_eq!(store.len(), 1);
            store.insert("b", &report(2));
        }
        let text = std::fs::read_to_string(&p).unwrap();
        for line in text.lines() {
            assert!(Json::parse(line).is_ok(), "unparsable store line: {line}");
        }
        let reopened = Store::open(Some(p.clone()), u64::MAX, stats).unwrap();
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.get("a").unwrap().report.makespan, 1);
        assert_eq!(reopened.get("b").unwrap().report.makespan, 2);
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn complete_final_record_without_newline_survives_open() {
        let p = tmp("no-newline.jsonl");
        let _ = std::fs::remove_file(&p);
        let stats = Arc::new(ServeStats::new());
        drop(Store::open(Some(p.clone()), u64::MAX, Arc::clone(&stats)).unwrap());
        // A daemon killed between a record's last byte and its newline.
        let mut f = OpenOptions::new().append(true).open(&p).unwrap();
        f.write_all(persist_line("a", &report(1)).as_bytes()).unwrap();
        drop(f);
        {
            let store = Store::open(Some(p.clone()), u64::MAX, Arc::clone(&stats)).unwrap();
            assert_eq!(store.len(), 1, "the complete record is kept");
            store.insert("b", &report(2));
        }
        let reopened = Store::open(Some(p.clone()), u64::MAX, stats).unwrap();
        assert_eq!(reopened.get("a").unwrap().report.makespan, 1);
        assert_eq!(reopened.get("b").unwrap().report.makespan, 2);
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn compaction_drops_dead_lines_but_keeps_live_entries() {
        let p = tmp("compact.jsonl");
        // A file written without running compaction: 40 supersedes of
        // one key, then a second key — 41 body lines, 2 live entries.
        let mut text = format!("{}\n", header_line());
        for i in 0..40 {
            text += &format!("{}\n", persist_line("hot", &report(i)));
        }
        text += &format!("{}\n", persist_line("cold", &report(99)));
        std::fs::write(&p, text).unwrap();
        let stats = Arc::new(ServeStats::new());
        let reopened = Store::open(Some(p.clone()), u64::MAX, stats).unwrap();
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.get("hot").unwrap().report.makespan, 39);
        let after = std::fs::read_to_string(&p).unwrap().lines().count();
        assert_eq!(after, 3, "header + two live entries after compaction");
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn evicting_inserts_keep_the_file_bounded_while_running() {
        let p = tmp("running-compaction.jsonl");
        let _ = std::fs::remove_file(&p);
        let stats = Arc::new(ServeStats::new());
        // A cap of roughly eight entries, driven through ten caps' worth
        // of distinct keys: every insert past the first few evicts.
        let line = persist_line("key-000", &report(1000)).len() as u64 + 1;
        let store = Store::open(Some(p.clone()), line * 8, Arc::clone(&stats)).unwrap();
        for i in 0..80 {
            store.insert(&format!("key-{i:03}"), &report(1000 + i));
            let lines = std::fs::read_to_string(&p).unwrap().lines().count();
            assert!(
                lines <= 2 * store.len() + 16,
                "{lines} file lines for {} live entries",
                store.len()
            );
        }
        assert_eq!(stats.evictions.load(std::sync::atomic::Ordering::Relaxed), 72);
        drop(store);
        let reopened = Store::open(Some(p.clone()), line * 8, stats).unwrap();
        assert_eq!(reopened.len(), 8);
        assert_eq!(reopened.get("key-079").unwrap().report.makespan, 1079);
        assert!(reopened.get("key-071").is_none(), "evicted entries stay evicted");
        let _ = std::fs::remove_file(&p);
    }
}
