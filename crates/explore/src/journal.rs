//! Append-only evaluation journal: the explorer's checkpoint.
//!
//! Every simulated evaluation — one configuration at one rung — becomes
//! one JSON line, appended and fsync'd per batch. A killed search
//! resumes by replaying its strategy against the journal: evaluations
//! already on disk are served from the cache instead of re-simulated,
//! so the resumed process continues exactly where the dead one
//! stopped, and (simulation being deterministic) the final frontier is
//! byte-identical to an uninterrupted run.
//!
//! The file is a [`JsonlLog`]: the first line is a header binding the
//! journal to a `(space, seed, strategy, rungs)` tuple; resuming with
//! different parameters is refused rather than silently mixing
//! incompatible results. A torn final line — the footprint of a process
//! killed mid-write — follows the log's rule: a complete record that
//! lost only its newline is kept, anything else is truncated away so a
//! later append cannot fuse with it into an unparsable interior line.
//! Corruption anywhere else is an error naming its line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use minnow_bench::json::JsonObject;
use minnow_bench::jsonl_log::JsonlLog;

use crate::json_read::Json;
use crate::space::Rung;

/// Schema identifier stamped into the journal's header line.
pub const JOURNAL_SCHEMA: &str = "minnow-explore-journal/v1";

/// The identity a journal is bound to.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalHeader {
    /// Space name.
    pub space: String,
    /// Sweep seed.
    pub seed: u64,
    /// Strategy label (`grid`, `random8`, `halving2`, ...).
    pub strategy: String,
    /// The space's rungs: scale factors serialize as numbers, external
    /// inputs as path strings.
    pub rungs: Vec<Rung>,
}

impl JournalHeader {
    fn to_json(&self) -> String {
        let mut rungs = String::from("[");
        for (i, r) in self.rungs.iter().enumerate() {
            if i > 0 {
                rungs.push(',');
            }
            let _ = write!(rungs, "{}", r.json_value());
        }
        rungs.push(']');
        JsonObject::new()
            .str("schema", JOURNAL_SCHEMA)
            .str("space", &self.space)
            .u64("seed", self.seed)
            .str("strategy", &self.strategy)
            .raw("rungs", &rungs)
            .finish()
    }

    fn from_json(doc: &Json) -> Result<JournalHeader, String> {
        let schema = doc.str_field("schema")?;
        if schema != JOURNAL_SCHEMA {
            return Err(format!("journal schema `{schema}` != `{JOURNAL_SCHEMA}`"));
        }
        let rungs = doc
            .get("rungs")
            .and_then(Json::as_array)
            .ok_or("missing `rungs` array")?
            .iter()
            .map(|v| {
                if let Some(s) = v.as_f64() {
                    Ok(Rung::Scale(s))
                } else if let Some(p) = v.as_str() {
                    Ok(Rung::Input(p.to_string()))
                } else {
                    Err("rung is neither a scale number nor an input path")
                }
            })
            .collect::<Result<Vec<Rung>, _>>()?;
        Ok(JournalHeader {
            space: doc.str_field("space")?.to_string(),
            seed: doc.u64_field("seed")?,
            strategy: doc.str_field("strategy")?.to_string(),
            rungs,
        })
    }

    /// Whether two headers describe the same search identity. Rungs are
    /// compared at the journal's serialization precision (six decimals
    /// for scales, exact paths for inputs).
    fn compatible(&self, other: &JournalHeader) -> bool {
        self.space == other.space
            && self.seed == other.seed
            && self.strategy == other.strategy
            && self.rungs.len() == other.rungs.len()
            && self
                .rungs
                .iter()
                .zip(&other.rungs)
                .all(|(a, b)| a.json_value() == b.json_value())
    }
}

fn identity_error(found: &JournalHeader, expected: &JournalHeader) -> ExploreError {
    ExploreError::Journal(format!(
        "journal belongs to a different search \
         (space {} seed {} strategy {} vs space {} seed {} strategy {}); \
         use a fresh journal path or delete it",
        found.space,
        found.seed,
        found.strategy,
        expected.space,
        expected.seed,
        expected.strategy,
    ))
}

/// One journaled evaluation: a configuration simulated at a rung.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRecord {
    /// Append sequence number (0-based; informational).
    pub seq: u64,
    /// Configuration id.
    pub id: String,
    /// Rung index into the space's ladder.
    pub rung: usize,
    /// The rung's scale factor (`0.0` for input rungs; the header's
    /// `rungs` array names the file).
    pub scale: f64,
    /// Derived input seed the point ran with.
    pub seed: u64,
    /// Simulated makespan in cycles.
    pub makespan: u64,
    /// Tasks executed — the search's cost currency.
    pub tasks: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// Memory accesses.
    pub mem_accesses: u64,
    /// Whether the simulation hit its task limit.
    pub timed_out: bool,
    /// Host wall time in microseconds (volatile: never feeds the
    /// frontier, so resumed journals may differ here and nowhere else).
    pub wall_us: u64,
}

impl EvalRecord {
    /// Serializes the record as one journal line (no trailing newline).
    /// Public because the `minnow-serve` worker protocol streams these
    /// same objects over its wire.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .u64("seq", self.seq)
            .str("id", &self.id)
            .u64("rung", self.rung as u64)
            .f64("scale", self.scale)
            .u64("seed", self.seed)
            .u64("makespan", self.makespan)
            .u64("tasks", self.tasks)
            .u64("instructions", self.instructions)
            .u64("l2_misses", self.l2_misses)
            .u64("mem_accesses", self.mem_accesses)
            .bool("timed_out", self.timed_out)
            .u64("wall_us", self.wall_us)
            .finish()
    }

    /// Parses a record serialized by [`EvalRecord::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or mistyped field.
    pub fn from_json(doc: &Json) -> Result<EvalRecord, String> {
        Ok(EvalRecord {
            seq: doc.u64_field("seq")?,
            id: doc.str_field("id")?.to_string(),
            rung: doc.u64_field("rung")? as usize,
            scale: doc.f64_field("scale")?,
            seed: doc.u64_field("seed")?,
            makespan: doc.u64_field("makespan")?,
            tasks: doc.u64_field("tasks")?,
            instructions: doc.u64_field("instructions")?,
            l2_misses: doc.u64_field("l2_misses")?,
            mem_accesses: doc.u64_field("mem_accesses")?,
            timed_out: doc.bool_field("timed_out")?,
            wall_us: doc.u64_field("wall_us")?,
        })
    }
}

/// The open journal: an eval cache backed by the append-only file.
#[derive(Debug)]
pub struct Journal {
    log: JsonlLog,
    header: JournalHeader,
    cache: BTreeMap<(String, usize), EvalRecord>,
    next_seq: u64,
    /// Evaluations served from disk on open (resume observability).
    resumed: usize,
}

/// Explorer errors.
#[derive(Debug)]
pub enum ExploreError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Malformed or incompatible journal.
    Journal(String),
    /// Invalid space or configuration.
    Config(String),
}

impl std::fmt::Display for ExploreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExploreError::Io(e) => write!(f, "i/o: {e}"),
            ExploreError::Journal(e) => write!(f, "journal: {e}"),
            ExploreError::Config(e) => write!(f, "config: {e}"),
        }
    }
}

impl std::error::Error for ExploreError {}

impl From<std::io::Error> for ExploreError {
    fn from(e: std::io::Error) -> Self {
        ExploreError::Io(e)
    }
}

impl Journal {
    /// Opens (resuming) or creates the journal at `path` for the given
    /// search identity, reading the whole file once.
    ///
    /// # Errors
    ///
    /// Fails on i/o errors, on a journal whose header does not match
    /// `header`, or on corruption anywhere but a torn final line.
    pub fn open(path: &Path, header: JournalHeader) -> Result<Journal, ExploreError> {
        let mut cache = BTreeMap::new();
        let mut next_seq = 0;
        let log = JsonlLog::open(
            path,
            &header.to_json(),
            |line| {
                let doc =
                    Json::parse(line).map_err(|e| ExploreError::Journal(format!("header: {e}")))?;
                let found = JournalHeader::from_json(&doc).map_err(ExploreError::Journal)?;
                if !found.compatible(&header) {
                    return Err(identity_error(&found, &header));
                }
                Ok(())
            },
            |n, line| {
                let rec = Json::parse(line)
                    .and_then(|doc| EvalRecord::from_json(&doc))
                    .map_err(|e| {
                        ExploreError::Journal(format!("corrupt record on journal line {n}: {e}"))
                    })?;
                next_seq = next_seq.max(rec.seq + 1);
                cache.insert((rec.id.clone(), rec.rung), rec);
                Ok(())
            },
        )?;
        Ok(Journal {
            log,
            header,
            resumed: cache.len(),
            cache,
            next_seq,
        })
    }

    /// The journal's identity header.
    pub fn header(&self) -> &JournalHeader {
        &self.header
    }

    /// Evaluations recovered from disk when the journal was opened.
    pub fn resumed(&self) -> usize {
        self.resumed
    }

    /// A cached evaluation, if this (configuration, rung) has run.
    pub fn get(&self, id: &str, rung: usize) -> Option<&EvalRecord> {
        self.cache.get(&(id.to_string(), rung))
    }

    /// The next append sequence number.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Every cached evaluation, in `(id, rung)` key order.
    pub fn records(&self) -> impl Iterator<Item = &EvalRecord> {
        self.cache.values()
    }

    /// Appends a batch of fresh evaluations: one line each, then a
    /// single write + fsync, making the whole batch durable at once.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; on error the batch may be partially
    /// visible on disk but the in-memory cache is not updated.
    pub fn append_batch(&mut self, records: Vec<EvalRecord>) -> Result<(), ExploreError> {
        self.log.append(records.iter().map(EvalRecord::to_json))?;
        for rec in records {
            self.next_seq = self.next_seq.max(rec.seq + 1);
            self.cache.insert((rec.id.clone(), rec.rung), rec);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write as _;
    use std::path::PathBuf;

    fn header() -> JournalHeader {
        JournalHeader {
            space: "smoke".into(),
            seed: 42,
            strategy: "grid".into(),
            rungs: vec![Rung::Scale(0.02), Rung::Scale(0.05)],
        }
    }

    fn record(seq: u64, id: &str, rung: usize) -> EvalRecord {
        EvalRecord {
            seq,
            id: id.into(),
            rung,
            scale: 0.02,
            seed: 7,
            makespan: 1000 + seq,
            tasks: 10 * (seq + 1),
            instructions: 50,
            l2_misses: 3,
            mem_accesses: 20,
            timed_out: false,
            wall_us: 12345,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("minnow-journal-{}-{name}.jsonl", std::process::id()))
    }

    #[test]
    fn create_append_reopen_round_trips() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::open(&path, header()).unwrap();
        assert_eq!(j.resumed(), 0);
        j.append_batch(vec![record(0, "a", 0), record(1, "b", 0)]).unwrap();
        j.append_batch(vec![record(2, "a", 1)]).unwrap();
        // Another writer (a dead daemon's worker, say) appended a record
        // this handle has not seen; the next open sees it.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        writeln!(f, "{}", record(3, "late", 1).to_json()).unwrap();
        drop(f);

        let j2 = Journal::open(&path, header()).unwrap();
        assert_eq!(j2.resumed(), 4);
        assert_eq!(j2.next_seq(), 4);
        assert_eq!(j2.get("a", 0).unwrap().makespan, 1000);
        assert_eq!(j2.get("a", 1).unwrap().makespan, 1002);
        assert_eq!(j2.get("late", 1).unwrap().makespan, 1003);
        assert!(j2.get("b", 1).is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_final_line_is_tolerated_but_interior_corruption_is_not() {
        let path = tmp("truncated");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::open(&path, header()).unwrap();
        j.append_batch(vec![record(0, "a", 0)]).unwrap();
        let clean_len = std::fs::metadata(&path).unwrap().len();
        // Simulate a kill mid-write: a partial record with no newline.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"seq\":1,\"id\":\"b\",\"ru").unwrap();
        drop(f);
        let text_with_torn = std::fs::read_to_string(&path).unwrap();
        let j2 = Journal::open(&path, header()).unwrap();
        assert_eq!(j2.resumed(), 1, "partial line ignored");
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            clean_len,
            "the torn bytes are truncated away on open"
        );

        // Interior corruption (a complete but malformed line) is fatal.
        let poisoned = text_with_torn.replace("{\"seq\":1,\"id\":\"b\",\"ru", "garbage\n");
        std::fs::write(&path, poisoned).unwrap();
        assert!(matches!(
            Journal::open(&path, header()),
            Err(ExploreError::Journal(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_repair_keeps_later_appends_parseable_across_cold_opens() {
        let path = tmp("torn-then-append");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::open(&path, header()).unwrap();
        j.append_batch(vec![record(0, "a", 0)]).unwrap();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"seq\":1,\"id\":\"b\",\"ma").unwrap();
        drop(f);
        // Before the repair existed, this open tolerated the torn tail
        // but the following append landed *after* it, fusing both into
        // one complete-but-malformed line — fatal interior corruption
        // for every later (fresh-process) open. Now the open truncates.
        let mut j2 = Journal::open(&path, header()).unwrap();
        j2.append_batch(vec![record(1, "b", 0)]).unwrap();
        let j3 = Journal::open(&path, header()).unwrap();
        assert_eq!(j3.resumed(), 2);
        assert_eq!(j3.get("b", 0).unwrap().makespan, 1001);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn input_rung_headers_round_trip() {
        let path = tmp("input-rungs");
        let _ = std::fs::remove_file(&path);
        let with_input = JournalHeader {
            rungs: vec![Rung::Scale(0.02), Rung::Input("graphs/road.mcsr".into())],
            ..header()
        };
        let mut j = Journal::open(&path, with_input.clone()).unwrap();
        j.append_batch(vec![record(0, "a", 1)]).unwrap();
        let j2 = Journal::open(&path, with_input.clone()).unwrap();
        assert_eq!(j2.header(), &with_input);
        assert_eq!(j2.resumed(), 1);
        assert!(matches!(
            Journal::open(&path, header()),
            Err(ExploreError::Journal(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mismatched_identity_is_refused() {
        let path = tmp("identity");
        let _ = std::fs::remove_file(&path);
        let _ = Journal::open(&path, header()).unwrap();
        for other in [
            JournalHeader { seed: 43, ..header() },
            JournalHeader { space: "other".into(), ..header() },
            JournalHeader { strategy: "halving2".into(), ..header() },
            JournalHeader { rungs: vec![Rung::Scale(0.02)], ..header() },
            JournalHeader {
                rungs: vec![Rung::Scale(0.02), Rung::Input("g.mcsr".into())],
            ..header()
            },
        ] {
            assert!(matches!(
                Journal::open(&path, other),
                Err(ExploreError::Journal(_))
            ));
        }
        std::fs::remove_file(&path).unwrap();
    }
}
