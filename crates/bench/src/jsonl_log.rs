//! Append-only JSONL logs: the one file format behind the explore
//! journal and the `minnow-serve` result store.
//!
//! A log is a header line (the caller's schema/identity object) followed
//! by one JSON record per line. Callers replay it on open, later lines
//! winning, and append fsync'd batches while they run. This module owns
//! every file operation on a log; callers only see lines, and keep their
//! own policy (refuse or skip a bad line) in the callbacks they pass to
//! [`JsonlLog::open`].
//!
//! # Torn tails
//!
//! A process killed mid-append leaves bytes after the last newline. On
//! open those bytes are kept, with the newline restored, only when they
//! parse as one JSON value (a complete line that lost only its newline).
//! Otherwise they are truncated away, and the truncation is fsync'd
//! before anything is appended, so a later append never fuses with torn
//! bytes into an unparsable interior line. The rule covers the header
//! too: a log torn inside its header line is empty after the repair and
//! is created afresh. Creating a log fsyncs its header line and the
//! directory entry.
//!
//! # Rewrites
//!
//! [`JsonlLog::rewrite`] replaces the whole file durably: it writes a
//! temp file beside the log, fsyncs it, renames it over the log, fsyncs
//! the directory, and keeps appending to the renamed file. A crash at
//! any point leaves either the old log or the new one, never a mix.

use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write as _};
use std::path::{Path, PathBuf};

use crate::json_read::Json;

/// An open append-only JSONL log.
#[derive(Debug)]
pub struct JsonlLog {
    path: PathBuf,
    file: File,
    /// Non-blank lines in the file, header included.
    lines: usize,
}

impl JsonlLog {
    /// Opens the log at `path`, creating it (parent directories too)
    /// with `header` as its first line when it is absent or empty.
    ///
    /// An existing log's first non-blank line goes to `on_header`, then
    /// each later non-blank line goes to `on_record` with its 1-based
    /// line number in the file. A torn tail is repaired (see the module
    /// docs) only after every callback has succeeded, so a refused log
    /// is left untouched.
    ///
    /// # Errors
    ///
    /// Returns the first callback error, or any filesystem error
    /// (including a log whose complete lines are not UTF-8).
    pub fn open<E: From<io::Error>>(
        path: &Path,
        header: &str,
        mut on_header: impl FnMut(&str) -> Result<(), E>,
        mut on_record: impl FnMut(usize, &str) -> Result<(), E>,
    ) -> Result<JsonlLog, E> {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let cut = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        let tail = std::str::from_utf8(&bytes[cut..])
            .ok()
            .filter(|t| Json::parse(t).is_ok());
        let body = std::str::from_utf8(&bytes[..cut])
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let mut lines = 0;
        for (i, line) in body.lines().chain(tail).enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if lines == 0 {
                on_header(line)?;
            } else {
                on_record(i + 1, line)?;
            }
            lines += 1;
        }

        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        if tail.is_some() {
            file.write_all(b"\n")?;
            file.sync_data()?;
        } else if cut < bytes.len() {
            file.set_len(cut as u64)?;
            file.sync_data()?;
        }
        let mut log = JsonlLog {
            path: path.to_path_buf(),
            file,
            lines,
        };
        if lines == 0 {
            log.append([header])?;
            sync_dir(path)?;
        }
        Ok(log)
    }

    /// Appends a batch of records, one line each, with one write and
    /// one fsync: the whole batch becomes durable at once.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; the batch may then be partially on
    /// disk, and the next open repairs it like any torn tail.
    pub fn append<I>(&mut self, records: I) -> io::Result<()>
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        let mut payload = String::new();
        let mut n = 0;
        for rec in records {
            payload.push_str(rec.as_ref());
            payload.push('\n');
            n += 1;
        }
        if n == 0 {
            return Ok(());
        }
        self.file.write_all(payload.as_bytes())?;
        self.file.sync_data()?;
        self.lines += n;
        Ok(())
    }

    /// Replaces the log's contents with `header` and `records`, durably
    /// (see the module docs). Lines are streamed to disk, never gathered
    /// into one buffer.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors. Before the rename the old log is
    /// untouched and stays open for appends.
    pub fn rewrite<I>(&mut self, header: &str, records: I) -> io::Result<()>
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        let mut name = self.path.file_name().unwrap_or_default().to_os_string();
        name.push(".rewrite.tmp");
        let tmp = self.path.with_file_name(name);
        match std::fs::remove_file(&tmp) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        let file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&tmp)?;
        let mut out = BufWriter::new(&file);
        writeln!(out, "{header}")?;
        let mut lines = 1;
        for rec in records {
            writeln!(out, "{}", rec.as_ref())?;
            lines += 1;
        }
        out.flush()?;
        drop(out);
        file.sync_all()?;
        std::fs::rename(&tmp, &self.path)?;
        sync_dir(&self.path)?;
        // The temp file's handle now names the log: keep appending to it.
        self.file = file;
        self.lines = lines;
        Ok(())
    }

    /// Non-blank lines in the file, header included.
    pub fn lines(&self) -> usize {
        self.lines
    }
}

/// Makes the directory entry naming `path` durable.
fn sync_dir(path: &Path) -> io::Result<()> {
    let dir = path
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEADER: &str = r#"{"schema":"test-log/v1"}"#;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "minnow-jsonl-log-{}-{name}.jsonl",
            std::process::id()
        ))
    }

    /// Opens `path`, returning the log, the header seen (if any), and
    /// the `(line number, line)` records seen.
    fn open(path: &Path) -> (JsonlLog, Option<String>, Vec<(usize, String)>) {
        let mut header = None;
        let mut records = Vec::new();
        let log = JsonlLog::open::<io::Error>(
            path,
            HEADER,
            |line| {
                header = Some(line.to_string());
                Ok(())
            },
            |n, line| {
                records.push((n, line.to_string()));
                Ok(())
            },
        )
        .unwrap();
        (log, header, records)
    }

    #[test]
    fn create_append_reopen_round_trips() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let (mut log, header, records) = open(&path);
        assert_eq!((header, records.len(), log.lines()), (None, 0, 1));
        log.append([r#"{"a":1}"#, r#"{"a":2}"#]).unwrap();
        log.append(Vec::<String>::new()).unwrap();
        assert_eq!(log.lines(), 3);
        drop(log);
        let (log, header, records) = open(&path);
        assert_eq!(header.as_deref(), Some(HEADER));
        assert_eq!(
            records,
            vec![(2, r#"{"a":1}"#.to_string()), (3, r#"{"a":2}"#.to_string())]
        );
        assert_eq!(log.lines(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_before_the_next_append() {
        let path = tmp("torn");
        std::fs::write(&path, format!("{HEADER}\n{{\"a\":1}}\n{{\"a\":")).unwrap();
        let (mut log, _, records) = open(&path);
        assert_eq!(records.len(), 1, "the torn bytes are not a record");
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            format!("{HEADER}\n{{\"a\":1}}\n")
        );
        log.append([r#"{"a":2}"#]).unwrap();
        drop(log);
        let (_, _, records) = open(&path);
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].1, r#"{"a":2}"#);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn complete_tail_keeps_its_record_and_gets_its_newline_back() {
        let path = tmp("no-newline");
        std::fs::write(&path, format!("{HEADER}\n{{\"a\":1}}")).unwrap();
        let (mut log, _, records) = open(&path);
        assert_eq!(records, vec![(2, r#"{"a":1}"#.to_string())]);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            format!("{HEADER}\n{{\"a\":1}}\n")
        );
        log.append([r#"{"a":2}"#]).unwrap();
        drop(log);
        let (_, _, records) = open(&path);
        assert_eq!(records.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_header_starts_the_log_over() {
        let path = tmp("torn-header");
        std::fs::write(&path, &HEADER[..7]).unwrap();
        let (log, header, records) = open(&path);
        assert_eq!((header, records.len(), log.lines()), (None, 0, 1));
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            format!("{HEADER}\n")
        );
        drop(log);
        // A header that lost only its newline is kept.
        std::fs::write(&path, HEADER).unwrap();
        let (_, header, _) = open(&path);
        assert_eq!(header.as_deref(), Some(HEADER));
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            format!("{HEADER}\n")
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_refused_log_is_left_untouched() {
        let path = tmp("refused");
        let text = format!("{HEADER}\n{{\"a\":");
        std::fs::write(&path, &text).unwrap();
        let refused = JsonlLog::open(
            &path,
            HEADER,
            |_| Err(io::Error::other("wrong identity")),
            |_, _| Ok(()),
        );
        assert!(refused.is_err());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rewrite_replaces_the_contents_and_keeps_appending() {
        let path = tmp("rewrite");
        let _ = std::fs::remove_file(&path);
        let (mut log, _, _) = open(&path);
        log.append((0..10).map(|i| format!("{{\"a\":{i}}}")))
            .unwrap();
        log.rewrite(HEADER, [r#"{"a":9}"#]).unwrap();
        assert_eq!(log.lines(), 2);
        log.append([r#"{"a":10}"#]).unwrap();
        drop(log);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            format!("{HEADER}\n{{\"a\":9}}\n{{\"a\":10}}\n")
        );
        let mut tmp_name = path.file_name().unwrap().to_os_string();
        tmp_name.push(".rewrite.tmp");
        assert!(!path.with_file_name(tmp_name).exists());
        std::fs::remove_file(&path).unwrap();
    }
}
