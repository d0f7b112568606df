//! Shared command-line helpers for the `minnow-*` binaries.
//!
//! Every binary in this repository hand-rolls its flag loop (the build
//! environment has no argument-parsing crate); the loops themselves are
//! tiny, but the supporting plumbing — pulling a flag's value, parsing
//! it with a readable error, writing an artifact with its parent
//! directories — was duplicated verbatim between `minnow-sweep` and
//! `minnow-run`. This module is that plumbing, shared by both and by
//! `minnow-explore`.

use std::str::FromStr;

/// A stream of command-line arguments (everything after the program
/// name) with flag-value helpers that produce uniform error messages.
#[derive(Debug)]
pub struct ArgStream {
    args: std::vec::IntoIter<String>,
}

impl ArgStream {
    /// The process's arguments, program name skipped.
    pub fn from_env() -> Self {
        ArgStream {
            args: std::env::args().skip(1).collect::<Vec<_>>().into_iter(),
        }
    }

    /// A stream over explicit arguments (tests).
    pub fn from_vec(args: Vec<String>) -> Self {
        ArgStream {
            args: args.into_iter(),
        }
    }

    /// The next raw argument, if any.
    #[allow(clippy::should_implement_trait)] // flag loops call it directly
    pub fn next(&mut self) -> Option<String> {
        self.args.next()
    }

    /// The value following a flag, or a uniform "requires a value" error.
    ///
    /// # Errors
    ///
    /// Returns an error naming `flag` when the stream is exhausted.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.args
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))
    }

    /// The value following a flag, parsed; errors name the flag and echo
    /// the offending text.
    ///
    /// # Errors
    ///
    /// Returns an error when the value is missing or fails to parse.
    pub fn parse<T>(&mut self, flag: &str) -> Result<T, String>
    where
        T: FromStr,
        T::Err: std::fmt::Display,
    {
        let raw = self.value(flag)?;
        raw.parse()
            .map_err(|e| format!("{flag}: invalid value `{raw}`: {e}"))
    }

    /// Like [`ArgStream::parse`], additionally rejecting values below
    /// `min` (flag loops use this for `--threads`-style counts).
    ///
    /// # Errors
    ///
    /// Returns an error when the value is missing, malformed, or `< min`.
    pub fn parse_at_least(&mut self, flag: &str, min: u64) -> Result<u64, String> {
        let v: u64 = self.parse(flag)?;
        if v < min {
            return Err(format!("{flag} must be at least {min}"));
        }
        Ok(v)
    }
}

/// Writes `doc` to `path`, creating parent directories as needed (the
/// artifact-writing idiom every binary shares).
///
/// # Errors
///
/// Propagates filesystem errors from directory creation or the write.
pub fn write_with_parents(path: &str, doc: &str) -> std::io::Result<()> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(args: &[&str]) -> ArgStream {
        ArgStream::from_vec(args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn value_and_parse_consume_in_order() {
        let mut s = stream(&["8", "0.25", "hello"]);
        assert_eq!(s.parse::<usize>("--threads").unwrap(), 8);
        assert_eq!(s.parse::<f64>("--scale").unwrap(), 0.25);
        assert_eq!(s.value("--out").unwrap(), "hello");
        assert_eq!(s.value("--seed").unwrap_err(), "--seed requires a value");
    }

    #[test]
    fn parse_errors_name_the_flag_and_value() {
        let mut s = stream(&["abc"]);
        let err = s.parse::<u64>("--seed").unwrap_err();
        assert!(err.starts_with("--seed: invalid value `abc`"), "{err}");
    }

    #[test]
    fn parse_at_least_enforces_the_floor() {
        let mut s = stream(&["0", "3"]);
        assert!(s.parse_at_least("--threads", 1).is_err());
        assert_eq!(s.parse_at_least("--threads", 1).unwrap(), 3);
    }

    #[test]
    fn write_with_parents_creates_directories() {
        let dir = std::env::temp_dir().join(format!("minnow-cli-test-{}", std::process::id()));
        let path = dir.join("a/b/doc.json");
        write_with_parents(path.to_str().unwrap(), "{}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
