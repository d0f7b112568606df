//! Reporting rules shared by every workload: tail percentiles, failure
//! accounting, metric names, workload identity, and the result line.

use std::fmt::Write as _;

use minnow_bench::json_read::Json;

/// Percentiles tried for a latency tail, highest first. Nothing above
/// p99: beyond it a run's tail is set by a few host hiccups.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile of sorted samples: the value at rank
/// `ceil(p/100 * n)` (1-based).
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Median of unsorted samples (nearest-rank p50); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    (!v.is_empty()).then(|| v[rank(50.0, v.len()) - 1])
}

/// The wall of a workload that runs a family of inputs: each input's
/// median wall, averaged over the inputs. `walls[i]` belongs to input
/// `i % inputs`. Inputs of one family differ in size far more than runs
/// differ in noise, so a plain median would jump between inputs; this
/// figure does not depend on the order the inputs ran in.
pub fn family_wall(walls: &[f64], inputs: usize) -> Option<f64> {
    let per_input: Vec<f64> = (0..inputs)
        .filter_map(|i| {
            median(
                &walls
                    .iter()
                    .skip(i)
                    .step_by(inputs)
                    .copied()
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    (!per_input.is_empty()).then(|| per_input.iter().sum::<f64>() / per_input.len() as f64)
}

/// A latency tail: the highest percentile of [`TAIL_LADDER`] with at
/// least [`TAIL_BEYOND`] samples beyond it, or the maximum (`p = 100`)
/// when no percentile has that many.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub p: f64,
    /// Its value.
    pub value: f64,
    /// Sample count.
    pub n: usize,
}

/// Computes the [`Tail`] of unsorted samples; `None` when empty.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let p = TAIL_LADDER
        .into_iter()
        .find(|&p| n - rank(p, n) >= TAIL_BEYOND)
        .unwrap_or(100.0);
    Some(Tail {
        p,
        value: v[rank(p, n) - 1],
        n,
    })
}

/// The outcome of one operation the benchmark sent to the program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpOutcome {
    /// Answered, and the answer matched its reference.
    Ok,
    /// Refused by admission control (HTTP 429 / `queue full`).
    Refused,
    /// Failed with an error.
    Error(String),
    /// Answered, but the answer differs from its reference.
    Mismatch(String),
}

/// Attempted and failed operation counts. Refusals, errors and
/// mismatches all count as failures.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, for any reason.
    pub failed: u64,
    /// The first few failure descriptions, for the log.
    pub first_failures: Vec<String>,
}

impl Tally {
    /// Counts one operation.
    pub fn record(&mut self, outcome: OpOutcome) {
        self.attempted += 1;
        let why = match outcome {
            OpOutcome::Ok => return,
            OpOutcome::Refused => "refused (queue full)".to_string(),
            OpOutcome::Error(e) => format!("error: {e}"),
            OpOutcome::Mismatch(e) => format!("mismatch: {e}"),
        };
        self.failed += 1;
        if self.first_failures.len() < 5 {
            self.first_failures.push(why);
        }
    }

    /// Failed operations over attempted ones.
    pub fn fail_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Whether a metric name is legal: a letter or digit first, then at
/// most 63 more of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

/// Everything that must match before two results may be compared.
#[derive(Debug, Clone, PartialEq)]
pub struct Identity {
    /// Workload name.
    pub workload: String,
    /// Input scale (the RMAT scale for image workloads).
    pub scale: f64,
    /// Input seeds the workload generated from, in run order.
    pub seeds: Vec<u64>,
    /// Distinct simulation points (or served runs) per unit of work.
    pub points: u64,
    /// Simulated tasks in one unit of work.
    pub total_tasks: u64,
    /// Host threads available to the run.
    pub nproc: u64,
}

impl Identity {
    /// The identity as JSON object fields.
    pub fn json(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"scale\":{},\"seeds\":{:?},\"points\":{},\"total_tasks\":{},\"nproc\":{}}}",
            self.workload, self.scale, self.seeds, self.points, self.total_tasks, self.nproc
        )
    }
}

/// A finished run: what is printed and written.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload identity.
    pub identity: Identity,
    /// Commit the program was built from, when known.
    pub commit: String,
    /// Build profile of the program.
    pub profile: &'static str,
    /// Operation counts.
    pub tally: Tally,
    /// Whether every checked output matched its reference.
    pub correct: bool,
    /// The contract metrics (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Further figures for people: labels, sample counts, shares.
    pub notes: Vec<(String, String)>,
    /// The traced run's spans as JSON lines (empty when untraced).
    pub spans: String,
}

/// Formats a float for JSON (finite, full precision).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

impl RunResult {
    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn line(&self) -> String {
        let mut m = String::new();
        for (i, metric) in self.metrics.iter().enumerate() {
            if i > 0 {
                m.push(',');
            }
            let _ = write!(
                m,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                metric.name,
                num(metric.value),
                metric.unit
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{m}}}}}",
            self.correct, self.tally.attempted, self.tally.failed
        )
    }

    /// The full result document: the line's content plus provenance and
    /// notes, for `compare` and for people.
    pub fn document(&self) -> String {
        let mut notes = String::new();
        for (i, (k, v)) in self.notes.iter().enumerate() {
            if i > 0 {
                notes.push(',');
            }
            let _ = write!(notes, "\"{k}\":\"{}\"", v.replace(['"', '\\'], "'"));
        }
        format!(
            "{{\"schema\":\"perfbench-result/v1\",\"identity\":{},\"commit\":\"{}\",\"profile\":\"{}\",\"fail_share\":{},\"result\":{},\"notes\":{{{notes}}}}}",
            self.identity.json(),
            self.commit,
            self.profile,
            num(self.tally.fail_share()),
            self.line()
        )
    }
}

/// One metric of two result documents: name, first value, second value.
pub type MetricPair = (String, Option<f64>, Option<f64>);

/// Pairs the metrics of two result documents by name, in the first
/// document's order.
///
/// # Errors
///
/// Refuses documents whose workload identities (workload, scale, seeds,
/// points, simulated tasks, host threads) differ: their numbers measure
/// different work.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<MetricPair>, String> {
    let (ia, ib) = (a.get("identity"), b.get("identity"));
    if ia.is_none() || ia != ib {
        return Err(format!(
            "workload identities differ; refusing to compare\n  {ia:?}\n  {ib:?}"
        ));
    }
    let metrics = |d: &Json| d.get("result").and_then(|r| r.get("metrics")).cloned();
    let (Some(Json::Object(ma)), Some(mb)) = (metrics(a), metrics(b)) else {
        return Err("a document has no metrics object".into());
    };
    let value = |m: &Json| m.get("value").and_then(Json::as_f64);
    Ok(ma
        .into_iter()
        .map(|(name, va)| {
            let y = mb.get(&name).and_then(value);
            (name, value(&va), y)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let samples = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 1000 samples: p99 is rank 990, ten beyond it.
        let t = tail(&samples(1000)).unwrap();
        assert_eq!((t.p, t.value, t.n), (99.0, 990.0, 1000));
        // 999 samples: p99 (rank 990) leaves 9, p95 (rank 950) 49.
        let t = tail(&samples(999)).unwrap();
        assert_eq!((t.p, t.value), (95.0, 950.0));
        // Plenty of samples: still p99, the top of the ladder.
        assert_eq!(tail(&samples(100_000)).unwrap().p, 99.0);
        // 84 samples: p90 (rank 76) leaves 8 beyond, p75 (rank 63) 21.
        let t = tail(&samples(84)).unwrap();
        assert_eq!((t.p, t.value), (75.0, 63.0));
        // 20 samples: p50 is rank 10 with exactly ten beyond.
        let t = tail(&samples(20)).unwrap();
        assert_eq!((t.p, t.value), (50.0, 10.0));
        // Too few for any percentile: the maximum.
        let t = tail(&samples(3)).unwrap();
        assert_eq!((t.p, t.value), (100.0, 3.0));
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn family_wall_averages_per_input_medians() {
        // Two inputs, three rounds: input 0 takes about 1 s, input 1
        // about 3 s; one outlier each.
        let walls = [1.0, 3.0, 1.1, 9.0, 5.0, 3.2];
        assert_eq!(family_wall(&walls, 2), Some((1.1 + 3.2) / 2.0));
        // The same walls in another input order give the same figure.
        let rotated = [3.0, 1.0, 9.0, 1.1, 3.2, 5.0];
        assert_eq!(family_wall(&rotated, 2), Some((3.2 + 1.1) / 2.0));
        assert_eq!(family_wall(&[], 2), None);
    }

    #[test]
    fn comparisons_refuse_other_workload_identities() {
        let doc = |seeds: &str, wall: f64| {
            Json::parse(&format!(
                "{{\"identity\":{{\"workload\":\"w\",\"scale\":0.3,\"seeds\":[{seeds}],\"points\":21,\"total_tasks\":9,\"nproc\":2}},\"result\":{{\"metrics\":{{\"wall_s\":{{\"value\":{wall},\"unit\":\"s\"}}}}}}}}"
            ))
            .unwrap()
        };
        let rows = compare(&doc("0, 1", 2.0), &doc("0, 1", 1.5)).unwrap();
        assert_eq!(rows, vec![("wall_s".to_string(), Some(2.0), Some(1.5))]);
        assert!(compare(&doc("0, 1", 2.0), &doc("1, 2", 2.0)).is_err());
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn refusals_errors_and_mismatches_all_fail() {
        let mut t = Tally::default();
        t.record(OpOutcome::Ok);
        t.record(OpOutcome::Refused);
        t.record(OpOutcome::Error("boom".into()));
        t.record(OpOutcome::Mismatch("digest".into()));
        assert_eq!((t.attempted, t.failed), (4, 3));
        assert_eq!(t.fail_share(), 0.75);
        assert_eq!(t.first_failures.len(), 3);
        assert_eq!(Tally::default().fail_share(), 0.0);
    }

    #[test]
    fn metric_names_are_limited() {
        for ok in ["wall_s", "runtime.run_s.PR", "serve.store_get_us", "9-a"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", "a\"b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = RunResult {
            identity: Identity {
                workload: "w".into(),
                scale: 0.3,
                seeds: vec![1, 2],
                points: 2,
                total_tasks: 3,
                nproc: 2,
            },
            commit: "c".into(),
            profile: "release",
            tally: Tally {
                attempted: 5,
                failed: 0,
                first_failures: Vec::new(),
            },
            correct: true,
            metrics: vec![Metric {
                name: "wall_s".into(),
                value: 1.25,
                unit: "s",
            }],
            notes: vec![("k".into(), "v\"".into())],
            spans: String::new(),
        };
        assert_eq!(
            r.line(),
            "{\"correct\":true,\"attempted\":5,\"failed\":0,\"metrics\":{\"wall_s\":{\"value\":1.25,\"unit\":\"s\"}}}"
        );
        assert!(r.document().contains("\"k\":\"v'\""));
        assert!(r.document().contains("\"seeds\":[1, 2]"));
    }
}
