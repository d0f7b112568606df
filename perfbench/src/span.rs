//! In-memory spans recorded around the benchmark's calls into the
//! program, and the per-layer self-time split they give.
//!
//! A span covers one call into one layer. Its parent is the span that
//! caused it. Spans that run side by side on `k` pool threads carry
//! weight `1/k`, so every split is in wall-clock seconds: a layer's
//! self time is its weighted duration minus its children's, and the
//! self times of a well-formed tree sum to the wall its root spans
//! cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Largest share of the traced wall the layer self times may leave
/// unexplained (or over-explain) before the split counts as not closed.
pub const CLOSURE_TOLERANCE: f64 = 0.05;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer (a workspace module name).
    pub layer: &'static str,
    /// What was called.
    pub name: String,
    /// Index of the causing span.
    pub parent: Option<usize>,
    /// Start, in seconds since the trace origin.
    pub start_s: f64,
    /// Duration in seconds.
    pub dur_s: f64,
    /// Share of the wall this span occupies (`1/k` on a `k`-wide pool).
    pub weight: f64,
}

/// A span buffer with a common time origin.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Trace {
    /// Seconds since the origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Seconds from the origin to `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Records a finished span; returns its index.
    pub fn push(
        &mut self,
        layer: &'static str,
        name: impl Into<String>,
        parent: Option<usize>,
        start_s: f64,
        dur_s: f64,
        weight: f64,
    ) -> usize {
        self.spans.push(Span {
            layer,
            name: name.into(),
            parent,
            start_s,
            dur_s,
            weight,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a full-weight span.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = self.now();
        let out = f();
        let dur = self.now() - start;
        let id = self.push(layer, name, parent, start, dur, 1.0);
        (out, id)
    }

    /// Changes a span's duration (for spans opened before their
    /// children were known).
    pub fn set_dur(&mut self, id: usize, dur_s: f64) {
        self.spans[id].dur_s = dur_s;
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Weighted self time of each span.
    fn span_self(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.dur_s * s.weight).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur_s * s.weight;
            }
        }
        own
    }

    /// Self time per layer, in wall-clock seconds.
    pub fn layer_self(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.span_self()) {
            *out.entry(s.layer).or_insert(0.0) += own;
        }
        out
    }

    /// The most negative span self time: below zero, children claim more
    /// than their parent covered, and the tree is malformed.
    pub fn min_self(&self) -> f64 {
        self.span_self().into_iter().fold(0.0, f64::min)
    }

    /// Summed duration of the spans with this layer and name.
    pub fn total(&self, layer: &str, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(|s| s.dur_s)
            .sum()
    }

    /// The spans as JSON lines.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"layer\":\"{}\",\"name\":\"{}\",\"start_s\":{:.9},\"dur_s\":{:.9},\"weight\":{}}}",
                s.layer,
                s.name.replace(['"', '\\'], "'"),
                s.start_s,
                s.dur_s,
                s.weight
            );
        }
        out
    }
}

/// How far the layer self times miss the traced wall, as a share of it.
pub fn closure_err(wall_s: f64, layer_self: &BTreeMap<&'static str, f64>) -> f64 {
    let attributed: f64 = layer_self.values().sum();
    if wall_s > 0.0 {
        (wall_s - attributed).abs() / wall_s
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_a_pool_tree() {
        let mut t = Trace::default();
        // A 10 s sweep on a 2-wide pool: lane 0 runs points of 6 s and
        // 3 s, lane 1 one point of 8 s; then 1 s of serialization.
        let sweep = t.push("bench", "sweep", None, 0.0, 10.0, 1.0);
        for (lane_points, lane) in [(vec![6.0, 3.0], 0), (vec![8.0], 1)] {
            let l = t.push("bench", format!("lane{lane}"), Some(sweep), 0.0, 10.0, 0.5);
            for p in lane_points {
                t.push("runtime", "point", Some(l), 0.0, p, 0.5);
            }
        }
        t.push("bench", "serialize", None, 10.0, 1.0, 1.0);
        let split = t.layer_self();
        assert!((split["runtime"] - 8.5).abs() < 1e-12);
        assert!((split["bench"] - 2.5).abs() < 1e-12);
        assert!(closure_err(11.0, &split) < 1e-12);
        assert!(closure_err(12.0, &split) > 0.08);
        assert_eq!(t.min_self(), 0.0);
        assert_eq!(t.total("runtime", "point"), 17.0);
    }

    #[test]
    fn oversized_children_show_as_negative_self_time() {
        let mut t = Trace::default();
        let root = t.push("explore", "search", None, 0.0, 1.0, 1.0);
        t.push("runtime", "batch", Some(root), 0.0, 1.5, 1.0);
        assert!(t.min_self() < -0.4);
    }

    #[test]
    fn timed_spans_nest_in_wall_order() {
        let mut t = Trace::default();
        let (v, id) = t.time("graph", "gen", None, || 7);
        assert_eq!(v, 7);
        assert_eq!(t.spans()[id].layer, "graph");
        assert!(t.spans()[id].dur_s >= 0.0);
        assert!(t.jsonl().contains("\"layer\":\"graph\""));
    }
}
