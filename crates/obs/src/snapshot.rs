//! [`MetricsSnapshot`]: the exportable point-in-time view.
//!
//! A snapshot is a flat list of named counters and named histogram
//! snapshots. Names may carry embedded Prometheus-style labels —
//! `ddc_stage_blocks{channel="0",stage="cic2r16"}` — which
//! [`MetricsSnapshot::to_prometheus`] splits into metric family and
//! label set. That text is the one export format: the body of the
//! wire protocol's `MetricsReport` frame. In-process readers look
//! values up by exact name instead.

use crate::hist::{bucket_upper_bound, HistSnapshot, BUCKETS};
use std::collections::BTreeMap;

/// A point-in-time view of every exported counter and histogram.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Named monotonic counter values.
    pub counters: Vec<(String, u64)>,
    /// Named histogram snapshots.
    pub histograms: Vec<(String, HistSnapshot)>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a counter.
    pub fn push_counter(&mut self, name: impl Into<String>, value: u64) {
        self.counters.push((name.into(), value));
    }

    /// Appends a histogram.
    pub fn push_hist(&mut self, name: impl Into<String>, snap: HistSnapshot) {
        self.histograms.push((name.into(), snap));
    }

    /// Looks up a counter by exact name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a histogram by exact name.
    pub fn histogram(&self, name: &str) -> Option<&HistSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    // ---------------------------------------------------------------
    // Prometheus text exposition format
    // ---------------------------------------------------------------

    /// Renders the snapshot in the Prometheus text exposition format:
    /// counters as `counter` families, histograms as `histogram`
    /// families with cumulative `_bucket{le=...}` samples plus `_sum`
    /// and `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(1024);

        let mut counter_families: BTreeMap<String, Vec<(String, u64)>> = BTreeMap::new();
        for (name, v) in &self.counters {
            let (base, labels) = split_labels(name);
            counter_families
                .entry(sanitize_metric_name(base))
                .or_default()
                .push((labels.to_string(), *v));
        }
        for (base, samples) in &counter_families {
            out.push_str(&format!("# TYPE {base} counter\n"));
            for (labels, v) in samples {
                out.push_str(base);
                push_labels(&mut out, labels, None);
                out.push_str(&format!(" {v}\n"));
            }
        }

        let mut hist_families: BTreeMap<String, Vec<(String, &HistSnapshot)>> = BTreeMap::new();
        for (name, h) in &self.histograms {
            let (base, labels) = split_labels(name);
            hist_families
                .entry(sanitize_metric_name(base))
                .or_default()
                .push((labels.to_string(), h));
        }
        for (base, samples) in &hist_families {
            out.push_str(&format!("# TYPE {base} histogram\n"));
            for (labels, h) in samples {
                let mut cum = 0u64;
                for (idx, &n) in h.buckets.iter().enumerate() {
                    if n == 0 || idx == BUCKETS - 1 {
                        continue; // top bucket is covered by +Inf
                    }
                    cum += n;
                    out.push_str(&format!("{base}_bucket"));
                    push_labels(&mut out, labels, Some(&bucket_upper_bound(idx).to_string()));
                    out.push_str(&format!(" {cum}\n"));
                }
                out.push_str(&format!("{base}_bucket"));
                push_labels(&mut out, labels, Some("+Inf"));
                out.push_str(&format!(" {}\n", h.count));
                out.push_str(&format!("{base}_sum"));
                push_labels(&mut out, labels, None);
                out.push_str(&format!(" {}\n", h.sum));
                out.push_str(&format!("{base}_count"));
                push_labels(&mut out, labels, None);
                out.push_str(&format!(" {}\n", h.count));
            }
        }
        out
    }
}

/// Splits `base{labels}` into (`base`, `labels`); labels may be empty.
fn split_labels(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(i) => (&name[..i], name[i + 1..].trim_end_matches('}')),
        None => (name, ""),
    }
}

/// Maps a string onto the Prometheus metric-name alphabet
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn sanitize_metric_name(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for (i, c) in s.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Appends `{labels}` (optionally with an extra `le` label) to `out`.
fn push_labels(out: &mut String, labels: &str, le: Option<&str>) {
    match (labels.is_empty(), le) {
        (true, None) => {}
        (true, Some(le)) => out.push_str(&format!("{{le=\"{le}\"}}")),
        (false, None) => out.push_str(&format!("{{{labels}}}")),
        (false, Some(le)) => out.push_str(&format!("{{{labels},le=\"{le}\"}}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::LogHistogram;

    fn sample_snapshot() -> MetricsSnapshot {
        let h = LogHistogram::new();
        for v in [0u64, 3, 3, 700, 70_000] {
            h.record(v);
        }
        let mut s = MetricsSnapshot::new();
        s.push_counter("ddc_jobs_total", 42);
        s.push_counter("ddc_stage_blocks{channel=\"0\",stage=\"cic2r16\"}", 7);
        s.push_hist(
            "ddc_stage_latency_ns{channel=\"0\",stage=\"cic2r16\"}",
            h.snapshot(),
        );
        s
    }

    #[test]
    fn prometheus_output_shape() {
        let text = sample_snapshot().to_prometheus();
        assert!(text.contains("# TYPE ddc_jobs_total counter\n"));
        assert!(text.contains("ddc_jobs_total 42\n"));
        assert!(text.contains("# TYPE ddc_stage_latency_ns histogram\n"));
        assert!(text.contains("ddc_stage_blocks{channel=\"0\",stage=\"cic2r16\"} 7\n"));
        // Cumulative buckets end at +Inf with the total count.
        assert!(text.contains("le=\"+Inf\"} 5\n"));
        assert!(text.contains("ddc_stage_latency_ns_count{channel=\"0\",stage=\"cic2r16\"} 5\n"));
        // Bucket lines are cumulative (monotone non-decreasing).
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "bucket series must be cumulative: {line}");
            last = v;
        }
    }

    #[test]
    fn lookup_finds_counters_and_histograms_by_exact_name() {
        let s = sample_snapshot();
        assert_eq!(s.counter("ddc_jobs_total"), Some(42));
        assert_eq!(s.counter("ddc_jobs"), None);
        assert!(s
            .histogram("ddc_stage_latency_ns{channel=\"0\",stage=\"cic2r16\"}")
            .is_some());
    }

    #[test]
    fn sanitize_and_split() {
        assert_eq!(sanitize_metric_name("ok_name:x"), "ok_name:x");
        assert_eq!(sanitize_metric_name("9bad name"), "_bad_name");
        assert_eq!(split_labels("a{b=\"c\"}"), ("a", "b=\"c\""));
        assert_eq!(split_labels("plain"), ("plain", ""));
    }
}
