//! Counters, per-stage metric bundles, and the [`MetricsHandle`] the
//! kernels consult.
//!
//! Everything here is built once at configure time (allocation is fine
//! there) and then only touched through relaxed atomics, so recording
//! in steady state is allocation-free and wait-free.

use crate::hist::LogHistogram;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// A relaxed atomic monotonic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// Metrics for one processing stage: block count, sample flow, and a
/// block-latency histogram. Recorded once per *block*, never per
/// sample.
#[derive(Debug)]
pub struct StageMetrics {
    /// Spec-derived stage name (e.g. `cic2r16`, `fir125r8`).
    pub name: String,
    /// Blocks processed.
    pub blocks: Counter,
    /// Samples consumed.
    pub samples_in: Counter,
    /// Samples produced.
    pub samples_out: Counter,
    /// Per-block processing latency in nanoseconds.
    pub latency_ns: LogHistogram,
}

impl StageMetrics {
    /// A zeroed stage bundle with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            blocks: Counter::new(),
            samples_in: Counter::new(),
            samples_out: Counter::new(),
            latency_ns: LogHistogram::new(),
        }
    }

    /// Records one processed block.
    #[inline]
    pub fn record_block(&self, samples_in: u64, samples_out: u64, elapsed_ns: u64) {
        self.blocks.inc();
        self.samples_in.add(samples_in);
        self.samples_out.add(samples_out);
        self.latency_ns.record(elapsed_ns);
    }
}

/// Per-channel chain metrics: one [`StageMetrics`] per ChainSpec stage
/// (by the spec's own stage labels) plus a whole-chain bundle.
#[derive(Debug)]
pub struct ChainMetrics {
    /// Per-stage bundles, in spec order.
    pub stages: Vec<StageMetrics>,
    /// Whole-chain (one `process_into` call) bundle.
    pub chain: StageMetrics,
}

impl ChainMetrics {
    /// Builds zeroed metrics for a chain with the given stage labels.
    pub fn new<I, S>(stage_names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self {
            stages: stage_names.into_iter().map(StageMetrics::new).collect(),
            chain: StageMetrics::new("chain"),
        }
    }
}

/// Cheap-to-clone handle the kernels consult before recording.
///
/// Disabled is the default and costs one branch on an always-`None`
/// option — the kernels stay bit-exact either way (telemetry only
/// *observes*), and fast when off.
#[derive(Clone, Debug, Default)]
pub struct MetricsHandle(Option<Arc<ChainMetrics>>);

impl MetricsHandle {
    /// The no-op handle.
    pub const fn disabled() -> Self {
        Self(None)
    }

    /// A live handle recording into `metrics`.
    pub fn enabled(metrics: Arc<ChainMetrics>) -> Self {
        Self(Some(metrics))
    }

    /// Whether recording is live.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The metrics to record into, if enabled.
    #[inline]
    pub fn get(&self) -> Option<&ChainMetrics> {
        self.0.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_none() {
        let h = MetricsHandle::disabled();
        assert!(!h.is_enabled());
        assert!(h.get().is_none());
        assert!(MetricsHandle::default().get().is_none());
    }

    #[test]
    fn chain_metrics_follow_stage_names() {
        let m = ChainMetrics::new(["cic2r16", "cic5r21", "fir125r8"]);
        assert_eq!(m.stages.len(), 3);
        assert_eq!(m.stages[1].name, "cic5r21");
        m.stages[0].record_block(2688, 168, 1500);
        assert_eq!(m.stages[0].blocks.get(), 1);
        assert_eq!(m.stages[0].samples_in.get(), 2688);
        assert_eq!(m.stages[0].samples_out.get(), 168);
        assert_eq!(m.stages[0].latency_ns.count(), 1);
    }

    #[test]
    fn handle_records_through_arc() {
        let m = Arc::new(ChainMetrics::new(["s0"]));
        let h = MetricsHandle::enabled(Arc::clone(&m));
        if let Some(cm) = h.get() {
            cm.chain.record_block(10, 1, 42);
        }
        assert_eq!(m.chain.blocks.get(), 1);
    }
}
