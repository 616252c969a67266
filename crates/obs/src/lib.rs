//! Zero-allocation-in-steady-state telemetry for the DDC suite.
//!
//! The paper's argument is built on *measured* per-stage activity
//! (Tables 2–5); this crate is the runtime measurement layer that lets
//! the chains, the channelizer bank and the streaming server report the
//! same quantities live, at a cost the `telemetry_overhead` benchmark
//! stage holds under 1%:
//!
//! - [`Counter`] / [`LogHistogram`]: relaxed-atomic counters and
//!   fixed-bucket base-2 log histograms, recorded once per *block*
//!   (never per sample) behind a [`MetricsHandle`] that is a no-op
//!   when telemetry is off.
//! - [`MetricsSnapshot`]: the export surface — lookup by name for
//!   in-process readers, and Prometheus text, the one serialised format
//!   and the body of the wire protocol's `MetricsReport` frame.
//! - [`TraceSink`] / [`TraceHandle`]: sampled per-batch span tracing
//!   (begin/end/instant events with 64-bit trace/span IDs in bounded,
//!   drop-counted [`SpanRing`]s that any number of threads may write),
//!   exported as Chrome trace-event JSON for Perfetto.
//!
//! Allocation discipline: building metrics (names, rings) allocates at
//! *configure* time; recording in steady state performs no heap
//! allocation, takes no locks, and never blocks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
mod metrics;
mod snapshot;
mod trace;

pub use hist::{bucket_index, bucket_upper_bound, HistSnapshot, LogHistogram, BUCKETS};
pub use metrics::{ChainMetrics, Counter, MetricsHandle, StageMetrics};
pub use snapshot::MetricsSnapshot;
pub use trace::{
    render_chrome_events, span_kind, SpanEvent, SpanRing, TraceHandle, TraceSink, SERVER_TRACE_BIT,
};
