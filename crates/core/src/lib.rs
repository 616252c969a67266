//! # ddc-core — the paper's Digital Down Converter
//!
//! Implements the reference DDC of *"An Optimal Architecture for a
//! DDC"* (Bijlsma, Wolkotte, Smit, 2006), §2: a numerically-controlled
//! oscillator drives a complex mixer, followed by a CIC2 decimating by
//! 16, a CIC5 decimating by 21 and a 125-tap polyphase FIR decimating
//! by 8 — 64.512 MSPS real input down to 24 kHz complex output
//! (Table 1 / Figure 1 of the paper).
//!
//! Two parallel implementations are provided and cross-checked:
//!
//! * a **floating-point reference chain** ([`chain::ReferenceDdc`])
//!   used to validate frequency-domain behaviour against closed-form
//!   filter mathematics, and
//! * a **bit-true fixed-point chain** ([`chain::FixedDdc`]) that models
//!   the hardware datapaths (12-bit FPGA variant of §5, 16-bit Montium
//!   variant of §6) exactly — including wrapping CIC accumulators,
//!   truncating shifts and the saturating 31-bit FIR accumulator of
//!   Figure 5. The architecture simulators in `ddc-arch-*` are verified
//!   bit-exact against this chain.
//!
//! Module map:
//!
//! * [`spec`] — [`spec::ChainSpec`], the single declarative description
//!   of a chain (rates, tuning, ordered stages, fixed-point formats)
//!   that every other layer constructs from or views into.
//! * [`params`] — stage configuration, validation, DRM/GSM presets
//!   (now views over [`spec::ChainSpec`]).
//! * [`nco`] — phase-accumulator NCO with LUT sine/cosine (Figure 1).
//! * [`mixer`] — the complex multiplier producing I/Q.
//! * [`cic`] — integrator-comb decimators (Figure 2).
//! * [`fir`] — polyphase and sequential (Figure 3 / Figure 5) FIRs.
//! * [`chain`] — the assembled DDC chains, and [`chain::DdcFarm`],
//!   several `FixedDdc` channels behind one shared handle.
//! * [`frontend`] — the fused NCO→mixer→CIC1 single-pass kernel that
//!   serves the input-rate part of the chain.
//! * [`activity`] — per-stage switching-activity and operation-count
//!   instrumentation feeding the power models.
//! * [`pruned`] — a Hogenauer register-pruned CIC (area/noise study).
//! * [`duc`] — the transmit-side dual (up-converter) for loopback tests.

// The crate's only unsafe code is in the three x86_64 `std::arch`
// kernel modules, `fir::simd`, `frontend::simd` and
// `channelizer::simd`, each behind its own scoped allow.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod activity;
pub mod chain;
pub mod channelizer;
pub mod cic;
pub mod duc;
pub mod fir;
pub mod frontend;
pub mod mixer;
pub mod nco;
pub mod params;
pub mod pruned;
pub mod spec;

pub use chain::{chain_metrics_for, DdcFarm, FixedDdc, ReferenceDdc};
pub use channelizer::{ChannelBackend, Channelizer, ChannelizerFarm, ChannelizerMetrics};
pub use ddc_obs::{ChainMetrics, MetricsHandle, MetricsSnapshot};
pub use frontend::FusedFrontEnd;
pub use params::{DdcConfig, FixedFormat};
pub use spec::{ChainSpec, ChannelizerSpec, SpecError, SpecNote, SpecNoteKind, StageSpec};

/// Whether this CPU runs the AVX2 kernels in `fir::simd`,
/// `frontend::simd` and `channelizer::simd`. Always `false` off x86_64,
/// where only the scalar kernels are compiled.
pub(crate) fn avx2_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}
