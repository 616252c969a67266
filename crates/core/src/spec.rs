//! `ChainSpec` — the single declarative description of a DDC chain.
//!
//! The paper's Table 1 fixes one reference plan (NCO → CIC2 ÷16 →
//! CIC5 ÷21 → 125-tap FIR ÷8, 64.512 MSPS → 24 kHz). Before this
//! module existed that plan was re-stated independently in
//! `core::params`, the GC4016 model, the GPP programs, the energy
//! scenarios and the server's preset enum; every copy could drift.
//! [`ChainSpec`] is now the one source of truth: a validated,
//! serializable value holding the input rate, the tuning frequency,
//! the ordered decimation stages (CIC or FIR) and the fixed-point
//! format. Everything else — [`crate::params::DdcConfig`], the
//! bit-true [`crate::chain::FixedDdc`], the engine, the wire protocol,
//! the architecture models and the benchmark registry — is a
//! constructor of or a view over a `ChainSpec`.
//!
//! The paper's numbers are the output of [`ChainSpec::drm_reference`];
//! the `DRM_*` constants below are the only definition site of the
//! reference-chain literals.

use crate::params::{DdcConfig, FixedFormat};
use ddc_dsp::firdes;
use ddc_dsp::remez;
use ddc_dsp::window::{kaiser_beta, Window};
use std::fmt;

/// Input sample rate of the reference design, Hz (64.512 MHz).
pub const DRM_INPUT_RATE: f64 = 64_512_000.0;
/// Per-stage decimation factors of the reference design, in chain
/// order (CIC2, CIC5, FIR). **The** definition site of `16 × 21 × 8`.
pub const DRM_STAGE_DECIMATIONS: [u32; 3] = [16, 21, 8];
/// Order of the reference design's first CIC.
pub const DRM_CIC1_ORDER: u32 = 2;
/// Order of the reference design's second CIC.
pub const DRM_CIC2_ORDER: u32 = 5;
/// Number of FIR taps in the reference design.
pub const DRM_FIR_TAPS: usize = 125;
/// Total decimation of the reference design — derived from
/// [`DRM_STAGE_DECIMATIONS`], never restated.
pub const DRM_TOTAL_DECIMATION: u32 = decimation_product(&DRM_STAGE_DECIMATIONS);
/// Clock cycles available to compute one FIR output in the sequential
/// FPGA implementation (§5.2.1: "2688 clock cycles to calculate one
/// single output sample") — the total decimation by construction.
pub const DRM_FIR_CYCLES_PER_OUTPUT: u32 = DRM_TOTAL_DECIMATION;
/// Output sample rate of the reference design, Hz (24 kHz) — derived.
pub const DRM_OUTPUT_RATE: f64 = DRM_INPUT_RATE / DRM_TOTAL_DECIMATION as f64;

/// Most stages a spec may declare (wire frames stay small and the
/// scratch-buffer chain stays shallow).
pub const MAX_STAGES: usize = 8;
/// Most taps a single FIR stage may declare.
pub const MAX_FIR_TAPS: usize = 4096;
/// Version byte leading every binary-encoded spec.
pub const SPEC_ENCODING_VERSION: u8 = 2;
/// Longest allowed spec name on the wire.
pub const MAX_NAME_LEN: usize = 64;
/// Most channels a [`ChannelizerSpec`] may declare (the FFT plan cache
/// and the per-output branch scratch are sized for this).
pub const MAX_CHANNELS: u32 = 1024;
/// Most prototype taps per polyphase branch.
pub const MAX_TAPS_PER_BRANCH: u32 = 64;
/// Version byte leading every binary-encoded channelizer spec.
pub const CHANNELIZER_ENCODING_VERSION: u8 = 1;
/// Longest prototype the Parks–McClellan designer is allowed to chew
/// on — its exchange iteration is O(taps²), so big banks must use the
/// closed-form Kaiser design instead.
pub const MAX_REMEZ_PROTOTYPE_TAPS: u32 = 1024;

/// Whether `name` may name a spec: at most [`MAX_NAME_LEN`] ASCII
/// letters, digits, `_`, `-` and `.`. A bank's name becomes a
/// Prometheus label value (`bank="…"`), so the alphabet leaves nothing
/// to escape.
fn valid_name(name: &str) -> bool {
    name.len() <= MAX_NAME_LEN
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.'))
}

/// Compile-time product of stage decimations, so derived constants can
/// never drift from the per-stage table.
const fn decimation_product(stages: &[u32]) -> u32 {
    let mut p = 1u32;
    let mut k = 0;
    while k < stages.len() {
        p *= stages[k];
        k += 1;
    }
    p
}

/// One decimation stage of a chain.
#[derive(Clone, Debug, PartialEq)]
pub enum StageSpec {
    /// An integrator–comb decimator.
    Cic {
        /// Number of integrator/comb pairs (1..=8).
        order: u32,
        /// Decimation factor (>= 1).
        decim: u32,
        /// Differential delay of the combs (1..=4; 1 in the paper).
        diff_delay: u32,
    },
    /// A decimating FIR filter.
    Fir {
        /// Coefficients at the stage input rate (unit DC gain, f64).
        taps: Vec<f64>,
        /// Decimation factor (>= 1).
        decim: u32,
    },
}

impl StageSpec {
    /// The stage's decimation factor.
    pub fn decimation(&self) -> u32 {
        match self {
            StageSpec::Cic { decim, .. } => *decim,
            StageSpec::Fir { decim, .. } => *decim,
        }
    }

    /// Short display label ("cic2r16", "fir125r8").
    pub fn label(&self) -> String {
        match self {
            StageSpec::Cic { order, decim, .. } => format!("cic{order}r{decim}"),
            StageSpec::Fir { taps, decim } => format!("fir{}r{decim}", taps.len()),
        }
    }
}

/// What [`ChainSpec::validate`] and [`ChainSpec::decode`] can object
/// to.
#[derive(Clone, Debug, PartialEq)]
pub enum SpecError {
    /// The chain has no stages.
    NoStages,
    /// More stages than [`MAX_STAGES`].
    TooManyStages(usize),
    /// Stage `.0` declared decimation zero.
    ZeroDecimation(usize),
    /// Stage `.0` declared a CIC order outside 1..=8.
    BadCicOrder(usize, u32),
    /// Stage `.0` declared a differential delay outside 1..=4.
    BadDiffDelay(usize, u32),
    /// Stage `.0` is a FIR with no taps.
    EmptyFir(usize),
    /// Stage `.0` declared more taps than [`MAX_FIR_TAPS`].
    OversizedFir(usize, usize),
    /// Stage `.0` holds a NaN or infinite tap.
    NonFiniteTap(usize),
    /// Stage `.0`'s CIC register would outgrow the 63-bit deferred-wrap
    /// arithmetic.
    RegisterTooWide {
        /// Offending stage index.
        stage: usize,
        /// Register width the stage would need.
        bits: u32,
    },
    /// A bit width was outside its supported range.
    BadWidth(&'static str, u32),
    /// The input rate was not positive and finite.
    BadRate(f64),
    /// Tuning frequency beyond Nyquist.
    TuneOutOfRange {
        /// Requested tuning frequency, Hz.
        freq: f64,
        /// Nyquist limit, Hz.
        nyquist: f64,
    },
    /// The stage decimation product overflows `u32`.
    DecimationOverflow,
    /// A declared total decimation disagrees with the product of the
    /// stage decimations — the consistency check the wire encoding
    /// carries redundantly.
    DecimationMismatch {
        /// Total the encoder declared.
        declared: u32,
        /// Product of the stage decimations.
        product: u32,
    },
    /// The name exceeds [`MAX_NAME_LEN`] bytes or holds a character
    /// other than an ASCII letter, digit, `_`, `-` or `.`.
    BadName,
    /// An encoded spec ended before the named field.
    Truncated(&'static str),
    /// An encoded spec had bytes after its last field.
    TrailingBytes(usize),
    /// Unknown stage tag byte in an encoded spec.
    BadStageTag(u8),
    /// Unsupported spec-encoding version byte.
    BadEncodingVersion(u8),
    /// A channelizer declared a channel count outside 2..=[`MAX_CHANNELS`].
    BadChannelCount(u32),
    /// A channelizer declared a taps-per-branch outside
    /// 1..=[`MAX_TAPS_PER_BRANCH`].
    BadTapsPerBranch(u32),
    /// A channelizer declared an oversampling factor that is not 1 or 2,
    /// or 2 with an odd channel count (the M/2 commutator needs N even).
    BadOversample(u32),
    /// Unknown prototype-design tag byte in an encoded channelizer spec.
    BadDesignTag(u8),
    /// A channelizer prototype design parameter was out of range.
    BadDesignParam(&'static str, f64),
    /// A channelizer enabled no channels at all.
    NoEnabledChannels,
    /// A channelizer enable mask set bits past the channel count.
    BadEnableMask,
    /// An encoded channelizer declared a prototype length disagreeing
    /// with channels × taps-per-branch — the redundant consistency
    /// check the wire encoding carries.
    PrototypeMismatch {
        /// Prototype tap count the encoder declared.
        declared: u32,
        /// channels × taps_per_branch.
        product: u32,
    },
    /// The prototype designer failed (Parks–McClellan non-convergence).
    DesignFailed(String),
    /// A declared latency budget was not positive and finite.
    BadLatencyBudget(f64),
    /// The chain's intrinsic group delay exceeds its declared latency
    /// budget — no runtime scheduling can meet it.
    LatencyBudgetExceeded {
        /// Group delay the stages add up to, µs.
        required_us: f64,
        /// Budget the spec declared, µs.
        budget_us: f64,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::NoStages => write!(f, "chain needs at least one stage"),
            SpecError::TooManyStages(n) => {
                write!(f, "{n} stages exceed the limit of {MAX_STAGES}")
            }
            SpecError::ZeroDecimation(k) => write!(f, "stage {k} decimation must be >= 1"),
            SpecError::BadCicOrder(k, o) => write!(f, "stage {k} CIC order {o} outside 1..=8"),
            SpecError::BadDiffDelay(k, m) => {
                write!(f, "stage {k} differential delay {m} outside 1..=4")
            }
            SpecError::EmptyFir(k) => write!(f, "stage {k} FIR needs at least one tap"),
            SpecError::OversizedFir(k, n) => {
                write!(f, "stage {k} FIR has {n} taps, limit {MAX_FIR_TAPS}")
            }
            SpecError::NonFiniteTap(k) => write!(f, "stage {k} holds a non-finite tap"),
            SpecError::RegisterTooWide { stage, bits } => {
                write!(
                    f,
                    "stage {stage} CIC register would need {bits} bits (> 63)"
                )
            }
            SpecError::BadWidth(s, w) => write!(f, "{s} width {w} outside its supported range"),
            SpecError::BadRate(r) => write!(f, "input rate {r} must be positive"),
            SpecError::TuneOutOfRange { freq, nyquist } => {
                write!(f, "tuning frequency {freq} Hz beyond Nyquist {nyquist} Hz")
            }
            SpecError::DecimationOverflow => write!(f, "stage decimation product overflows u32"),
            SpecError::DecimationMismatch { declared, product } => write!(
                f,
                "declared total decimation {declared} != stage product {product}"
            ),
            SpecError::BadName => write!(
                f,
                "spec name must be at most {MAX_NAME_LEN} ASCII letters, digits, '_', '-' or '.'"
            ),
            SpecError::Truncated(what) => write!(f, "encoded spec truncated reading {what}"),
            SpecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after encoded spec"),
            SpecError::BadStageTag(t) => write!(f, "unknown stage tag {t}"),
            SpecError::BadEncodingVersion(v) => write!(f, "unsupported spec encoding version {v}"),
            SpecError::BadChannelCount(n) => {
                write!(f, "channel count {n} outside 2..={MAX_CHANNELS}")
            }
            SpecError::BadTapsPerBranch(l) => {
                write!(f, "taps per branch {l} outside 1..={MAX_TAPS_PER_BRANCH}")
            }
            SpecError::BadOversample(m) => {
                write!(f, "oversampling factor {m} must be 1, or 2 with even N")
            }
            SpecError::BadDesignTag(t) => write!(f, "unknown prototype design tag {t}"),
            SpecError::BadDesignParam(what, v) => {
                write!(f, "prototype design parameter {what} = {v} out of range")
            }
            SpecError::NoEnabledChannels => write!(f, "channelizer enables no channels"),
            SpecError::BadEnableMask => {
                write!(f, "enable mask sets bits past the channel count")
            }
            SpecError::PrototypeMismatch { declared, product } => write!(
                f,
                "declared prototype length {declared} != channels x taps_per_branch {product}"
            ),
            SpecError::DesignFailed(why) => write!(f, "prototype design failed: {why}"),
            SpecError::BadLatencyBudget(us) => {
                write!(f, "latency budget {us} µs must be positive and finite")
            }
            SpecError::LatencyBudgetExceeded {
                required_us,
                budget_us,
            } => write!(
                f,
                "chain group delay {required_us:.1} µs exceeds the declared \
                 latency budget {budget_us:.1} µs"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

/// Kinds of non-fatal observation [`ChainSpec::notes`] reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpecNoteKind {
    /// A FIR stage's taps, once quantized to the spec's coefficient
    /// width, are not an even-symmetric palindrome, so the
    /// symmetric-fold FIR kernel cannot engage and the stage falls
    /// back to an unfolded dot product. Valid but slower — worth
    /// surfacing because linear-phase designs normally survive
    /// quantization symmetric, and losing symmetry usually means the
    /// taps were post-processed (truncated, perturbed) after design.
    AsymmetricFirTaps,
    /// A channelizer's channel count is not a power of two, so the
    /// per-output transform falls back from the radix-2 FFT to the
    /// naive O(N²) DFT. Valid but much slower at large N.
    NonPowerOfTwoChannels,
    /// A channelizer prototype's estimated transition band is wider
    /// than the channel spacing, so adjacent-channel energy aliases
    /// into every extracted channel. Valid — the bank still computes —
    /// but the channels are not isolated the way a channelizer promises.
    WideTransitionBand,
}

/// One non-fatal, structured observation about a valid spec —
/// something [`ChainSpec::validate`] deliberately does *not* reject
/// but that changes which kernels the bit-true chain can select.
#[derive(Clone, Debug, PartialEq)]
pub struct SpecNote {
    /// Index of the stage the note concerns.
    pub stage: usize,
    /// Machine-readable category.
    pub kind: SpecNoteKind,
    /// Human-readable explanation.
    pub message: String,
}

/// A declared bound on the chain's end-to-end group delay. Carried by
/// the spec (optionally) so a plan that *cannot* meet its application's
/// deadline is rejected at validation time, before any runtime
/// scheduling gets a chance to fail it — the Troeng–Doolittle
/// control-loop requirement made declarative.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyBudget {
    /// Largest acceptable intrinsic group delay, µs, sample-in to
    /// IQ-out, referred to the chain input.
    pub max_us: f64,
}

/// Group delay of one stage, in the accounting of
/// [`ChainSpec::latency_budget`].
#[derive(Clone, Debug, PartialEq)]
pub struct StageDelay {
    /// The stage's display label ("cic2r16", "fir125r8").
    pub label: String,
    /// Sample rate at the stage input, Hz.
    pub input_rate: f64,
    /// Group delay in samples at the stage's own input rate.
    pub stage_samples: f64,
    /// The same delay referred to the *chain* input (multiplied by the
    /// cumulative decimation of all preceding stages).
    pub input_samples: f64,
}

/// Per-stage group-delay accounting for a chain: exact sample counts
/// from CIC order/decimation and FIR tap geometry, each referred to the
/// chain input so they add.
#[derive(Clone, Debug, PartialEq)]
pub struct LatencyReport {
    /// One entry per stage, in chain order.
    pub stages: Vec<StageDelay>,
    /// Total group delay in chain-input samples.
    pub total_input_samples: f64,
    /// Chain input rate, Hz (denominator for the time conversions).
    pub input_rate: f64,
}

impl LatencyReport {
    /// Total group delay in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.total_input_samples / self.input_rate
    }

    /// Total group delay in microseconds — the unit latency budgets
    /// and the wire QoS profile use.
    pub fn total_us(&self) -> f64 {
        self.total_seconds() * 1e6
    }
}

/// A validated, serializable description of a full DDC chain: input
/// rate, tuning, ordered decimation stages and fixed-point format.
#[derive(Clone, Debug, PartialEq)]
pub struct ChainSpec {
    /// Short identifier ("drm", "wideband", …) used by the benchmark
    /// registry and wire diagnostics.
    pub name: String,
    /// Input (ADC) sample rate, Hz.
    pub input_rate: f64,
    /// NCO tuning frequency, Hz.
    pub tune_freq: f64,
    /// Decimation stages, in signal order after the NCO/mixer.
    pub stages: Vec<StageSpec>,
    /// Fixed-point formats for the bit-true chain.
    pub format: FixedFormat,
    /// Optional declared group-delay bound; `validate` rejects chains
    /// whose intrinsic delay ([`ChainSpec::latency_budget`]) exceeds it.
    pub budget: Option<LatencyBudget>,
}

impl ChainSpec {
    // ------------------------------------------------------- presets

    /// The paper's reference chain (Table 1): NCO → CIC2 ÷16 → CIC5
    /// ÷21 → 125-tap FIR ÷8 in the 12-bit FPGA format, untuned.
    ///
    /// The paper does not publish the tap values; we design them for
    /// the stated role: pass a 10 kHz DRM channel (±5 kHz around the
    /// tuned centre). At the 192 kHz FIR input rate the passband edge
    /// is 5/192 ≈ 0.026; after decimating by 8 any energy above
    /// 24 − 5 = 19 kHz would alias into the channel, so the stopband
    /// starts there. The 14 kHz transition band lets 125
    /// Kaiser-windowed taps reach > 80 dB rejection.
    pub fn drm_reference() -> Self {
        let beta = kaiser_beta(80.0);
        let taps = firdes::lowpass(DRM_FIR_TAPS, 12_000.0 / 192_000.0, Window::Kaiser(beta));
        let [d1, d2, d3] = DRM_STAGE_DECIMATIONS;
        ChainSpec {
            name: "drm".into(),
            input_rate: DRM_INPUT_RATE,
            tune_freq: 0.0,
            stages: vec![
                StageSpec::Cic {
                    order: DRM_CIC1_ORDER,
                    decim: d1,
                    diff_delay: 1,
                },
                StageSpec::Cic {
                    order: DRM_CIC2_ORDER,
                    decim: d2,
                    diff_delay: 1,
                },
                StageSpec::Fir { taps, decim: d3 },
            ],
            format: FixedFormat::FPGA12,
            budget: None,
        }
    }

    /// The reference chain rebuilt for control-loop latency: the same
    /// CICs, but the 125-tap channel filter redesigned minimum-phase
    /// ([`firdes::lowpass_min_phase`] — same magnitude contract, group
    /// delay collapsed from 62 to ~19 samples at 192 kHz) and a
    /// declared 150 µs latency budget the spec enforces. The linear-
    /// phase reference needs ≈ 336 µs of group delay, so this budget is
    /// only reachable with the minimum-phase tail — [`ChainSpec::validate`]
    /// proves it, and [`ChainSpec::notes`] flags the deliberate
    /// asymmetry (the FIR runs the unfolded kernel).
    pub fn drm_low_latency() -> Self {
        let beta = kaiser_beta(80.0);
        let taps =
            firdes::lowpass_min_phase(DRM_FIR_TAPS, 12_000.0 / 192_000.0, Window::Kaiser(beta));
        let mut s = ChainSpec::drm_reference();
        s.name = "drm_low_latency".into();
        s.stages[2] = StageSpec::Fir {
            taps,
            decim: DRM_STAGE_DECIMATIONS[2],
        };
        s.budget = Some(LatencyBudget { max_us: 150.0 });
        s
    }

    /// The reference chain in the Montium's 16-bit format.
    pub fn drm_montium() -> Self {
        ChainSpec {
            name: "drm_montium".into(),
            format: FixedFormat::MONTIUM16,
            ..ChainSpec::drm_reference()
        }
    }

    /// The wide-band variant: same CICs, FIR decimating by 2 only
    /// (total ÷672, 96 kHz complex output, ±40 kHz passband) — the
    /// relative bandwidth where CIC droop reaches ≈ 3 dB.
    pub fn wideband() -> Self {
        let beta = kaiser_beta(70.0);
        let taps = firdes::lowpass(DRM_FIR_TAPS, 46_000.0 / 192_000.0, Window::Kaiser(beta));
        let mut s = ChainSpec::drm_reference();
        s.name = "wideband".into();
        s.stages[2] = StageSpec::Fir { taps, decim: 2 };
        s
    }

    /// The wide-band variant with CIC droop compensation folded into
    /// the channel filter: a 95-tap prototype convolved with a 31-tap
    /// inverse-droop compensator — the same 125 total taps, but the
    /// combined CIC×FIR response stays flat across the passband.
    pub fn wideband_compensated() -> Self {
        let beta = kaiser_beta(65.0);
        let channel = firdes::lowpass(95, 46_000.0 / 192_000.0, Window::Kaiser(beta));
        let comp = firdes::cic_compensator(31, 5, 21, 0.25);
        let mut taps = firdes::convolve(&channel, &comp);
        firdes::normalize_dc(&mut taps);
        debug_assert_eq!(taps.len(), DRM_FIR_TAPS);
        let mut s = ChainSpec::wideband();
        s.name = "wideband_compensated".into();
        s.stages[2] = StageSpec::Fir { taps, decim: 2 };
        s
    }

    /// Every named preset, untuned — the registry the benchmark
    /// harness enumerates so new plans get benchmarked without
    /// touching the harness.
    pub fn registry() -> Vec<ChainSpec> {
        vec![
            ChainSpec::drm_reference(),
            ChainSpec::drm_montium(),
            ChainSpec::wideband(),
            ChainSpec::wideband_compensated(),
        ]
    }

    /// Looks a preset up by its registry name.
    pub fn by_name(name: &str) -> Option<ChainSpec> {
        ChainSpec::registry().into_iter().find(|s| s.name == name)
    }

    /// Returns the spec retuned to `tune_freq` Hz.
    pub fn tuned(mut self, tune_freq: f64) -> Self {
        self.tune_freq = tune_freq;
        self
    }

    // ------------------------------------------------- derived values

    /// Total decimation factor (saturating; [`ChainSpec::validate`]
    /// rejects overflowing products).
    pub fn total_decimation(&self) -> u32 {
        self.stages
            .iter()
            .fold(1u32, |p, s| p.saturating_mul(s.decimation()))
    }

    /// Output sample rate, Hz.
    pub fn output_rate(&self) -> f64 {
        self.input_rate / self.total_decimation() as f64
    }

    /// Sample rate at the input of each stage plus the output rate —
    /// the "Clock/sample rate" column of Table 1, generalised.
    pub fn stage_rates(&self) -> Vec<f64> {
        let mut rates = Vec::with_capacity(self.stages.len() + 1);
        let mut r = self.input_rate;
        rates.push(r);
        for s in &self.stages {
            r /= s.decimation() as f64;
            rates.push(r);
        }
        rates
    }

    /// Per-stage group-delay accounting: exact sample counts derived
    /// from the stage geometry, each referred to the chain input so
    /// they add into one end-to-end figure.
    ///
    /// * A CIC of order `O`, decimation `R`, differential delay `M` is
    ///   the `O`-fold convolution of a boxcar of length `R·M`; its
    ///   group delay is exactly `O·(R·M − 1)/2` input samples.
    /// * A linear-phase FIR of `T` taps delays `(T − 1)/2` samples at
    ///   its input rate; an asymmetric (e.g. minimum-phase) FIR is
    ///   accounted at its dominant-tap index
    ///   ([`firdes::nominal_delay`]).
    ///
    /// The NCO and mixer are memoryless and add nothing. This is the
    /// *intrinsic* delay of the signal path — queueing and batching
    /// delays live in the runtime and are measured, not declared.
    pub fn latency_budget(&self) -> LatencyReport {
        let mut stages = Vec::with_capacity(self.stages.len());
        let mut cum_decim = 1.0f64;
        let mut total = 0.0f64;
        for s in &self.stages {
            let stage_samples = match s {
                StageSpec::Cic {
                    order,
                    decim,
                    diff_delay,
                } => f64::from(*order) * (f64::from(*decim) * f64::from(*diff_delay) - 1.0) / 2.0,
                StageSpec::Fir { taps, .. } => {
                    if taps.is_empty() || taps.iter().any(|t| !t.is_finite()) {
                        0.0 // shapes validate() rejects; keep accounting total
                    } else {
                        firdes::nominal_delay(taps)
                    }
                }
            };
            let input_samples = stage_samples * cum_decim;
            stages.push(StageDelay {
                label: s.label(),
                input_rate: self.input_rate / cum_decim,
                stage_samples,
                input_samples,
            });
            total += input_samples;
            cum_decim *= f64::from(s.decimation());
        }
        LatencyReport {
            stages,
            total_input_samples: total,
            input_rate: self.input_rate,
        }
    }

    /// The NCO frequency tuning word for a 32-bit phase accumulator:
    /// `round(tune_freq / input_rate · 2³²)` (wrapping to represent
    /// negative/aliased frequencies).
    pub fn tuning_word(&self) -> u32 {
        let frac = self.tune_freq / self.input_rate;
        let w = (frac * 2f64.powi(32)).round() as i64;
        w.rem_euclid(1i64 << 32) as u32
    }

    /// `true` when the head of the chain is the NCO→mixer→CIC shape
    /// the fused front-end kernel covers.
    pub fn fused_head(&self) -> bool {
        matches!(
            self.stages.first(),
            Some(StageSpec::Cic {
                order: 2,
                diff_delay: 1,
                ..
            })
        )
    }

    // ------------------------------------------------------ validate

    /// Checks internal consistency.
    pub fn validate(&self) -> Result<(), SpecError> {
        if !valid_name(&self.name) {
            return Err(SpecError::BadName);
        }
        if !(self.input_rate.is_finite() && self.input_rate > 0.0) {
            return Err(SpecError::BadRate(self.input_rate));
        }
        if self.stages.is_empty() {
            return Err(SpecError::NoStages);
        }
        if self.stages.len() > MAX_STAGES {
            return Err(SpecError::TooManyStages(self.stages.len()));
        }
        for (name, w, lo, hi) in [
            ("data", self.format.data_bits, 2, 32),
            ("coeff", self.format.coeff_bits, 2, 32),
            ("fir accumulator", self.format.fir_acc_bits, 2, 48),
            ("lut address", self.format.lut_addr_bits, 2, 24),
        ] {
            if !(lo..=hi).contains(&w) {
                return Err(SpecError::BadWidth(name, w));
            }
        }
        let mut product = 1u32;
        for (k, s) in self.stages.iter().enumerate() {
            let decim = s.decimation();
            if decim == 0 {
                return Err(SpecError::ZeroDecimation(k));
            }
            product = product
                .checked_mul(decim)
                .ok_or(SpecError::DecimationOverflow)?;
            match s {
                StageSpec::Cic {
                    order,
                    decim,
                    diff_delay,
                } => {
                    if !(1..=8).contains(order) {
                        return Err(SpecError::BadCicOrder(k, *order));
                    }
                    if !(1..=4).contains(diff_delay) {
                        return Err(SpecError::BadDiffDelay(k, *diff_delay));
                    }
                    // Deferred-wrap CIC arithmetic lives in i64: the
                    // register (data width + full bit growth) must fit.
                    let growth = ceil_log2(decim.saturating_mul(*diff_delay)) * order;
                    let bits = self.format.data_bits + growth;
                    if bits > 63 {
                        return Err(SpecError::RegisterTooWide { stage: k, bits });
                    }
                }
                StageSpec::Fir { taps, .. } => {
                    if taps.is_empty() {
                        return Err(SpecError::EmptyFir(k));
                    }
                    if taps.len() > MAX_FIR_TAPS {
                        return Err(SpecError::OversizedFir(k, taps.len()));
                    }
                    if taps.iter().any(|t| !t.is_finite()) {
                        return Err(SpecError::NonFiniteTap(k));
                    }
                }
            }
        }
        let nyquist = self.input_rate / 2.0;
        if !self.tune_freq.is_finite() || self.tune_freq.abs() > nyquist {
            return Err(SpecError::TuneOutOfRange {
                freq: self.tune_freq,
                nyquist,
            });
        }
        if let Some(b) = &self.budget {
            if !(b.max_us.is_finite() && b.max_us > 0.0) {
                return Err(SpecError::BadLatencyBudget(b.max_us));
            }
            let required_us = self.latency_budget().total_us();
            if required_us > b.max_us {
                return Err(SpecError::LatencyBudgetExceeded {
                    required_us,
                    budget_us: b.max_us,
                });
            }
        }
        Ok(())
    }

    /// Non-fatal observations about the plan: structured notes for
    /// conditions [`ChainSpec::validate`] accepts but that degrade the
    /// kernels [`crate::chain::FixedDdc`] can select. Today that is
    /// one condition — FIR taps that quantize asymmetric at this
    /// spec's coefficient width ([`SpecNoteKind::AsymmetricFirTaps`]),
    /// which makes the symmetric-fold kernel fall back cleanly to an
    /// unfolded dot instead of silently mis-folding. The check runs on
    /// the *quantized* taps, exactly the values the bit-true chain
    /// will load.
    pub fn notes(&self) -> Vec<SpecNote> {
        let f = self.format;
        let mut notes = Vec::new();
        for (k, s) in self.stages.iter().enumerate() {
            if let StageSpec::Fir { taps, .. } = s {
                // Skip shapes validate() rejects; notes are only
                // meaningful on top of a valid spec.
                if taps.is_empty() || taps.iter().any(|t| !t.is_finite()) {
                    continue;
                }
                let q = firdes::quantize_taps(taps, f.coeff_bits, f.coeff_frac());
                if !firdes::is_linear_phase(&q) {
                    notes.push(SpecNote {
                        stage: k,
                        kind: SpecNoteKind::AsymmetricFirTaps,
                        message: format!(
                            "stage {k} ({}) FIR taps quantize asymmetric at \
                             {} coefficient bits: the symmetric-fold kernel \
                             cannot engage and the stage falls back to an \
                             unfolded dot product",
                            s.label(),
                            f.coeff_bits,
                        ),
                    });
                }
            }
        }
        notes
    }

    /// Validates and additionally checks an externally declared total
    /// decimation against the stage product — the "inconsistent stage
    /// products" guard the wire encoding exercises.
    pub fn validate_against_total(&self, declared: u32) -> Result<(), SpecError> {
        self.validate()?;
        let product = self.total_decimation();
        if declared != product {
            return Err(SpecError::DecimationMismatch { declared, product });
        }
        Ok(())
    }

    // ------------------------------------------------- DdcConfig view

    /// Builds a spec from the classic three-stage configuration.
    pub fn from_config(c: &DdcConfig) -> Self {
        ChainSpec {
            name: "config".into(),
            input_rate: c.input_rate,
            tune_freq: c.tune_freq,
            stages: vec![
                StageSpec::Cic {
                    order: c.cic1_order,
                    decim: c.cic1_decim,
                    diff_delay: 1,
                },
                StageSpec::Cic {
                    order: c.cic2_order,
                    decim: c.cic2_decim,
                    diff_delay: 1,
                },
                StageSpec::Fir {
                    taps: c.fir_taps.clone(),
                    decim: c.fir_decim,
                },
            ],
            format: c.format,
            budget: None,
        }
    }

    /// The classic three-stage view (CIC → CIC → FIR, unit
    /// differential delays). `None` for any other shape — the shapes
    /// only [`ChainSpec`]-aware consumers can run.
    pub fn to_config(&self) -> Option<DdcConfig> {
        match self.stages.as_slice() {
            [StageSpec::Cic {
                order: o1,
                decim: d1,
                diff_delay: 1,
            }, StageSpec::Cic {
                order: o2,
                decim: d2,
                diff_delay: 1,
            }, StageSpec::Fir { taps, decim: d3 }] => Some(DdcConfig {
                input_rate: self.input_rate,
                tune_freq: self.tune_freq,
                cic1_order: *o1,
                cic1_decim: *d1,
                cic2_order: *o2,
                cic2_decim: *d2,
                fir_taps: taps.clone(),
                fir_decim: *d3,
                format: self.format,
            }),
            _ => None,
        }
    }

    // ------------------------------------------------- wire encoding

    /// Compact binary encoding (little-endian throughout):
    ///
    /// ```text
    /// u8   encoding version (SPEC_ENCODING_VERSION)
    /// u8   name length, then that many UTF-8 bytes
    /// u64  input_rate  (f64 bits)
    /// u64  tune_freq   (f64 bits)
    /// u8×4 data_bits, coeff_bits, fir_acc_bits, lut_addr_bits
    /// u32  declared total decimation (redundant consistency check)
    /// u8   stage count
    /// per stage: u8 tag (1=CIC, 2=FIR)
    ///   CIC: u8 order, u8 diff_delay, u32 decim
    ///   FIR: u32 decim, u32 tap count, u64×taps (f64 bits)
    /// u64  latency budget max_us (f64 bits; 0 = no budget)
    /// ```
    ///
    /// Every spec has this one layout. A budget must be positive to
    /// validate, so the all-zero word cannot name one.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + 12 * self.stages.len());
        out.push(SPEC_ENCODING_VERSION);
        let name = self.name.as_bytes();
        debug_assert!(name.len() <= MAX_NAME_LEN);
        out.push(name.len().min(MAX_NAME_LEN) as u8);
        out.extend_from_slice(&name[..name.len().min(MAX_NAME_LEN)]);
        out.extend_from_slice(&self.input_rate.to_bits().to_le_bytes());
        out.extend_from_slice(&self.tune_freq.to_bits().to_le_bytes());
        out.push(self.format.data_bits as u8);
        out.push(self.format.coeff_bits as u8);
        out.push(self.format.fir_acc_bits as u8);
        out.push(self.format.lut_addr_bits as u8);
        out.extend_from_slice(&self.total_decimation().to_le_bytes());
        out.push(self.stages.len() as u8);
        for s in &self.stages {
            match s {
                StageSpec::Cic {
                    order,
                    decim,
                    diff_delay,
                } => {
                    out.push(1);
                    out.push(*order as u8);
                    out.push(*diff_delay as u8);
                    out.extend_from_slice(&decim.to_le_bytes());
                }
                StageSpec::Fir { taps, decim } => {
                    out.push(2);
                    out.extend_from_slice(&decim.to_le_bytes());
                    out.extend_from_slice(&(taps.len() as u32).to_le_bytes());
                    for t in taps {
                        out.extend_from_slice(&t.to_bits().to_le_bytes());
                    }
                }
            }
        }
        let budget_bits = self.budget.as_ref().map_or(0, |b| b.max_us.to_bits());
        out.extend_from_slice(&budget_bits.to_le_bytes());
        out
    }

    /// Decodes and fully validates a spec produced by
    /// [`ChainSpec::encode`], including the declared-total-decimation
    /// consistency check.
    pub fn decode(bytes: &[u8]) -> Result<ChainSpec, SpecError> {
        let mut c = SpecCursor { buf: bytes, pos: 0 };
        let version = c.u8("encoding version")?;
        if version != SPEC_ENCODING_VERSION {
            return Err(SpecError::BadEncodingVersion(version));
        }
        let name_len = c.u8("name length")? as usize;
        if name_len > MAX_NAME_LEN {
            return Err(SpecError::BadName);
        }
        let name = std::str::from_utf8(c.take(name_len, "name")?)
            .map_err(|_| SpecError::BadName)?
            .to_string();
        let input_rate = f64::from_bits(c.u64("input rate")?);
        let tune_freq = f64::from_bits(c.u64("tune freq")?);
        let format = FixedFormat {
            data_bits: c.u8("data bits")? as u32,
            coeff_bits: c.u8("coeff bits")? as u32,
            fir_acc_bits: c.u8("fir acc bits")? as u32,
            lut_addr_bits: c.u8("lut addr bits")? as u32,
        };
        let declared_total = c.u32("total decimation")?;
        let n_stages = c.u8("stage count")? as usize;
        if n_stages == 0 {
            return Err(SpecError::NoStages);
        }
        if n_stages > MAX_STAGES {
            return Err(SpecError::TooManyStages(n_stages));
        }
        let mut stages = Vec::with_capacity(n_stages);
        for k in 0..n_stages {
            match c.u8("stage tag")? {
                1 => stages.push(StageSpec::Cic {
                    order: c.u8("cic order")? as u32,
                    diff_delay: c.u8("cic diff delay")? as u32,
                    decim: c.u32("cic decimation")?,
                }),
                2 => {
                    let decim = c.u32("fir decimation")?;
                    let n_taps = c.u32("fir tap count")? as usize;
                    if n_taps > MAX_FIR_TAPS {
                        return Err(SpecError::OversizedFir(k, n_taps));
                    }
                    let mut taps = Vec::with_capacity(n_taps);
                    for _ in 0..n_taps {
                        taps.push(f64::from_bits(c.u64("fir tap")?));
                    }
                    stages.push(StageSpec::Fir { taps, decim });
                }
                other => return Err(SpecError::BadStageTag(other)),
            }
        }
        let budget = match c.u64("latency budget")? {
            0 => None,
            bits => Some(LatencyBudget {
                max_us: f64::from_bits(bits),
            }),
        };
        if c.remaining() != 0 {
            return Err(SpecError::TrailingBytes(c.remaining()));
        }
        let spec = ChainSpec {
            name,
            input_rate,
            tune_freq,
            stages,
            format,
            budget,
        };
        spec.validate_against_total(declared_total)?;
        Ok(spec)
    }
}

impl From<DdcConfig> for ChainSpec {
    fn from(c: DdcConfig) -> Self {
        ChainSpec::from_config(&c)
    }
}

impl From<&DdcConfig> for ChainSpec {
    fn from(c: &DdcConfig) -> Self {
        ChainSpec::from_config(c)
    }
}

// ===================================================================
// Channelizer spec
// ===================================================================

/// How the channelizer's prototype lowpass is designed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrototypeDesign {
    /// Closed-form Kaiser-windowed sinc — always converges, any length.
    Kaiser,
    /// Parks–McClellan equiripple via `dsp::remez` — tighter transition
    /// for the same length, but O(taps²) per exchange iteration, so
    /// capped at [`MAX_REMEZ_PROTOTYPE_TAPS`] total taps.
    Remez,
}

impl PrototypeDesign {
    fn to_u8(self) -> u8 {
        match self {
            PrototypeDesign::Kaiser => 0,
            PrototypeDesign::Remez => 1,
        }
    }

    fn from_u8(tag: u8) -> Result<Self, SpecError> {
        match tag {
            0 => Ok(PrototypeDesign::Kaiser),
            1 => Ok(PrototypeDesign::Remez),
            other => Err(SpecError::BadDesignTag(other)),
        }
    }
}

/// Declarative description of a polyphase filter-bank channelizer: one
/// wideband real input split into `channels` uniformly spaced complex
/// basebands in a single pass. The sibling of [`ChainSpec`] — same
/// validation discipline, same binary-encoding discipline, same
/// structured [`SpecNote`] advisories — describing the N-channel
/// front end instead of a single-carrier chain.
///
/// Channel `k` (0 ≤ k < N) sits at centre frequency `k·fs/N` for
/// `k ≤ N/2` and `(k−N)·fs/N` above (the usual signed FFT-bin order).
/// Each channel is the bounds-equivalent of a standalone
/// [`crate::chain::FixedDdc`] running a single `L·N`-tap FIR decimating
/// by `N/oversample`, tuned to that centre.
#[derive(Clone, Debug, PartialEq)]
pub struct ChannelizerSpec {
    /// Short identifier, used by the server's ingest registry and the
    /// benchmark naming (`channelizer_n64`).
    pub name: String,
    /// Wideband input (ADC) sample rate, Hz.
    pub input_rate: f64,
    /// Number of uniformly spaced channels N (2..=[`MAX_CHANNELS`]).
    /// Powers of two run on the radix-2 FFT; other counts fall back to
    /// the naive DFT (see [`SpecNoteKind::NonPowerOfTwoChannels`]).
    pub channels: u32,
    /// Prototype taps per polyphase branch L; the prototype lowpass has
    /// `L·N` taps total.
    pub taps_per_branch: u32,
    /// 1 = critically sampled (commutator advances N per output),
    /// 2 = M/2-oversampled (advances N/2; output rate doubles and the
    /// channel edges stay alias-free through the transition band).
    pub oversample: u32,
    /// Prototype design method.
    pub design: PrototypeDesign,
    /// Target stopband attenuation for the prototype, dB.
    pub atten_db: f64,
    /// Passband cutoff as a fraction of the half channel spacing
    /// `0.5·fs/N`; 1.0 puts the −6 dB point exactly at the channel
    /// crossover (adjacent channels meet at −6 dB, the classic bank).
    pub cutoff_scale: f64,
    /// Fixed-point formats for the bit-true bank (prototype taps are
    /// quantized to `coeff_bits` exactly like a [`ChainSpec`] FIR).
    pub format: FixedFormat,
    /// Per-channel enable mask, length `channels`; disabled channels
    /// skip their backend and their wire fan-out but still ride the
    /// shared transform for free.
    pub enabled: Vec<bool>,
}

impl ChannelizerSpec {
    /// A uniform all-channels-enabled bank with the reference defaults:
    /// 8 taps per branch, critically sampled, Kaiser 80 dB prototype,
    /// −6 dB crossover at the channel edges, 12-bit FPGA format.
    pub fn uniform(channels: u32, input_rate: f64) -> Self {
        ChannelizerSpec {
            name: format!("pfb{channels}"),
            input_rate,
            channels,
            taps_per_branch: 8,
            oversample: 1,
            design: PrototypeDesign::Kaiser,
            atten_db: 80.0,
            cutoff_scale: 1.0,
            format: FixedFormat::FPGA12,
            enabled: vec![true; channels as usize],
        }
    }

    /// Commutator advance per output sample: `N / oversample` input
    /// samples are consumed between consecutive output vectors.
    pub fn decimation(&self) -> u32 {
        self.channels / self.oversample
    }

    /// Per-channel output sample rate, Hz.
    pub fn output_rate(&self) -> f64 {
        self.input_rate / self.decimation() as f64
    }

    /// Total prototype length `L·N`.
    pub fn prototype_len(&self) -> u32 {
        self.channels * self.taps_per_branch
    }

    /// Centre frequency of channel `k`, Hz, in signed FFT-bin order.
    pub fn channel_freq(&self, k: u32) -> f64 {
        let n = self.channels;
        let ks = if k <= n / 2 {
            k as i64
        } else {
            k as i64 - n as i64
        };
        ks as f64 * self.input_rate / n as f64
    }

    /// Indices of the enabled channels, ascending.
    pub fn enabled_channels(&self) -> Vec<usize> {
        self.enabled
            .iter()
            .enumerate()
            .filter_map(|(k, &on)| on.then_some(k))
            .collect()
    }

    /// Estimated prototype transition width, cycles/sample at the input
    /// rate — Kaiser's formula `Δf ≈ (A − 7.95)/(14.36·(taps − 1))`,
    /// which also upper-bounds the equiripple design.
    pub fn transition_width(&self) -> f64 {
        let taps = self.prototype_len().max(2) as f64;
        ((self.atten_db - 7.95) / (14.36 * (taps - 1.0))).max(0.0)
    }

    /// Designs the prototype lowpass (unit DC gain, `L·N` f64 taps).
    /// The cutoff sits at `cutoff_scale · 0.5/N`. Kaiser designs cannot
    /// fail; Parks–McClellan returns [`SpecError::DesignFailed`] when
    /// the exchange does not converge.
    pub fn prototype_taps(&self) -> Result<Vec<f64>, SpecError> {
        let total = self.prototype_len() as usize;
        let half_spacing = 0.5 / self.channels as f64;
        let cutoff = self.cutoff_scale * half_spacing;
        match self.design {
            PrototypeDesign::Kaiser => {
                let beta = kaiser_beta(self.atten_db);
                Ok(firdes::lowpass(total, cutoff, Window::Kaiser(beta)))
            }
            PrototypeDesign::Remez => {
                // Equiripple pass/stop edges symmetric about the channel
                // crossover: pass at s·h, stop at (2−s)·h. The designer
                // wants an odd length; an even L·N designs one tap short
                // and pads a trailing zero (identical output values, one
                // sample of added group delay the bank never resolves).
                let odd = if total % 2 == 1 { total } else { total - 1 };
                let spec = remez::LowpassSpec {
                    taps: odd,
                    f_pass: cutoff,
                    f_stop: (2.0 - self.cutoff_scale) * half_spacing,
                    pass_weight: 1.0,
                };
                let mut taps = remez::remez_lowpass(spec)
                    .map_err(SpecError::DesignFailed)?
                    .taps;
                firdes::normalize_dc(&mut taps);
                taps.resize(total, 0.0);
                Ok(taps)
            }
        }
    }

    /// Checks internal consistency — the same contract as
    /// [`ChainSpec::validate`].
    pub fn validate(&self) -> Result<(), SpecError> {
        if !valid_name(&self.name) {
            return Err(SpecError::BadName);
        }
        if !(self.input_rate.is_finite() && self.input_rate > 0.0) {
            return Err(SpecError::BadRate(self.input_rate));
        }
        if !(2..=MAX_CHANNELS).contains(&self.channels) {
            return Err(SpecError::BadChannelCount(self.channels));
        }
        if !(1..=MAX_TAPS_PER_BRANCH).contains(&self.taps_per_branch) {
            return Err(SpecError::BadTapsPerBranch(self.taps_per_branch));
        }
        match self.oversample {
            1 => {}
            2 if self.channels.is_multiple_of(2) => {}
            m => return Err(SpecError::BadOversample(m)),
        }
        if !(self.atten_db.is_finite() && (20.0..=160.0).contains(&self.atten_db)) {
            return Err(SpecError::BadDesignParam("atten_db", self.atten_db));
        }
        if !(self.cutoff_scale.is_finite() && self.cutoff_scale > 0.0 && self.cutoff_scale <= 1.0) {
            return Err(SpecError::BadDesignParam("cutoff_scale", self.cutoff_scale));
        }
        if self.design == PrototypeDesign::Remez {
            if self.prototype_len() > MAX_REMEZ_PROTOTYPE_TAPS {
                return Err(SpecError::BadDesignParam(
                    "remez prototype taps",
                    self.prototype_len() as f64,
                ));
            }
            // The exchange needs a real transition band and ≥ 7 taps.
            if self.cutoff_scale > 0.95 {
                return Err(SpecError::BadDesignParam(
                    "remez cutoff_scale",
                    self.cutoff_scale,
                ));
            }
            if self.prototype_len() < 8 {
                return Err(SpecError::BadDesignParam(
                    "remez prototype taps",
                    self.prototype_len() as f64,
                ));
            }
        }
        for (name, w, lo, hi) in [
            ("data", self.format.data_bits, 2, 32),
            ("coeff", self.format.coeff_bits, 2, 32),
            ("fir accumulator", self.format.fir_acc_bits, 2, 48),
            ("lut address", self.format.lut_addr_bits, 2, 24),
        ] {
            if !(lo..=hi).contains(&w) {
                return Err(SpecError::BadWidth(name, w));
            }
        }
        if self.enabled.len() != self.channels as usize {
            return Err(SpecError::BadEnableMask);
        }
        if !self.enabled.iter().any(|&on| on) {
            return Err(SpecError::NoEnabledChannels);
        }
        Ok(())
    }

    /// Non-fatal advisories — the channelizer counterpart of
    /// [`ChainSpec::notes`]. `stage` 0 is the transform, 1 the
    /// prototype.
    pub fn notes(&self) -> Vec<SpecNote> {
        let mut notes = Vec::new();
        if !self.channels.is_power_of_two() {
            notes.push(SpecNote {
                stage: 0,
                kind: SpecNoteKind::NonPowerOfTwoChannels,
                message: format!(
                    "{} channels is not a power of two: the per-output \
                     transform falls back from the radix-2 FFT to the \
                     naive O(N²) DFT",
                    self.channels
                ),
            });
        }
        let spacing = 1.0 / self.channels as f64;
        let width = self.transition_width();
        if width > spacing {
            notes.push(SpecNote {
                stage: 1,
                kind: SpecNoteKind::WideTransitionBand,
                message: format!(
                    "prototype transition band ≈ {width:.5} cycles/sample \
                     exceeds the channel spacing {spacing:.5}: adjacent \
                     channels alias into every extracted channel; use more \
                     taps per branch or relax atten_db"
                ),
            });
        }
        notes
    }

    /// Compact binary encoding (little-endian throughout):
    ///
    /// ```text
    /// u8   encoding version (CHANNELIZER_ENCODING_VERSION)
    /// u8   name length, then that many UTF-8 bytes
    /// u64  input_rate (f64 bits)
    /// u32  channels
    /// u32  taps_per_branch
    /// u8   oversample
    /// u8   design tag (0=Kaiser, 1=Remez)
    /// u64  atten_db (f64 bits)
    /// u64  cutoff_scale (f64 bits)
    /// u8×4 data_bits, coeff_bits, fir_acc_bits, lut_addr_bits
    /// u32  declared prototype length (redundant consistency check)
    /// ceil(channels/8) enable-mask bytes, LSB-first; trailing bits 0
    /// ```
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(48 + self.channels as usize / 8);
        out.push(CHANNELIZER_ENCODING_VERSION);
        let name = self.name.as_bytes();
        debug_assert!(name.len() <= MAX_NAME_LEN);
        out.push(name.len().min(MAX_NAME_LEN) as u8);
        out.extend_from_slice(&name[..name.len().min(MAX_NAME_LEN)]);
        out.extend_from_slice(&self.input_rate.to_bits().to_le_bytes());
        out.extend_from_slice(&self.channels.to_le_bytes());
        out.extend_from_slice(&self.taps_per_branch.to_le_bytes());
        out.push(self.oversample as u8);
        out.push(self.design.to_u8());
        out.extend_from_slice(&self.atten_db.to_bits().to_le_bytes());
        out.extend_from_slice(&self.cutoff_scale.to_bits().to_le_bytes());
        out.push(self.format.data_bits as u8);
        out.push(self.format.coeff_bits as u8);
        out.push(self.format.fir_acc_bits as u8);
        out.push(self.format.lut_addr_bits as u8);
        out.extend_from_slice(&self.prototype_len().to_le_bytes());
        let mask_bytes = (self.channels as usize).div_ceil(8);
        let mut mask = vec![0u8; mask_bytes];
        for (k, &on) in self.enabled.iter().enumerate() {
            if on {
                mask[k / 8] |= 1 << (k % 8);
            }
        }
        out.extend_from_slice(&mask);
        out
    }

    /// Decodes and fully validates a spec produced by
    /// [`ChannelizerSpec::encode`], including the declared prototype
    /// length and the trailing-mask-bit checks.
    pub fn decode(bytes: &[u8]) -> Result<ChannelizerSpec, SpecError> {
        let mut c = SpecCursor { buf: bytes, pos: 0 };
        let version = c.u8("encoding version")?;
        if version != CHANNELIZER_ENCODING_VERSION {
            return Err(SpecError::BadEncodingVersion(version));
        }
        let name_len = c.u8("name length")? as usize;
        if name_len > MAX_NAME_LEN {
            return Err(SpecError::BadName);
        }
        let name = std::str::from_utf8(c.take(name_len, "name")?)
            .map_err(|_| SpecError::BadName)?
            .to_string();
        let input_rate = f64::from_bits(c.u64("input rate")?);
        let channels = c.u32("channel count")?;
        if !(2..=MAX_CHANNELS).contains(&channels) {
            return Err(SpecError::BadChannelCount(channels));
        }
        let taps_per_branch = c.u32("taps per branch")?;
        let oversample = c.u8("oversample")? as u32;
        let design = PrototypeDesign::from_u8(c.u8("design tag")?)?;
        let atten_db = f64::from_bits(c.u64("atten db")?);
        let cutoff_scale = f64::from_bits(c.u64("cutoff scale")?);
        let format = FixedFormat {
            data_bits: c.u8("data bits")? as u32,
            coeff_bits: c.u8("coeff bits")? as u32,
            fir_acc_bits: c.u8("fir acc bits")? as u32,
            lut_addr_bits: c.u8("lut addr bits")? as u32,
        };
        let declared_len = c.u32("prototype length")?;
        let mask_bytes = (channels as usize).div_ceil(8);
        let mask = c.take(mask_bytes, "enable mask")?;
        let mut enabled = Vec::with_capacity(channels as usize);
        for k in 0..channels as usize {
            enabled.push(mask[k / 8] & (1 << (k % 8)) != 0);
        }
        // Bits past the channel count must be clear — a corrupted mask
        // must not decode to a different-but-valid bank.
        for (byte_idx, &b) in mask.iter().enumerate() {
            for bit in 0..8 {
                if byte_idx * 8 + bit >= channels as usize && b & (1 << bit) != 0 {
                    return Err(SpecError::BadEnableMask);
                }
            }
        }
        if c.remaining() != 0 {
            return Err(SpecError::TrailingBytes(c.remaining()));
        }
        let spec = ChannelizerSpec {
            name,
            input_rate,
            channels,
            taps_per_branch,
            oversample,
            design,
            atten_db,
            cutoff_scale,
            format,
            enabled,
        };
        spec.validate()?;
        if declared_len != spec.prototype_len() {
            return Err(SpecError::PrototypeMismatch {
                declared: declared_len,
                product: spec.prototype_len(),
            });
        }
        Ok(spec)
    }

    /// The [`ChainSpec`] of the standalone single-carrier DDC that
    /// channel `k` of this bank is the bounds-equivalent of: one
    /// `L·N`-tap FIR decimating by `N/oversample`, tuned to the channel
    /// centre — the correctness anchor the equivalence tests run
    /// against. `None` when the prototype design fails or the prototype
    /// is too long for a [`ChainSpec`] FIR stage.
    pub fn channel_chain(&self, k: u32) -> Option<ChainSpec> {
        let taps = self.prototype_taps().ok()?;
        if taps.len() > MAX_FIR_TAPS {
            return None;
        }
        let spec = ChainSpec {
            name: format!("{}ch{k}", self.name),
            input_rate: self.input_rate,
            tune_freq: self.channel_freq(k),
            stages: vec![StageSpec::Fir {
                taps,
                decim: self.decimation(),
            }],
            format: self.format,
            budget: None,
        };
        spec.validate().ok()?;
        Some(spec)
    }

    /// Group-delay accounting for the bank — the channelizer
    /// counterpart of [`ChainSpec::latency_budget`]. Every prototype
    /// design here is linear phase, so each channel sees exactly
    /// `(L·N − 1)/2` samples of delay at the wideband input rate (the
    /// polyphase decomposition commutes the decimation through the
    /// filter without changing its delay).
    pub fn latency_budget(&self) -> LatencyReport {
        let stage_samples = (self.prototype_len() as f64 - 1.0) / 2.0;
        LatencyReport {
            stages: vec![StageDelay {
                label: format!("pfb{}", self.channels),
                input_rate: self.input_rate,
                stage_samples,
                input_samples: stage_samples,
            }],
            total_input_samples: stage_samples,
            input_rate: self.input_rate,
        }
    }
}

/// Smallest `n` with `2^n >= x` (0 for `x <= 1`).
fn ceil_log2(x: u32) -> u32 {
    if x <= 1 {
        0
    } else {
        32 - (x - 1).leading_zeros()
    }
}

struct SpecCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SpecCursor<'a> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], SpecError> {
        if self.pos + n > self.buf.len() {
            return Err(SpecError::Truncated(what));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self, what: &'static str) -> Result<u8, SpecError> {
        Ok(self.take(1, what)?[0])
    }
    fn u32(&mut self, what: &'static str) -> Result<u32, SpecError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }
    fn u64(&mut self, what: &'static str) -> Result<u64, SpecError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_constants_follow_the_stage_table() {
        assert_eq!(DRM_TOTAL_DECIMATION, 16 * 21 * 8);
        assert_eq!(DRM_FIR_CYCLES_PER_OUTPUT, DRM_TOTAL_DECIMATION);
        assert!((DRM_OUTPUT_RATE - 24_000.0).abs() < 1e-9);
    }

    #[test]
    fn drm_reference_reproduces_table1() {
        let s = ChainSpec::drm_reference();
        s.validate().unwrap();
        assert_eq!(s.total_decimation(), DRM_TOTAL_DECIMATION);
        let rates = s.stage_rates();
        assert_eq!(rates.len(), 4);
        assert!((rates[0] - 64_512_000.0).abs() < 1e-6);
        assert!((rates[1] - 4_032_000.0).abs() < 1e-6);
        assert!((rates[2] - 192_000.0).abs() < 1e-6);
        assert!((rates[3] - 24_000.0).abs() < 1e-9);
        assert!(s.fused_head());
        match &s.stages[2] {
            StageSpec::Fir { taps, .. } => assert_eq!(taps.len(), DRM_FIR_TAPS),
            other => panic!("expected FIR tail, got {other:?}"),
        }
    }

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let reg = ChainSpec::registry();
        for s in &reg {
            s.validate().unwrap();
            assert_eq!(ChainSpec::by_name(&s.name).as_ref(), Some(s));
        }
        let mut names: Vec<&str> = reg.iter().map(|s| s.name.as_str()).collect();
        names.dedup();
        assert_eq!(names.len(), reg.len());
        assert!(ChainSpec::by_name("no-such-plan").is_none());
    }

    #[test]
    fn config_view_roundtrips_for_classic_shapes() {
        let spec = ChainSpec::drm_reference().tuned(10e6);
        let cfg = spec.to_config().expect("classic shape");
        assert_eq!(cfg.total_decimation(), DRM_TOTAL_DECIMATION);
        let back = ChainSpec::from_config(&cfg);
        assert_eq!(back.stages, spec.stages);
        assert_eq!(back.tuning_word(), spec.tuning_word());
    }

    #[test]
    fn non_classic_shapes_have_no_config_view() {
        let mut s = ChainSpec::drm_reference();
        s.stages.push(StageSpec::Cic {
            order: 1,
            decim: 2,
            diff_delay: 1,
        });
        assert!(s.to_config().is_none());
        s.validate().unwrap(); // …but they are still valid specs
    }

    #[test]
    fn encode_decode_roundtrips_exactly() {
        for spec in ChainSpec::registry() {
            let spec = spec.tuned(-7.25e6);
            let bytes = spec.encode();
            let back = ChainSpec::decode(&bytes).expect("decode");
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn decode_rejects_malformed_specs() {
        let good = ChainSpec::drm_reference().encode();

        // bad version byte
        let mut b = good.clone();
        b[0] = 99;
        assert_eq!(
            ChainSpec::decode(&b),
            Err(SpecError::BadEncodingVersion(99))
        );

        // truncation anywhere must error, never panic
        for n in 0..good.len() {
            assert!(ChainSpec::decode(&good[..n]).is_err(), "prefix {n} passed");
        }

        // trailing garbage
        let mut b = good.clone();
        b.push(0);
        assert_eq!(ChainSpec::decode(&b), Err(SpecError::TrailingBytes(1)));

        // corrupt declared total
        let mut spec = ChainSpec::drm_reference();
        let bytes = spec.encode();
        let name_len = bytes[1] as usize;
        let total_at = 2 + name_len + 16 + 4;
        let mut b = bytes.clone();
        b[total_at..total_at + 4].copy_from_slice(&999u32.to_le_bytes());
        assert_eq!(
            ChainSpec::decode(&b),
            Err(SpecError::DecimationMismatch {
                declared: 999,
                product: DRM_TOTAL_DECIMATION
            })
        );

        // zero decimation in a stage
        spec.stages[0] = StageSpec::Cic {
            order: 2,
            decim: 0,
            diff_delay: 1,
        };
        assert_eq!(
            ChainSpec::decode(&spec.encode()),
            Err(SpecError::ZeroDecimation(0))
        );
    }

    #[test]
    fn validate_rejects_bad_shapes() {
        let mut s = ChainSpec::drm_reference();
        s.stages.clear();
        assert_eq!(s.validate(), Err(SpecError::NoStages));

        let mut s = ChainSpec::drm_reference();
        s.stages = vec![
            StageSpec::Cic {
                order: 1,
                decim: 2,
                diff_delay: 1
            };
            MAX_STAGES + 1
        ];
        assert_eq!(s.validate(), Err(SpecError::TooManyStages(MAX_STAGES + 1)));

        let mut s = ChainSpec::drm_reference();
        s.stages[1] = StageSpec::Cic {
            order: 9,
            decim: 21,
            diff_delay: 1,
        };
        assert_eq!(s.validate(), Err(SpecError::BadCicOrder(1, 9)));

        let mut s = ChainSpec::drm_reference();
        s.stages[2] = StageSpec::Fir {
            taps: vec![],
            decim: 8,
        };
        assert_eq!(s.validate(), Err(SpecError::EmptyFir(2)));

        let mut s = ChainSpec::drm_reference();
        s.stages[2] = StageSpec::Fir {
            taps: vec![0.0; MAX_FIR_TAPS + 1],
            decim: 8,
        };
        assert_eq!(
            s.validate(),
            Err(SpecError::OversizedFir(2, MAX_FIR_TAPS + 1))
        );

        let mut s = ChainSpec::drm_reference();
        s.stages[0] = StageSpec::Cic {
            order: 8,
            decim: 1 << 10,
            diff_delay: 1,
        };
        assert!(matches!(
            s.validate(),
            Err(SpecError::RegisterTooWide { stage: 0, .. })
        ));

        let mut s = ChainSpec::drm_reference();
        s.tune_freq = 40e6;
        assert!(matches!(
            s.validate(),
            Err(SpecError::TuneOutOfRange { .. })
        ));

        let mut s = ChainSpec::drm_reference();
        s.input_rate = -1.0;
        assert!(matches!(s.validate(), Err(SpecError::BadRate(_))));
    }

    #[test]
    fn notes_flag_asymmetric_quantized_fir_taps() {
        // Every preset designs linear-phase FIRs that stay palindromic
        // through quantization: no notes.
        for s in ChainSpec::registry() {
            assert_eq!(s.notes(), vec![], "unexpected notes on {}", s.name);
        }

        // Perturbing one tap by well over an LSB breaks the quantized
        // palindrome: a structured note names the stage, and the spec
        // stays valid (fallback, not rejection).
        let mut s = ChainSpec::drm_reference();
        if let StageSpec::Fir { taps, .. } = &mut s.stages[2] {
            taps[3] += 0.01;
        }
        s.validate().unwrap();
        let notes = s.notes();
        assert_eq!(notes.len(), 1);
        assert_eq!(notes[0].stage, 2);
        assert_eq!(notes[0].kind, SpecNoteKind::AsymmetricFirTaps);
        assert!(
            notes[0].message.contains("fir125r8"),
            "{}",
            notes[0].message
        );

        // Non-FIR stages and invalid tap shapes produce no notes.
        let mut s = ChainSpec::drm_reference();
        s.stages[2] = StageSpec::Fir {
            taps: vec![f64::NAN; 5],
            decim: 8,
        };
        assert!(s.notes().is_empty());
    }

    #[test]
    fn declared_total_mismatch_is_a_validation_error() {
        let s = ChainSpec::drm_reference();
        assert_eq!(s.validate_against_total(DRM_TOTAL_DECIMATION), Ok(()));
        assert_eq!(
            s.validate_against_total(672),
            Err(SpecError::DecimationMismatch {
                declared: 672,
                product: DRM_TOTAL_DECIMATION
            })
        );
    }

    #[test]
    fn ceil_log2_matches_register_growth() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(16), 4);
        assert_eq!(ceil_log2(17), 5);
        assert_eq!(ceil_log2(21), 5);
    }

    #[test]
    fn error_display_is_informative() {
        let e = SpecError::DecimationMismatch {
            declared: 7,
            product: 2688,
        };
        assert!(e.to_string().contains("declared total decimation 7"));
        let e = SpecError::PrototypeMismatch {
            declared: 9,
            product: 512,
        };
        assert!(e.to_string().contains("declared prototype length 9"));
    }

    // ------------------------------------------------ latency budget

    #[test]
    fn latency_budget_accounts_the_reference_chain() {
        let rep = ChainSpec::drm_reference().latency_budget();
        // CIC2÷16: 2·(16−1)/2 = 15 input samples; CIC5÷21: 5·(21−1)/2 =
        // 50 stage samples × ÷16 = 800; 125-tap linear-phase FIR: 62
        // stage samples × ÷336 = 20832. Total 21647 ≈ 335.6 µs.
        assert_eq!(rep.stages.len(), 3);
        assert!((rep.stages[0].input_samples - 15.0).abs() < 1e-9);
        assert!((rep.stages[1].input_samples - 800.0).abs() < 1e-9);
        assert!((rep.stages[2].input_samples - 20832.0).abs() < 1e-9);
        assert!((rep.total_input_samples - 21647.0).abs() < 1e-9);
        assert!((rep.total_us() - 21647.0 / 64.512).abs() < 1e-6);
        assert!((rep.stages[2].input_rate - 192_000.0).abs() < 1e-6);
        // Differential delay scales the CIC boxcar length.
        let mut s = ChainSpec::drm_reference();
        s.stages[0] = StageSpec::Cic {
            order: 2,
            decim: 16,
            diff_delay: 2,
        };
        let rep2 = s.latency_budget();
        assert!((rep2.stages[0].stage_samples - 31.0).abs() < 1e-9);
    }

    #[test]
    fn low_latency_preset_meets_a_budget_linear_phase_cannot() {
        let s = ChainSpec::drm_low_latency();
        s.validate().unwrap();
        let us = s.latency_budget().total_us();
        assert!(us < 150.0, "min-phase chain delay {us} µs");
        // The same 150 µs budget on the linear-phase reference is
        // structurally impossible — validation proves it.
        let mut lin = ChainSpec::drm_reference();
        lin.budget = Some(LatencyBudget { max_us: 150.0 });
        assert!(matches!(
            lin.validate(),
            Err(SpecError::LatencyBudgetExceeded { .. })
        ));
        // The min-phase tail is deliberately asymmetric: the advisory
        // fires and the FIR takes the unfolded kernel.
        let notes = s.notes();
        assert_eq!(notes.len(), 1);
        assert_eq!(notes[0].kind, SpecNoteKind::AsymmetricFirTaps);
    }

    #[test]
    fn budget_word_is_always_encoded_and_roundtrips() {
        // One layout: the budget word closes every encoding, zero when
        // the spec declares no budget.
        let ll = ChainSpec::drm_low_latency();
        let bytes = ll.encode();
        let mut stripped = ll.clone();
        stripped.budget = None;
        let plain = stripped.encode();
        assert_eq!(
            (bytes[0], plain[0]),
            (SPEC_ENCODING_VERSION, SPEC_ENCODING_VERSION)
        );
        assert_eq!(bytes.len(), plain.len());
        assert_eq!(bytes[..bytes.len() - 8], plain[..plain.len() - 8]);
        assert_eq!(plain[plain.len() - 8..], [0u8; 8]);
        assert_eq!(ChainSpec::decode(&bytes).expect("decode"), ll);
        assert_eq!(ChainSpec::decode(&plain).expect("decode"), stripped);
        // The version-1 layout, which had no budget word, is refused.
        let mut v1 = plain[..plain.len() - 8].to_vec();
        v1[0] = 1;
        assert_eq!(
            ChainSpec::decode(&v1),
            Err(SpecError::BadEncodingVersion(1))
        );
        // Truncation anywhere must still error, never panic.
        for n in 0..bytes.len() {
            assert!(ChainSpec::decode(&bytes[..n]).is_err(), "prefix {n} passed");
        }
        // Trailing garbage after the budget field is still rejected.
        let mut b = bytes.clone();
        b.push(0);
        assert_eq!(ChainSpec::decode(&b), Err(SpecError::TrailingBytes(1)));
    }

    /// Names become Prometheus label values, so a name that could close
    /// its label and start a line of its own is refused by both specs,
    /// at validate and at decode.
    #[test]
    fn names_outside_the_label_alphabet_are_rejected() {
        for good in [
            "drm",
            "pfb64",
            "loadgen-custom-672",
            "prop-42",
            "pfb8ch3",
            "a.b_c-D9",
        ] {
            let mut chain = ChainSpec::drm_reference();
            chain.name = good.into();
            chain.validate().unwrap_or_else(|e| panic!("{good:?}: {e}"));
            let mut bank = ChannelizerSpec::uniform(8, 1.0e6);
            bank.name = good.into();
            bank.validate().unwrap_or_else(|e| panic!("{good:?}: {e}"));
        }
        let injected = "x\"} 7\nddc_server_free_slots 999\n#";
        let long = "n".repeat(MAX_NAME_LEN + 1);
        for bad in [injected, "a b", "a\"b", "a{b}", "a\nb", "é", long.as_str()] {
            let mut chain = ChainSpec::drm_reference();
            chain.name = bad.into();
            assert_eq!(chain.validate(), Err(SpecError::BadName), "{bad:?}");
            let mut bank = ChannelizerSpec::uniform(8, 1.0e6);
            bank.name = bad.into();
            assert_eq!(bank.validate(), Err(SpecError::BadName), "{bad:?}");
            if bad.len() <= MAX_NAME_LEN {
                assert_eq!(ChainSpec::decode(&chain.encode()), Err(SpecError::BadName));
                assert_eq!(
                    ChannelizerSpec::decode(&bank.encode()),
                    Err(SpecError::BadName)
                );
            }
        }
    }

    #[test]
    fn validate_rejects_bad_budgets() {
        let mut s = ChainSpec::drm_reference();
        s.budget = Some(LatencyBudget { max_us: f64::NAN });
        assert!(matches!(s.validate(), Err(SpecError::BadLatencyBudget(_))));
        s.budget = Some(LatencyBudget { max_us: 0.0 });
        assert_eq!(s.validate(), Err(SpecError::BadLatencyBudget(0.0)));
        s.budget = Some(LatencyBudget { max_us: -5.0 });
        assert_eq!(s.validate(), Err(SpecError::BadLatencyBudget(-5.0)));
        // A generous budget validates (and decode re-validates it).
        s.budget = Some(LatencyBudget { max_us: 1000.0 });
        s.validate().unwrap();
        assert_eq!(ChainSpec::decode(&s.encode()).expect("decode"), s);
    }

    #[test]
    fn channelizer_latency_budget_is_the_prototype_delay() {
        let s = ChannelizerSpec::uniform(64, DRM_INPUT_RATE);
        let rep = s.latency_budget();
        // 512-tap linear-phase prototype → 255.5 samples at the
        // wideband rate, decimation notwithstanding.
        assert_eq!(rep.stages.len(), 1);
        assert!((rep.total_input_samples - 255.5).abs() < 1e-9);
        assert_eq!(rep.stages[0].label, "pfb64");
        // …and it agrees with the per-channel standalone chain's own
        // accounting (the equivalence anchor).
        let chain = s.channel_chain(0).expect("chain");
        let chain_rep = chain.latency_budget();
        assert!((chain_rep.total_input_samples - rep.total_input_samples).abs() < 1e-9);
    }

    // ---------------------------------------------- channelizer spec

    #[test]
    fn channelizer_uniform_is_valid_and_derives_rates() {
        let s = ChannelizerSpec::uniform(64, DRM_INPUT_RATE);
        s.validate().unwrap();
        assert_eq!(s.decimation(), 64);
        assert_eq!(s.prototype_len(), 512);
        assert!((s.output_rate() - DRM_INPUT_RATE / 64.0).abs() < 1e-9);
        assert_eq!(s.enabled_channels().len(), 64);
        // Signed bin order: k=1 positive, k=N-1 is -1 bin.
        assert!(s.channel_freq(1) > 0.0);
        assert!((s.channel_freq(63) + s.channel_freq(1)).abs() < 1e-9);
        assert_eq!(s.notes(), vec![]);
    }

    #[test]
    fn channelizer_oversampled_halves_the_commutator_advance() {
        let mut s = ChannelizerSpec::uniform(64, 1.0e6);
        s.oversample = 2;
        s.validate().unwrap();
        assert_eq!(s.decimation(), 32);
        assert!((s.output_rate() - 1.0e6 / 32.0).abs() < 1e-9);
    }

    #[test]
    fn channelizer_prototypes_have_unit_dc_gain() {
        let k = ChannelizerSpec::uniform(16, 1.0e6);
        let taps = k.prototype_taps().unwrap();
        assert_eq!(taps.len(), 128);
        assert!((taps.iter().sum::<f64>() - 1.0).abs() < 1e-12);

        let mut r = ChannelizerSpec::uniform(8, 1.0e6);
        r.design = PrototypeDesign::Remez;
        r.cutoff_scale = 0.8;
        r.validate().unwrap();
        let taps = r.prototype_taps().unwrap();
        assert_eq!(taps.len(), 64);
        assert!((taps.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Even L·N designs one short and pads a trailing zero.
        assert_eq!(taps[63], 0.0);
    }

    #[test]
    fn channelizer_validate_rejects_bad_shapes() {
        let base = |f: fn(&mut ChannelizerSpec)| {
            let mut s = ChannelizerSpec::uniform(16, 1.0e6);
            f(&mut s);
            s.validate()
        };
        assert_eq!(
            base(|s| s.channels = 1).unwrap_err(),
            SpecError::BadChannelCount(1)
        );
        assert_eq!(
            base(|s| s.channels = MAX_CHANNELS + 1).unwrap_err(),
            SpecError::BadChannelCount(MAX_CHANNELS + 1)
        );
        assert_eq!(
            base(|s| s.taps_per_branch = 0).unwrap_err(),
            SpecError::BadTapsPerBranch(0)
        );
        assert_eq!(
            base(|s| s.oversample = 3).unwrap_err(),
            SpecError::BadOversample(3)
        );
        assert_eq!(
            base(|s| s.atten_db = 300.0).unwrap_err(),
            SpecError::BadDesignParam("atten_db", 300.0)
        );
        assert_eq!(
            base(|s| s.cutoff_scale = 0.0).unwrap_err(),
            SpecError::BadDesignParam("cutoff_scale", 0.0)
        );
        assert_eq!(
            base(|s| s.enabled = vec![false; 16]).unwrap_err(),
            SpecError::NoEnabledChannels
        );
        assert_eq!(
            base(|s| s.enabled = vec![true; 15]).unwrap_err(),
            SpecError::BadEnableMask
        );
        assert!(matches!(
            base(|s| s.input_rate = f64::NAN).unwrap_err(),
            SpecError::BadRate(_)
        ));
        // Oversample 2 needs even N.
        let mut s = ChannelizerSpec::uniform(15, 1.0e6);
        s.oversample = 2;
        assert_eq!(s.validate().unwrap_err(), SpecError::BadOversample(2));
        // Remez is capped: a 64×32 = 2048-tap prototype must use Kaiser.
        let mut s = ChannelizerSpec::uniform(64, 1.0e6);
        s.taps_per_branch = 32;
        s.design = PrototypeDesign::Remez;
        s.cutoff_scale = 0.8;
        assert!(matches!(
            s.validate(),
            Err(SpecError::BadDesignParam("remez prototype taps", _))
        ));
    }

    #[test]
    fn channelizer_notes_flag_non_pow2_and_wide_transition() {
        let mut s = ChannelizerSpec::uniform(12, 1.0e6);
        s.validate().unwrap();
        let notes = s.notes();
        assert_eq!(notes.len(), 1);
        assert_eq!(notes[0].kind, SpecNoteKind::NonPowerOfTwoChannels);

        // Two taps per branch at 80 dB cannot reach the channel
        // spacing: transition-band advisory.
        s = ChannelizerSpec::uniform(64, 1.0e6);
        s.taps_per_branch = 2;
        s.validate().unwrap();
        let notes = s.notes();
        assert_eq!(notes.len(), 1);
        assert_eq!(notes[0].kind, SpecNoteKind::WideTransitionBand);
        assert!(notes[0].message.contains("transition band"));
    }

    #[test]
    fn channelizer_encode_decode_roundtrips_exactly() {
        let mut s = ChannelizerSpec::uniform(64, DRM_INPUT_RATE);
        s.enabled[3] = false;
        s.enabled[63] = false;
        s.oversample = 2;
        s.atten_db = 70.0;
        s.cutoff_scale = 0.9;
        let back = ChannelizerSpec::decode(&s.encode()).expect("decode");
        assert_eq!(back, s);

        let mut r = ChannelizerSpec::uniform(10, 1.0e6);
        r.design = PrototypeDesign::Remez;
        r.cutoff_scale = 0.8;
        let back = ChannelizerSpec::decode(&r.encode()).expect("decode");
        assert_eq!(back, r);
    }

    #[test]
    fn channelizer_decode_rejects_malformed_bytes() {
        let good = ChannelizerSpec::uniform(16, 1.0e6).encode();

        let mut b = good.clone();
        b[0] = 9;
        assert_eq!(
            ChannelizerSpec::decode(&b),
            Err(SpecError::BadEncodingVersion(9))
        );

        for n in 0..good.len() {
            assert!(
                ChannelizerSpec::decode(&good[..n]).is_err(),
                "prefix {n} passed"
            );
        }

        let mut b = good.clone();
        b.push(0);
        assert_eq!(
            ChannelizerSpec::decode(&b),
            Err(SpecError::TrailingBytes(1))
        );
    }

    #[test]
    fn channel_chain_is_a_single_fir_at_the_channel_centre() {
        let s = ChannelizerSpec::uniform(64, DRM_INPUT_RATE);
        let chain = s.channel_chain(5).expect("chain");
        chain.validate().unwrap();
        assert_eq!(chain.total_decimation(), 64);
        assert!((chain.tune_freq - 5.0 * DRM_INPUT_RATE / 64.0).abs() < 1e-6);
        match &chain.stages[0] {
            StageSpec::Fir { taps, decim } => {
                assert_eq!(taps.len(), 512);
                assert_eq!(*decim, 64);
            }
            other => panic!("expected FIR, got {other:?}"),
        }
        // A 1024-channel prototype (8192 taps) exceeds a ChainSpec FIR.
        let big = ChannelizerSpec::uniform(1024, DRM_INPUT_RATE);
        assert!(big.channel_chain(0).is_none());
    }
}
