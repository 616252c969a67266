//! Polyphase filter-bank channelizer: one wideband real input split
//! into N uniformly spaced complex baseband channels in a single pass.
//!
//! Every session of the streaming server used to pay the full
//! NCO→mixer→CIC→FIR front end per carrier, so serving K users of one
//! band cost K× the input-rate work. This module implements the
//! GC4016-style answer (cf. the architecture comparison the paper is
//! built around): run the selection filter **once** as an N-branch
//! polyphase decomposition of a single prototype lowpass, and let one
//! N-point FFT rotate all N channels to baseband simultaneously.
//!
//! # The identity
//!
//! Channel `k` of an ideal bank is "mix by `e^{−j2πkn/N}`, lowpass by
//! the prototype `h`, decimate by `D`". Splitting the convolution index
//! `p = q + rN` (branch `q`, tap-in-branch `r`):
//!
//! ```text
//! y_k[m] = Σ_p h[p]·x[n_m−p]·e^{−j2πk(n_m−p)/N}
//!        = e^{−j2πk·n_m/N} · Σ_q e^{+j2πkq/N} · u_q[n_m]
//!   u_q[n_m] = Σ_r h[q+rN]·x[n_m−q−rN]
//! ```
//!
//! — the inner sum over `q` is the unnormalised *inverse* DFT across
//! the branch outputs ([`ddc_dsp::fft::Fft::inverse_unnormalized_real`]),
//! and the leading phase factor depends only on `n_m mod N`. Critically
//! sampled (`D = N`) it is one constant per channel; M/2-oversampled
//! (`D = N/2`) it alternates between two values — both read from a
//! table built once per output phase.
//!
//! # Arithmetic and the bounds-match contract
//!
//! The branch sums `u_q` are **exact**: `i32` input samples against the
//! same `i32`-quantized prototype taps a [`crate::chain::FixedDdc`] FIR
//! stage would load. A width audit at construction bounds every product
//! and partial sum by `max_q Σ_r |h[q+rN]| · 2^31`, computed in `i128`
//! over the quantized taps. Within 2^53 the MACs run in `f64`, which
//! holds every integer of that size exactly; within `i64` they run in
//! `i64`; beyond that [`Channelizer::from_spec`] refuses the spec.
//! Exact sums do not depend on the order of summation, so the MACs run
//! tap-major: all N sums of an output accumulate over L contiguous rows
//! of input, instead of N strided L-tap dot products.
//!
//! Only the N-point transform, the phase correction and the final
//! rounding run in `f64`, and each step produces the same bits as the
//! plain formulation — strided dot products, a separate convert and
//! permute pass, `k·n_m mod N`, a division and `f64::round` — which
//! `tests/channelizer_equiv.rs` keeps as the reference for every output
//! word:
//!
//! * the FFT applies the same operations in the same order to every
//!   element, and the sums enter it straight in bit-reversed order;
//! * the phase correction reads the same roots `e^{−2πi·k·n_m/N}`,
//!   indexed by output phase instead of by `k·n_m mod N`;
//! * scaling by `2^−coeff_frac` multiplies instead of dividing by
//!   `2^coeff_frac`: both round the same real number;
//! * [`round_to_i64`] equals `f64::round` then `as i64` on every input,
//!   without the out-of-line call.
//!
//! With ~1e-9 relative FFT error against >2^-12 fixed-point
//! quantization steps, the channelizer is deterministic and bit-stable
//! across chunkings.
//!
//! Against a standalone `FixedDdc` tuned to the same carrier the match
//! is *bounded*, not bit-exact, because the `FixedDdc` mixes **before**
//! filtering through quantized hardware (LUT NCO amplitudes, mixer
//! rounding, FIR output truncation) while the bank filters first and
//! rotates exactly. For power-of-two N ≤ 1024 the NCO phase truncation
//! vanishes (the tuning word keeps the low 22 bits clear), leaving LUT
//! amplitude quantization (≤2^-12, shaped by the unit-DC-gain
//! prototype), mixer rounding (≤2^-12) and two output roundings
//! (≤2^-11 each) — under 0.3% of full scale combined. The equivalence
//! tests assert 1% (`BOUNDS_TOLERANCE`).

use crate::fir::SequentialFir;
use crate::mixer::Iq;
use crate::spec::{ChannelizerSpec, SpecError};
use ddc_dsp::fft::Fft;
use ddc_dsp::firdes::quantize_taps;
use ddc_dsp::fixed::{max_signed, min_signed, round_to_i64, saturate};
use ddc_dsp::C64;
use ddc_obs::{Counter, LogHistogram, MetricsSnapshot};
use std::f64::consts::PI;
use std::ops::{Add, Mul};
use std::sync::Arc;
use std::time::Instant;

/// Documented normalized tolerance of the channelizer-vs-`FixedDdc`
/// bounds match (see the module docs for the error budget).
pub const BOUNDS_TOLERANCE: f64 = 0.01;

/// How the per-output N-point synthesis transform runs.
#[derive(Clone, Debug)]
enum Transform {
    /// Radix-2 FFT plan (power-of-two N): per-stage twiddles, the
    /// branch sums loaded straight into bit-reversed order.
    Radix2(Fft),
    /// Naive O(N²) DFT fallback for non-power-of-two N (the
    /// [`crate::spec::SpecNoteKind::NonPowerOfTwoChannels`] advisory),
    /// over `roots[j] = e^{−2πij/N}`.
    Naive(Vec<C64>),
}

/// The commutator and N branch FIRs, run tap-major in accumulator `T`.
#[derive(Clone, Debug)]
struct Branches<T> {
    /// Tap-major prototype with branches reversed within each row:
    /// `taps[r·N + j] = h[(N−1−j) + rN]`, so row `r` lines up with the N
    /// contiguous input samples it multiplies.
    taps: Vec<T>,
    /// The newest `L·N − 1` input samples, oldest first (zeros
    /// initially), then the current block while it is consumed.
    work: Vec<T>,
    /// One output's N sums, in reversed branch order.
    acc: Vec<T>,
}

impl<T: Copy + Default + From<i32> + Add<Output = T> + Mul<Output = T>> Branches<T> {
    fn new(taps: &[i32], n: usize) -> Self {
        let l = taps.len() / n;
        let mut major = vec![T::default(); n * l];
        for (p, &c) in taps.iter().enumerate() {
            let (q, r) = (p % n, p / n);
            major[r * n + (n - 1 - q)] = T::from(c);
        }
        Branches {
            taps: major,
            work: vec![T::default(); n * l - 1],
            acc: vec![T::default(); n],
        }
    }

    /// Appends `input` to the history; for each of the `n_out` outputs,
    /// whose windows end (exclusive) at work index `first_end + m·d`,
    /// appends its N branch sums to `sums` in branch order, converted
    /// by `to_f64`; then keeps the newest `L·N − 1` samples as the next
    /// block's history.
    fn run(
        &mut self,
        input: &[i32],
        first_end: usize,
        d: usize,
        n_out: usize,
        sums: &mut Vec<f64>,
        to_f64: impl Fn(T) -> f64,
    ) {
        let n = self.acc.len();
        self.work.extend(input.iter().map(|&x| T::from(x)));
        for m in 0..n_out {
            let end = first_end + m * d;
            self.acc.fill(T::default());
            // Row r holds the samples x[end − (r+1)N .. end − rN]; tap
            // j of the row belongs to branch N−1−j.
            for (r, row) in self.taps.chunks_exact(n).enumerate() {
                let x = &self.work[end - (r + 1) * n..end - r * n];
                for ((a, &c), &x) in self.acc.iter_mut().zip(row).zip(x) {
                    *a = *a + c * x;
                }
            }
            sums.extend(self.acc.iter().rev().map(|&a| to_f64(a)));
        }
        let keep = self.taps.len() - 1;
        let len = self.work.len();
        self.work.copy_within(len - keep.., 0);
        self.work.truncate(keep);
    }
}

/// The branch MACs in the accumulator the width audit picked.
#[derive(Clone, Debug)]
enum Mac {
    /// Every product and partial sum is an integer of magnitude at most
    /// 2^53, so `f64` arithmetic is exact.
    F64(Branches<f64>),
    /// Wider sums, still within `i64`.
    I64(Branches<i64>),
}

impl Mac {
    /// The width audit: bounds every branch product and partial sum by
    /// the largest per-branch `Σ|h|` times the largest `|i32|` input,
    /// 2^31, in `i128` (at most 64 taps of at most 2^31: below 2^69),
    /// and picks the narrowest accumulator that holds it exactly, or
    /// refuses taps whose sums could overflow `i64`.
    fn for_taps(taps: &[i32], n: usize) -> Result<Mac, SpecError> {
        let widest = (0..n)
            .map(|q| {
                taps.iter()
                    .skip(q)
                    .step_by(n)
                    .map(|&c| i128::from(c).abs())
                    .sum::<i128>()
            })
            .max()
            .unwrap_or(0);
        let bound = widest << 31;
        if bound <= 1 << 53 {
            Ok(Mac::F64(Branches::new(taps, n)))
        } else if bound <= i128::from(i64::MAX) {
            Ok(Mac::I64(Branches::new(taps, n)))
        } else {
            let bits = 129 - bound.leading_zeros();
            Err(SpecError::BadWidth("branch accumulator", bits))
        }
    }
}

/// Output quantization: scale by `2^−coeff_frac`, round half away from
/// zero, saturate to the data width.
#[derive(Clone, Copy, Debug)]
struct OutputWord {
    scale: f64,
    lo: i64,
    hi: i64,
}

impl OutputWord {
    #[inline]
    fn of(self, v: f64) -> i64 {
        round_to_i64(v * self.scale).clamp(self.lo, self.hi)
    }
}

/// The polyphase front end: commutator, N branch FIRs and the N-point
/// synthesis transform.
#[derive(Clone, Debug)]
pub struct Channelizer {
    spec: ChannelizerSpec,
    /// Channel count N.
    n: usize,
    /// Commutator advance per output (N or N/2).
    decim: usize,
    mac: Mac,
    /// Input samples consumed toward the next output (0..decim).
    phase: usize,
    transform: Transform,
    /// Phase correction per output phase and enabled channel:
    /// `rot[p·K + s] = e^{−2πi·k_s·n_p/N}`, where `n_p` is the newest
    /// sample index mod N of outputs in phase `p` (`N/decim` phases)
    /// and `k_s` the `s`-th of K enabled channels.
    rot: Vec<C64>,
    /// Output phase of the next output.
    rot_phase: usize,
    /// Exact branch sums for every output of the current block
    /// (outputs × N), as `f64`.
    sums: Vec<f64>,
    /// Transform output, split into real and imaginary parts.
    re: Vec<f64>,
    im: Vec<f64>,
    /// Enabled channel indices, ascending.
    enabled: Vec<usize>,
    /// Exact DC gain of the quantized prototype (≈1).
    nominal_gain: f64,
    word: OutputWord,
}

impl Channelizer {
    /// Builds the bank from a validated spec: designs the prototype,
    /// quantizes it to the spec's coefficient width, audits the branch
    /// accumulator width and lays the taps out tap-major. Fails with
    /// [`SpecError::BadWidth`] if a branch sum could overflow `i64`.
    pub fn from_spec(spec: ChannelizerSpec) -> Result<Self, SpecError> {
        spec.validate()?;
        let proto = spec.prototype_taps()?;
        let n = spec.channels as usize;
        let f = spec.format;
        let q = quantize_taps(&proto, f.coeff_bits, f.coeff_frac());
        let nominal_gain =
            q.iter().map(|&c| f64::from(c)).sum::<f64>() / 2f64.powi(f.coeff_frac() as i32);
        let mac = Mac::for_taps(&q, n)?;
        let decim = spec.decimation() as usize;
        let roots: Vec<C64> = (0..n)
            .map(|j| C64::cis(-2.0 * PI * j as f64 / n as f64))
            .collect();
        let enabled = spec.enabled_channels();
        let rot = (0..n / decim)
            .flat_map(|p| {
                let newest = (decim - 1 + p * decim) % n;
                enabled.iter().map(move |&k| k * newest % n)
            })
            .map(|j| roots[j])
            .collect();
        let transform = if n.is_power_of_two() {
            Transform::Radix2(Fft::new(n))
        } else {
            Transform::Naive(roots)
        };
        Ok(Channelizer {
            n,
            decim,
            mac,
            phase: 0,
            transform,
            rot,
            rot_phase: 0,
            sums: Vec::new(),
            re: vec![0.0; n],
            im: vec![0.0; n],
            enabled,
            nominal_gain,
            word: OutputWord {
                scale: 2f64.powi(-(f.coeff_frac() as i32)),
                lo: min_signed(f.data_bits),
                hi: max_signed(f.data_bits),
            },
            spec,
        })
    }

    /// The spec this bank was built from.
    pub fn spec(&self) -> &ChannelizerSpec {
        &self.spec
    }

    /// Enabled channel indices, ascending — the order of the per-channel
    /// output vectors every process call fills.
    pub fn enabled_channels(&self) -> &[usize] {
        &self.enabled
    }

    /// Exact DC gain of the quantized prototype — the counterpart of
    /// [`crate::chain::FixedDdc::nominal_gain`].
    pub fn nominal_gain(&self) -> f64 {
        self.nominal_gain
    }

    /// Stage 1 — commutator + polyphase branches: consumes the block,
    /// stages one N-vector of exact branch sums per completed output in
    /// the internal buffer, and returns how many outputs completed.
    /// Always followed by [`Channelizer::transform_outputs`] with the
    /// same count.
    pub fn compute_branches(&mut self, input: &[i32]) -> usize {
        let d = self.decim;
        let n_out = (self.phase + input.len()) / d;
        // The first window closes after `d − phase` new samples.
        let first_end = (self.n * self.spec.taps_per_branch as usize - 1) + (d - self.phase);
        self.sums.clear();
        self.sums.reserve(n_out * self.n);
        match &mut self.mac {
            Mac::F64(b) => b.run(input, first_end, d, n_out, &mut self.sums, |v| v),
            Mac::I64(b) => b.run(input, first_end, d, n_out, &mut self.sums, |v| v as f64),
        }
        self.phase = (self.phase + input.len()) % d;
        n_out
    }

    /// Stage 2 — N-point synthesis transform + phase correction +
    /// output quantization for the `n_out` outputs staged by
    /// [`Channelizer::compute_branches`]. Appends one `Iq` per output
    /// to each enabled channel's vector (`out` is indexed in
    /// [`Channelizer::enabled_channels`] order).
    pub fn transform_outputs(&mut self, n_out: usize, out: &mut [Vec<Iq>]) {
        assert_eq!(
            out.len(),
            self.enabled.len(),
            "one vector per enabled channel"
        );
        let (n, k_en, word) = (self.n, self.enabled.len(), self.word);
        for v in out.iter_mut() {
            v.reserve(n_out);
        }
        for sums in self.sums[..n_out * n].chunks_exact(n) {
            match &self.transform {
                Transform::Radix2(fft) => {
                    fft.inverse_unnormalized_real(sums, &mut self.re, &mut self.im)
                }
                Transform::Naive(roots) => {
                    for k in 0..n {
                        let mut acc = C64::ZERO;
                        for (q, &v) in sums.iter().enumerate() {
                            // e^{+2πikq/N} = conj(roots[kq mod N]).
                            acc += v * roots[k * q % n].conj();
                        }
                        (self.re[k], self.im[k]) = (acc.re, acc.im);
                    }
                }
            }
            let rot = &self.rot[self.rot_phase * k_en..(self.rot_phase + 1) * k_en];
            for ((o, &k), &w) in out.iter_mut().zip(&self.enabled).zip(rot) {
                let z = C64::new(self.re[k], self.im[k]) * w;
                o.push(Iq {
                    i: word.of(z.re),
                    q: word.of(z.im),
                });
            }
            self.rot_phase += 1;
            if self.rot_phase * k_en == self.rot.len() {
                self.rot_phase = 0;
            }
        }
    }

    /// Feeds a block of ADC words, appending every completed output
    /// sample to the per-enabled-channel vectors. Bit-stable across any
    /// chunking of the input.
    pub fn process_into(&mut self, input: &[i32], out: &mut [Vec<Iq>]) {
        let n_out = self.compute_branches(input);
        self.transform_outputs(n_out, out);
    }

    /// Converts fixed-point channel outputs to `C64` with the format's
    /// Q-scaling and the prototype's nominal gain compensated — directly
    /// comparable with [`crate::chain::FixedDdc::to_c64`] output.
    pub fn to_c64(&self, out: &[Iq]) -> Vec<C64> {
        let scale = 1.0 / (2f64.powi(self.spec.format.data_frac() as i32) * self.nominal_gain);
        out.iter()
            .map(|iq| C64::new(iq.i as f64 * scale, iq.q as f64 * scale))
            .collect()
    }
}

/// Per-channel back end: residual fine-tune rotator (for carriers that
/// sit off the uniform grid) plus an optional extra decimating FIR —
/// the per-channel half of the GC4016 organisation, running at the low
/// channel rate.
#[derive(Debug)]
pub struct ChannelBackend {
    /// Current residual phase, radians.
    phase: f64,
    /// Phase step per channel-rate sample, radians (0 = pass-through).
    dphase: f64,
    /// Optional I/Q rail FIRs (quantized like any chain FIR stage).
    fir: Option<(SequentialFir, SequentialFir)>,
    data_bits: u32,
}

impl ChannelBackend {
    /// The identity back end: no residual rotation, no FIR.
    pub fn identity(data_bits: u32) -> Self {
        ChannelBackend {
            phase: 0.0,
            dphase: 0.0,
            fir: None,
            data_bits,
        }
    }

    /// Sets the residual fine-tune frequency: `residual_hz` of leftover
    /// offset at a channel running `channel_rate` samples/s.
    pub fn with_residual(mut self, residual_hz: f64, channel_rate: f64) -> Self {
        self.dphase = 2.0 * PI * residual_hz / channel_rate;
        self
    }

    /// Installs a decimating channel FIR (taps at the channel rate,
    /// unit DC gain expected), quantized to the given widths exactly
    /// like a [`crate::spec::StageSpec::Fir`] stage.
    pub fn with_fir(mut self, taps: &[f64], decim: u32, coeff_bits: u32, acc_bits: u32) -> Self {
        let q = quantize_taps(taps, coeff_bits, coeff_bits - 1);
        let make = || SequentialFir::new(&q, decim, self.data_bits, coeff_bits, acc_bits);
        self.fir = Some((make(), make()));
        self
    }

    /// True when this back end changes samples at all.
    pub fn is_identity(&self) -> bool {
        self.dphase == 0.0 && self.fir.is_none()
    }

    /// Runs the back end over one channel's block, in place: residual
    /// rotation by `e^{−jφ}` (φ advancing per channel sample), then the
    /// optional FIR decimation.
    pub fn apply(&mut self, samples: &mut Vec<Iq>) {
        if self.dphase != 0.0 {
            for s in samples.iter_mut() {
                let (sin, cos) = self.phase.sin_cos();
                // (i + jq)·(cos φ − j·sin φ)
                let i = s.i as f64 * cos + s.q as f64 * sin;
                let q = s.q as f64 * cos - s.i as f64 * sin;
                s.i = saturate(round_to_i64(i), self.data_bits);
                s.q = saturate(round_to_i64(q), self.data_bits);
                self.phase = (self.phase + self.dphase) % (2.0 * PI);
            }
        }
        if let Some((fi, fq)) = &mut self.fir {
            let mut kept = 0;
            for idx in 0..samples.len() {
                let s = samples[idx];
                if let (Some(a), Some(b)) = (fi.process(s.i), fq.process(s.q)) {
                    samples[kept] = Iq { i: a, q: b };
                    kept += 1;
                }
            }
            samples.truncate(kept);
        }
    }
}

/// Telemetry for a channelizer farm: per-stage block latency
/// histograms (polyphase commutator+branches, FFT synthesis, per-channel
/// back ends) plus flow counters and the active-channel gauge — exported
/// under the `ddc_channelizer_*` Prometheus families.
#[derive(Debug, Default)]
pub struct ChannelizerMetrics {
    /// Block latency of the commutator + branch-dot stage, ns.
    pub polyphase_ns: LogHistogram,
    /// Block latency of the FFT synthesis + phase-correction stage, ns.
    pub fft_ns: LogHistogram,
    /// Block latency of the per-channel back ends, ns.
    pub backend_ns: LogHistogram,
    /// Blocks processed.
    pub blocks: Counter,
    /// Wideband input samples consumed.
    pub samples_in: Counter,
    /// Channel output samples produced (summed over enabled channels).
    pub samples_out: Counter,
    /// Enabled-channel count (a gauge, set at construction).
    channels_active: Counter,
}

impl ChannelizerMetrics {
    /// Appends this farm's metrics to a snapshot under the
    /// `ddc_channelizer_*` names, labelling per-stage histograms with
    /// `{stage="..."}`.
    pub fn snapshot_into(&self, snap: &mut MetricsSnapshot) {
        self.snapshot_labeled(snap, None);
    }

    /// Like [`ChannelizerMetrics::snapshot_into`], with an extra
    /// `bank="..."` label on every series — the form the server uses so
    /// concurrently live banks never collide in one scrape. `bank` goes
    /// into the label as given: pass a name [`crate::ChannelizerSpec::validate`]
    /// accepted, whose alphabet needs no escaping.
    pub fn snapshot_labeled(&self, snap: &mut MetricsSnapshot, bank: Option<&str>) {
        let plain = |name: &str| match bank {
            Some(b) => format!("{name}{{bank=\"{b}\"}}"),
            None => name.to_string(),
        };
        let staged = |name: &str, stage: &str| match bank {
            Some(b) => format!("{name}{{bank=\"{b}\",stage=\"{stage}\"}}"),
            None => format!("{name}{{stage=\"{stage}\"}}"),
        };
        snap.push_counter(
            plain("ddc_channelizer_channels_active"),
            self.channels_active.get(),
        );
        snap.push_counter(plain("ddc_channelizer_blocks_total"), self.blocks.get());
        snap.push_counter(
            plain("ddc_channelizer_samples_in_total"),
            self.samples_in.get(),
        );
        snap.push_counter(
            plain("ddc_channelizer_samples_out_total"),
            self.samples_out.get(),
        );
        snap.push_hist(
            staged("ddc_channelizer_stage_ns", "polyphase"),
            self.polyphase_ns.snapshot(),
        );
        snap.push_hist(
            staged("ddc_channelizer_stage_ns", "fft"),
            self.fft_ns.snapshot(),
        );
        snap.push_hist(
            staged("ddc_channelizer_stage_ns", "backend"),
            self.backend_ns.snapshot(),
        );
    }
}

/// One channelizer front end feeding per-channel back ends — the farm
/// mode where a single wideband ingest serves every subscriber of the
/// band. The front end and back ends run inline in the caller's thread
/// (the server drives one farm per ingest session through its existing
/// bounded session queues); telemetry is opt-in and recorded per block.
#[derive(Debug)]
pub struct ChannelizerFarm {
    front: Channelizer,
    /// One back end per enabled channel, in enabled-channel order.
    backends: Vec<ChannelBackend>,
    /// Per-enabled-channel output buffers, reused across blocks.
    out: Vec<Vec<Iq>>,
    metrics: Option<Arc<ChannelizerMetrics>>,
}

impl ChannelizerFarm {
    /// Builds the farm with identity back ends for every enabled
    /// channel.
    pub fn from_spec(spec: ChannelizerSpec) -> Result<Self, SpecError> {
        let data_bits = spec.format.data_bits;
        let front = Channelizer::from_spec(spec)?;
        let k = front.enabled_channels().len();
        Ok(ChannelizerFarm {
            front,
            backends: (0..k)
                .map(|_| ChannelBackend::identity(data_bits))
                .collect(),
            out: (0..k).map(|_| Vec::new()).collect(),
            metrics: None,
        })
    }

    /// Enables telemetry: per-stage latency histograms and flow
    /// counters, recorded once per block.
    pub fn with_telemetry(mut self) -> Self {
        let m = ChannelizerMetrics::default();
        m.channels_active
            .add(self.front.enabled_channels().len() as u64);
        self.metrics = Some(Arc::new(m));
        self
    }

    /// The telemetry state, when enabled.
    pub fn metrics(&self) -> Option<&Arc<ChannelizerMetrics>> {
        self.metrics.as_ref()
    }

    /// A fresh snapshot of this farm's metrics, when telemetry is on.
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        self.metrics.as_ref().map(|m| {
            let mut snap = MetricsSnapshot::new();
            m.snapshot_into(&mut snap);
            snap
        })
    }

    /// The front end's spec.
    pub fn spec(&self) -> &ChannelizerSpec {
        self.front.spec()
    }

    /// Enabled channel indices, ascending — the row order of
    /// [`ChannelizerFarm::process_block`]'s result.
    pub fn enabled_channels(&self) -> &[usize] {
        self.front.enabled_channels()
    }

    /// The front end (for gain/scaling queries).
    pub fn front(&self) -> &Channelizer {
        &self.front
    }

    /// Replaces the back end of `channel` (a channel index, not a row
    /// index). Returns false when the channel is not enabled.
    pub fn set_backend(&mut self, channel: usize, backend: ChannelBackend) -> bool {
        match self
            .front
            .enabled_channels()
            .iter()
            .position(|&k| k == channel)
        {
            Some(row) => {
                self.backends[row] = backend;
                true
            }
            None => false,
        }
    }

    /// Processes one wideband block through front end and back ends,
    /// returning per-enabled-channel output slices (row order =
    /// [`ChannelizerFarm::enabled_channels`]). The buffers are reused
    /// across calls; steady state performs no heap allocation.
    pub fn process_block(&mut self, input: &[i32]) -> &[Vec<Iq>] {
        for v in &mut self.out {
            v.clear();
        }
        let mm = self.metrics.as_deref();
        let t0 = mm.map(|_| Instant::now());
        let n_out = self.front.compute_branches(input);
        let t1 = mm.map(|_| Instant::now());
        self.front.transform_outputs(n_out, &mut self.out);
        let t2 = mm.map(|_| Instant::now());
        for (backend, samples) in self.backends.iter_mut().zip(&mut self.out) {
            if !backend.is_identity() {
                backend.apply(samples);
            }
        }
        if let Some(m) = mm {
            let t3 = Instant::now();
            let ns = |a: Option<Instant>, b: Option<Instant>| {
                b.zip(a).map_or(0, |(e, s)| (e - s).as_nanos() as u64)
            };
            m.polyphase_ns.record(ns(t0, t1));
            m.fft_ns.record(ns(t1, t2));
            m.backend_ns
                .record(t2.map_or(0, |s| (t3 - s).as_nanos() as u64));
            m.blocks.inc();
            m.samples_in.add(input.len() as u64);
            m.samples_out
                .add(self.out.iter().map(|v| v.len() as u64).sum());
        }
        &self.out
    }

    /// [`Channelizer::to_c64`] on one channel's output (front-end
    /// scaling; back-end FIR gain, if any, is not compensated).
    pub fn to_c64(&self, out: &[Iq]) -> Vec<C64> {
        self.front.to_c64(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::FixedDdc;
    use crate::params::FixedFormat;
    use crate::spec::PrototypeDesign;

    fn xorshift(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }

    /// Random ADC block within the 12-bit bus.
    fn random_input(seed: u64, len: usize) -> Vec<i32> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| (xorshift(&mut s) % 4096) as i32 - 2048)
            .collect()
    }

    /// The obviously-correct per-channel reference: mix by the exact
    /// phasor, convolve with the quantized prototype (as f64), decimate
    /// by D, quantize exactly like the bank does.
    fn direct_reference(spec: &ChannelizerSpec, k: usize, input: &[i32]) -> Vec<Iq> {
        let proto = spec.prototype_taps().unwrap();
        let q = quantize_taps(&proto, spec.format.coeff_bits, spec.format.coeff_frac());
        let n = spec.channels as usize;
        let d = spec.decimation() as usize;
        let half = 2f64.powi(spec.format.coeff_frac() as i32);
        let mut out = Vec::new();
        let mut m = 0usize;
        loop {
            let nm = (m + 1) * d - 1;
            if nm >= input.len() {
                break;
            }
            let mut acc = C64::ZERO;
            for (p, &c) in q.iter().enumerate() {
                let Some(idx) = nm.checked_sub(p) else { break };
                let x = f64::from(input[idx]);
                let phasor = C64::cis(-2.0 * PI * (k * idx % n) as f64 / n as f64);
                acc += f64::from(c) * x * phasor;
            }
            out.push(Iq {
                i: saturate((acc.re / half).round() as i64, spec.format.data_bits),
                q: saturate((acc.im / half).round() as i64, spec.format.data_bits),
            });
            m += 1;
        }
        out
    }

    fn run_bank(spec: &ChannelizerSpec, input: &[i32]) -> Vec<Vec<Iq>> {
        let mut bank = Channelizer::from_spec(spec.clone()).unwrap();
        let mut out: Vec<Vec<Iq>> = vec![Vec::new(); bank.enabled_channels().len()];
        bank.process_into(input, &mut out);
        out
    }

    fn assert_within_one_lsb(got: &[Iq], want: &[Iq], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (j, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                (g.i - w.i).abs() <= 1 && (g.q - w.q).abs() <= 1,
                "{what}: output {j}: got ({}, {}), want ({}, {})",
                g.i,
                g.q,
                w.i,
                w.q
            );
        }
    }

    #[test]
    fn critically_sampled_bank_matches_direct_reference() {
        let spec = ChannelizerSpec::uniform(8, 1.0e6);
        let input = random_input(7, 8 * 40);
        let out = run_bank(&spec, &input);
        for (slot, &k) in spec.enabled_channels().iter().enumerate() {
            let want = direct_reference(&spec, k, &input);
            assert_within_one_lsb(&out[slot], &want, &format!("channel {k}"));
        }
    }

    #[test]
    fn oversampled_bank_matches_direct_reference() {
        let mut spec = ChannelizerSpec::uniform(8, 1.0e6);
        spec.oversample = 2;
        let input = random_input(11, 8 * 40);
        let out = run_bank(&spec, &input);
        // D = 4: twice the output rate of the critical bank.
        assert_eq!(out[0].len(), input.len() / 4);
        for (slot, &k) in spec.enabled_channels().iter().enumerate() {
            let want = direct_reference(&spec, k, &input);
            assert_within_one_lsb(&out[slot], &want, &format!("channel {k}"));
        }
    }

    #[test]
    fn non_pow2_bank_runs_on_the_naive_dft_and_matches() {
        let spec = ChannelizerSpec::uniform(12, 1.0e6);
        let input = random_input(13, 12 * 24);
        let out = run_bank(&spec, &input);
        for (slot, &k) in spec.enabled_channels().iter().enumerate() {
            let want = direct_reference(&spec, k, &input);
            assert_within_one_lsb(&out[slot], &want, &format!("channel {k}"));
        }
    }

    #[test]
    fn remez_prototype_bank_matches_direct_reference() {
        let mut spec = ChannelizerSpec::uniform(8, 1.0e6);
        spec.design = PrototypeDesign::Remez;
        spec.cutoff_scale = 0.8;
        spec.atten_db = 60.0;
        let input = random_input(17, 8 * 32);
        let out = run_bank(&spec, &input);
        for (slot, &k) in spec.enabled_channels().iter().enumerate() {
            let want = direct_reference(&spec, k, &input);
            assert_within_one_lsb(&out[slot], &want, &format!("channel {k}"));
        }
    }

    #[test]
    fn width_audit_picks_the_narrowest_exact_accumulator() {
        let audit = |format| {
            let mut spec = ChannelizerSpec::uniform(8, 1.0e6);
            spec.format = format;
            Channelizer::from_spec(spec).unwrap().mac
        };
        assert!(matches!(audit(FixedFormat::FPGA12), Mac::F64(_)));
        assert!(matches!(audit(FixedFormat::MONTIUM16), Mac::F64(_)));
        let wide = FixedFormat {
            data_bits: 32,
            coeff_bits: 32,
            ..FixedFormat::MONTIUM16
        };
        assert!(matches!(audit(wide), Mac::I64(_)));
        // Taps h[q + rN]: with N = 2, branch 0 holds taps 0 and 2. A
        // branch weight of 2^22 times 2^31 is exactly 2^53: still f64.
        // One more unit needs i64; a branch of 64 full-scale taps
        // (2^37 · 2^31 = 2^68) fits neither.
        let edge = [1 << 21, 7, -(1 << 21), -7];
        assert!(matches!(Mac::for_taps(&edge, 2), Ok(Mac::F64(_))));
        let over = [1 << 21, 7, -(1 << 21) - 1, -7];
        assert!(matches!(Mac::for_taps(&over, 2), Ok(Mac::I64(_))));
        assert!(matches!(
            Mac::for_taps(&[i32::MIN; 64], 1),
            Err(SpecError::BadWidth("branch accumulator", 70))
        ));
    }

    #[test]
    fn chunking_is_bit_exact() {
        let spec = ChannelizerSpec::uniform(16, 1.0e6);
        let input = random_input(23, 16 * 50 + 7);
        let whole = run_bank(&spec, &input);
        for chunk in [1usize, 3, 16, 61, 257] {
            let mut bank = Channelizer::from_spec(spec.clone()).unwrap();
            let mut out: Vec<Vec<Iq>> = vec![Vec::new(); bank.enabled_channels().len()];
            for piece in input.chunks(chunk) {
                bank.process_into(piece, &mut out);
            }
            assert_eq!(out, whole, "chunk {chunk}");
        }
    }

    #[test]
    fn disabled_channels_are_skipped_but_rows_stay_aligned() {
        let mut spec = ChannelizerSpec::uniform(8, 1.0e6);
        spec.enabled = vec![false, true, false, false, true, false, false, true];
        let input = random_input(29, 8 * 30);
        let out = run_bank(&spec, &input);
        assert_eq!(out.len(), 3);
        for (slot, &k) in spec.enabled_channels().iter().enumerate() {
            assert!([1, 4, 7].contains(&k));
            let want = direct_reference(&spec, k, &input);
            assert_within_one_lsb(&out[slot], &want, &format!("channel {k}"));
        }
    }

    #[test]
    fn every_channel_bounds_matches_a_standalone_fixed_ddc() {
        // The core of the correctness contract: channel k of an N=16
        // bank against FixedDdc running the same quantized prototype as
        // a single FIR stage, tuned to k·fs/N. Scaled outputs must agree
        // within BOUNDS_TOLERANCE (see module docs for the budget). The
        // N=64 version of this claim is proptested in
        // tests/channelizer_equiv.rs.
        let spec = ChannelizerSpec::uniform(16, 1.0e6);
        let input = random_input(31, 16 * 60);
        let out = run_bank(&spec, &input);
        let bank = Channelizer::from_spec(spec.clone()).unwrap();
        for (slot, &k) in spec.enabled_channels().iter().enumerate() {
            let chain_spec = spec.channel_chain(k as u32).unwrap();
            let mut ddc = FixedDdc::from_spec(chain_spec);
            let want = ddc.process_block(&input);
            let a = bank.to_c64(&out[slot]);
            let b = ddc.to_c64(&want);
            assert_eq!(a.len(), b.len(), "channel {k} length");
            for (j, (x, y)) in a.iter().zip(&b).enumerate() {
                let err = (*x - *y).abs();
                assert!(
                    err < BOUNDS_TOLERANCE,
                    "channel {k} output {j}: |Δ| = {err:.5}"
                );
            }
        }
    }

    #[test]
    fn backend_residual_rotator_recentres_an_offset_tone() {
        // A tone 1/8 of a channel spacing off channel 3's centre leaves
        // the front end spinning at the residual; the back end rotator
        // must stop it. Compare phase drift over the block.
        let n = 16u32;
        let fs = 1.0e6;
        let spec = ChannelizerSpec::uniform(n, fs);
        let residual = fs / n as f64 / 8.0;
        let f_tone = 3.0 * fs / n as f64 + residual;
        let input: Vec<i32> = (0..(n as usize * 200))
            .map(|t| (1800.0 * (2.0 * PI * f_tone * t as f64 / fs).cos()).round() as i32)
            .collect();
        let mut farm = ChannelizerFarm::from_spec(spec.clone()).unwrap();
        let rate = spec.output_rate();
        assert!(farm.set_backend(
            3,
            ChannelBackend::identity(spec.format.data_bits).with_residual(residual, rate),
        ));
        assert!(!farm.set_backend(99, ChannelBackend::identity(12)));
        let rows = farm.process_block(&input);
        let row = &rows[3];
        // Once settled, consecutive outputs of a recentred tone hold a
        // stable phase: the angular step must be near zero.
        let settle = 40;
        let mut max_step: f64 = 0.0;
        for w in row[settle..].windows(2) {
            let a = C64::new(w[0].i as f64, w[0].q as f64);
            let b = C64::new(w[1].i as f64, w[1].q as f64);
            let step = (b * a.conj()).arg().abs();
            max_step = max_step.max(step);
        }
        assert!(
            max_step < 0.05,
            "residual rotation survived the back end: step {max_step:.4} rad"
        );
    }

    #[test]
    fn backend_fir_decimates_the_channel_stream() {
        let spec = ChannelizerSpec::uniform(8, 1.0e6);
        let mut farm = ChannelizerFarm::from_spec(spec.clone()).unwrap();
        let taps = ddc_dsp::firdes::lowpass(15, 0.2, ddc_dsp::window::Window::Hamming);
        assert!(farm.set_backend(
            2,
            ChannelBackend::identity(spec.format.data_bits).with_fir(
                &taps,
                2,
                spec.format.coeff_bits,
                spec.format.fir_acc_bits,
            ),
        ));
        let input = random_input(37, 8 * 100);
        let rows = farm.process_block(&input);
        assert_eq!(rows[0].len(), 100);
        assert_eq!(rows[2].len(), 50, "backend FIR must halve channel 2");
    }

    #[test]
    fn farm_telemetry_records_stages_and_gauge() {
        let mut spec = ChannelizerSpec::uniform(8, 1.0e6);
        spec.enabled[5] = false;
        let mut farm = ChannelizerFarm::from_spec(spec).unwrap().with_telemetry();
        let input = random_input(41, 8 * 64);
        farm.process_block(&input);
        farm.process_block(&input);
        let snap = farm.metrics_snapshot().expect("telemetry on");
        assert_eq!(snap.counter("ddc_channelizer_channels_active"), Some(7));
        assert_eq!(snap.counter("ddc_channelizer_blocks_total"), Some(2));
        assert_eq!(
            snap.counter("ddc_channelizer_samples_in_total"),
            Some(2 * 8 * 64)
        );
        assert_eq!(
            snap.counter("ddc_channelizer_samples_out_total"),
            Some(2 * 64 * 7)
        );
        for stage in ["polyphase", "fft", "backend"] {
            let h = snap
                .histogram(&format!("ddc_channelizer_stage_ns{{stage=\"{stage}\"}}"))
                .unwrap_or_else(|| panic!("missing {stage} histogram"));
            assert_eq!(h.count, 2, "{stage} records per block");
        }
        // The Prometheus rendering must carry all three stage labels.
        let prom = snap.to_prometheus();
        assert!(prom.contains("ddc_channelizer_stage_ns_bucket{stage=\"fft\""));
        assert!(prom.contains("ddc_channelizer_channels_active 7"));
    }

    #[test]
    fn farm_without_telemetry_has_no_snapshot() {
        let farm = ChannelizerFarm::from_spec(ChannelizerSpec::uniform(8, 1.0e6)).unwrap();
        assert!(farm.metrics_snapshot().is_none());
        assert!(farm.metrics().is_none());
    }
}
