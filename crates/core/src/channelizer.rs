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
//! # Demand
//!
//! A served bank often has fewer readers than channels: one subscriber
//! reads one of 64. [`Channelizer::set_demand`] (and
//! [`ChannelizerFarm::set_demand`]) names the channels worth
//! synthesizing; the default is every enabled one. The branch MACs
//! still run whole, since every bin sums all N branches. The transform
//! runs only the butterflies the demanded bins depend on
//! ([`ddc_dsp::fft::Fft::plan_bins`]), or, on the naive DFT, only the
//! demanded bins: O(N·K) per output for K demanded channels instead of
//! O(N²). Only the demanded rows are rotated and rounded. An undemanded
//! row gets nothing, and every demanded word is the word the full bank
//! gives. The demand may change between any two calls; the branch
//! history and the output phase move on regardless.
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
//!   element, and the sums enter it straight in bit-reversed order; its
//!   first two stages run on reals, which gives the same bits for every
//!   finite input, and the branch sums are finite integers; a plan
//!   pruned to the demanded bins runs a subset of the same butterflies,
//!   each on the same operands, and every butterfly it skips feeds no
//!   demanded bin;
//! * the phase correction reads the same roots `e^{−2πi·k·n_m/N}`,
//!   indexed by output phase instead of by `k·n_m mod N`;
//! * scaling by `2^−coeff_frac` multiplies instead of dividing by
//!   `2^coeff_frac`: both round the same real number;
//! * [`round_to_i64`] equals `f64::round` then `as i64` on every input,
//!   without the out-of-line call;
//! * on a CPU with AVX2, the `simd` kernel rotates and rounds four
//!   channels per step with the same operations, clamping to the data
//!   width before it truncates (the same integer, since the bounds are
//!   integers; `data_bits ≤ 32` keeps them in the packed `i32` lanes),
//!   and the `f64` MACs run the same source compiled for AVX2. The
//!   scalar step stays as the fallback.
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
use ddc_dsp::fft::{BinPlan, Fft};
use ddc_dsp::firdes::quantize_taps;
use ddc_dsp::fixed::{max_signed, min_signed, round_to_i64, saturate};
use ddc_dsp::C64;
use ddc_obs::{Counter, LogHistogram, MetricsSnapshot};
use std::f64::consts::PI;
use std::ops::{Add, Mul};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Documented normalized tolerance of the channelizer-vs-`FixedDdc`
/// bounds match (see the module docs for the error budget).
pub const BOUNDS_TOLERANCE: f64 = 0.01;

/// How the per-output N-point synthesis transform runs.
#[derive(Clone, Debug)]
enum Transform {
    /// Radix-2 FFT (power-of-two N): per-stage twiddles, the branch
    /// sums loaded straight into bit-reversed order, and the plan of
    /// the butterflies the demanded bins depend on.
    Radix2(Fft, BinPlan),
    /// Naive DFT fallback for non-power-of-two N (the
    /// [`crate::spec::SpecNoteKind::NonPowerOfTwoChannels`] advisory),
    /// over `roots[j] = e^{−2πij/N}`: O(N) per demanded bin.
    Naive(Vec<C64>),
}

impl Transform {
    /// The unnormalised inverse DFT of one output's N branch sums at
    /// `bins`, into split real and imaginary parts. Other bins hold
    /// whatever is left there.
    fn run(&self, bins: &[usize], sums: &[f64], re: &mut [f64], im: &mut [f64]) {
        match self {
            Transform::Radix2(fft, plan) => fft.inverse_unnormalized_real_bins(plan, sums, re, im),
            Transform::Naive(roots) => {
                let n = sums.len();
                for &k in bins {
                    let mut acc = C64::ZERO;
                    for (q, &v) in sums.iter().enumerate() {
                        // e^{+2πikq/N} = conj(roots[kq mod N]).
                        acc += v * roots[k * q % n].conj();
                    }
                    (re[k], im[k]) = (acc.re, acc.im);
                }
            }
        }
    }
}

/// The code that runs the `f64` branch MACs and the rotate-and-round
/// step, picked once at construction from what the CPU has. Every
/// kernel gives the same output words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kernel {
    /// Scalar rotate-and-round; MACs as the compiler builds them for
    /// the baseline target.
    Scalar,
    /// [`simd`]: four channels per rotate-and-round step, and the same
    /// MAC source compiled for AVX2.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Kernel {
    fn select() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if crate::avx2_detected() {
            return Kernel::Avx2;
        }
        Kernel::Scalar
    }
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
    /// block's history. Always inlined, so the AVX2 wrapper in [`simd`]
    /// compiles this same source for AVX2.
    #[inline(always)]
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

/// The scalar rotate-and-round step: appends one output to each
/// demanded channel `ks[s]`'s vector `out[s]`, the transform bin
/// `re[k] + j·im[k]` times its phase root `w_re[s] + j·w_im[s]`,
/// quantized by `word`.
fn rotate_round(
    out: &mut [Vec<Iq>],
    ks: &[usize],
    (re, im): (&[f64], &[f64]),
    (w_re, w_im): (&[f64], &[f64]),
    word: OutputWord,
) {
    for (((o, &k), &wr), &wi) in out.iter_mut().zip(ks).zip(w_re).zip(w_im) {
        let z = C64::new(re[k], im[k]) * C64::new(wr, wi);
        o.push(Iq {
            i: word.of(z.re),
            q: word.of(z.im),
        });
    }
}

/// Stage 2's state: the transform, its output and the phase tables.
#[derive(Clone, Debug)]
struct Synthesis {
    transform: Transform,
    /// Phase correction per output phase and enabled channel:
    /// `roots[p·K + r] = e^{−2πi·k_r·n_p/N}`, where `n_p` is the newest
    /// sample index mod N of outputs in phase `p` and `k_r` the `r`-th
    /// of K enabled channels.
    roots: Vec<C64>,
    /// Output phases, `N/decim`.
    phases: usize,
    /// The demanded channels' roots, split into real and imaginary
    /// parts: `rot[p·D + s]` is the root of phase `p` and the `s`-th of
    /// D demanded channels.
    rot_re: Vec<f64>,
    rot_im: Vec<f64>,
    /// Output phase of the next output.
    rot_phase: usize,
    /// Transform output, split into real and imaginary parts.
    re: Vec<f64>,
    im: Vec<f64>,
}

impl Synthesis {
    /// Keeps the roots of the demanded `rows` (of `k_en` enabled ones)
    /// and plans the transform for their channels, `bins`.
    fn plan(&mut self, rows: &[usize], bins: &[usize], k_en: usize) {
        self.rot_re.clear();
        self.rot_im.clear();
        for phase in 0..self.phases {
            for &r in rows {
                let w = self.roots[phase * k_en + r];
                self.rot_re.push(w.re);
                self.rot_im.push(w.im);
            }
        }
        if let Transform::Radix2(fft, plan) = &mut self.transform {
            *plan = fft.plan_bins(bins);
        }
    }

    /// Transforms each N-vector of `sums` at `bins` in turn and hands
    /// the result and its output phase's roots of those bins to `emit`.
    /// With no bin demanded it only moves the output phase on.
    fn run(
        &mut self,
        bins: &[usize],
        sums: &[f64],
        mut emit: impl FnMut((&[f64], &[f64]), (&[f64], &[f64])),
    ) {
        let (n, k) = (self.re.len(), bins.len());
        if k == 0 {
            self.rot_phase = (self.rot_phase + sums.len() / n) % self.phases;
            return;
        }
        for v in sums.chunks_exact(n) {
            self.transform.run(bins, v, &mut self.re, &mut self.im);
            let row = self.rot_phase * k..(self.rot_phase + 1) * k;
            emit(
                (&self.re, &self.im),
                (&self.rot_re[row.clone()], &self.rot_im[row]),
            );
            self.rot_phase += 1;
            if self.rot_phase == self.phases {
                self.rot_phase = 0;
            }
        }
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
    synth: Synthesis,
    kernel: Kernel,
    /// Exact branch sums for every output of the current block
    /// (outputs × N), as `f64`.
    sums: Vec<f64>,
    /// Enabled channel indices, ascending.
    enabled: Vec<usize>,
    /// Demanded rows, ascending: positions in `enabled`, so indices of
    /// the per-channel output vectors.
    rows: Vec<usize>,
    /// The demanded rows' channels: the transform bins they read.
    bins: Vec<usize>,
    /// The demanded rows' output vectors, one per entry of `bins`,
    /// while a call appends to them; empty between calls.
    demanded_out: Vec<Vec<Iq>>,
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
        let phase_roots: Vec<C64> = (0..n / decim)
            .flat_map(|p| {
                let newest = (decim - 1 + p * decim) % n;
                enabled.iter().map(move |&k| k * newest % n)
            })
            .map(|j| roots[j])
            .collect();
        let transform = if n.is_power_of_two() {
            // The plan of no bin, like the empty demand the bank starts
            // from until `set_demand` below sets the default.
            let fft = Fft::new(n);
            let none = fft.plan_bins(&[]);
            Transform::Radix2(fft, none)
        } else {
            Transform::Naive(roots)
        };
        // The AVX2 rounding truncates in packed i32 lanes.
        assert!(f.data_bits <= 32, "validate bounds data_bits by 32");
        let mut bank = Channelizer {
            n,
            decim,
            mac,
            phase: 0,
            synth: Synthesis {
                transform,
                roots: phase_roots,
                phases: n / decim,
                rot_re: Vec::new(),
                rot_im: Vec::new(),
                rot_phase: 0,
                re: vec![0.0; n],
                im: vec![0.0; n],
            },
            kernel: Kernel::select(),
            sums: Vec::new(),
            enabled,
            rows: Vec::new(),
            bins: Vec::new(),
            demanded_out: Vec::new(),
            nominal_gain,
            word: OutputWord {
                scale: 2f64.powi(-(f.coeff_frac() as i32)),
                lo: min_signed(f.data_bits),
                hi: max_signed(f.data_bits),
            },
            spec,
        };
        bank.set_demand(|_| true);
        Ok(bank)
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

    /// Sets the channels [`Channelizer::transform_outputs`] synthesizes:
    /// the enabled channels `k` for which `demanded(k)` holds. The
    /// others' vectors get nothing. Every word still equals the full
    /// bank's (see the module docs). The default is every enabled
    /// channel. It may change between any two calls.
    pub fn set_demand(&mut self, demanded: impl Fn(usize) -> bool) {
        self.rows.clear();
        self.bins.clear();
        for (r, &k) in self.enabled.iter().enumerate() {
            if demanded(k) {
                self.rows.push(r);
                self.bins.push(k);
            }
        }
        self.demanded_out.resize_with(self.rows.len(), Vec::new);
        self.synth.plan(&self.rows, &self.bins, self.enabled.len());
    }

    /// The demanded channel indices, ascending: those of
    /// [`Channelizer::enabled_channels`] the process calls synthesize.
    pub fn demanded_channels(&self) -> &[usize] {
        &self.bins
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
        match (&mut self.mac, self.kernel) {
            #[cfg(target_arch = "x86_64")]
            (Mac::F64(b), Kernel::Avx2) => {
                simd::branches(b, input, first_end, d, n_out, &mut self.sums)
            }
            (Mac::F64(b), _) => b.run(input, first_end, d, n_out, &mut self.sums, |v| v),
            (Mac::I64(b), _) => b.run(input, first_end, d, n_out, &mut self.sums, |v| v as f64),
        }
        self.phase = (self.phase + input.len()) % d;
        n_out
    }

    /// Stage 2 — N-point synthesis transform + phase correction +
    /// output quantization for the `n_out` outputs staged by
    /// [`Channelizer::compute_branches`]. Appends one `Iq` per output
    /// to each demanded channel's vector (`out` is indexed in
    /// [`Channelizer::enabled_channels`] order); the other vectors are
    /// left as they are.
    pub fn transform_outputs(&mut self, n_out: usize, out: &mut [Vec<Iq>]) {
        assert_eq!(
            out.len(),
            self.enabled.len(),
            "one vector per enabled channel"
        );
        // The kernels write one vector per demanded channel, so the
        // demanded vectors move into `demanded_out` for the call.
        let swap_rows = |stage: &mut [Vec<Iq>], out: &mut [Vec<Iq>]| {
            for (v, &r) in stage.iter_mut().zip(&self.rows) {
                std::mem::swap(v, &mut out[r]);
            }
        };
        let stage = &mut self.demanded_out[..];
        swap_rows(stage, out);
        let (ks, word) = (&self.bins[..], self.word);
        let sums = &self.sums[..n_out * self.n];
        match self.kernel {
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => {
                let mut rows = simd::Rows::new(stage, ks, self.n, n_out, word);
                self.synth
                    .run(ks, sums, |bins, roots| rows.push(bins, roots));
            }
            Kernel::Scalar => {
                for v in stage.iter_mut() {
                    v.reserve(n_out);
                }
                self.synth.run(ks, sums, |bins, roots| {
                    rotate_round(stage, ks, bins, roots, word)
                });
            }
        }
        swap_rows(stage, out);
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

/// The AVX2 kernels: rotate-and-round four channels per step, and the
/// `f64` branch MACs compiled for AVX2. [`Kernel::select`] picks them
/// only when `crate::avx2_detected()` holds.
///
/// Each rotate-and-round lane performs the scalar step's operations in
/// its order: `C64`'s multiply without FMA, `× scale`, then `+
/// BELOW_HALF.copysign(v)`. It then clamps to `[lo, hi]` in `f64` and
/// truncates, where the scalar step truncates and then clamps. Both give
/// the same integer because `lo` and `hi` are integers and truncation
/// is monotone: a value at or above `hi` truncates to at least `hi`,
/// one at or below `lo` to at most `lo`, and one between them to an
/// integer between them. `_mm256_cvttpd_epi32` truncates exactly on
/// `[lo, hi]` because `data_bits ≤ 32`, which [`Rows::new`] asserts.
/// The bins are finite: sums of finite branch sums (a NaN would clamp
/// to `lo` here where the scalar step gives 0).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd {
    use super::{Branches, OutputWord};
    use crate::mixer::Iq;
    use ddc_dsp::fixed::BELOW_HALF;
    use ddc_dsp::C64;
    use std::arch::x86_64::*;

    /// The `f64` branch MACs: the source of [`Branches::run`], inlined
    /// into an AVX2 function so its vector loop runs four lanes wide.
    /// The operations are the same and use no FMA; the sums are exact
    /// integers either way.
    pub fn branches(
        b: &mut Branches<f64>,
        input: &[i32],
        first_end: usize,
        d: usize,
        n_out: usize,
        sums: &mut Vec<f64>,
    ) {
        assert!(crate::avx2_detected(), "AVX2 kernel on a CPU without AVX2");
        // SAFETY: the CPU has AVX2 (asserted above), and
        // `branches_avx2` runs only safe code.
        unsafe { branches_avx2(b, input, first_end, d, n_out, sums) }
    }

    /// # Safety
    ///
    /// The CPU must have AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn branches_avx2(
        b: &mut Branches<f64>,
        input: &[i32],
        first_end: usize,
        d: usize,
        n_out: usize,
        sums: &mut Vec<f64>,
    ) {
        b.run(input, first_end, d, n_out, sums, |v| v);
    }

    /// The demanded channels' vectors, written through their spare
    /// capacity one output at a time. Dropping it sets every vector's
    /// length past the outputs pushed.
    pub struct Rows<'a> {
        out: &'a mut [Vec<Iq>],
        /// Demanded channel indices, each below `n`.
        ks: &'a [usize],
        /// Transform size.
        n: usize,
        /// `ks` is `0..n`: lanes load bins contiguously, not gathered.
        full: bool,
        word: OutputWord,
        /// Outputs reserved in every vector.
        room: usize,
        /// Outputs written to every vector.
        pushed: usize,
    }

    impl<'a> Rows<'a> {
        /// Reserves `room` outputs in each of `out`, one vector per
        /// channel of `ks`, for bins of an `n`-point transform.
        pub fn new(
            out: &'a mut [Vec<Iq>],
            ks: &'a [usize],
            n: usize,
            room: usize,
            word: OutputWord,
        ) -> Self {
            assert!(crate::avx2_detected(), "AVX2 kernel on a CPU without AVX2");
            assert_eq!(out.len(), ks.len(), "one vector per demanded channel");
            assert!(ks.iter().all(|&k| k < n), "channel index out of range");
            assert!(
                word.lo >= i64::from(i32::MIN) && word.hi <= i64::from(i32::MAX),
                "packed truncation needs data_bits <= 32"
            );
            for v in out.iter_mut() {
                v.reserve(room);
            }
            let full = ks.len() == n && ks.iter().enumerate().all(|(s, &k)| s == k);
            Rows {
                out,
                ks,
                n,
                full,
                word,
                room,
                pushed: 0,
            }
        }

        /// Appends one output to every channel: bin `ks[s]` of
        /// `re + j·im` times root `w_re[s] + j·w_im[s]`, quantized.
        pub fn push(&mut self, (re, im): (&[f64], &[f64]), (w_re, w_im): (&[f64], &[f64])) {
            let k_en = self.ks.len();
            assert!(self.pushed < self.room, "more outputs than reserved");
            assert!(
                re.len() == self.n && im.len() == self.n,
                "bins of another size"
            );
            assert!(
                w_re.len() == k_en && w_im.len() == k_en,
                "one root per channel"
            );
            // SAFETY: the CPU has AVX2 (asserted in `new`). Every bin
            // read is below `n`: contiguous lanes read `s < k_en = n`,
            // gathered ones `ks[s] < n` (asserted in `new`). Roots and
            // vectors are read below `k_en`, their checked lengths. Slot
            // `len + pushed` of every vector lies within the capacity
            // `new` reserved, since `pushed < room`.
            unsafe {
                rotate_round_avx2(
                    self.out,
                    self.ks,
                    self.full,
                    (re, im),
                    (w_re, w_im),
                    self.word,
                    self.pushed,
                );
            }
            self.pushed += 1;
        }
    }

    impl Drop for Rows<'_> {
        fn drop(&mut self) {
            for v in self.out.iter_mut() {
                // SAFETY: every `push` initialised slot `len + m` of
                // every vector, for each `m < pushed`, within the
                // capacity `new` reserved.
                unsafe { v.set_len(v.len() + self.pushed) }
            }
        }
    }

    /// The lane constants of one output word.
    struct Quant {
        scale: __m256d,
        half: __m256d,
        sign: __m256d,
        lo: __m256d,
        hi: __m256d,
    }

    /// `round_to_i64(v · scale).clamp(lo, hi)` in four `i64` lanes.
    ///
    /// # Safety
    ///
    /// The CPU must have AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn quantize(v: __m256d, c: &Quant) -> __m256i {
        let x = _mm256_mul_pd(v, c.scale);
        let r = _mm256_add_pd(x, _mm256_or_pd(c.half, _mm256_and_pd(x, c.sign)));
        let r = _mm256_min_pd(_mm256_max_pd(r, c.lo), c.hi);
        _mm256_cvtepi32_epi64(_mm256_cvttpd_epi32(r))
    }

    /// Slot `len + m` of `out[s]`.
    ///
    /// # Safety
    ///
    /// Slot `len + m` must lie within the vector's capacity.
    #[inline(always)]
    unsafe fn slot(out: &mut [Vec<Iq>], s: usize, m: usize) -> *mut Iq {
        let v = &mut out[s];
        let len = v.len();
        v.as_mut_ptr().add(len + m)
    }

    /// Writes output `m` of every channel. Four channels per step; the
    /// `K mod 4` left over take the scalar step's arithmetic.
    ///
    /// # Safety
    ///
    /// The CPU must have AVX2. `out`, `w_re` and `w_im` have one entry
    /// per entry of `ks`; every `ks[s]` indexes `re` and `im`, and
    /// `full` implies `ks.len() == re.len()`; slot `len + m` of every
    /// vector lies within its capacity.
    #[target_feature(enable = "avx2")]
    unsafe fn rotate_round_avx2(
        out: &mut [Vec<Iq>],
        ks: &[usize],
        full: bool,
        (re, im): (&[f64], &[f64]),
        (w_re, w_im): (&[f64], &[f64]),
        word: OutputWord,
        m: usize,
    ) {
        let c = Quant {
            scale: _mm256_set1_pd(word.scale),
            half: _mm256_set1_pd(BELOW_HALF),
            sign: _mm256_set1_pd(-0.0),
            lo: _mm256_set1_pd(word.lo as f64),
            hi: _mm256_set1_pd(word.hi as f64),
        };
        let k_en = ks.len();
        let mut s = 0;
        while s + 4 <= k_en {
            let (ar, ai) = if full {
                (
                    _mm256_loadu_pd(re.as_ptr().add(s)),
                    _mm256_loadu_pd(im.as_ptr().add(s)),
                )
            } else {
                let idx = _mm256_loadu_si256(ks.as_ptr().add(s) as *const __m256i);
                (
                    _mm256_i64gather_pd::<8>(re.as_ptr(), idx),
                    _mm256_i64gather_pd::<8>(im.as_ptr(), idx),
                )
            };
            let wr = _mm256_loadu_pd(w_re.as_ptr().add(s));
            let wi = _mm256_loadu_pd(w_im.as_ptr().add(s));
            // C64's multiply: (re·wr − im·wi, re·wi + im·wr).
            let zr = _mm256_sub_pd(_mm256_mul_pd(ar, wr), _mm256_mul_pd(ai, wi));
            let zi = _mm256_add_pd(_mm256_mul_pd(ar, wi), _mm256_mul_pd(ai, wr));
            let (i, q) = (quantize(zr, &c), quantize(zi, &c));
            // (i0, q0 | i2, q2) and (i1, q1 | i3, q3): `Iq` is
            // `repr(C)`, `i` then `q`.
            let even = _mm256_unpacklo_epi64(i, q);
            let odd = _mm256_unpackhi_epi64(i, q);
            let pairs = [
                _mm256_castsi256_si128(even),
                _mm256_castsi256_si128(odd),
                _mm256_extracti128_si256::<1>(even),
                _mm256_extracti128_si256::<1>(odd),
            ];
            for (j, pair) in pairs.into_iter().enumerate() {
                _mm_storeu_si128(slot(out, s + j, m) as *mut __m128i, pair);
            }
            s += 4;
        }
        for s in s..k_en {
            let k = ks[s];
            let z = C64::new(re[k], im[k]) * C64::new(w_re[s], w_im[s]);
            slot(out, s, m).write(Iq {
                i: word.of(z.re),
                q: word.of(z.im),
            });
        }
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
/// back ends) plus flow counters and the active- and demanded-channel
/// gauges — exported under the `ddc_channelizer_*` Prometheus families.
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
    /// Channel output samples produced, summed over the demanded
    /// channels: only synthesized words count.
    pub samples_out: Counter,
    /// Enabled-channel count (a gauge, set at construction).
    channels_active: Counter,
    /// Demanded-channel count (a gauge, set with the demand).
    channels_demanded: AtomicU64,
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
        snap.push_counter(
            plain("ddc_channelizer_channels_demanded"),
            self.channels_demanded.load(Ordering::Relaxed),
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
    /// Per enabled channel: the last [`ChannelizerFarm::set_demand`]
    /// asked for it. A stateful back end adds its channel on top.
    asked: Vec<bool>,
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
            asked: vec![true; k],
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
        self.publish_demand();
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
    /// index). Returns false when the channel is not enabled. A back
    /// end that is not the identity adds its channel to the demand; an
    /// identity one leaves it as the last
    /// [`ChannelizerFarm::set_demand`] asked.
    pub fn set_backend(&mut self, channel: usize, backend: ChannelBackend) -> bool {
        let Ok(row) = self.front.enabled_channels().binary_search(&channel) else {
            return false;
        };
        self.backends[row] = backend;
        self.apply_demand();
        true
    }

    /// Sets the channels the front end synthesizes: the enabled
    /// channels `k` for which `demanded(k)` holds, and every channel
    /// whose back end is not the identity, since such a back end carries
    /// state from block to block. The other rows of
    /// [`ChannelizerFarm::process_block`] come back empty. The default is
    /// every enabled channel; see [`Channelizer::set_demand`].
    pub fn set_demand(&mut self, demanded: impl Fn(usize) -> bool) {
        for (a, &k) in self.asked.iter_mut().zip(self.front.enabled_channels()) {
            *a = demanded(k);
        }
        self.apply_demand();
    }

    /// Hands the front end the asked channels plus the stateful ones.
    fn apply_demand(&mut self) {
        let keep: Vec<usize> = (self.front.enabled_channels().iter())
            .zip(self.asked.iter().zip(&self.backends))
            .filter(|(_, (&asked, b))| asked || !b.is_identity())
            .map(|(&k, _)| k)
            .collect();
        self.front.set_demand(|k| keep.binary_search(&k).is_ok());
        self.publish_demand();
    }

    /// Sets the demanded-channel gauge, when telemetry is on.
    fn publish_demand(&self) {
        if let Some(m) = &self.metrics {
            let k = self.front.demanded_channels().len() as u64;
            m.channels_demanded.store(k, Ordering::Relaxed);
        }
    }

    /// Processes one wideband block through front end and back ends,
    /// returning per-enabled-channel output slices (row order =
    /// [`ChannelizerFarm::enabled_channels`]); an undemanded channel's
    /// slice is empty. The buffers are reused across calls; steady state
    /// performs no heap allocation.
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
        assert_eq!(snap.counter("ddc_channelizer_channels_demanded"), Some(7));
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
        // Channels 0..3 demanded: only their words count as output.
        farm.set_demand(|k| k < 3);
        farm.process_block(&input);
        let snap = farm.metrics_snapshot().expect("telemetry on");
        assert_eq!(snap.counter("ddc_channelizer_channels_demanded"), Some(3));
        assert_eq!(
            snap.counter("ddc_channelizer_samples_out_total"),
            Some(2 * 64 * 7 + 64 * 3)
        );
    }

    /// Each demanded row equals the full bank's, word for word, while
    /// the demand changes between ragged blocks: none, one, a random
    /// subset or every channel. Undemanded rows stay empty. N = 12 runs
    /// the naive DFT; both kernels run every shape.
    #[test]
    fn demanded_rows_equal_the_full_bank_while_the_demand_changes() {
        for n in [8u32, 12, 64, 1024] {
            for oversample in 1..=2 {
                for sparse in [false, true] {
                    let mut spec = ChannelizerSpec::uniform(n, 1.0e6);
                    spec.oversample = oversample;
                    let mut s = 0xDE3A_u64 + u64::from(n) * 4 + u64::from(oversample);
                    if sparse {
                        for e in spec.enabled.iter_mut() {
                            *e = xorshift(&mut s).is_multiple_of(3);
                        }
                        spec.enabled[1] = true;
                    }
                    let full = Channelizer::from_spec(spec.clone()).unwrap();
                    let enabled = full.enabled_channels().to_vec();
                    let input = random_input(s, n as usize * 24);
                    let mut scalar = full.clone();
                    scalar.kernel = Kernel::Scalar;
                    for mut bank in [full.clone(), scalar] {
                        let what = format!(
                            "N={n} oversample={oversample} K={} {:?}",
                            enabled.len(),
                            bank.kernel
                        );
                        let mut full = full.clone();
                        let mut want = vec![Vec::new(); enabled.len()];
                        let mut got = want.clone();
                        let mut rest = &input[..];
                        let mut outputs = 0;
                        while !rest.is_empty() {
                            let demanded: Vec<bool> = match xorshift(&mut s) % 4 {
                                0 => vec![false; n as usize],
                                1 => {
                                    let pick = enabled[xorshift(&mut s) as usize % enabled.len()];
                                    (0..n as usize).map(|k| k == pick).collect()
                                }
                                2 => (0..n).map(|_| xorshift(&mut s).is_multiple_of(2)).collect(),
                                _ => vec![true; n as usize],
                            };
                            bank.set_demand(|k| demanded[k]);
                            let expect: Vec<usize> =
                                enabled.iter().copied().filter(|&k| demanded[k]).collect();
                            assert_eq!(bank.demanded_channels(), expect, "{what}");
                            let take =
                                (1 + xorshift(&mut s) as usize % (3 * n as usize)).min(rest.len());
                            let (piece, tail) = rest.split_at(take);
                            rest = tail;
                            want.iter_mut().chain(got.iter_mut()).for_each(Vec::clear);
                            full.process_into(piece, &mut want);
                            bank.process_into(piece, &mut got);
                            for (row, &k) in enabled.iter().enumerate() {
                                if demanded[k] {
                                    assert_eq!(got[row], want[row], "{what}: channel {k}");
                                    outputs += got[row].len();
                                } else {
                                    assert!(got[row].is_empty(), "{what}: channel {k}");
                                }
                            }
                        }
                        assert!(outputs > 0, "{what}: no demanded output");
                    }
                }
            }
        }
    }

    /// A back end that is not the identity keeps its channel demanded
    /// until the identity replaces it, and only demanded channels
    /// produce output.
    #[test]
    fn stateful_back_ends_stay_demanded() {
        let spec = ChannelizerSpec::uniform(8, 1.0e6);
        let mut farm = ChannelizerFarm::from_spec(spec.clone())
            .unwrap()
            .with_telemetry();
        farm.set_demand(|k| k == 1);
        assert_eq!(farm.front().demanded_channels(), [1]);
        let rotator = ChannelBackend::identity(spec.format.data_bits)
            .with_residual(1.0e3, spec.output_rate());
        assert!(farm.set_backend(5, rotator));
        assert_eq!(farm.front().demanded_channels(), [1, 5]);
        farm.set_demand(|_| false);
        assert_eq!(farm.front().demanded_channels(), [5]);
        let snap = farm.metrics_snapshot().expect("telemetry on");
        assert_eq!(snap.counter("ddc_channelizer_channels_demanded"), Some(1));
        let rows = farm.process_block(&random_input(43, 8 * 40));
        for (k, row) in rows.iter().enumerate() {
            assert_eq!(row.is_empty(), k != 5, "channel {k}");
        }
        // Back to the identity, channel 5 leaves the demand, and the
        // channels asked for stay as they were asked.
        farm.set_demand(|k| k == 2);
        assert_eq!(farm.front().demanded_channels(), [2, 5]);
        assert!(farm.set_backend(5, ChannelBackend::identity(spec.format.data_bits)));
        assert_eq!(farm.front().demanded_channels(), [2]);
        let snap = farm.metrics_snapshot().expect("telemetry on");
        assert_eq!(snap.counter("ddc_channelizer_channels_demanded"), Some(1));
    }

    /// One rotate-and-round kernel: appends one output to every
    /// channel of `ks`.
    type Step = fn(&mut [Vec<Iq>], &[usize], (&[f64], &[f64]), (&[f64], &[f64]), OutputWord);

    /// The kernels this CPU can run, the dispatched one last.
    fn rotate_round_kernels() -> Vec<(&'static str, Step)> {
        let mut kernels: Vec<(&'static str, Step)> = vec![("scalar", rotate_round)];
        #[cfg(target_arch = "x86_64")]
        if crate::avx2_detected() {
            kernels.push(("avx2", |out, ks, bins, roots, word| {
                simd::Rows::new(out, ks, bins.0.len(), 1, word).push(bins, roots)
            }));
        }
        kernels
    }

    /// The word a bin `z` becomes: `f64::round`, `as i64`, saturate.
    fn plain_word(z: f64, frac: u32, data_bits: u32) -> i64 {
        saturate((z / 2f64.powi(frac as i32)).round() as i64, data_bits)
    }

    /// A bin value for a word with `frac` fraction bits: an exact `.5`
    /// tie at one of several scales, `±(0.5 − ulp)`, a signed zero, a
    /// value past `±2^31` up to beyond `2^63` once scaled, or a random
    /// integer like a branch-sum transform.
    fn edge_bin(s: &mut u64, frac: u32) -> f64 {
        let unit = 2f64.powi(frac as i32);
        let sign = if xorshift(s).is_multiple_of(2) {
            1.0
        } else {
            -1.0
        };
        let below_half = f64::from_bits(0.5f64.to_bits() - 1);
        match xorshift(s) % 6 {
            0 => {
                let t = (xorshift(s) >> (12 + xorshift(s) % 52)) as f64;
                sign * (t + 0.5) * unit
            }
            1 => sign * below_half * unit,
            2 => sign * 0.0,
            3 => sign * 2f64.powi(31 + (xorshift(s) % 34) as i32) * unit * 1.5,
            4 => sign * 2f64.powi(31) * unit,
            _ => sign * (xorshift(s) >> (1 + xorshift(s) % 63)) as f64,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Every rotate-and-round kernel gives the plain formula's word
        /// for every channel: `.5` ties, `±(0.5 − ulp)`, signed zeros
        /// and saturating values; every data width; K channels out of
        /// N, `K mod 4` tails and sparse masks included; roots from
        /// either phase table of an oversampled bank over those
        /// channels, or drawn from the N = 64 roots and exact quarter
        /// turns, which pass a bin through to either rail.
        #[test]
        fn rotate_round_kernels_equal_the_plain_formula(
            n in 1usize..=70,
            k_en in 1usize..=70,
            data_bits in 2u32..=32,
            coeff_bits in 2u32..=32,
            phase in 0usize..3,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut s = seed | 1;
            let k_en = k_en.min(n);
            let mut ks: Vec<usize> = (0..n).collect();
            for i in 0..n {
                ks.swap(i, i + (xorshift(&mut s) % (n - i) as u64) as usize);
            }
            ks.truncate(k_en);
            ks.sort_unstable();
            let frac = coeff_bits - 1;
            let word = OutputWord {
                scale: 2f64.powi(-(frac as i32)),
                lo: min_signed(data_bits),
                hi: max_signed(data_bits),
            };
            let re: Vec<f64> = (0..n).map(|_| edge_bin(&mut s, frac)).collect();
            let im: Vec<f64> = (0..n).map(|_| edge_bin(&mut s, frac)).collect();
            let (w_re, w_im): (Vec<f64>, Vec<f64>) = if phase < 2 && n.is_multiple_of(2) {
                let mut spec = ChannelizerSpec::uniform(n as u32, 1.0e6);
                spec.oversample = 2;
                spec.enabled = (0..n).map(|k| ks.contains(&k)).collect();
                let synth = Channelizer::from_spec(spec).unwrap().synth;
                let row = phase * k_en..(phase + 1) * k_en;
                (synth.rot_re[row.clone()].to_vec(), synth.rot_im[row].to_vec())
            } else {
                let quarter = [(1.0, -0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)];
                (0..k_en)
                    .map(|_| match xorshift(&mut s) % 3 {
                        0 => C64::cis(-2.0 * PI * (xorshift(&mut s) % 64) as f64 / 64.0),
                        _ => {
                            let (a, b) = quarter[(xorshift(&mut s) % 4) as usize];
                            C64::new(a, b)
                        }
                    })
                    .map(|w| (w.re, w.im))
                    .unzip()
            };
            let roots: Vec<C64> = w_re.iter().zip(&w_im).map(|(&a, &b)| C64::new(a, b)).collect();
            let want: Vec<Iq> = ks
                .iter()
                .zip(&roots)
                .map(|(&k, &w)| {
                    let z = C64::new(re[k], im[k]) * w;
                    Iq { i: plain_word(z.re, frac, data_bits), q: plain_word(z.im, frac, data_bits) }
                })
                .collect();
            for (name, step) in rotate_round_kernels() {
                let mut out: Vec<Vec<Iq>> = vec![vec![Iq { i: 7, q: -7 }]; k_en];
                step(&mut out, &ks, (&re, &im), (&w_re, &w_im), word);
                for (s, (row, w)) in out.iter().zip(&want).enumerate() {
                    proptest::prop_assert_eq!(row.len(), 2, "{}: channel {}", name, ks[s]);
                    proptest::prop_assert_eq!(row[1], *w, "{}: channel {} bin ({:e}, {:e})",
                        name, ks[s], re[ks[s]], im[ks[s]]);
                }
            }
        }
    }

    /// Both kernels of one bank agree word for word over a stream:
    /// both output phases of an oversampled bank, sparse masks with
    /// `K mod 4 != 0`, the naive-DFT transform, and all three
    /// accumulator formats.
    #[test]
    fn bank_kernels_agree_on_every_shape() {
        let wide = FixedFormat {
            data_bits: 32,
            coeff_bits: 32,
            ..FixedFormat::MONTIUM16
        };
        for (i, &n) in [4u32, 8, 12, 64].iter().enumerate() {
            for oversample in 1..=2 {
                for format in [FixedFormat::FPGA12, FixedFormat::MONTIUM16, wide] {
                    let mut spec = ChannelizerSpec::uniform(n, 1.0e6);
                    spec.oversample = oversample;
                    spec.format = format;
                    let mut s = 0x5EED + i as u64;
                    if n > 4 {
                        for e in spec.enabled.iter_mut() {
                            *e = !xorshift(&mut s).is_multiple_of(3);
                        }
                        spec.enabled[1] = true;
                    }
                    let input: Vec<i32> = (0..n as usize * 40)
                        .map(|_| xorshift(&mut s) as i32)
                        .collect();
                    let mut bank = Channelizer::from_spec(spec.clone()).unwrap();
                    let mut scalar = bank.clone();
                    scalar.kernel = Kernel::Scalar;
                    let k_en = bank.enabled_channels().len();
                    let (mut got, mut want) = (vec![Vec::new(); k_en], vec![Vec::new(); k_en]);
                    for piece in input.chunks(n as usize * 3 - 1) {
                        bank.process_into(piece, &mut got);
                        scalar.process_into(piece, &mut want);
                    }
                    assert!(want[0].len() > 10);
                    let what = format!("N={n} oversample={oversample} K={k_en} {format:?}");
                    assert_eq!(got, want, "{what}");
                }
            }
        }
    }

    /// The AVX2 `f64` MACs equal the scalar ones, and the exact `i64`
    /// sums, on the width audit's edge taps, whose branch bound is
    /// exactly 2^53, driven by full-scale inputs.
    #[test]
    fn avx2_branch_macs_equal_the_scalar_ones() {
        let edge = [1 << 21, 7, -(1 << 21), -7];
        let mut s = 0xED6E_u64;
        let mut input = vec![i32::MIN, i32::MIN, i32::MIN, i32::MIN, i32::MAX, i32::MIN];
        input.extend((0..250).map(|_| match xorshift(&mut s) % 4 {
            0 => i32::MIN,
            1 => i32::MAX,
            _ => xorshift(&mut s) as i32,
        }));
        // Windows of L·N = 4 samples, 3 of history, advancing by 2.
        let (first_end, n_out) = (3 + 2, input.len() / 2);
        let run = |b: &mut Branches<f64>| {
            let mut sums = Vec::new();
            b.run(&input, first_end, 2, n_out, &mut sums, |v| v);
            sums
        };
        let scalar = run(&mut Branches::new(&edge, 2));
        let mut exact = Vec::new();
        Branches::<i64>::new(&edge, 2).run(&input, first_end, 2, n_out, &mut exact, |v| v as f64);
        assert_eq!(scalar, exact);
        // Branch 0 is 2^21·x[t] − 2^21·x[t−2]: at most 2^53 − 2^21 in
        // magnitude for i32 inputs, reached at x[t] = MIN, x[t−2] = MAX.
        let extreme = 2f64.powi(21) - 2f64.powi(53);
        assert!(
            scalar.contains(&extreme),
            "the audit's edge was not reached"
        );
        #[cfg(target_arch = "x86_64")]
        if crate::avx2_detected() {
            let mut sums = Vec::new();
            simd::branches(
                &mut Branches::new(&edge, 2),
                &input,
                first_end,
                2,
                n_out,
                &mut sums,
            );
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&sums), bits(&scalar));
        }
    }

    /// On an AVX2 host every bank runs the AVX2 kernels.
    #[test]
    fn dispatch_picks_the_avx2_kernels_when_the_cpu_has_them() {
        let bank = Channelizer::from_spec(ChannelizerSpec::uniform(64, 64.512e6)).unwrap();
        assert!(matches!(bank.mac, Mac::F64(_)));
        #[cfg(target_arch = "x86_64")]
        if crate::avx2_detected() {
            assert_eq!(bank.kernel, Kernel::Avx2);
            return;
        }
        assert_eq!(bank.kernel, Kernel::Scalar);
    }

    #[test]
    fn farm_without_telemetry_has_no_snapshot() {
        let farm = ChannelizerFarm::from_spec(ChannelizerSpec::uniform(8, 1.0e6)).unwrap();
        assert!(farm.metrics_snapshot().is_none());
        assert!(farm.metrics().is_none());
    }
}
