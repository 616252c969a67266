//! The channelizer's correctness contract, proptested at the issue's
//! reference size: every enabled channel of an N=64 polyphase bank must
//! bounds-match a standalone [`FixedDdc`] tuned to that carrier and
//! running the same quantized prototype as a single FIR stage.
//!
//! The match is bounded, not bit-exact: the standalone chain mixes
//! through quantized hardware (LUT NCO, rounded mixer, truncated FIR
//! output) *before* filtering, while the bank filters in exact integer
//! arithmetic and rotates in f64. For power-of-two N ≤ 1024 the NCO
//! tuning word keeps its low bits clear so phase truncation vanishes,
//! and the remaining LUT/rounding terms stay under 0.3% of full scale —
//! `BOUNDS_TOLERANCE` (1%) covers them with margin. The error budget is
//! derived in `core::channelizer`'s module docs and DESIGN.md §3.7.
//!
//! The second half pins the bank's own arithmetic: every output word
//! must equal, bit for bit, the plain formulation kept below as
//! [`reference::Channelizer`] — branch-major strided dot products, a
//! separate convert and bit-reverse pass, a strided-twiddle FFT and
//! `f64::round`. It does so for the full bank and for a bank that
//! synthesizes only some of its channels, on random ADC words and on
//! inputs that put exact `.5` ties and out-of-range values on the final
//! rounding of channel 0, whose phase root is exactly 1.

use ddc_suite::core::chain::FixedDdc;
use ddc_suite::core::channelizer::{Channelizer, BOUNDS_TOLERANCE};
use ddc_suite::core::mixer::Iq;
use ddc_suite::core::params::FixedFormat;
use ddc_suite::core::spec::ChannelizerSpec;
use proptest::prelude::*;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

fn random_input(seed: u64, len: usize) -> Vec<i32> {
    let mut s = seed | 1;
    (0..len)
        .map(|_| (xorshift(&mut s) % 4096) as i32 - 2048)
        .collect()
}

/// Runs one channel of the bank (chunked as requested) and the
/// standalone chain over the same input, then compares the normalized
/// complex outputs sample by sample.
fn check_channel(spec: &ChannelizerSpec, k: u32, input: &[i32], chunk: usize) {
    let mut bank = Channelizer::from_spec(spec.clone()).unwrap();
    let row = bank
        .enabled_channels()
        .iter()
        .position(|&c| c == k as usize)
        .expect("channel enabled");
    let mut out: Vec<Vec<Iq>> = vec![Vec::new(); bank.enabled_channels().len()];
    for piece in input.chunks(chunk.max(1)) {
        bank.process_into(piece, &mut out);
    }
    let mut ddc = FixedDdc::from_spec(spec.channel_chain(k).expect("valid channel chain"));
    let want = ddc.process_block(input);
    let a = bank.to_c64(&out[row]);
    let b = ddc.to_c64(&want);
    assert_eq!(a.len(), b.len(), "channel {k}: output length");
    for (j, (x, y)) in a.iter().zip(&b).enumerate() {
        let err = (*x - *y).abs();
        assert!(
            err < BOUNDS_TOLERANCE,
            "channel {k} output {j}: |Δ| = {err:.5} >= {BOUNDS_TOLERANCE}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random channel index, random block length, random chunking —
    /// the N=64 bank always bounds-matches the standalone DDC.
    #[test]
    fn n64_channel_bounds_matches_fixed_ddc(
        seed in any::<u64>(),
        k in 0u32..64,
        chunk in 1usize..1500,
    ) {
        let spec = ChannelizerSpec::uniform(64, 64_512_000.0);
        let len = 64 * 24 + (seed % 640) as usize;
        check_channel(&spec, k, &random_input(seed, len), chunk);
    }

    /// Sparse random enable masks keep rows aligned with
    /// `enabled_channels()` and every surviving channel still matches.
    #[test]
    fn n64_sparse_mask_channels_match(seed in any::<u64>()) {
        let mut spec = ChannelizerSpec::uniform(64, 64_512_000.0);
        let mut s = seed | 1;
        for e in spec.enabled.iter_mut() {
            *e = xorshift(&mut s).is_multiple_of(4);
        }
        if !spec.enabled.iter().any(|&e| e) {
            spec.enabled[17] = true;
        }
        let input = random_input(seed ^ 0xABCD, 64 * 20);
        let picks: Vec<u32> = spec
            .enabled_channels()
            .iter()
            .take(3)
            .map(|&k| k as u32)
            .collect();
        for k in picks {
            check_channel(&spec, k, &input, 777);
        }
    }
}

/// Deterministic exhaustive sweep: all 64 channels of the reference
/// bank, one fixed seed — the acceptance criterion verbatim.
#[test]
fn n64_every_channel_bounds_matches() {
    let spec = ChannelizerSpec::uniform(64, 64_512_000.0);
    let input = random_input(0x5EED_2026, 64 * 20);
    for k in 0..64u32 {
        check_channel(&spec, k, &input, usize::MAX);
    }
}

/// The plain channelizer: branch-major taps, N strided L-tap dot
/// products per output in `i64`, a separate convert and bit-reverse
/// pass into a radix-2 FFT that reads one twiddle table with a stride
/// and conjugates it inside the butterfly loop, the phase root indexed
/// by `k·n_m mod N`, a division and `f64::round` on every output word.
mod reference {
    use ddc_suite::core::mixer::Iq;
    use ddc_suite::core::spec::ChannelizerSpec;
    use ddc_suite::dsp::firdes::quantize_taps;
    use ddc_suite::dsp::fixed::saturate;
    use ddc_suite::dsp::C64;
    use std::f64::consts::PI;

    pub struct Fft {
        n: usize,
        twiddles: Vec<C64>,
        rev: Vec<u32>,
    }

    impl Fft {
        pub fn new(n: usize) -> Self {
            let twiddles = (0..n / 2)
                .map(|k| C64::cis(-2.0 * PI * k as f64 / n as f64))
                .collect();
            let bits = n.trailing_zeros();
            let rev = (0..n as u32)
                .map(|i| i.reverse_bits() >> (32 - bits))
                .collect();
            Fft { n, twiddles, rev }
        }

        pub fn inverse_unnormalized(&self, buf: &mut [C64]) {
            assert_eq!(buf.len(), self.n, "buffer length must equal plan size");
            self.permute(buf);
            self.butterflies(buf, true);
        }

        fn permute(&self, buf: &mut [C64]) {
            for i in 0..self.n {
                let j = self.rev[i] as usize;
                if i < j {
                    buf.swap(i, j);
                }
            }
        }

        pub fn butterflies(&self, buf: &mut [C64], inverse: bool) {
            let n = self.n;
            let mut len = 2;
            while len <= n {
                let half = len / 2;
                let stride = n / len;
                for start in (0..n).step_by(len) {
                    for k in 0..half {
                        let mut w = self.twiddles[k * stride];
                        if inverse {
                            w = w.conj();
                        }
                        let a = buf[start + k];
                        let b = buf[start + k + half] * w;
                        buf[start + k] = a + b;
                        buf[start + k + half] = a - b;
                    }
                }
                len *= 2;
            }
        }
    }

    enum Transform {
        Radix2(Fft),
        Naive,
    }

    pub struct Channelizer {
        n: usize,
        l: usize,
        decim: usize,
        taps: Vec<i32>,
        carry: Vec<i32>,
        work: Vec<i32>,
        phase: usize,
        out_mod: usize,
        transform: Transform,
        roots: Vec<C64>,
        branch: Vec<i64>,
        buf: Vec<C64>,
        enabled: Vec<usize>,
        coeff_frac: u32,
        data_bits: u32,
    }

    impl Channelizer {
        pub fn from_spec(spec: &ChannelizerSpec) -> Self {
            let proto = spec.prototype_taps().unwrap();
            let n = spec.channels as usize;
            let l = spec.taps_per_branch as usize;
            let f = spec.format;
            let q = quantize_taps(&proto, f.coeff_bits, f.coeff_frac());
            let mut taps = vec![0i32; n * l];
            for (p, &c) in q.iter().enumerate() {
                let (branch, r) = (p % n, p / n);
                taps[branch * l + r] = c;
            }
            let decim = spec.decimation() as usize;
            let transform = if n.is_power_of_two() {
                Transform::Radix2(Fft::new(n))
            } else {
                Transform::Naive
            };
            let roots = (0..n)
                .map(|j| C64::cis(-2.0 * PI * j as f64 / n as f64))
                .collect();
            Channelizer {
                n,
                l,
                decim,
                taps,
                carry: vec![0; n * l - 1],
                work: Vec::new(),
                phase: 0,
                out_mod: (decim - 1) % n,
                transform,
                roots,
                branch: Vec::new(),
                buf: Vec::with_capacity(n),
                enabled: spec.enabled_channels(),
                coeff_frac: f.coeff_frac(),
                data_bits: f.data_bits,
            }
        }

        pub fn compute_branches(&mut self, input: &[i32]) -> usize {
            let (n, l, d) = (self.n, self.l, self.decim);
            let window = n * l;
            let mut work = std::mem::take(&mut self.work);
            work.clear();
            work.reserve(window - 1 + input.len());
            work.extend_from_slice(&self.carry);
            work.extend_from_slice(input);
            let n_out = (self.phase + input.len()) / d;
            self.branch.clear();
            self.branch.reserve(n_out * n);
            // First window closes after `d − phase` new samples.
            let mut end = (window - 1) + (d - self.phase);
            for _ in 0..n_out {
                let base = end - 1;
                for bq in 0..n {
                    let t = &self.taps[bq * l..(bq + 1) * l];
                    // Branch q reads x[base − q − rN]: start above the
                    // newest index and walk down by N so the index never
                    // wraps below zero mid-loop.
                    let mut idx = base - bq + n;
                    let mut acc = 0i64;
                    for &c in t {
                        idx -= n;
                        acc += i64::from(c) * i64::from(work[idx]);
                    }
                    self.branch.push(acc);
                }
                end += d;
            }
            let len = work.len();
            self.carry.clear();
            self.carry.extend_from_slice(&work[len - (window - 1)..]);
            self.work = work;
            self.phase = (self.phase + input.len()) % d;
            n_out
        }

        pub fn transform_outputs(&mut self, n_out: usize, out: &mut [Vec<Iq>]) {
            assert_eq!(
                out.len(),
                self.enabled.len(),
                "one vector per enabled channel"
            );
            let n = self.n;
            let half = 2f64.powi(self.coeff_frac as i32);
            for j in 0..n_out {
                let sums = &self.branch[j * n..(j + 1) * n];
                match &self.transform {
                    Transform::Radix2(fft) => {
                        self.buf.clear();
                        self.buf
                            .extend(sums.iter().map(|&v| C64::new(v as f64, 0.0)));
                        fft.inverse_unnormalized(&mut self.buf);
                    }
                    Transform::Naive => {
                        self.buf.clear();
                        for k in 0..n {
                            let mut acc = C64::ZERO;
                            for (q, &v) in sums.iter().enumerate() {
                                // e^{+2πikq/N} = conj(roots[kq mod N]).
                                acc += (v as f64) * self.roots[k * q % n].conj();
                            }
                            self.buf.push(acc);
                        }
                    }
                }
                for (slot, &k) in self.enabled.iter().enumerate() {
                    let rot = self.roots[k * self.out_mod % n];
                    let z = self.buf[k] * rot;
                    out[slot].push(Iq {
                        i: saturate((z.re / half).round() as i64, self.data_bits),
                        q: saturate((z.im / half).round() as i64, self.data_bits),
                    });
                }
                self.out_mod = (self.out_mod + self.decim) % n;
            }
        }
    }
}

/// 32-bit data bus and 32-bit coefficients: branch sums outgrow the
/// 2^53 exact-`f64` range, so the bank takes its `i64` accumulator.
const WIDE32: FixedFormat = FixedFormat {
    data_bits: 32,
    coeff_bits: 32,
    fir_acc_bits: 48,
    lut_addr_bits: 12,
};

const CHANNEL_COUNTS: [u32; 6] = [2, 8, 12, 64, 256, 1024];
const FORMATS: [FixedFormat; 3] = [FixedFormat::FPGA12, FixedFormat::MONTIUM16, WIDE32];

/// What a bit-identity case feeds the bank.
#[derive(Clone, Copy, Debug)]
enum Stimulus {
    /// ADC words of the format's width, or of the whole `i32` range.
    Random,
    /// Sparse impulses of ±2^(coeff_frac − 1). While one impulse is in
    /// the window, channel 0's bin is tap·2^(coeff_frac − 1), so its
    /// word is tap/2: an exact `.5` tie for every odd tap.
    Impulses,
    /// Full-scale steps, of the format's width or of the whole `i32`
    /// range: from zero or the negative rail up to the positive one
    /// and back down, each level held for about a filter window. The
    /// overshoot drives channel 0 past its data width and, at `i32`
    /// scale, past the `i32` range the AVX2 kernel truncates in.
    Steps,
}

const STIMULI: [Stimulus; 3] = [Stimulus::Random, Stimulus::Impulses, Stimulus::Steps];

/// `len` input samples of kind `stimulus` for a bank of `format`.
fn stimulus_input(stimulus: Stimulus, format: FixedFormat, len: usize, s: &mut u64) -> Vec<i32> {
    let sign = |s: &mut u64| if xorshift(s).is_multiple_of(2) { 1 } else { -1 };
    match stimulus {
        Stimulus::Random => {
            let bits = if xorshift(s).is_multiple_of(2) {
                format.data_bits
            } else {
                32
            };
            (0..len)
                .map(|_| ((xorshift(s) >> (64 - bits)) as i64 - (1i64 << (bits - 1))) as i32)
                .collect()
        }
        Stimulus::Impulses => {
            let half = 1i32 << (format.coeff_bits - 2);
            (0..len)
                .map(|_| match xorshift(s) % 64 {
                    0 => sign(s) * half,
                    _ => 0,
                })
                .collect()
        }
        Stimulus::Steps => {
            let top = if xorshift(s).is_multiple_of(2) {
                ((1i64 << (format.data_bits - 1)) - 1) as i32
            } else {
                i32::MAX
            };
            let low = if xorshift(s).is_multiple_of(2) {
                0
            } else {
                -top - 1
            };
            let rise = (xorshift(s) % (len / 3) as u64) as usize;
            let fall = len / 2 + (xorshift(s) % (len / 2) as u64) as usize;
            (0..len)
                .map(|t| match t {
                    _ if t < rise => low,
                    _ if t < fall => top,
                    _ => -top - 1,
                })
                .collect()
        }
    }
}

/// One bit-identity case for the given bank shape and stimulus; the
/// enable mask, the input, the demanded channels and the chunking of
/// the stream are drawn from `seed`. Runs the full bank, a bank that
/// synthesizes only the demanded channels and the reference side by
/// side through `compute_branches` + `transform_outputs`. The full
/// bank's words must be the reference's, the demand bank's demanded
/// rows the same rows, and its other rows empty. The tie and step
/// stimuli keep channel 0 enabled and demanded.
fn check_bit_identity(n: u32, oversample: u32, format: FixedFormat, stimulus: Stimulus, seed: u64) {
    let mut s = seed | 1;
    let mut spec = ChannelizerSpec::uniform(n, 1.0e6);
    spec.oversample = oversample;
    spec.format = format;
    if xorshift(&mut s).is_multiple_of(2) {
        for e in spec.enabled.iter_mut() {
            *e = xorshift(&mut s).is_multiple_of(4);
        }
        spec.enabled[(xorshift(&mut s) % u64::from(n)) as usize] = true;
    }
    let edges = !matches!(stimulus, Stimulus::Random);
    spec.enabled[0] |= edges;
    let n = n as usize;
    let len = n * spec.taps_per_branch as usize
        + (1 + (xorshift(&mut s) % 6) as usize) * n
        + (xorshift(&mut s) % 97) as usize;
    let input = stimulus_input(stimulus, format, len, &mut s);
    let demanded: Vec<bool> = (0..n)
        .map(|k| (edges && k == 0) || xorshift(&mut s).is_multiple_of(3))
        .collect();
    let mut bank = Channelizer::from_spec(spec.clone()).unwrap();
    let mut part = bank.clone();
    part.set_demand(|k| demanded[k]);
    let mut want = reference::Channelizer::from_spec(&spec);
    let rows = bank.enabled_channels().len();
    assert_eq!(bank.enabled_channels(), spec.enabled_channels().as_slice());
    let (mut got, mut exp) = (vec![Vec::new(); rows], vec![Vec::new(); rows]);
    let mut some = vec![Vec::new(); rows];
    let mut rest = &input[..];
    while !rest.is_empty() {
        let take = (1 + (xorshift(&mut s) % (3 * n as u64)) as usize).min(rest.len());
        let (piece, tail) = rest.split_at(take);
        rest = tail;
        let k = bank.compute_branches(piece);
        assert_eq!(k, want.compute_branches(piece), "output count");
        assert_eq!(k, part.compute_branches(piece), "output count");
        bank.transform_outputs(k, &mut got);
        part.transform_outputs(k, &mut some);
        want.transform_outputs(k, &mut exp);
    }
    assert!(exp.iter().all(|row: &Vec<Iq>| !row.is_empty()));
    let what = format!("N={n} oversample={oversample} format={format:?} {stimulus:?}");
    assert_eq!(got, exp, "{what}");
    for (row, &k) in bank.enabled_channels().iter().enumerate() {
        if demanded[k] {
            assert_eq!(some[row], exp[row], "{what}: demanded channel {k}");
        } else {
            assert!(some[row].is_empty(), "{what}: undemanded channel {k}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every output word of the bank, and every demanded word of a
    /// bank that synthesizes some of its channels, equals the plain
    /// formulation across channel counts (radix-2 and naive DFT),
    /// oversampling, data/coefficient widths, sparse masks, ragged
    /// chunkings, and random, tie and saturating inputs.
    #[test]
    fn bank_is_bit_identical_to_the_reference(
        n in 0usize..CHANNEL_COUNTS.len(),
        oversample in 1u32..3,
        format in 0usize..FORMATS.len(),
        stimulus in 0usize..STIMULI.len(),
        seed in any::<u64>(),
    ) {
        check_bit_identity(CHANNEL_COUNTS[n], oversample, FORMATS[format], STIMULI[stimulus], seed);
    }
}

/// Every channel count, oversampling factor, format and stimulus at
/// least once.
#[test]
fn bit_identity_covers_every_shape() {
    for (i, &n) in CHANNEL_COUNTS.iter().enumerate() {
        for oversample in 1..=2 {
            for (j, &format) in FORMATS.iter().enumerate() {
                for stimulus in STIMULI {
                    check_bit_identity(
                        n,
                        oversample,
                        format,
                        stimulus,
                        (i * 8 + j) as u64 + 0x5EED,
                    );
                }
            }
        }
    }
}
