//! Property-based anchoring of `dsp::fft` against the obviously-correct
//! O(N²) DFT, over random complex inputs and every power-of-two size
//! the channelizer can request (N ≤ 1024, checked here up to 2048), plus
//! the fft→ifft round-trip with an explicit error bound.
//!
//! Error model: a radix-2 FFT of size N accumulates O(ε·log₂N) relative
//! rounding error per bin while the naive DFT reference accumulates
//! O(ε·N); with unit-bounded inputs both are well inside `1e-9·N`
//! absolute per bin, which is the bound asserted throughout.
//!
//! The plan's layout (per-stage twiddle tables, split real/imaginary
//! data, fused first stages, real-input first stages) must not change a
//! single bit: the last properties compare every transform against the
//! textbook in-place radix-2 kept in [`textbook`]. The other `Fft`
//! callers (`spectrum`'s periodograms, `firdes::minimum_phase`) only
//! call `forward`/`inverse`, so their results are pinned with it. The
//! real-input synthesis is pinned on every finite input class the
//! channelizer can feed it: `f64` branch sums up to ±2^53, `i64` sums
//! converted with `as f64` up to ±2^62, and signed zeros, alone and in
//! runs. The synthesis pruned to a set of bins
//! ([`Fft::inverse_unnormalized_real_bins`]) is pinned against the full
//! one on every bin it was planned for.

use ddc_suite::dsp::fft::{dft, Fft};
use ddc_suite::dsp::C64;
use proptest::prelude::*;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Random complex vector with components uniform in [−1, 1).
fn random_input(seed: u64, n: usize) -> Vec<C64> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            let re = (xorshift(&mut s) >> 11) as f64 / (1u64 << 52) as f64;
            let im = (xorshift(&mut s) >> 11) as f64 / (1u64 << 52) as f64;
            C64::new(2.0 * re - 1.0, 2.0 * im - 1.0)
        })
        .collect()
}

fn max_err(a: &[C64], b: &[C64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (*x - *y).abs())
        .fold(0.0, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Forward FFT equals the naive DFT at every power-of-two size the
    /// channelizer supports, on random complex inputs.
    #[test]
    fn fft_matches_naive_dft_all_pow2_sizes(seed in any::<u64>()) {
        let mut n = 2usize;
        while n <= 2048 {
            let input = random_input(seed ^ n as u64, n);
            let reference = dft(&input);
            let mut buf = input.clone();
            Fft::new(n).forward(&mut buf);
            let bound = 1e-9 * n as f64;
            let err = max_err(&buf, &reference);
            prop_assert!(err < bound, "size {}: err {} >= bound {}", n, err, bound);
            n *= 2;
        }
    }

    /// fft→ifft round-trips to the identity within an explicit bound.
    #[test]
    fn fft_ifft_roundtrip_is_identity(seed in any::<u64>()) {
        let mut n = 2usize;
        while n <= 1 << 14 {
            let fft = Fft::new(n);
            let input = random_input(seed ^ (n as u64).rotate_left(17), n);
            let mut buf = input.clone();
            fft.forward(&mut buf);
            fft.inverse(&mut buf);
            let bound = 1e-12 * (n as f64) + 1e-12;
            let err = max_err(&buf, &input);
            prop_assert!(err < bound, "size {}: err {} >= bound {}", n, err, bound);
            n *= 4;
        }
    }

    /// The unnormalised inverse (the channelizer's synthesis transform)
    /// equals the naive conjugate DFT sum `Σ x[n]·e^{+2πikn/N}`.
    #[test]
    fn inverse_unnormalized_matches_conjugate_dft(seed in any::<u64>()) {
        for n in [2usize, 8, 64, 256, 1024] {
            let input = random_input(seed ^ (n as u64).wrapping_mul(0x9e37), n);
            // Σ x·e^{+jθ} = conj(DFT(conj(x))).
            let conj_in: Vec<C64> = input.iter().map(|z| z.conj()).collect();
            let reference: Vec<C64> = dft(&conj_in).iter().map(|z| z.conj()).collect();
            let mut buf = input.clone();
            Fft::new(n).inverse_unnormalized(&mut buf);
            let bound = 1e-9 * n as f64;
            let err = max_err(&buf, &reference);
            prop_assert!(err < bound, "size {}: err {} >= bound {}", n, err, bound);
        }
    }
}

/// The textbook in-place radix-2 plan: a bit-reverse swap pass, then
/// one size-N twiddle table read with a stride, conjugated inside the
/// butterfly loop for the inverse.
mod textbook {
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

        pub fn forward(&self, buf: &mut [C64]) {
            self.permute(buf);
            self.butterflies(buf, false);
        }

        pub fn inverse(&self, buf: &mut [C64]) {
            self.permute(buf);
            self.butterflies(buf, true);
            let k = 1.0 / self.n as f64;
            for z in buf.iter_mut() {
                *z = z.scale(k);
            }
        }

        pub fn inverse_unnormalized(&self, buf: &mut [C64]) {
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

        fn butterflies(&self, buf: &mut [C64], inverse: bool) {
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
}

fn assert_same_bits(got: &[C64], want: &[C64], what: &str) {
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
            "{what}: bin {k}: {g:?} != {w:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every transform direction, and the real-input synthesis the
    /// channelizer uses, is bit-identical to the textbook plan at
    /// every power-of-two size up to 2^14 — on random inputs, and on
    /// integer-valued real inputs with signed zeros, the channelizer's
    /// branch sums.
    #[test]
    fn plan_is_bit_identical_to_the_textbook_radix2(seed in any::<u64>()) {
        let mut n = 2usize;
        while n <= 1 << 14 {
            let (fft, plain) = (Fft::new(n), textbook::Fft::new(n));
            let input = random_input(seed ^ (n as u64).rotate_left(29), n);
            type Transform = fn(&Fft, &mut [C64]);
            type Textbook = fn(&textbook::Fft, &mut [C64]);
            let pairs: [(&str, Transform, Textbook); 3] = [
                ("forward", Fft::forward, textbook::Fft::forward),
                ("inverse", Fft::inverse, textbook::Fft::inverse),
                ("inverse_unnormalized", Fft::inverse_unnormalized, textbook::Fft::inverse_unnormalized),
            ];
            for (what, new, reference) in pairs {
                let (mut a, mut b) = (input.clone(), input.clone());
                new(&fft, &mut a);
                reference(&plain, &mut b);
                assert_same_bits(&a, &b, &format!("{what} n={n}"));
            }
            let mut s = seed | 1;
            let sums: Vec<f64> = (0..n)
                .map(|_| match xorshift(&mut s) % 4 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => (xorshift(&mut s) >> 20) as f64 - 2f64.powi(43),
                })
                .collect();
            let (mut re, mut im) = (vec![0.0; n], vec![0.0; n]);
            fft.inverse_unnormalized_real(&sums, &mut re, &mut im);
            let a: Vec<C64> = re.iter().zip(&im).map(|(&r, &i)| C64::new(r, i)).collect();
            let mut b: Vec<C64> = sums.iter().map(|&x| C64::new(x, 0.0)).collect();
            plain.inverse_unnormalized(&mut b);
            assert_same_bits(&a, &b, &format!("inverse_unnormalized_real n={n}"));
            n *= 2;
        }
    }
}

/// The channelizer's real-input synthesis against the textbook plan on
/// `x + 0j`, compared bit for bit.
fn check_real_input(fft: &Fft, plain: &textbook::Fft, sums: &[f64], what: &str) {
    let n = sums.len();
    let (mut re, mut im) = (vec![0.0; n], vec![0.0; n]);
    fft.inverse_unnormalized_real(sums, &mut re, &mut im);
    let a: Vec<C64> = re.iter().zip(&im).map(|(&r, &i)| C64::new(r, i)).collect();
    let mut b: Vec<C64> = sums.iter().map(|&x| C64::new(x, 0.0)).collect();
    plain.inverse_unnormalized(&mut b);
    assert_same_bits(&a, &b, &format!("inverse_unnormalized_real {what} n={n}"));
}

/// Integer-valued inputs at the edges of both branch accumulators: the
/// `f64` MACs' exact ±2^53, the `i64` MACs' sums up to ±2^62 after
/// `as f64`, and signed zeros.
const EDGES: [f64; 8] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    9_007_199_254_740_992.0,
    -9_007_199_254_740_992.0,
    4_611_686_018_427_387_904.0,
    -4_611_686_018_427_387_904.0,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Real-input synthesis stays bit-identical to the textbook plan on
    /// integer-valued inputs of every magnitude up to ±2^62, exact
    /// ±2^53, and runs of signed zeros, at every power-of-two size up
    /// to 2^14.
    #[test]
    fn real_input_synthesis_is_bit_identical_on_wide_inputs(seed in any::<u64>()) {
        let mut n = 2usize;
        while n <= 1 << 14 {
            let (fft, plain) = (Fft::new(n), textbook::Fft::new(n));
            let mut s = seed ^ (n as u64).rotate_left(7) | 1;
            let wide: Vec<f64> = (0..n)
                .map(|_| {
                    let bits = 1 + xorshift(&mut s) % 62;
                    let v = (xorshift(&mut s) >> (64 - bits)) as f64;
                    match xorshift(&mut s) % 8 {
                        0 => EDGES[(xorshift(&mut s) % 8) as usize],
                        1 | 2 => -v,
                        _ => v,
                    }
                })
                .collect();
            check_real_input(&fft, &plain, &wide, "wide");
            // Runs of one signed zero between nonzero values.
            let mut zeros = vec![0.0; n];
            let mut i = 0;
            while i < n {
                let run = 1 + (xorshift(&mut s) % 9) as usize;
                let z = if xorshift(&mut s).is_multiple_of(2) { 0.0 } else { -0.0 };
                for v in zeros.iter_mut().skip(i).take(run) {
                    *v = z;
                }
                i += run;
                if i < n {
                    zeros[i] = EDGES[(xorshift(&mut s) % 8) as usize];
                    i += 1;
                }
            }
            check_real_input(&fft, &plain, &zeros, "zero runs");
            n *= 2;
        }
    }
}

/// At N = 2 and N = 4 the real first stages are the whole transform:
/// every input drawn from [`EDGES`], exhaustively.
#[test]
fn real_input_synthesis_is_bit_identical_on_every_small_edge_input() {
    for n in [2usize, 4] {
        let (fft, plain) = (Fft::new(n), textbook::Fft::new(n));
        for code in 0..EDGES.len().pow(n as u32) {
            let sums: Vec<f64> = (0..n)
                .map(|t| EDGES[code / EDGES.len().pow(t as u32) % EDGES.len()])
                .collect();
            check_real_input(&fft, &plain, &sums, &format!("{sums:?}"));
        }
    }
    let fft = Fft::new(8);
    let plain = textbook::Fft::new(8);
    for z in [0.0, -0.0] {
        check_real_input(&fft, &plain, &[z; 8], "all zeros");
    }
}

/// The bin sets a plan is checked on: none, one bin, a contiguous
/// range, a random set and every bin.
fn bin_sets(n: usize, s: &mut u64) -> [Vec<usize>; 7] {
    let one = (xorshift(s) % n as u64) as usize;
    let start = (xorshift(s) % n as u64) as usize;
    let end = start + 1 + (xorshift(s) % (n - start) as u64) as usize;
    let random = (0..n).filter(|_| xorshift(s).is_multiple_of(3)).collect();
    [
        vec![],
        vec![one],
        vec![0, n - 1],
        (start..end).collect(),
        (0..n).step_by(3).collect(),
        random,
        (0..n).collect(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every bin a plan is made for equals the full real-input synthesis
    /// bit for bit, at every power-of-two size up to 2^14, for empty,
    /// single, end-point, contiguous, every-third, random and full bin
    /// sets, on integer-valued inputs up to ±2^62 with signed zeros. One
    /// bin needs one butterfly of the last stage, two of the one before,
    /// and so on down to stage 3: N/4 − 1 in all.
    #[test]
    fn planned_bins_are_bit_identical_to_the_full_synthesis(seed in any::<u64>()) {
        let mut n = 2usize;
        while n <= 1 << 14 {
            let fft = Fft::new(n);
            let mut s = seed ^ (n as u64).rotate_left(41) | 1;
            let x: Vec<f64> = (0..n)
                .map(|_| match xorshift(&mut s) % 8 {
                    0 => EDGES[(xorshift(&mut s) % 8) as usize],
                    _ => (xorshift(&mut s) >> (2 + xorshift(&mut s) % 62)) as f64 - 2f64.powi(43),
                })
                .collect();
            let (mut want_re, mut want_im) = (vec![0.0; n], vec![0.0; n]);
            fft.inverse_unnormalized_real(&x, &mut want_re, &mut want_im);
            for bins in bin_sets(n, &mut s) {
                let plan = fft.plan_bins(&bins);
                if bins.len() == 1 {
                    prop_assert_eq!(plan.butterflies(), (n / 4).saturating_sub(1), "n={}", n);
                }
                let (mut re, mut im) = (vec![f64::NAN; n], vec![f64::NAN; n]);
                fft.inverse_unnormalized_real_bins(&plan, &x, &mut re, &mut im);
                for &k in &bins {
                    prop_assert!(
                        re[k].to_bits() == want_re[k].to_bits() && im[k].to_bits() == want_im[k].to_bits(),
                        "n={} bins {:?}: bin {}: ({}, {}) != ({}, {})",
                        n, bins.len(), k, re[k], im[k], want_re[k], want_im[k]
                    );
                }
            }
            n *= 2;
        }
    }
}
