//! Iterative radix-2 decimation-in-time FFT.
//!
//! The spectrum analysis used to validate the DDC (band selection,
//! alias rejection, NCO spur levels) needs a transform but nothing
//! exotic: power-of-two sizes up to a few hundred thousand points. The
//! planner precomputes twiddles and the bit-reversal permutation once
//! per size so repeated transforms (Welch averaging) stay cheap. The
//! polyphase channelizer runs one small transform per output instant,
//! so the stages are laid out for that hot loop: data enter in split
//! real/imaginary form, already bit-reversed, and every stage reads a
//! contiguous twiddle table for the chosen direction.
//!
//! The stages from the third on run from a [`BinPlan`]. The full plan
//! runs every block of every stage whole, and every transform runs it.
//! A plan for a set of output bins ([`Fft::plan_bins`]) holds only the
//! butterflies those bins depend on, found backwards from the last
//! stage, as runs: the same consecutive butterflies of a range of
//! blocks. One bin of 64 needs 15 of the 128 butterflies of stages 3
//! to 6, one run per stage. Both hand each block's butterflies to one
//! `butterfly_run`. The channelizer synthesizes only the channels
//! someone reads with it ([`Fft::inverse_unnormalized_real_bins`]).
//!
//! None of this changes a result bit. Each butterfly performs exactly
//! the `f64` operations of `t = b·w; (a + t, a − t)` on [`C64`], in that
//! order; stage tables are copied from one root table and conjugated by
//! a sign flip; fusing the first two stages only reorders independent
//! butterflies. The real-input synthesis
//! ([`Fft::inverse_unnormalized_real`]) runs its first two stages on
//! reals: their `k = 0` twiddle is `(1, +0)` exactly, so on a finite
//! input every imaginary part they would compute is `+0` and every real
//! part is one add or subtract, and stage 2's `k = 1` butterfly keeps
//! the textbook operations with the known `+0` imaginary parts written
//! in. A pruned plan keeps a butterfly only if a planned bin depends on
//! it, and then it performs the full transform's operations on the same
//! operands: every point it reads was written by a kept butterfly of
//! the stage before (or by the real stages, which always run whole). A
//! skipped butterfly feeds no planned bin, so every planned bin gets
//! the full transform's bits. `tests/fft_reference.rs` compares every
//! transform bit for bit against the textbook in-place formulation,
//! signed zeros included, and every planned bin against the full one.

use crate::complex::C64;
use std::f64::consts::PI;

/// A reusable FFT plan for a fixed power-of-two size.
///
/// # Examples
///
/// ```
/// use ddc_dsp::fft::Fft;
/// use ddc_dsp::C64;
///
/// let fft = Fft::new(8);
/// let mut buf = vec![C64::ZERO; 8];
/// buf[0] = C64::ONE; // impulse → flat spectrum
/// fft.forward(&mut buf);
/// assert!(buf.iter().all(|z| (z.abs() - 1.0).abs() < 1e-12));
/// ```
#[derive(Clone, Debug)]
pub struct Fft {
    n: usize,
    /// Real parts of the twiddles, stage after stage: the stage whose
    /// butterflies span `2h` points holds `e^{-2πik/(2h)}` for `k` in
    /// `0..h`, contiguous, so every stage reads its table with unit
    /// stride (`n − 1` entries in all).
    tw_re: Vec<f64>,
    /// Imaginary parts of those twiddles (forward direction).
    tw_im: Vec<f64>,
    /// The same imaginary parts negated: the conjugate twiddles of the
    /// inverse direction.
    tw_im_conj: Vec<f64>,
    /// Bit-reversal permutation indices.
    rev: Vec<u32>,
    /// Every butterfly of stages 3 and up.
    full: BinPlan,
}

/// The butterflies of an [`Fft`]'s stages 3 and up that a set of output
/// bins depends on, made by [`Fft::plan_bins`]. Stage 1 and 2 always
/// run whole. The full plan ([`Fft::full_plan`]) holds every butterfly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BinPlan {
    /// Transform size.
    n: usize,
    /// Every butterfly is planned: the runs cover every block of every
    /// stage, one run per stage.
    full: bool,
    /// Runs of butterflies, stage 3 first.
    runs: Vec<Run>,
}

/// The butterflies `k0..k0 + len` of `blocks` consecutive blocks of
/// `2·half` points from point `lo` on, in one stage: butterfly `k` of
/// the block at `b` joins points `b + k` and `b + half + k` with the
/// stage's twiddle `k`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Run {
    half: usize,
    lo: usize,
    blocks: usize,
    k0: usize,
    len: usize,
}

/// What one block of a run costs beyond its butterflies, counted in
/// butterflies of a whole block: the slicing and loop set-up. Measured
/// on x86-64, a block of one butterfly took about five times as long as
/// one butterfly of the full plan, whose blocks run vectorized.
const BLOCK_COST: usize = 4;

impl BinPlan {
    /// The butterflies this plan runs after the first two stages.
    pub fn butterflies(&self) -> usize {
        self.runs.iter().map(|r| r.blocks * r.len).sum()
    }

    /// The plan's cost in butterflies of a whole block.
    fn cost(&self) -> usize {
        self.runs
            .iter()
            .map(|r| r.blocks * (BLOCK_COST + r.len))
            .sum()
    }
}

impl Fft {
    /// Plans an FFT of size `n`. Panics unless `n` is a power of two ≥ 2.
    pub fn new(n: usize) -> Self {
        assert!(
            n >= 2 && n.is_power_of_two(),
            "FFT size {n} must be a power of two >= 2"
        );
        assert!(n <= u32::MAX as usize, "FFT size {n} too large");
        // Every stage entry is copied out of one size-n root table, so a
        // stage reads exactly the values `roots[k·n/(2h)]` a strided walk
        // over that table would.
        let roots: Vec<C64> = (0..n / 2)
            .map(|k| C64::cis(-2.0 * PI * k as f64 / n as f64))
            .collect();
        let mut staged = Vec::with_capacity(n - 1);
        let mut half = 1;
        while half < n {
            let stride = n / (2 * half);
            staged.extend((0..half).map(|k| roots[k * stride]));
            half *= 2;
        }
        let bits = n.trailing_zeros();
        let rev = (0..n as u32)
            .map(|i| i.reverse_bits() >> (32 - bits))
            .collect();
        Fft {
            n,
            tw_re: staged.iter().map(|w| w.re).collect(),
            tw_im: staged.iter().map(|w| w.im).collect(),
            tw_im_conj: staged.iter().map(|w| w.conj().im).collect(),
            rev,
            full: Fft::plan_runs(n, &(0..n).collect::<Vec<_>>()),
        }
    }

    /// Plans the butterflies of stages 3 and up that the output `bins`
    /// depend on, walking back from the last stage: a butterfly runs
    /// when one of its two outputs is a bin or feeds a butterfly that
    /// runs. Consecutive butterflies of one block form a run, and a run
    /// spans every following block that needs the same butterflies.
    /// Every bin gives the full plan, and so do bins scattered so widely
    /// that their runs would cost no less than it (every other bin,
    /// say). Panics on a bin `≥ n`.
    pub fn plan_bins(&self, bins: &[usize]) -> BinPlan {
        let plan = Fft::plan_runs(self.n, bins);
        if plan.cost() < self.full.cost() {
            plan
        } else {
            self.full.clone()
        }
    }

    /// The butterflies of an `n`-point transform's stages 3 and up that
    /// the output `bins` depend on, whatever they cost (see
    /// [`Fft::plan_bins`]). Every bin gives one run per stage.
    fn plan_runs(n: usize, bins: &[usize]) -> BinPlan {
        let mut need = vec![false; n];
        for &k in bins {
            assert!(k < n, "bin {k} out of range for size {n}");
            need[k] = true;
        }
        let full = need.iter().all(|&b| b);
        let mut stages = Vec::new();
        let mut half = n / 2;
        while half >= 4 {
            let mut runs: Vec<Run> = Vec::new();
            let mut feed = vec![false; n];
            // The runs of the block before, the last `prev` of `runs`,
            // and those of this block.
            let (mut prev, mut own) = (0, Vec::<Run>::new());
            for base in (0..n).step_by(2 * half) {
                own.clear();
                for k in 0..half {
                    let (a, b) = (base + k, base + half + k);
                    if !(need[a] || need[b]) {
                        continue;
                    }
                    (feed[a], feed[b]) = (true, true);
                    match own.last_mut() {
                        Some(r) if r.k0 + r.len == k => r.len += 1,
                        _ => own.push(Run {
                            half,
                            lo: base,
                            blocks: 1,
                            k0: k,
                            len: 1,
                        }),
                    }
                }
                let tail = runs.len() - prev;
                let same = |(r, o): (&Run, &Run)| (r.k0, r.len) == (o.k0, o.len);
                if prev == own.len() && runs[tail..].iter().zip(&own).all(same) {
                    runs[tail..].iter_mut().for_each(|r| r.blocks += 1);
                } else {
                    prev = own.len();
                    runs.extend_from_slice(&own);
                }
            }
            stages.push(runs);
            need = feed;
            half /= 2;
        }
        BinPlan {
            n,
            full,
            runs: stages.into_iter().rev().flatten().collect(),
        }
    }

    /// The plan of every butterfly, which every transform but
    /// [`Fft::inverse_unnormalized_real_bins`] runs.
    pub fn full_plan(&self) -> &BinPlan {
        &self.full
    }

    /// The transform size.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false — a plan has size ≥ 2. Present for API symmetry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// In-place forward DFT: `X[k] = Σ_n x[n]·e^{-2πikn/N}`.
    pub fn forward(&self, buf: &mut [C64]) {
        self.in_place(buf, &self.tw_im);
    }

    /// In-place inverse DFT including the `1/N` normalisation, so
    /// `inverse(forward(x)) == x`.
    pub fn inverse(&self, buf: &mut [C64]) {
        self.inverse_unnormalized(buf);
        let k = 1.0 / self.n as f64;
        for z in buf.iter_mut() {
            *z = z.scale(k);
        }
    }

    /// In-place inverse DFT *without* the `1/N` normalisation:
    /// `X[k] = Σ_n x[n]·e^{+2πikn/N}` — the raw synthesis sum a
    /// polyphase filter-bank channelizer applies across its branch
    /// outputs, where folding `1/N` in would silently rescale the
    /// fixed-point output words.
    pub fn inverse_unnormalized(&self, buf: &mut [C64]) {
        self.in_place(buf, &self.tw_im_conj);
    }

    /// [`Fft::inverse_unnormalized`] of the real sequence `x`, with the
    /// result in split form: `re[k] + j·im[k]`. Bit-identical to
    /// [`Fft::inverse_unnormalized`] of `x[i] + 0j`, signed zeros
    /// included, for every **finite** `x`; an infinite input may differ,
    /// since the complex path multiplies it by a zero imaginary part
    /// (`∞·0 = NaN`) where this one skips the product. Nothing is
    /// allocated. It is [`Fft::inverse_unnormalized_real_bins`] with the
    /// full plan.
    pub fn inverse_unnormalized_real(&self, x: &[f64], re: &mut [f64], im: &mut [f64]) {
        self.inverse_unnormalized_real_bins(&self.full, x, re, im);
    }

    /// [`Fft::inverse_unnormalized_real`] for the bins `plan` was made
    /// for: each of them gets exactly the bits of the full transform.
    /// The other bins of `re` and `im` hold whatever the skipped
    /// butterflies left there. Panics if `plan` is for another size.
    ///
    /// The first two stages run on reals, whole. Output slot `4g + t`
    /// of the bit-reversed order holds `x[j + {0, N/2, N/4, 3N/4}[t]]`
    /// with `g = rev(j)` over `log₂N − 2` bits, so `x` is read in
    /// natural order as four quarter streams and each group of four is
    /// written straight into its slots after both stages. The plan's
    /// butterflies follow.
    pub fn inverse_unnormalized_real_bins(
        &self,
        plan: &BinPlan,
        x: &[f64],
        re: &mut [f64],
        im: &mut [f64],
    ) {
        let n = self.n;
        assert_eq!(x.len(), n, "input length must equal plan size");
        assert!(
            re.len() == n && im.len() == n,
            "buffer length must equal plan size"
        );
        debug_assert!(
            x.iter().all(|v| v.is_finite()),
            "real-input synthesis needs finite inputs"
        );
        // Stage 1 and stage 2's k = 0 butterflies multiply by (1, +0):
        // with b = (v, +0), t = (v·1 − (+0)·(+0), v·(+0) + (+0)·1) =
        // (v, +0) for finite v, so a ± t = (a.re ± v, +0 ± +0) = (…, +0).
        if n == 2 {
            (re[0], re[1]) = (x[0] + x[1], x[0] - x[1]);
            (im[0], im[1]) = (0.0, 0.0);
            return;
        }
        let q = n / 4;
        let w = (self.tw_re[2], self.tw_im_conj[2]);
        for (j, &slot) in self.rev[..q].iter().enumerate() {
            // rev(j) over log₂N bits is 4·rev(j) over log₂N − 2 bits.
            let g = slot as usize;
            let (s0, s1, s2, s3) = (x[j], x[j + 2 * q], x[j + q], x[j + 3 * q]);
            let (a0, a1, a2, a3) = (s0 + s1, s0 - s1, s2 + s3, s2 - s3);
            let (b1, b3) = butterfly((a1, 0.0), (a3, 0.0), w);
            re[g..g + 4].copy_from_slice(&[a0 + a2, b1.0, a0 - a2, b3.0]);
            im[g..g + 4].copy_from_slice(&[0.0, b1.1, 0.0, b3.1]);
        }
        self.stages(plan, re, im, &self.tw_im_conj);
    }

    /// Forward transform of a real signal, zero-padding or panicking on
    /// mismatch is avoided by requiring exact length.
    pub fn forward_real(&self, input: &[f64]) -> Vec<C64> {
        assert_eq!(input.len(), self.n, "buffer length must equal plan size");
        let mut buf: Vec<C64> = input.iter().map(|&x| C64::new(x, 0.0)).collect();
        self.forward(&mut buf);
        buf
    }

    /// Splits `buf` into bit-reversed real and imaginary halves, runs
    /// the stages in the direction `tw_im` selects, and interleaves the
    /// result back.
    fn in_place(&self, buf: &mut [C64], tw_im: &[f64]) {
        assert_eq!(buf.len(), self.n, "buffer length must equal plan size");
        let (mut re, mut im) = (vec![0.0; self.n], vec![0.0; self.n]);
        for (z, &j) in buf.iter().zip(&self.rev) {
            re[j as usize] = z.re;
            im[j as usize] = z.im;
        }
        self.butterflies(&mut re, &mut im, tw_im);
        for (z, (&r, &i)) in buf.iter_mut().zip(re.iter().zip(&im)) {
            *z = C64::new(r, i);
        }
    }

    /// The log₂N radix-2 stages over bit-reversed split data. The
    /// direction is fixed by the imaginary twiddle table passed in
    /// (the real parts are shared). Every butterfly performs the
    /// complex arithmetic of `t = b·w; (a + t, a − t)` on `C64` in the
    /// same order; the first two stages run fused over groups of four,
    /// which changes only the order of independent butterflies.
    fn butterflies(&self, re: &mut [f64], im: &mut [f64], tw_im: &[f64]) {
        let tw_re = &self.tw_re;
        let w0 = (tw_re[0], tw_im[0]);
        if self.n == 2 {
            let (a, b) = butterfly((re[0], im[0]), (re[1], im[1]), w0);
            (re[0], im[0], re[1], im[1]) = (a.0, a.1, b.0, b.1);
            return;
        }
        let (w1, w2) = ((tw_re[1], tw_im[1]), (tw_re[2], tw_im[2]));
        for (r, i) in re.chunks_exact_mut(4).zip(im.chunks_exact_mut(4)) {
            let (a0, a1) = butterfly((r[0], i[0]), (r[1], i[1]), w0);
            let (a2, a3) = butterfly((r[2], i[2]), (r[3], i[3]), w0);
            let (b0, b2) = butterfly(a0, a2, w1);
            let (b1, b3) = butterfly(a1, a3, w2);
            (r[0], i[0], r[1], i[1]) = (b0.0, b0.1, b1.0, b1.1);
            (r[2], i[2], r[3], i[3]) = (b2.0, b2.1, b3.0, b3.1);
        }
        self.stages(&self.full, re, im, tw_im);
    }

    /// Stages 3 and up: the butterflies of `plan`, each block's run one
    /// `butterfly_run`. The full plan runs every block of every stage
    /// whole, stage by stage, where a stage's block length is known to
    /// be even, which saves the per-block set-up a run of any length
    /// needs; any other plan runs run by run and block by block.
    fn stages(&self, plan: &BinPlan, re: &mut [f64], im: &mut [f64], tw_im: &[f64]) {
        assert_eq!(plan.n, self.n, "plan of another size");
        if plan.full {
            let mut half = 4;
            while half < self.n {
                let tw = half - 1..2 * half - 1;
                let (wr, wi) = (&self.tw_re[tw.clone()], &tw_im[tw]);
                for (r, i) in re
                    .chunks_exact_mut(2 * half)
                    .zip(im.chunks_exact_mut(2 * half))
                {
                    let (ar, br) = r.split_at_mut(half);
                    let (ai, bi) = i.split_at_mut(half);
                    butterfly_run(ar, ai, br, bi, wr, wi);
                }
                half *= 2;
            }
            return;
        }
        for &Run {
            half,
            lo,
            blocks,
            k0,
            len,
        } in &plan.runs
        {
            let tw = half - 1 + k0..half - 1 + k0 + len;
            let (wr, wi) = (&self.tw_re[tw.clone()], &tw_im[tw]);
            let span = lo..lo + 2 * half * blocks;
            for (r, i) in re[span.clone()]
                .chunks_exact_mut(2 * half)
                .zip(im[span].chunks_exact_mut(2 * half))
            {
                let (ar, br) = r[k0..].split_at_mut(half);
                let (ai, bi) = i[k0..].split_at_mut(half);
                butterfly_run(ar, ai, br, bi, wr, wi);
            }
        }
    }
}

/// The butterflies `k` in `0..wr.len()` on points `ar[k] + j·ai[k]` and
/// `br[k] + j·bi[k]` with twiddle `wr[k] + j·wi[k]`. As separate `&mut`
/// arguments the points are known not to overlap, so the loop compiles
/// without overlap checks.
#[inline(always)]
fn butterfly_run(
    ar: &mut [f64],
    ai: &mut [f64],
    br: &mut [f64],
    bi: &mut [f64],
    wr: &[f64],
    wi: &[f64],
) {
    let len = wr.len();
    let (ar, ai, br, bi, wi) = (
        &mut ar[..len],
        &mut ai[..len],
        &mut br[..len],
        &mut bi[..len],
        &wi[..len],
    );
    for k in 0..len {
        let (a, b) = butterfly((ar[k], ai[k]), (br[k], bi[k]), (wr[k], wi[k]));
        (ar[k], ai[k], br[k], bi[k]) = (a.0, a.1, b.0, b.1);
    }
}

/// One radix-2 butterfly on `(re, im)` pairs: `t = b·w`, then `a + t`
/// and `a − t`, with exactly the operations of `C64`'s `Mul`, `Add` and
/// `Sub`.
#[inline(always)]
fn butterfly(a: (f64, f64), b: (f64, f64), w: (f64, f64)) -> ((f64, f64), (f64, f64)) {
    let t = (b.0 * w.0 - b.1 * w.1, b.0 * w.1 + b.1 * w.0);
    ((a.0 + t.0, a.1 + t.1), (a.0 - t.0, a.1 - t.1))
}

/// Direct O(n²) DFT — the obviously-correct reference the FFT is tested
/// against, and a convenience for tiny transforms of non-power-of-two
/// length (e.g. a 125-point frequency response probe).
pub fn dft(input: &[C64]) -> Vec<C64> {
    let n = input.len();
    (0..n)
        .map(|k| {
            (0..n)
                .map(|t| input[t] * C64::cis(-2.0 * PI * (k * t) as f64 / n as f64))
                .sum()
        })
        .collect()
}

/// Evaluates the discrete-time Fourier transform of a real impulse
/// response at a single normalised frequency `f` (cycles/sample):
/// `H(f) = Σ_n h[n]·e^{-2πifn}`.
pub fn dtft(h: &[f64], f: f64) -> C64 {
    h.iter()
        .enumerate()
        .map(|(n, &hn)| hn * C64::cis(-2.0 * PI * f * n as f64))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_err(a: &[C64], b: &[C64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn matches_direct_dft() {
        let n = 64;
        let input: Vec<C64> = (0..n)
            .map(|i| C64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let reference = dft(&input);
        let mut buf = input.clone();
        Fft::new(n).forward(&mut buf);
        assert!(max_err(&buf, &reference) < 1e-9);
    }

    #[test]
    fn inverse_roundtrip() {
        let n = 256;
        let fft = Fft::new(n);
        let input: Vec<C64> = (0..n)
            .map(|i| C64::new((i as f64).sin(), (i as f64 * 2.0).cos()))
            .collect();
        let mut buf = input.clone();
        fft.forward(&mut buf);
        fft.inverse(&mut buf);
        assert!(max_err(&buf, &input) < 1e-10);
    }

    #[test]
    fn inverse_unnormalized_is_scaled_inverse() {
        let n = 64;
        let fft = Fft::new(n);
        let input: Vec<C64> = (0..n)
            .map(|i| C64::new((i as f64 * 0.7).cos(), (i as f64 * 0.3).sin()))
            .collect();
        let mut raw = input.clone();
        fft.inverse_unnormalized(&mut raw);
        let mut norm = input;
        fft.inverse(&mut norm);
        let scaled: Vec<C64> = norm.iter().map(|z| z.scale(n as f64)).collect();
        assert!(max_err(&raw, &scaled) < 1e-9);
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let n = 32;
        let mut buf = vec![C64::ZERO; n];
        buf[0] = C64::ONE;
        Fft::new(n).forward(&mut buf);
        for z in &buf {
            assert!((*z - C64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_in_single_bin() {
        let n = 128;
        let k0 = 5;
        let input: Vec<C64> = (0..n)
            .map(|i| C64::cis(2.0 * PI * (k0 * i) as f64 / n as f64))
            .collect();
        let mut buf = input;
        Fft::new(n).forward(&mut buf);
        for (k, z) in buf.iter().enumerate() {
            if k == k0 {
                assert!((z.abs() - n as f64).abs() < 1e-9);
            } else {
                assert!(z.abs() < 1e-9, "leakage at bin {k}");
            }
        }
    }

    #[test]
    fn real_tone_is_conjugate_symmetric() {
        let n = 64;
        let fft = Fft::new(n);
        let sig: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * 3.0 * i as f64 / n as f64).cos())
            .collect();
        let spec = fft.forward_real(&sig);
        for k in 1..n {
            let a = spec[k];
            let b = spec[n - k].conj();
            assert!((a - b).abs() < 1e-9, "bin {k} not symmetric");
        }
        assert!((spec[3].abs() - n as f64 / 2.0).abs() < 1e-9);
    }

    #[test]
    fn parseval_energy_preserved() {
        let n = 128;
        let input: Vec<C64> = (0..n)
            .map(|i| C64::new((i as f64 * 1.3).sin(), (i as f64 * 0.9).cos()))
            .collect();
        let time_energy: f64 = input.iter().map(|z| z.norm_sqr()).sum();
        let mut buf = input;
        Fft::new(n).forward(&mut buf);
        let freq_energy: f64 = buf.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8 * time_energy);
    }

    #[test]
    fn linearity() {
        let n = 32;
        let fft = Fft::new(n);
        let a: Vec<C64> = (0..n).map(|i| C64::new(i as f64, 0.5)).collect();
        let b: Vec<C64> = (0..n).map(|i| C64::new(1.0, -(i as f64))).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        fft.forward(&mut fa);
        fft.forward(&mut fb);
        let mut fab: Vec<C64> = a.iter().zip(&b).map(|(x, y)| *x + y.scale(2.0)).collect();
        fft.forward(&mut fab);
        let expect: Vec<C64> = fa.iter().zip(&fb).map(|(x, y)| *x + y.scale(2.0)).collect();
        assert!(max_err(&fab, &expect) < 1e-9);
    }

    #[test]
    fn dtft_matches_dft_bins() {
        let h = [0.25, 0.5, 0.25, -0.1, 0.05];
        let n = 8usize;
        let padded: Vec<C64> = (0..n)
            .map(|i| C64::new(h.get(i).copied().unwrap_or(0.0), 0.0))
            .collect();
        let spec = dft(&padded);
        for (k, s) in spec.iter().enumerate() {
            let v = dtft(&h, k as f64 / n as f64);
            assert!((*s - v).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        Fft::new(12);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn rejects_wrong_buffer_length() {
        let fft = Fft::new(8);
        let mut buf = vec![C64::ZERO; 4];
        fft.forward(&mut buf);
    }

    #[test]
    fn bin_plans_keep_only_the_butterflies_their_bins_depend_on() {
        let fft = Fft::new(64);
        // Stages 3 to 6 hold 4 · 32 butterflies; one bin needs one of
        // the last stage, two of the one before, then 4 and 8.
        assert_eq!(fft.full_plan().butterflies(), 128);
        // One run per stage, over every block.
        assert_eq!(fft.full_plan().runs.len(), 4);
        for k in 0..64 {
            assert_eq!(fft.plan_bins(&[k]).butterflies(), 15, "bin {k}");
        }
        // Bins k and k + 32 share every butterfly.
        assert_eq!(fft.plan_bins(&[5, 37]).butterflies(), 15);
        assert_eq!(fft.plan_bins(&[]).butterflies(), 0);
        // Every eighth bin keeps 20 butterflies in 20 one-butterfly
        // blocks; every other bin would keep 64 in 64 such blocks, which
        // cost more than the full plan's 15 whole blocks.
        let strided = |step| (0..64).step_by(step).collect::<Vec<_>>();
        assert_eq!(fft.plan_bins(&strided(8)).butterflies(), 20);
        assert_eq!(&fft.plan_bins(&strided(2)), fft.full_plan());
        let every: Vec<usize> = (0..64).collect();
        assert_eq!(&fft.plan_bins(&every), fft.full_plan());
        // Sizes without a third stage plan nothing after the real ones.
        for n in [2, 4] {
            assert_eq!(Fft::new(n).full_plan().butterflies(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn plan_rejects_a_bin_past_the_size() {
        Fft::new(8).plan_bins(&[8]);
    }

    #[test]
    #[should_panic(expected = "plan of another size")]
    fn rejects_a_plan_of_another_size() {
        let plan = Fft::new(16).plan_bins(&[3]);
        let fft = Fft::new(8);
        let (mut re, mut im) = (vec![0.0; 8], vec![0.0; 8]);
        fft.inverse_unnormalized_real_bins(&plan, &[1.0; 8], &mut re, &mut im);
    }
}
