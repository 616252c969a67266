//! FIR filters: the dense reference form, the decimating polyphase
//! form (Figure 3 of the paper) and the bit-true sequential
//! implementation the FPGA uses (Figure 5).
//!
//! The polyphase observation (§2.1): a decimate-by-D FIR only ever
//! *uses* one output in D, so the multiplies and the summation need to
//! run only once per D input samples — the input-side register file is
//! still written at the full input rate. The FPGA implementation goes
//! one step further and serialises the multiply-accumulate over the
//! 2688 clock cycles available between outputs ("it has been decided to
//! implement the filter as a sequential algorithm", §5.2.1).
//!
//! On a GPP the interesting trade runs the other way: instead of
//! serialising one MAC per cycle, [`SequentialFir`] picks one of a
//! family of bit-exact block kernels at construction time:
//!
//! * **flat** — the delay line is kept *linear* (a 2N double buffer
//!   instead of a circular RAM), so every output is one forward dot
//!   product over two contiguous `i32` slices that LLVM can unroll and
//!   vectorise; no per-tap wraparound branch, no modulo.
//! * **const** — the same kernel monomorphised via
//!   [`FirKernel`]`<TAPS, DECIM>` for the shapes the
//!   `ChainSpec::registry()` presets use (125/8 and 125/2), so the trip
//!   count is a compile-time constant.
//! * **sym** — linear-phase designs (`firdes` lowpass taps are
//!   palindromes) fold `x[j] + x[N−1−j]` before the multiply, halving
//!   the multiply count.
//! * **simd** — on x86_64, an AVX2 widening-multiply dot product,
//!   compiled into every build and selected when the CPU reports AVX2
//!   at construction time; other CPUs and architectures run the scalar
//!   kernels above.
//!
//! All specialised kernels require the construction-time **width
//! audit**: `Σ|h| · max|x|` (computed in `i128`) must fit `acc_bits`.
//! When it does, no partial sum can leave `i64` range and integer
//! addition is associative, so any accumulation order is bit-exact with
//! the per-sample newest→oldest reference — which is why the per-tap
//! `debug_assert!` width checks can be hoisted out of the hot loop
//! without letting debug and release builds diverge. Filters that fail
//! the audit fall back to the **generic** kernel, which preserves the
//! reference MAC order and its per-tap checks.

use ddc_dsp::firdes::is_linear_phase;
use ddc_dsp::fixed::{fits, max_signed, saturate, trunc_shift};

/// A dense (non-decimating) direct-form FIR in `f64` — the reference
/// the optimised forms are checked against.
#[derive(Clone, Debug)]
pub struct DirectFir {
    taps: Vec<f64>,
    /// Circular delay line, newest sample at `pos`.
    delay: Vec<f64>,
    pos: usize,
}

impl DirectFir {
    /// Builds the filter from its impulse response.
    pub fn new(taps: &[f64]) -> Self {
        assert!(!taps.is_empty());
        DirectFir {
            taps: taps.to_vec(),
            delay: vec![0.0; taps.len()],
            pos: 0,
        }
    }

    /// Feeds one sample, returns one output.
    #[inline]
    pub fn process(&mut self, x: f64) -> f64 {
        self.delay[self.pos] = x;
        let n = self.taps.len();
        let mut acc = 0.0;
        let mut idx = self.pos;
        for &h in &self.taps {
            acc += h * self.delay[idx];
            idx = if idx == 0 { n - 1 } else { idx - 1 };
        }
        self.pos = (self.pos + 1) % n;
        acc
    }
}

/// A decimating polyphase FIR in `f64`: stores every input, computes
/// one output per `decim` inputs.
#[derive(Clone, Debug)]
pub struct PolyphaseFir {
    taps: Vec<f64>,
    delay: Vec<f64>,
    pos: usize,
    decim: u32,
    phase: u32,
}

impl PolyphaseFir {
    /// Builds the filter from its impulse response and decimation.
    pub fn new(taps: &[f64], decim: u32) -> Self {
        assert!(!taps.is_empty() && decim >= 1);
        PolyphaseFir {
            taps: taps.to_vec(),
            delay: vec![0.0; taps.len()],
            pos: 0,
            decim,
            phase: 0,
        }
    }

    /// Decimation factor.
    pub fn decimation(&self) -> u32 {
        self.decim
    }

    /// Feeds one input sample; every `decim`-th call returns an output.
    #[inline]
    pub fn process(&mut self, x: f64) -> Option<f64> {
        self.delay[self.pos] = x;
        let n = self.taps.len();
        let newest = self.pos;
        self.pos = (self.pos + 1) % n;
        self.phase += 1;
        if self.phase < self.decim {
            return None;
        }
        self.phase = 0;
        let mut acc = 0.0;
        let mut idx = newest;
        for &h in &self.taps {
            acc += h * self.delay[idx];
            idx = if idx == 0 { n - 1 } else { idx - 1 };
        }
        Some(acc)
    }

    /// Feeds a block, appending produced outputs to `out`. Bit-exact
    /// with per-sample [`PolyphaseFir::process`]: the dot product
    /// accumulates newest→oldest in the same order (f64 addition is not
    /// associative, so the order is part of the contract), but runs as
    /// two flat slice segments instead of a per-tap wraparound branch,
    /// and the delay line is filled with two `copy_from_slice` calls
    /// per decimation group.
    pub fn process_block(&mut self, input: &[f64], out: &mut Vec<f64>) {
        // The carried phase counts toward the next output, so the exact
        // output count is (phase + len) / decim — `+ 1` here would
        // systematically over-reserve on small streaming blocks.
        out.reserve((self.phase as usize + input.len()) / self.decim as usize);
        let decim = self.decim as usize;
        let mut i = 0;
        while i < input.len() {
            let take = (decim - self.phase as usize).min(input.len() - i);
            self.write_group(&input[i..i + take]);
            i += take;
            self.phase += take as u32;
            if self.phase == self.decim {
                self.phase = 0;
                out.push(self.output_word());
            }
        }
    }

    /// Writes a run of consecutive samples into the circular delay
    /// line (at most two contiguous copies; runs longer than the line
    /// keep only the trailing `taps.len()` samples, as per-sample
    /// writes would).
    fn write_group(&mut self, xs: &[f64]) {
        let n = self.delay.len();
        let skip = xs.len().saturating_sub(n);
        let xs = &xs[skip..];
        self.pos = (self.pos + skip) % n;
        let first = (n - self.pos).min(xs.len());
        self.delay[self.pos..self.pos + first].copy_from_slice(&xs[..first]);
        self.delay[..xs.len() - first].copy_from_slice(&xs[first..]);
        self.pos = (self.pos + xs.len()) % n;
    }

    /// Two-segment flat dot product over the circular delay line,
    /// newest sample first.
    fn output_word(&self) -> f64 {
        let n = self.taps.len();
        let newest = if self.pos == 0 { n - 1 } else { self.pos - 1 };
        let (h_a, h_b) = self.taps.split_at(newest + 1);
        let (d_a, d_b) = self.delay.split_at(newest + 1);
        let mut acc = 0.0;
        for (&h, &s) in h_a.iter().zip(d_a.iter().rev()) {
            acc += h * s;
        }
        for (&h, &s) in h_b.iter().zip(d_b.iter().rev()) {
            acc += h * s;
        }
        acc
    }

    /// Resets delay-line state.
    pub fn reset(&mut self) {
        self.delay.fill(0.0);
        self.pos = 0;
        self.phase = 0;
    }
}

/// Which block kernel [`SequentialFir`] should use. [`SequentialFir::new`]
/// picks automatically; [`SequentialFir::with_kernel`] forces a variant
/// for the benchmark shootout. A forced variant whose preconditions do
/// not hold (symmetry for `Sym`, the width audit for everything but
/// `Generic`, AVX2 for `Simd`) cleanly falls back down the family, and
/// [`SequentialFir::kernel_label`] reports what actually runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FirKernelSel {
    /// Reference MAC order with per-tap width checks (debug builds).
    Generic,
    /// Forward flat dot over the linear window.
    Flat,
    /// Symmetric-coefficient folding (linear-phase taps only).
    Sym,
    /// AVX2 widening dot (x86_64, runtime-detected).
    Simd,
}

/// Internal: what was actually selected after fallback resolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum KernelKind {
    Generic,
    Flat,
    FlatConst,
    Sym,
    SymConst,
    #[cfg(target_arch = "x86_64")]
    Simd,
}

impl KernelKind {
    fn label(self) -> &'static str {
        match self {
            KernelKind::Generic => "generic",
            KernelKind::Flat => "flat",
            KernelKind::FlatConst => "flat_const",
            KernelKind::Sym => "sym",
            KernelKind::SymConst => "sym_const",
            #[cfg(target_arch = "x86_64")]
            KernelKind::Simd => "simd_avx2",
        }
    }
}

type DotFn = fn(&[i32], &[i32]) -> i64;

/// Forward widening dot product: `Σ rev[j]·w[j]` with four independent
/// accumulator chains so the scalar schedule pipelines and LLVM may
/// vectorise the `i32×i32→i64` widening multiply.
#[inline]
fn dot_flat(rev: &[i32], w: &[i32]) -> i64 {
    debug_assert_eq!(rev.len(), w.len());
    let mut a = [0i64; 4];
    let mut rc = rev.chunks_exact(4);
    let mut wc = w.chunks_exact(4);
    for (r4, w4) in rc.by_ref().zip(wc.by_ref()) {
        a[0] += i64::from(r4[0]) * i64::from(w4[0]);
        a[1] += i64::from(r4[1]) * i64::from(w4[1]);
        a[2] += i64::from(r4[2]) * i64::from(w4[2]);
        a[3] += i64::from(r4[3]) * i64::from(w4[3]);
    }
    let mut acc = (a[0] + a[1]) + (a[2] + a[3]);
    for (&h, &x) in rc.remainder().iter().zip(wc.remainder()) {
        acc += i64::from(h) * i64::from(x);
    }
    acc
}

/// Symmetric fold: `Σ h[j]·(w[j] + w[N−1−j])` over the first half plus
/// the middle tap for odd lengths. `rev` must be a palindrome (checked
/// at construction), so indexing it forward reads the design-order
/// coefficients.
#[inline]
fn dot_sym(rev: &[i32], w: &[i32]) -> i64 {
    debug_assert_eq!(rev.len(), w.len());
    let n = w.len();
    let half = n / 2;
    let head = &w[..half];
    let tail = &w[n - half..];
    let mut a = [0i64; 2];
    for (j, (&h, &x0)) in rev[..half].iter().zip(head).enumerate() {
        let folded = i64::from(x0) + i64::from(tail[half - 1 - j]);
        a[j & 1] += i64::from(h) * folded;
    }
    let mut acc = a[0] + a[1];
    if n % 2 == 1 {
        acc += i64::from(rev[half]) * i64::from(w[half]);
    }
    acc
}

/// Const-generic kernel instantiation: the same flat and symmetric dot
/// products with the tap count (and the decimation it is paired with in
/// the `ChainSpec::registry()` presets) fixed at compile time, so the
/// loops fully unroll.
pub struct FirKernel<const TAPS: usize, const DECIM: usize>;

impl<const TAPS: usize, const DECIM: usize> FirKernel<TAPS, DECIM> {
    /// The decimation this instantiation is registered for.
    pub const fn decimation() -> usize {
        DECIM
    }

    /// Monomorphised forward widening dot product.
    #[inline]
    pub fn dot(rev: &[i32], w: &[i32]) -> i64 {
        let rev: &[i32; TAPS] = rev.try_into().expect("tap count mismatch");
        let w: &[i32; TAPS] = w.try_into().expect("window length mismatch");
        let mut a = [0i64; 4];
        let mut j = 0;
        while j + 4 <= TAPS {
            a[0] += i64::from(rev[j]) * i64::from(w[j]);
            a[1] += i64::from(rev[j + 1]) * i64::from(w[j + 1]);
            a[2] += i64::from(rev[j + 2]) * i64::from(w[j + 2]);
            a[3] += i64::from(rev[j + 3]) * i64::from(w[j + 3]);
            j += 4;
        }
        let mut acc = (a[0] + a[1]) + (a[2] + a[3]);
        while j < TAPS {
            acc += i64::from(rev[j]) * i64::from(w[j]);
            j += 1;
        }
        acc
    }

    /// Monomorphised symmetric fold.
    #[inline]
    pub fn dot_sym(rev: &[i32], w: &[i32]) -> i64 {
        let rev: &[i32; TAPS] = rev.try_into().expect("tap count mismatch");
        let w: &[i32; TAPS] = w.try_into().expect("window length mismatch");
        let half = TAPS / 2;
        let mut a = [0i64; 2];
        let mut j = 0;
        while j < half {
            let folded = i64::from(w[j]) + i64::from(w[TAPS - 1 - j]);
            a[j & 1] += i64::from(rev[j]) * folded;
            j += 1;
        }
        let mut acc = a[0] + a[1];
        if TAPS % 2 == 1 {
            acc += i64::from(rev[half]) * i64::from(w[half]);
        }
        acc
    }
}

/// AVX2 widening dot product, compiled into every x86_64 build and
/// selected only when the CPU reports AVX2 at construction time.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd {
    use std::arch::x86_64::*;

    /// Safe entry point: construction selects it only when
    /// `crate::avx2_detected` held.
    pub fn dot(rev: &[i32], w: &[i32]) -> i64 {
        assert_eq!(rev.len(), w.len(), "window length mismatch");
        // SAFETY: `resolve_kernel` returns this function only after
        // `crate::avx2_detected()` held, so the CPU has AVX2, and with
        // equal lengths every load of `dot_avx2` stays inside both
        // slices.
        unsafe { dot_avx2(rev, w) }
    }

    /// `_mm256_mul_epi32` sign-extends the low 32 bits of each 64-bit
    /// lane, so one register pair yields the even-lane products and a
    /// 32-bit logical shift exposes the odd lanes. Partial sums cannot
    /// wrap: selection requires the width audit, which bounds every
    /// partial sum by `max_signed(acc_bits)`.
    ///
    /// # Safety
    ///
    /// The CPU must have AVX2, and `w` must be at least as long as
    /// `rev`.
    #[target_feature(enable = "avx2")]
    unsafe fn dot_avx2(rev: &[i32], w: &[i32]) -> i64 {
        let n = rev.len();
        let mut acc_even = _mm256_setzero_si256();
        let mut acc_odd = _mm256_setzero_si256();
        for k in 0..n / 8 {
            let a = _mm256_loadu_si256(rev.as_ptr().add(k * 8) as *const __m256i);
            let b = _mm256_loadu_si256(w.as_ptr().add(k * 8) as *const __m256i);
            acc_even = _mm256_add_epi64(acc_even, _mm256_mul_epi32(a, b));
            let a_hi = _mm256_srli_epi64(a, 32);
            let b_hi = _mm256_srli_epi64(b, 32);
            acc_odd = _mm256_add_epi64(acc_odd, _mm256_mul_epi32(a_hi, b_hi));
        }
        let acc = _mm256_add_epi64(acc_even, acc_odd);
        let mut lanes = [0i64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
        let mut total = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
        for j in (n / 8) * 8..n {
            total += i64::from(rev[j]) * i64::from(w[j]);
        }
        total
    }
}

/// The bit-true sequential polyphase FIR of Figure 5:
///
/// * inputs (`data_bits` wide) are written into a delay line of
///   `taps.len()` words at the input rate;
/// * once per `decim` inputs, the filter computes the 125-tap MAC the
///   FPGA would serialise over `taps.len()` clock cycles, accumulating
///   into an `acc_bits`-bit register sized so overflow cannot occur;
/// * the accumulator is then truncated by `coeff_bits − 1` (dropping
///   the fractional growth of the Q-format product) and **saturated**
///   to `data_bits` ("in case of saturation, the maximum or the
///   minimum value is returned").
///
/// The delay line is a linear 2N double buffer of `i32` (every
/// `data_bits ≤ 32` sample fits): the valid window is always
/// `hist[head−N..head]`, per-sample writes wrap by copying the newest N
/// samples down once every N inputs (amortised O(1)), and the block
/// path assembles carried history plus the block into one contiguous
/// `work` buffer so every output window is a flat slice. See the module
/// docs for the kernel family computed over those windows.
#[derive(Clone, Debug)]
pub struct SequentialFir {
    /// Design-order coefficients (index 0 multiplies the newest sample).
    coeffs: Vec<i32>,
    /// `coeffs` reversed: forward dot against an oldest-first window.
    coeffs_rev: Vec<i32>,
    /// Linear 2N double-buffer delay line.
    hist: Vec<i32>,
    /// Window end: valid samples are `hist[head − N..head]`.
    head: usize,
    /// Block scratch: carried history ++ current block.
    work: Vec<i32>,
    decim: u32,
    phase: u32,
    data_bits: u32,
    coeff_frac: u32,
    acc_bits: u32,
    kernel: KernelKind,
    dot: DotFn,
}

impl SequentialFir {
    /// Builds the filter from quantized coefficients, automatically
    /// selecting the fastest applicable block kernel.
    pub fn new(coeffs: &[i32], decim: u32, data_bits: u32, coeff_bits: u32, acc_bits: u32) -> Self {
        Self::build(coeffs, decim, data_bits, coeff_bits, acc_bits, None)
    }

    /// Builds the filter with a specific block kernel, for the
    /// benchmark shootout. Unsatisfiable requests fall back (see
    /// [`FirKernelSel`]); the result is always bit-exact.
    pub fn with_kernel(
        coeffs: &[i32],
        decim: u32,
        data_bits: u32,
        coeff_bits: u32,
        acc_bits: u32,
        sel: FirKernelSel,
    ) -> Self {
        Self::build(coeffs, decim, data_bits, coeff_bits, acc_bits, Some(sel))
    }

    fn build(
        coeffs: &[i32],
        decim: u32,
        data_bits: u32,
        coeff_bits: u32,
        acc_bits: u32,
        sel: Option<FirKernelSel>,
    ) -> Self {
        assert!(!coeffs.is_empty() && decim >= 1);
        assert!((2..=32).contains(&data_bits));
        assert!((2..=32).contains(&coeff_bits));
        assert!(acc_bits <= 62, "accumulator too wide to model in i64");
        for &c in coeffs {
            assert!(
                fits(i64::from(c), coeff_bits),
                "coefficient {c} exceeds {coeff_bits} bits"
            );
        }
        let audit_ok = width_audit_passes(coeffs, data_bits, acc_bits);
        let symmetric = is_linear_phase(coeffs);
        let n = coeffs.len();
        let d = decim as usize;
        let requested = sel.unwrap_or_else(|| auto_select(audit_ok, symmetric));
        let (kernel, dot) = resolve_kernel(requested, audit_ok, symmetric, n, d);
        SequentialFir {
            coeffs: coeffs.to_vec(),
            coeffs_rev: coeffs.iter().rev().copied().collect(),
            hist: vec![0; 2 * n],
            head: n,
            work: Vec::new(),
            decim,
            phase: 0,
            data_bits,
            coeff_frac: coeff_bits - 1,
            acc_bits,
            kernel,
            dot,
        }
    }

    /// Number of taps.
    pub fn taps(&self) -> usize {
        self.coeffs.len()
    }

    /// Decimation factor.
    pub fn decimation(&self) -> u32 {
        self.decim
    }

    /// The block kernel actually selected after fallback resolution:
    /// `"generic"`, `"flat"`, `"flat_const"`, `"sym"`, `"sym_const"` or
    /// `"simd_avx2"`.
    pub fn kernel_label(&self) -> &'static str {
        self.kernel.label()
    }

    /// Clock cycles the sequential MAC loop occupies per output — one
    /// per tap plus one delivery cycle (the paper computes "124 taps
    /// ... in 125 clock cycles").
    pub fn cycles_per_output(&self) -> u32 {
        self.coeffs.len() as u32 + 1
    }

    /// RAM bits required for the sample store (what the FPGA mapper
    /// charges to an M4K block).
    pub fn ram_bits(&self) -> usize {
        self.coeffs.len() * self.data_bits as usize
    }

    /// ROM bits required for the coefficient store.
    pub fn rom_bits(&self) -> usize {
        self.coeffs.len() * (self.coeff_frac + 1) as usize
    }

    /// Feeds one input sample; every `decim`-th call returns the
    /// saturated output word. This is the bit-true reference all block
    /// kernels are checked against: newest→oldest MAC order with
    /// per-tap accumulator-width checks in debug builds.
    #[inline]
    pub fn process(&mut self, x: i64) -> Option<i64> {
        debug_assert!(fits(x, self.data_bits), "input {x} wider than bus");
        let n = self.coeffs.len();
        if self.head == 2 * n {
            self.hist.copy_within(n.., 0);
            self.head = n;
        }
        self.hist[self.head] = x as i32;
        self.head += 1;
        self.phase += 1;
        if self.phase < self.decim {
            return None;
        }
        self.phase = 0;
        let acc = self.dot_checked(&self.hist[self.head - n..self.head]);
        Some(saturate(trunc_shift(acc, self.coeff_frac), self.data_bits))
    }

    /// Reference MAC over an oldest-first window: newest→oldest order,
    /// per-tap width checks in debug builds.
    #[inline]
    fn dot_checked(&self, w: &[i32]) -> i64 {
        let mut acc: i64 = 0;
        for (&h, &s) in self.coeffs.iter().zip(w.iter().rev()) {
            acc += i64::from(h) * i64::from(s);
            debug_assert!(
                fits(acc, self.acc_bits),
                "accumulator {acc} overflowed {} bits — widths mis-sized",
                self.acc_bits
            );
        }
        acc
    }

    /// Feeds a block, appending produced outputs to `out`. Bit-exact
    /// with per-sample [`SequentialFir::process`] over any chunking:
    /// the carried history (newest N−1 samples) and the block are laid
    /// out in one contiguous `work` buffer, every output is the
    /// selected kernel's dot over a flat window `work[e−N..e]`, and the
    /// trailing N samples are copied back as the next carry.
    pub fn process_block(&mut self, input: &[i64], out: &mut Vec<i64>) {
        let d = self.decim as usize;
        let n = self.coeffs.len();
        // The carried phase counts toward the next output, so the exact
        // output count is (phase + len) / decim — `+ 1` here would
        // systematically over-reserve on small streaming blocks.
        out.reserve((self.phase as usize + input.len()) / d);
        if input.is_empty() {
            return;
        }
        let mut work = std::mem::take(&mut self.work);
        work.clear();
        work.reserve(n - 1 + input.len());
        work.extend_from_slice(&self.hist[self.head - (n - 1)..self.head]);
        for &x in input {
            debug_assert!(fits(x, self.data_bits), "input {x} wider than bus");
            work.push(x as i32);
        }
        self.work = work;
        // First window closes after `decim − phase` new samples.
        let first_end = (n - 1) + (d - self.phase as usize);
        match self.kernel {
            KernelKind::Generic => self.emit_generic(first_end, out),
            _ => self.emit_windows(first_end, out),
        }
        let len = self.work.len();
        let (hist, work) = (&mut self.hist, &self.work);
        hist[..n].copy_from_slice(&work[len - n..]);
        self.head = n;
        self.phase = ((self.phase as usize + input.len()) % d) as u32;
    }

    /// Window loop for the flat/sym/const/simd kernels: one indirect
    /// call per *output*, amortised over the whole tap loop.
    fn emit_windows(&mut self, first_end: usize, out: &mut Vec<i64>) {
        let d = self.decim as usize;
        let n = self.coeffs.len();
        let dot = self.dot;
        let mut e = first_end;
        while e <= self.work.len() {
            let acc = dot(&self.coeffs_rev, &self.work[e - n..e]);
            out.push(saturate(trunc_shift(acc, self.coeff_frac), self.data_bits));
            e += d;
        }
    }

    /// Window loop for the audit-failed fallback: reference MAC order
    /// and per-tap width checks, exactly as [`SequentialFir::process`].
    fn emit_generic(&mut self, first_end: usize, out: &mut Vec<i64>) {
        let d = self.decim as usize;
        let n = self.coeffs.len();
        let mut e = first_end;
        while e <= self.work.len() {
            let acc = self.dot_checked(&self.work[e - n..e]);
            out.push(saturate(trunc_shift(acc, self.coeff_frac), self.data_bits));
            e += d;
        }
    }

    /// Resets the delay line and phase.
    pub fn reset(&mut self) {
        self.hist.fill(0);
        self.head = self.coeffs.len();
        self.phase = 0;
    }
}

/// The one-time static width audit: `Σ|h| · max|x|` must fit
/// `acc_bits`. Computed in `i128` so the audit itself cannot overflow.
/// When it holds, no partial sum of any reordering can leave `i64`
/// range, so the specialised kernels are bit-exact and need no per-tap
/// checks.
fn width_audit_passes(coeffs: &[i32], data_bits: u32, acc_bits: u32) -> bool {
    let sum_abs: i128 = coeffs.iter().map(|&c| i128::from(c.unsigned_abs())).sum();
    let worst = sum_abs * (1i128 << (data_bits - 1));
    worst <= i128::from(max_signed(acc_bits))
}

/// Automatic kernel choice, ordered by the measured shootout: the AVX2
/// kernel when the CPU has it, then the symmetric fold, then the flat
/// dot.
fn auto_select(audit_ok: bool, symmetric: bool) -> FirKernelSel {
    if !audit_ok {
        return FirKernelSel::Generic;
    }
    if crate::avx2_detected() {
        return FirKernelSel::Simd;
    }
    if symmetric {
        FirKernelSel::Sym
    } else {
        FirKernelSel::Flat
    }
}

/// Resolves a (possibly forced) selection against the filter's actual
/// properties, falling back down the family when preconditions fail.
fn resolve_kernel(
    sel: FirKernelSel,
    audit_ok: bool,
    symmetric: bool,
    taps: usize,
    decim: usize,
) -> (KernelKind, DotFn) {
    if !audit_ok {
        // Without the audit the per-tap checks must stay, whatever was
        // asked for.
        return (KernelKind::Generic, dot_flat as DotFn);
    }
    match sel {
        FirKernelSel::Generic => (KernelKind::Generic, dot_flat as DotFn),
        FirKernelSel::Simd => {
            #[cfg(target_arch = "x86_64")]
            if crate::avx2_detected() {
                return (KernelKind::Simd, simd::dot as DotFn);
            }
            // No AVX2 on this CPU: the scalar family.
            resolve_kernel(FirKernelSel::Flat, true, symmetric, taps, decim)
        }
        FirKernelSel::Sym => {
            if !symmetric {
                // Asymmetric taps must not be folded.
                return resolve_kernel(FirKernelSel::Flat, true, false, taps, decim);
            }
            match (taps, decim) {
                (125, 8) => (KernelKind::SymConst, FirKernel::<125, 8>::dot_sym as DotFn),
                (125, 2) => (KernelKind::SymConst, FirKernel::<125, 2>::dot_sym as DotFn),
                _ => (KernelKind::Sym, dot_sym as DotFn),
            }
        }
        FirKernelSel::Flat => match (taps, decim) {
            (125, 8) => (KernelKind::FlatConst, FirKernel::<125, 8>::dot as DotFn),
            (125, 2) => (KernelKind::FlatConst, FirKernel::<125, 2>::dot as DotFn),
            _ => (KernelKind::Flat, dot_flat as DotFn),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddc_dsp::decimate::{fir_then_decimate, fir_then_decimate_i64};
    use rand::{Rng, SeedableRng};

    #[test]
    fn direct_fir_identity() {
        let mut f = DirectFir::new(&[1.0]);
        for x in [1.0, -2.0, 3.5] {
            assert_eq!(f.process(x), x);
        }
    }

    #[test]
    fn direct_fir_matches_convolution() {
        let taps = [0.5, 0.25, -0.125, 0.0625];
        let input: Vec<f64> = (0..64).map(|i| ((i * 37) % 13) as f64 - 6.0).collect();
        let golden = fir_then_decimate(&input, &taps, 1);
        let mut f = DirectFir::new(&taps);
        for (k, &x) in input.iter().enumerate() {
            let y = f.process(x);
            assert!((y - golden[k]).abs() < 1e-12, "sample {k}");
        }
    }

    #[test]
    fn polyphase_equals_dense_plus_decimation() {
        // The core polyphase identity (Figure 3): filter-then-keep-1-in-D
        // gives the same outputs as the polyphase structure.
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let taps: Vec<f64> = (0..25).map(|_| rng.gen_range(-0.2..0.2)).collect();
        let input: Vec<f64> = (0..500).map(|_| rng.gen_range(-1.0..1.0)).collect();
        for decim in [1u32, 2, 5, 8] {
            let mut pf = PolyphaseFir::new(&taps, decim);
            let mut got = Vec::new();
            for &x in &input {
                if let Some(y) = pf.process(x) {
                    got.push(y);
                }
            }
            let golden = fir_then_decimate(&input, &taps, decim as usize);
            // streaming output k corresponds to dense output at index
            // (k+1)·D − 1
            for (k, &y) in got.iter().enumerate() {
                let dense_idx = (k + 1) * decim as usize - 1;
                let dense = fir_then_decimate(&input[..=dense_idx], &taps, 1);
                assert!(
                    (y - dense[dense_idx]).abs() < 1e-12,
                    "decim {decim} output {k}"
                );
            }
            let _ = golden;
        }
    }

    #[test]
    fn sequential_fir_matches_integer_golden_model() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let coeffs: Vec<i32> = (0..125).map(|_| rng.gen_range(-300..300)).collect();
        let input: Vec<i64> = (0..4000).map(|_| rng.gen_range(-2048i64..=2047)).collect();
        let mut f = SequentialFir::new(&coeffs, 8, 12, 12, 31);
        let mut got = Vec::new();
        for &x in &input {
            if let Some(y) = f.process(x) {
                got.push(y);
            }
        }
        let coeffs64: Vec<i64> = coeffs.iter().map(|&c| i64::from(c)).collect();
        let dense = fir_then_decimate_i64(&input, &coeffs64, 1);
        for (k, &y) in got.iter().enumerate() {
            let idx = (k + 1) * 8 - 1;
            let expect = saturate(trunc_shift(dense[idx], 11), 12);
            assert_eq!(y, expect, "output {k}");
        }
        assert_eq!(got.len(), input.len() / 8);
    }

    #[test]
    fn block_kernels_match_per_sample() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        // SequentialFir: exact integer equality, including a decimation
        // factor larger than the tap count (exercises the carry logic
        // when whole decimation groups fall between outputs).
        let coeffs: Vec<i32> = (0..125).map(|_| rng.gen_range(-300..300)).collect();
        let input: Vec<i64> = (0..3000).map(|_| rng.gen_range(-2048i64..=2047)).collect();
        for decim in [1u32, 3, 8, 200] {
            let mut per_sample = SequentialFir::new(&coeffs, decim, 12, 12, 34);
            let mut blocked = per_sample.clone();
            let expect: Vec<i64> = input
                .iter()
                .filter_map(|&x| per_sample.process(x))
                .collect();
            let mut got = Vec::new();
            for chunk in input.chunks(53) {
                blocked.process_block(chunk, &mut got);
            }
            assert_eq!(got, expect, "decim {decim}");
        }
        // PolyphaseFir: f64 addition is order-sensitive, so bit-exact
        // equality here proves the block path preserves the per-sample
        // accumulation order.
        let taps: Vec<f64> = (0..25).map(|_| rng.gen_range(-0.2..0.2)).collect();
        let finput: Vec<f64> = (0..1000).map(|_| rng.gen_range(-1.0..1.0)).collect();
        for decim in [1u32, 2, 5, 8, 60] {
            let mut per_sample = PolyphaseFir::new(&taps, decim);
            let mut blocked = per_sample.clone();
            let expect: Vec<f64> = finput
                .iter()
                .filter_map(|&x| per_sample.process(x))
                .collect();
            let mut got = Vec::new();
            for chunk in finput.chunks(17) {
                blocked.process_block(chunk, &mut got);
            }
            assert_eq!(got, expect, "decim {decim}");
        }
    }

    #[test]
    fn every_forced_kernel_matches_per_sample() {
        // The whole family — including fallback resolutions — against
        // the per-sample reference, across decimations and mixed
        // per-sample/block call interleavings.
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let asym: Vec<i32> = (0..125).map(|_| rng.gen_range(-300..300)).collect();
        let mut sym = asym.clone();
        for j in 0..62 {
            sym[124 - j] = sym[j];
        }
        let input: Vec<i64> = (0..3000).map(|_| rng.gen_range(-2048i64..=2047)).collect();
        for coeffs in [&asym, &sym] {
            for decim in [1u32, 2, 7, 8, 200] {
                let mut per_sample = SequentialFir::new(coeffs, decim, 12, 12, 34);
                let expect: Vec<i64> = input
                    .iter()
                    .filter_map(|&x| per_sample.process(x))
                    .collect();
                for sel in [
                    FirKernelSel::Generic,
                    FirKernelSel::Flat,
                    FirKernelSel::Sym,
                    FirKernelSel::Simd,
                ] {
                    let mut f = SequentialFir::with_kernel(coeffs, decim, 12, 12, 34, sel);
                    let mut got = Vec::new();
                    for chunk in input.chunks(61) {
                        f.process_block(chunk, &mut got);
                    }
                    assert_eq!(got, expect, "sel {sel:?} decim {decim}");
                    // And interleaved per-sample/block calls share state.
                    f.reset();
                    let mut mixed = Vec::new();
                    let (head, tail) = input.split_at(500);
                    mixed.extend(head.iter().filter_map(|&x| f.process(x)));
                    f.process_block(tail, &mut mixed);
                    assert_eq!(mixed, expect, "mixed sel {sel:?} decim {decim}");
                }
            }
        }
    }

    #[test]
    fn kernel_selection_and_fallbacks() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let asym: Vec<i32> = (0..125).map(|_| rng.gen_range(-300..300)).collect();
        let mut sym = asym.clone();
        for j in 0..62 {
            sym[124 - j] = sym[j];
        }
        // Preset shapes hit the const-generic instantiations.
        let f = SequentialFir::with_kernel(&sym, 8, 12, 12, 34, FirKernelSel::Sym);
        assert_eq!(f.kernel_label(), "sym_const");
        let f = SequentialFir::with_kernel(&sym, 2, 12, 12, 34, FirKernelSel::Flat);
        assert_eq!(f.kernel_label(), "flat_const");
        // Off-preset shapes use the dynamic kernels.
        let mut sym100 = sym[..100].to_vec();
        for j in 0..50 {
            sym100[99 - j] = sym100[j];
        }
        let f = SequentialFir::with_kernel(&sym100, 8, 12, 12, 34, FirKernelSel::Sym);
        assert_eq!(f.kernel_label(), "sym");
        // Asymmetric taps must not fold: Sym falls back to flat.
        let f = SequentialFir::with_kernel(&asym, 8, 12, 12, 34, FirKernelSel::Sym);
        assert_eq!(f.kernel_label(), "flat_const");
        // Auto-selection never folds asymmetric taps either.
        let f = SequentialFir::new(&asym, 8, 12, 12, 34);
        assert_ne!(f.kernel_label(), "sym");
        assert_ne!(f.kernel_label(), "sym_const");
        assert_ne!(f.kernel_label(), "generic");
        // The SIMD request runs AVX2 where the CPU has it and falls
        // back to the scalar flat kernel everywhere else.
        let f = SequentialFir::with_kernel(&sym, 8, 12, 12, 34, FirKernelSel::Simd);
        let expect = if crate::avx2_detected() {
            "simd_avx2"
        } else {
            "flat_const"
        };
        assert_eq!(f.kernel_label(), expect);
    }

    #[test]
    fn width_audit_failure_selects_generic_and_stays_exact() {
        // Σ|h|·max|x| = 2047·125·2048 needs 30 bits, so a 20-bit
        // accumulator claim fails the audit; with |x| ≤ 1 the true
        // accumulator stays inside 20 bits, so the per-tap debug checks
        // hold while the generic kernel runs.
        let coeffs = vec![2047i32; 125];
        let f = SequentialFir::new(&coeffs, 8, 12, 12, 20);
        assert_eq!(f.kernel_label(), "generic");
        let input: Vec<i64> = (0..2000).map(|k| (k % 3) as i64 - 1).collect();
        let mut per_sample = SequentialFir::new(&coeffs, 8, 12, 12, 20);
        let expect: Vec<i64> = input
            .iter()
            .filter_map(|&x| per_sample.process(x))
            .collect();
        let mut blocked = SequentialFir::new(&coeffs, 8, 12, 12, 20);
        let mut got = Vec::new();
        for chunk in input.chunks(37) {
            blocked.process_block(chunk, &mut got);
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn drm_preset_taps_select_a_specialised_kernel() {
        // The registry's 125-tap linear-phase design must never land on
        // the generic fallback — that is the whole point of the audit.
        let cfg = crate::params::DdcConfig::drm(0.0);
        let q = ddc_dsp::firdes::quantize_taps(&cfg.fir_taps, 12, 11);
        let f = SequentialFir::new(&q, 8, 12, 12, 31);
        let expect = if crate::avx2_detected() {
            "simd_avx2"
        } else {
            "sym_const"
        };
        assert_eq!(f.kernel_label(), expect);
    }

    #[test]
    fn sequential_fir_saturates_at_rails() {
        // A filter with DC gain ~2 driven with full-scale DC must pin
        // at +2047 rather than wrap.
        let coeffs = vec![2048i32 / 16; 32]; // DC gain = 32·128/2048 = 2.0
        let mut f = SequentialFir::new(&coeffs, 1, 12, 12, 31);
        let mut last = 0;
        for _ in 0..64 {
            last = f.process(2047).unwrap();
        }
        assert_eq!(last, 2047);
        for _ in 0..64 {
            last = f.process(-2048).unwrap();
        }
        assert_eq!(last, -2048);
    }

    #[test]
    fn sequential_accumulator_bound_holds_for_drm_filter() {
        // Worst-case |acc| = Σ|h| · max|x| must fit 31 bits for the
        // 125-tap 12-bit design — the paper's claim that "the bus size
        // is chosen in such a way that overflow cannot occur".
        let cfg = crate::params::DdcConfig::drm(0.0);
        let q = ddc_dsp::firdes::quantize_taps(&cfg.fir_taps, 12, 11);
        let sum_abs: i64 = q.iter().map(|&c| i64::from(c).abs()).sum();
        let worst = sum_abs * 2048;
        assert!(fits(worst, 31), "worst-case {worst} exceeds 31 bits");
        // The same bound is what the construction-time audit proves.
        assert!(width_audit_passes(&q, 12, 31));
    }

    #[test]
    fn sequential_fir_dc_gain_near_unity_for_drm_taps() {
        let cfg = crate::params::DdcConfig::drm(0.0);
        let q = ddc_dsp::firdes::quantize_taps(&cfg.fir_taps, 12, 11);
        let mut f = SequentialFir::new(&q, 8, 12, 12, 31);
        let mut last = 0;
        for _ in 0..(125 * 8 * 2) {
            if let Some(y) = f.process(1000) {
                last = y;
            }
        }
        assert!((last - 1000).abs() <= 8, "DC gain off: {last}");
    }

    #[test]
    fn cycles_per_output_and_memory_accounting() {
        let coeffs = vec![1i32; 124];
        let f = SequentialFir::new(&coeffs, 8, 12, 12, 31);
        assert_eq!(f.cycles_per_output(), 125);
        assert_eq!(f.ram_bits(), 124 * 12);
        assert_eq!(f.rom_bits(), 124 * 12);
        assert_eq!(f.taps(), 124);
        assert_eq!(f.decimation(), 8);
        assert_eq!(FirKernel::<125, 8>::decimation(), 8);
    }

    #[test]
    fn reset_makes_filters_repeatable() {
        let coeffs: Vec<i32> = (0..31).map(|k| k * 11 - 150).collect();
        let mut f = SequentialFir::new(&coeffs, 4, 12, 12, 31);
        let input: Vec<i64> = (0..200).map(|k| ((k * 97) % 4000) as i64 - 2000).collect();
        let run = |f: &mut SequentialFir| -> Vec<i64> {
            input.iter().filter_map(|&x| f.process(x)).collect()
        };
        let a = run(&mut f);
        f.reset();
        let b = run(&mut f);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn sequential_fir_rejects_oversized_coefficients() {
        SequentialFir::new(&[5000], 1, 12, 12, 31);
    }
}
