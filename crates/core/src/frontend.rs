//! Fused NCO → mixer → CIC1 front-end kernel.
//!
//! Every stage before the first decimation runs at the full ADC rate
//! (64.512 MHz in the DRM preset), so the staged block chain spends
//! most of its time *streaming intermediate rails through memory*: the
//! LO block, then the split I and Q mixer rails, are each written and
//! re-read at the input rate before CIC1 collapses the rate by 16.
//! This module fuses phase generation, the complex multiply and the
//! CIC1 integrator cascade into a single pass over the input block —
//! one loop, no input-rate intermediate buffers — which is exactly the
//! low-latency fused downconversion front end Troeng & Doolittle
//! (arXiv:2102.05906) motivate for cavity-field control.
//!
//! The fused fast path covers an order-2, unit-differential-delay CIC1
//! (the paper's CIC2-decimate-by-16); any other front-end shape falls
//! back to a per-sample staged loop that is bit-exact by construction.
//! The fast path has two kernels: an AVX2 one, compiled into every
//! x86_64 build and run when the CPU has AVX2 and the chain's widths
//! keep its 32-bit lanes exact, and a scalar one that runs everywhere
//! else. [`front_end_kernel_label`] names the one that runs.
//! Bit-exactness of the scalar fast path follows from two facts:
//!
//! * the inlined multiply–round–clamp is the same arithmetic as
//!   [`FixedMixer::mix`] (`coeff_frac ≥ 1` always, so the half-LSB
//!   constant is well defined), and
//! * the integrators may defer their word-width wrap to the decimation
//!   boundary: `wrapping_add` on `i64` is exact arithmetic mod 2⁶⁴ and
//!   `2^w` divides 2⁶⁴, so every register stays congruent — and after
//!   wrapping, identical — to the per-sample path that wraps on every
//!   addition (the same argument as `CicDecimator::process_block`).

use crate::cic::CicDecimator;
use crate::mixer::FixedMixer;
use crate::nco::LutNco;
use crate::params::DdcConfig;
use ddc_dsp::fixed::{max_signed, min_signed, saturate, trunc_shift, wrap};

/// The kernel [`process_front_end`] runs for a set of stage objects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kernel {
    /// Per-sample staged loop: any CIC1 other than order 2, `M == 1`.
    Staged,
    /// Scalar fused order-2 kernel.
    FusedScalar,
    /// AVX2 fused order-2 kernel.
    #[cfg(target_arch = "x86_64")]
    FusedAvx2,
}

impl Kernel {
    /// The one kernel decision: dispatch and telemetry both read it.
    fn select(mixer: &FixedMixer, cic_i: &CicDecimator, cic_q: &CicDecimator) -> Kernel {
        let fusable = cic_i.order() == 2
            && cic_i.diff_delay() == 1
            && cic_q.order() == 2
            && cic_q.diff_delay() == 1
            && cic_i.decimation() == cic_q.decimation();
        if !fusable {
            return Kernel::Staged;
        }
        #[cfg(target_arch = "x86_64")]
        if simd::usable(mixer, cic_i) {
            return Kernel::FusedAvx2;
        }
        let _ = mixer;
        Kernel::FusedScalar
    }
}

/// Runs the fused NCO → mixer → CIC1 pass over `input`, appending the
/// CIC1-rate I and Q outputs to `out_i` / `out_q`. Bit-exact with the
/// staged sequence `nco.fill_block` → `mixer.mix_block_split` →
/// `cic_*.process_block`, and with the per-sample path.
///
/// The caller keeps ownership of the stage objects so the per-sample
/// path, activity probes and retuning keep working unchanged; the
/// kernel reads their state into locals and writes it back at the end.
pub fn process_front_end(
    nco: &mut LutNco,
    mixer: &FixedMixer,
    cic_i: &mut CicDecimator,
    cic_q: &mut CicDecimator,
    input: &[i32],
    out_i: &mut Vec<i64>,
    out_q: &mut Vec<i64>,
) {
    match Kernel::select(mixer, cic_i, cic_q) {
        #[cfg(target_arch = "x86_64")]
        Kernel::FusedAvx2 => {
            simd::fused_order2_avx2(nco, mixer, cic_i, cic_q, input, out_i, out_q);
        }
        Kernel::FusedScalar => {
            fused_order2_scalar(nco, mixer, cic_i, cic_q, input, out_i, out_q);
        }
        Kernel::Staged => {
            // Staged per-sample fallback for exotic front-end shapes —
            // bit-exact by construction, zero-allocation, but not the
            // hot path (every preset uses the order-2 CIC1).
            for &x in input {
                let cs = nco.next();
                let m = mixer.mix(i64::from(x), cs);
                if let Some(i1) = cic_i.process(m.i) {
                    out_i.push(i1);
                }
                if let Some(q1) = cic_q.process(m.q) {
                    out_q.push(q1);
                }
            }
        }
    }
}

/// Short label of the kernel [`process_front_end`] will run for these
/// stage objects — the name per-stage telemetry reports:
/// `"fused_avx2"`, `"fused_scalar"` or `"staged_scalar"`. It comes
/// from the same decision the dispatch makes, runtime AVX2 probe
/// included, so the label always names the code that runs.
pub fn front_end_kernel_label(
    mixer: &FixedMixer,
    cic_i: &CicDecimator,
    cic_q: &CicDecimator,
) -> &'static str {
    match Kernel::select(mixer, cic_i, cic_q) {
        Kernel::Staged => "staged_scalar",
        Kernel::FusedScalar => "fused_scalar",
        #[cfg(target_arch = "x86_64")]
        Kernel::FusedAvx2 => "fused_avx2",
    }
}

/// The scalar fused fast path: order-2, `M == 1` CIC1 on both rails.
fn fused_order2_scalar(
    nco: &mut LutNco,
    mixer: &FixedMixer,
    cic_i: &mut CicDecimator,
    cic_q: &mut CicDecimator,
    input: &[i32],
    out_i: &mut Vec<i64>,
    out_q: &mut Vec<i64>,
) {
    // NCO constants and state, hoisted as in `LutNco::fill_block`.
    let addr_bits = nco.addr_bits();
    let n_shift = 32 - addr_bits;
    let n_mask = (1u32 << addr_bits) - 1;
    let quarter = 1u32 << (addr_bits - 2);
    let word = nco.tuning_word();
    let table = nco.table();
    let mut phase = nco.phase();
    // Mixer constants, hoisted as in `FixedMixer::mix_block_split`.
    let half = 1i64 << (mixer.coeff_frac() - 1);
    let m_shift = mixer.coeff_frac();
    let top = max_signed(mixer.data_bits());
    let bot = min_signed(mixer.data_bits());
    // CIC state in locals, as in `CicDecimator::block_order2`.
    let r = cic_i.decimation() as usize;
    let w = cic_i.register_bits();
    let out_shift = cic_i.output_shift();
    let out_bits = cic_i.out_bits();
    let (mut ai0, mut ai1, mut di0, mut di1, start_phase) = cic_i.order2_state();
    let (mut aq0, mut aq1, mut dq0, mut dq1, _) = cic_q.order2_state();
    let mut cic_phase = start_phase as usize;

    out_i.reserve(input.len() / r + 1);
    out_q.reserve(input.len() / r + 1);

    let mut i = 0;
    while i < input.len() {
        let take = (r - cic_phase).min(input.len() - i);
        let group = &input[i..i + take];
        // 4-wide lanes: the oscillator/mixer arithmetic for four
        // samples is computed into lane arrays first (independent
        // work the compiler can interleave or vectorise), then the
        // serially-dependent integrator cascade consumes the lanes.
        let mut quads = group.chunks_exact(4);
        for quad in quads.by_ref() {
            let mut mi = [0i64; 4];
            let mut mq = [0i64; 4];
            for (k, &x) in quad.iter().enumerate() {
                let idx = phase >> n_shift;
                let sin = i64::from(table[(idx & n_mask) as usize]);
                let cos = i64::from(table[(idx.wrapping_add(quarter) & n_mask) as usize]);
                phase = phase.wrapping_add(word);
                let xw = i64::from(x);
                mi[k] = ((xw * cos + half) >> m_shift).clamp(bot, top);
                mq[k] = ((xw * -sin + half) >> m_shift).clamp(bot, top);
            }
            for k in 0..4 {
                ai0 = ai0.wrapping_add(mi[k]);
                ai1 = ai1.wrapping_add(ai0);
                aq0 = aq0.wrapping_add(mq[k]);
                aq1 = aq1.wrapping_add(aq0);
            }
        }
        for &x in quads.remainder() {
            let idx = phase >> n_shift;
            let sin = i64::from(table[(idx & n_mask) as usize]);
            let cos = i64::from(table[(idx.wrapping_add(quarter) & n_mask) as usize]);
            phase = phase.wrapping_add(word);
            let xw = i64::from(x);
            let mi = ((xw * cos + half) >> m_shift).clamp(bot, top);
            let mq = ((xw * -sin + half) >> m_shift).clamp(bot, top);
            ai0 = ai0.wrapping_add(mi);
            ai1 = ai1.wrapping_add(ai0);
            aq0 = aq0.wrapping_add(mq);
            aq1 = aq1.wrapping_add(aq0);
        }
        i += take;
        cic_phase += take;
        if cic_phase == r {
            cic_phase = 0;
            ai0 = wrap(ai0, w);
            ai1 = wrap(ai1, w);
            aq0 = wrap(aq0, w);
            aq1 = wrap(aq1, w);
            out_i.push(comb2_output(
                ai1, &mut di0, &mut di1, w, out_shift, out_bits,
            ));
            out_q.push(comb2_output(
                aq1, &mut dq0, &mut dq1, w, out_shift, out_bits,
            ));
        }
    }

    nco.set_phase(phase);
    cic_i.set_order2_state(ai0, ai1, di0, di1, cic_phase as u32);
    cic_q.set_order2_state(aq0, aq1, dq0, dq1, cic_phase as u32);
}

/// AVX2 fused front end, compiled into every x86_64 build and run when
/// [`usable`] holds: the mixer runs 8-wide in `i32` lanes (phase vector
/// arithmetic, two table gathers, `mullo`, round-shift-clamp) and the
/// order-2 integrator cascade over each decimation group collapses to
/// two data-parallel reductions via
///
/// ```text
/// a1' = a1 + g·a0 + Σₖ (g−k)·mₖ        a0' = a0 + Σₖ mₖ
/// ```
///
/// (after sample `k` the first integrator holds `a0 + Σ_{j≤k} m_j`, the
/// second accumulates each of those, and `m_j` appears in `g−j` of
/// them). Only group-boundary values feed the comb, so the per-sample
/// serial dependency disappears and both sums vectorise.
///
/// Bit-exactness: [`usable`] requires every mixer product (plus the
/// rounding constant) and every `weight·m` product to fit `i32`, so the
/// 32-bit lane arithmetic is exact; the group sums are exact in `i64`
/// (tiny: ≤ `r²·2^{data_bits−1}`); and the final group update uses
/// wrapping `i64` ops, over which multiplication distributes mod 2⁶⁴ —
/// the same congruence argument as the scalar path's deferred wrap.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd {
    use super::comb2_output;
    use crate::cic::CicDecimator;
    use crate::mixer::FixedMixer;
    use crate::nco::LutNco;
    use ddc_dsp::fixed::{max_signed, min_signed, wrap};
    use std::arch::x86_64::*;

    /// Preconditions for the 32-bit lane arithmetic to be exact, plus
    /// the runtime CPU check.
    pub fn usable(mixer: &FixedMixer, cic: &CicDecimator) -> bool {
        let db = mixer.data_bits();
        let cb = mixer.coeff_frac() + 1;
        // Mixer product + rounding constant fits i32 …
        db + cb <= 32
            // … post-clamp |m| ≤ 2^(db−1), so weight·m fits i32 when
            // r·2^(db−1) does …
            && i64::from(cic.decimation()) * (1i64 << (db - 1)) <= i64::from(i32::MAX)
            // … and the CPU actually has the instructions.
            && crate::avx2_detected()
    }

    /// Horizontal sum of four i64 lanes. Exact: callers only feed it
    /// group-bounded sums far below i64 range.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum_epi64(v: __m256i) -> i64 {
        let mut lanes = [0i64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, v);
        (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
    }

    /// Widens 8 i32 lanes to 4 i64 lanes by summing adjacent halves.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn widen_sum(v: __m256i) -> __m256i {
        let lo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(v));
        let hi = _mm256_cvtepi32_epi64(_mm256_extracti128_si256(v, 1));
        _mm256_add_epi64(lo, hi)
    }

    /// Safe wrapper: callers run it only when [`usable`] held.
    pub fn fused_order2_avx2(
        nco: &mut LutNco,
        mixer: &FixedMixer,
        cic_i: &mut CicDecimator,
        cic_q: &mut CicDecimator,
        input: &[i32],
        out_i: &mut Vec<i64>,
        out_q: &mut Vec<i64>,
    ) {
        assert!(crate::avx2_detected(), "AVX2 kernel on a CPU without AVX2");
        // SAFETY: the CPU has AVX2 (asserted above); `run` loads from
        // `input` only below its length and gathers from the NCO table
        // only at indices masked to `2^addr_bits − 1`, and `LutNco`
        // builds that table with exactly `2^addr_bits` entries.
        unsafe { run(nco, mixer, cic_i, cic_q, input, out_i, out_q) }
    }

    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_lines)]
    unsafe fn run(
        nco: &mut LutNco,
        mixer: &FixedMixer,
        cic_i: &mut CicDecimator,
        cic_q: &mut CicDecimator,
        input: &[i32],
        out_i: &mut Vec<i64>,
        out_q: &mut Vec<i64>,
    ) {
        // Same hoisted state as the scalar kernel.
        let addr_bits = nco.addr_bits();
        let n_shift = 32 - addr_bits;
        let n_mask = (1u32 << addr_bits) - 1;
        let quarter = 1u32 << (addr_bits - 2);
        let word = nco.tuning_word();
        let table = nco.table();
        let mut phase = nco.phase();
        let half = 1i32 << (mixer.coeff_frac() - 1);
        let m_shift = mixer.coeff_frac();
        let top = max_signed(mixer.data_bits()) as i32;
        let bot = min_signed(mixer.data_bits()) as i32;
        let r = cic_i.decimation() as usize;
        let w = cic_i.register_bits();
        let out_shift = cic_i.output_shift();
        let out_bits = cic_i.out_bits();
        let (mut ai0, mut ai1, mut di0, mut di1, start_phase) = cic_i.order2_state();
        let (mut aq0, mut aq1, mut dq0, mut dq1, _) = cic_q.order2_state();
        let mut cic_phase = start_phase as usize;

        out_i.reserve(input.len() / r + 1);
        out_q.reserve(input.len() / r + 1);

        // Vector constants.
        let lane_ids = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        // k·word offsets; mullo wraps mod 2³², matching u32 phase math.
        let phase_steps = _mm256_mullo_epi32(_mm256_set1_epi32(word as i32), lane_ids);
        let word8 = word.wrapping_mul(8);
        let mask_v = _mm256_set1_epi32(n_mask as i32);
        let quarter_v = _mm256_set1_epi32(quarter as i32);
        let half_v = _mm256_set1_epi32(half);
        let top_v = _mm256_set1_epi32(top);
        let bot_v = _mm256_set1_epi32(bot);
        let zero = _mm256_setzero_si256();
        let shift_n = _mm_cvtsi32_si128(n_shift as i32);
        let shift_m = _mm_cvtsi32_si128(m_shift as i32);

        let mut i = 0;
        while i < input.len() {
            let take = (r - cic_phase).min(input.len() - i);
            let group = &input[i..i + take];
            let mut sum_i_v = zero;
            let mut wsum_i_v = zero;
            let mut sum_q_v = zero;
            let mut wsum_q_v = zero;
            let mut k = 0;
            while k + 8 <= take {
                let ph = _mm256_add_epi32(_mm256_set1_epi32(phase as i32), phase_steps);
                let idx = _mm256_srl_epi32(ph, shift_n);
                let sin_idx = _mm256_and_si256(idx, mask_v);
                let cos_idx = _mm256_and_si256(_mm256_add_epi32(idx, quarter_v), mask_v);
                let sin = _mm256_i32gather_epi32::<4>(table.as_ptr(), sin_idx);
                let cos = _mm256_i32gather_epi32::<4>(table.as_ptr(), cos_idx);
                let x = _mm256_loadu_si256(group.as_ptr().add(k) as *const __m256i);
                let pi = _mm256_add_epi32(_mm256_mullo_epi32(x, cos), half_v);
                let pq =
                    _mm256_add_epi32(_mm256_mullo_epi32(x, _mm256_sub_epi32(zero, sin)), half_v);
                let mi = _mm256_max_epi32(
                    _mm256_min_epi32(_mm256_sra_epi32(pi, shift_m), top_v),
                    bot_v,
                );
                let mq = _mm256_max_epi32(
                    _mm256_min_epi32(_mm256_sra_epi32(pq, shift_m), top_v),
                    bot_v,
                );
                // Per-lane weights g−k, g−k−1, …, g−k−7.
                let wv = _mm256_sub_epi32(_mm256_set1_epi32((take - k) as i32), lane_ids);
                sum_i_v = _mm256_add_epi64(sum_i_v, widen_sum(mi));
                wsum_i_v = _mm256_add_epi64(wsum_i_v, widen_sum(_mm256_mullo_epi32(wv, mi)));
                sum_q_v = _mm256_add_epi64(sum_q_v, widen_sum(mq));
                wsum_q_v = _mm256_add_epi64(wsum_q_v, widen_sum(_mm256_mullo_epi32(wv, mq)));
                phase = phase.wrapping_add(word8);
                k += 8;
            }
            let mut sum_i = hsum_epi64(sum_i_v);
            let mut wsum_i = hsum_epi64(wsum_i_v);
            let mut sum_q = hsum_epi64(sum_q_v);
            let mut wsum_q = hsum_epi64(wsum_q_v);
            // Scalar tail of the group, weights continuing downward.
            let mut weight = (take - k) as i64;
            for &x in &group[k..] {
                let idx = phase >> n_shift;
                let sin = i64::from(table[(idx & n_mask) as usize]);
                let cos = i64::from(table[(idx.wrapping_add(quarter) & n_mask) as usize]);
                phase = phase.wrapping_add(word);
                let xw = i64::from(x);
                let mi =
                    ((xw * cos + i64::from(half)) >> m_shift).clamp(i64::from(bot), i64::from(top));
                let mq = ((xw * -sin + i64::from(half)) >> m_shift)
                    .clamp(i64::from(bot), i64::from(top));
                sum_i += mi;
                wsum_i += weight * mi;
                sum_q += mq;
                wsum_q += weight * mq;
                weight -= 1;
            }
            let g = take as i64;
            ai1 = ai1.wrapping_add(g.wrapping_mul(ai0)).wrapping_add(wsum_i);
            ai0 = ai0.wrapping_add(sum_i);
            aq1 = aq1.wrapping_add(g.wrapping_mul(aq0)).wrapping_add(wsum_q);
            aq0 = aq0.wrapping_add(sum_q);
            i += take;
            cic_phase += take;
            if cic_phase == r {
                cic_phase = 0;
                ai0 = wrap(ai0, w);
                ai1 = wrap(ai1, w);
                aq0 = wrap(aq0, w);
                aq1 = wrap(aq1, w);
                out_i.push(comb2_output(
                    ai1, &mut di0, &mut di1, w, out_shift, out_bits,
                ));
                out_q.push(comb2_output(
                    aq1, &mut dq0, &mut dq1, w, out_shift, out_bits,
                ));
            }
        }

        nco.set_phase(phase);
        cic_i.set_order2_state(ai0, ai1, di0, di1, cic_phase as u32);
        cic_q.set_order2_state(aq0, aq1, dq0, dq1, cic_phase as u32);
    }
}

/// The order-2 comb pair and the truncate-saturate output stage, shared
/// by the scalar and SIMD fused kernels.
#[inline]
fn comb2_output(a1: i64, d0: &mut i64, d1: &mut i64, w: u32, out_shift: u32, out_bits: u32) -> i64 {
    let mut v = a1;
    let t = *d0;
    *d0 = v;
    v = wrap(v.wrapping_sub(t), w);
    let t = *d1;
    *d1 = v;
    v = wrap(v.wrapping_sub(t), w);
    saturate(trunc_shift(v, out_shift), out_bits)
}

/// A self-contained fused front end: owns the NCO, mixer and the two
/// CIC1 rails, so benchmarks can run the fused kernel without
/// assembling the pieces themselves.
#[derive(Clone, Debug)]
pub struct FusedFrontEnd {
    nco: LutNco,
    mixer: FixedMixer,
    cic_i: CicDecimator,
    cic_q: CicDecimator,
}

impl FusedFrontEnd {
    /// Builds the front end of `config`'s chain (NCO, mixer, CIC1).
    pub fn new(config: &DdcConfig) -> Self {
        config.validate().expect("invalid DDC configuration");
        let f = config.format;
        let mk_cic = || {
            CicDecimator::new(
                config.cic1_order,
                config.cic1_decim,
                f.data_bits,
                f.data_bits,
            )
        };
        FusedFrontEnd {
            nco: LutNco::new(config.tuning_word(), f.lut_addr_bits, f.coeff_bits),
            mixer: FixedMixer::new(f.data_bits, f.coeff_bits),
            cic_i: mk_cic(),
            cic_q: mk_cic(),
        }
    }

    /// Assembles a front end from already-built stages — used by the
    /// equivalence tests to cover arbitrary CIC orders and widths.
    pub fn from_parts(
        nco: LutNco,
        mixer: FixedMixer,
        cic_i: CicDecimator,
        cic_q: CicDecimator,
    ) -> Self {
        FusedFrontEnd {
            nco,
            mixer,
            cic_i,
            cic_q,
        }
    }

    /// Processes one input block, appending CIC1-rate I/Q rail outputs
    /// to `out_i` / `out_q`. Bit-exact with the staged stage-by-stage
    /// chain over any chunking of the input.
    pub fn process_block(&mut self, input: &[i32], out_i: &mut Vec<i64>, out_q: &mut Vec<i64>) {
        process_front_end(
            &mut self.nco,
            &self.mixer,
            &mut self.cic_i,
            &mut self.cic_q,
            input,
            out_i,
            out_q,
        );
    }

    /// Retunes the NCO without flushing filter state.
    pub fn set_tuning_word(&mut self, word: u32) {
        self.nco.set_tuning_word(word);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nco::tuning_word;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// The signature both fused order-2 kernels share.
    type FusedKernel = fn(
        &mut LutNco,
        &FixedMixer,
        &mut CicDecimator,
        &mut CicDecimator,
        &[i32],
        &mut Vec<i64>,
        &mut Vec<i64>,
    );

    fn staged_reference(cfg: &DdcConfig, input: &[i32]) -> (Vec<i64>, Vec<i64>) {
        let f = cfg.format;
        let mut nco = LutNco::new(cfg.tuning_word(), f.lut_addr_bits, f.coeff_bits);
        let mixer = FixedMixer::new(f.data_bits, f.coeff_bits);
        let mut cic_i = CicDecimator::new(cfg.cic1_order, cfg.cic1_decim, f.data_bits, f.data_bits);
        let mut cic_q = CicDecimator::new(cfg.cic1_order, cfg.cic1_decim, f.data_bits, f.data_bits);
        let mut out_i = Vec::new();
        let mut out_q = Vec::new();
        for &x in input {
            let cs = nco.next();
            let m = mixer.mix(i64::from(x), cs);
            if let Some(y) = cic_i.process(m.i) {
                out_i.push(y);
            }
            if let Some(y) = cic_q.process(m.q) {
                out_q.push(y);
            }
        }
        (out_i, out_q)
    }

    #[test]
    fn fused_matches_staged_over_ragged_chunks() {
        let cfg = DdcConfig::drm(10.7e6);
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let input: Vec<i32> = (0..5000).map(|_| rng.gen_range(-2048..=2047)).collect();
        let (expect_i, expect_q) = staged_reference(&cfg, &input);
        let mut fe = FusedFrontEnd::new(&cfg);
        let mut got_i = Vec::new();
        let mut got_q = Vec::new();
        for chunk in input.chunks(173) {
            fe.process_block(chunk, &mut got_i, &mut got_q);
        }
        assert_eq!(got_i, expect_i);
        assert_eq!(got_q, expect_q);
    }

    #[test]
    fn fused_handles_full_scale_saturating_input() {
        // Full-scale worst-case input exercises the mixer's clamp and
        // many integrator wraps.
        let cfg = DdcConfig::drm(16_128_000.0);
        let input: Vec<i32> = (0..2048)
            .map(|k| if k % 2 == 0 { -2048 } else { 2047 })
            .collect();
        let (expect_i, expect_q) = staged_reference(&cfg, &input);
        let mut fe = FusedFrontEnd::new(&cfg);
        let mut got_i = Vec::new();
        let mut got_q = Vec::new();
        fe.process_block(&input, &mut got_i, &mut got_q);
        assert_eq!(got_i, expect_i);
        assert_eq!(got_q, expect_q);
    }

    #[test]
    fn fallback_path_matches_staged_for_other_orders() {
        // Order-3 CIC1 takes the per-sample fallback; it must still be
        // bit-exact with the staged components.
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let input: Vec<i32> = (0..1000).map(|_| rng.gen_range(-2048..=2047)).collect();
        let word = tuning_word(0.173, 1.0);
        let nco = LutNco::new(word, 10, 12);
        let mixer = FixedMixer::new(12, 12);
        let cic = CicDecimator::new(3, 5, 12, 12);
        let mut fe = FusedFrontEnd::from_parts(nco.clone(), mixer, cic.clone(), cic.clone());
        let mut got_i = Vec::new();
        let mut got_q = Vec::new();
        for chunk in input.chunks(61) {
            fe.process_block(chunk, &mut got_i, &mut got_q);
        }
        let mut nco_ref = nco;
        let mut cic_i = cic.clone();
        let mut cic_q = cic;
        let mut expect_i = Vec::new();
        let mut expect_q = Vec::new();
        for &x in &input {
            let cs = nco_ref.next();
            let m = mixer.mix(i64::from(x), cs);
            if let Some(y) = cic_i.process(m.i) {
                expect_i.push(y);
            }
            if let Some(y) = cic_q.process(m.q) {
                expect_q.push(y);
            }
        }
        assert_eq!(got_i, expect_i);
        assert_eq!(got_q, expect_q);
    }

    /// Feeds `input` through the staged per-sample stages, appending
    /// their CIC1-rate outputs.
    fn run_staged(
        nco: &mut LutNco,
        mixer: &FixedMixer,
        cic_i: &mut CicDecimator,
        cic_q: &mut CicDecimator,
        input: &[i32],
        out_i: &mut Vec<i64>,
        out_q: &mut Vec<i64>,
    ) {
        for &x in input {
            let m = mixer.mix(i64::from(x), nco.next());
            out_i.extend(cic_i.process(m.i));
            out_q.extend(cic_q.process(m.q));
        }
    }

    proptest! {
        /// Each fused order-2 kernel, called directly, equals the staged
        /// per-sample chain: the scalar kernel always (on an AVX2 host
        /// the dispatch never reaches it for 12-bit chains), the AVX2
        /// kernel when this CPU has it. Ragged chunks carry the group
        /// phase across calls; a final decimation group run through
        /// both sides checks the residual NCO, integrator and comb
        /// state.
        #[test]
        fn fused_kernels_equal_staged(
            word in any::<u32>(),
            decim in 1u32..=24,
            input in prop::collection::vec(-2048i32..=2047, 0..600),
            chunks in prop::collection::vec(1usize..97, 1..8),
        ) {
            let mixer = FixedMixer::new(12, 12);
            let cic = CicDecimator::new(2, decim, 12, 12);
            let mut kernels: Vec<FusedKernel> = vec![fused_order2_scalar];
            #[cfg(target_arch = "x86_64")]
            if crate::avx2_detected() {
                // 12-bit chains meet the lane-exactness preconditions,
                // so the dispatch must pick the AVX2 kernel here.
                prop_assert_eq!(Kernel::select(&mixer, &cic, &cic), Kernel::FusedAvx2);
                kernels.push(simd::fused_order2_avx2);
            }
            let tail: Vec<i32> = (0..decim as i32).map(|k| (k * 97) % 2048).collect();
            let mut ref_nco = LutNco::new(word, 10, 12);
            let (mut ref_i, mut ref_q) = (cic.clone(), cic.clone());
            let mut staged = |x: &[i32], out_i: &mut Vec<i64>, out_q: &mut Vec<i64>| {
                run_staged(&mut ref_nco, &mixer, &mut ref_i, &mut ref_q, x, out_i, out_q);
            };
            let (mut expect_i, mut expect_q) = (Vec::new(), Vec::new());
            staged(&input, &mut expect_i, &mut expect_q);
            let (mut tail_i, mut tail_q) = (Vec::new(), Vec::new());
            staged(&tail, &mut tail_i, &mut tail_q);
            for kernel in kernels {
                let mut nco = LutNco::new(word, 10, 12);
                let (mut cic_i, mut cic_q) = (cic.clone(), cic.clone());
                let mut fused = |x: &[i32], out_i: &mut Vec<i64>, out_q: &mut Vec<i64>| {
                    kernel(&mut nco, &mixer, &mut cic_i, &mut cic_q, x, out_i, out_q);
                };
                let (mut got_i, mut got_q) = (Vec::new(), Vec::new());
                let (mut i, mut c) = (0, 0);
                while i < input.len() {
                    let take = chunks[c % chunks.len()].min(input.len() - i);
                    fused(&input[i..i + take], &mut got_i, &mut got_q);
                    i += take;
                    c += 1;
                }
                prop_assert_eq!(&got_i, &expect_i);
                prop_assert_eq!(&got_q, &expect_q);
                let (mut got_ti, mut got_tq) = (Vec::new(), Vec::new());
                fused(&tail, &mut got_ti, &mut got_tq);
                prop_assert_eq!(&got_ti, &tail_i);
                prop_assert_eq!(&got_tq, &tail_q);
                prop_assert_eq!(nco.phase(), ref_nco.phase());
            }
        }
    }

    #[test]
    fn empty_input_is_a_no_op() {
        let cfg = DdcConfig::drm(1e6);
        let mut fe = FusedFrontEnd::new(&cfg);
        let mut out_i = Vec::new();
        let mut out_q = Vec::new();
        fe.process_block(&[], &mut out_i, &mut out_q);
        assert!(out_i.is_empty() && out_q.is_empty());
    }
}
