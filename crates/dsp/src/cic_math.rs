//! Closed-form CIC filter mathematics.
//!
//! A CIC (cascaded integrator-comb, Hogenauer 1981 — reference \[7\] of
//! the paper) of order `N`, decimation `R` and differential delay `M`
//! has transfer function `H(z) = [(1 - z^{-RM}) / (1 - z^{-1})]^N`,
//! i.e. a cascade of `N` boxcar averagers of length `RM`. This module
//! provides the analytic response, gain and register-width results the
//! implementations and the power models are checked against.

use std::f64::consts::PI;

/// Exact Hogenauer bit growth `ceil(log2((R·M)^N))`, computed in
/// integer arithmetic.
///
/// The obvious `(N · log2(R·M)).ceil()` in `f64` can mis-round when
/// `N·log2(R·M)` lands within rounding error of an integer (the
/// product of an irrational `log2` with a large order), silently
/// sizing a register one bit too wide or — fatally for Hogenauer's
/// wrap-around cancellation — one bit too narrow. This computes
/// `(R·M)^N` exactly in `u128` and takes its integer ceiling log2.
pub fn bit_growth(order: u32, decimation: u32, diff_delay: u32) -> u32 {
    assert!(order >= 1, "order must be >= 1");
    assert!(decimation >= 1, "decimation must be >= 1");
    assert!(diff_delay >= 1, "differential delay must be >= 1");
    let rm = u128::from(decimation) * u128::from(diff_delay);
    match rm.checked_pow(order) {
        Some(p) => ceil_log2_u128(p),
        // (R·M)^N ≥ 2^128: growth saturates far past any register this
        // crate can model; the callers clamp against their own width
        // limits.
        None => 128,
    }
}

/// Integer `ceil(log2(x))` for `x ≥ 1`.
fn ceil_log2_u128(x: u128) -> u32 {
    debug_assert!(x >= 1);
    if x.is_power_of_two() {
        x.ilog2()
    } else {
        x.ilog2() + 1
    }
}

/// Static parameters of a CIC decimator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CicParams {
    /// Filter order (number of integrator/comb pairs). The paper uses
    /// N=2 ("CIC2") and N=5 ("CIC5").
    pub order: u32,
    /// Decimation ratio R (16 and 21 in the paper's chain).
    pub decimation: u32,
    /// Differential delay M of each comb (1 in the paper and in almost
    /// all practical designs).
    pub diff_delay: u32,
    /// Input sample width in bits.
    pub input_bits: u32,
}

impl CicParams {
    /// Convenience constructor with `M = 1`.
    pub fn new(order: u32, decimation: u32, input_bits: u32) -> Self {
        assert!(order >= 1, "order must be >= 1");
        assert!(decimation >= 1, "decimation must be >= 1");
        assert!((2..=32).contains(&input_bits), "input width out of range");
        CicParams {
            order,
            decimation,
            diff_delay: 1,
            input_bits,
        }
    }

    /// The DC gain `(R·M)^N` of the filter.
    pub fn gain(&self) -> f64 {
        ((self.decimation * self.diff_delay) as f64).powi(self.order as i32)
    }

    /// log2 of the DC gain — the number of bits the signal grows by.
    pub fn gain_bits(&self) -> f64 {
        self.gain().log2()
    }

    /// Register width required for full-precision operation:
    /// `ceil(N·log2(R·M)) + input_bits` (Hogenauer eq. 11), computed
    /// exactly via [`bit_growth`].
    pub fn register_bits(&self) -> u32 {
        bit_growth(self.order, self.decimation, self.diff_delay) + self.input_bits
    }

    /// Magnitude response at normalised *input-rate* frequency `f`
    /// (cycles/sample, 0..0.5), **normalised to unit DC gain**:
    /// `|sin(πfRM) / (RM·sin(πf))|^N`.
    pub fn magnitude(&self, f: f64) -> f64 {
        let rm = (self.decimation * self.diff_delay) as f64;
        if f.abs() < 1e-15 {
            return 1.0;
        }
        let num = (PI * f * rm).sin();
        let den = rm * (PI * f).sin();
        (num / den).abs().powi(self.order as i32)
    }

    /// Magnitude response in dB (unit DC gain); `-inf` at exact nulls
    /// is clamped to -400 dB.
    pub fn magnitude_db(&self, f: f64) -> f64 {
        let m = self.magnitude(f).max(1e-20);
        20.0 * m.log10()
    }

    /// Passband droop in dB at post-decimation frequency `f_out`
    /// (cycles/output-sample, 0..0.5): how much the CIC sags at the
    /// edge of the band a following FIR must flatten.
    pub fn droop_db(&self, f_out: f64) -> f64 {
        -self.magnitude_db(f_out / self.decimation as f64)
    }

    /// Worst-case alias rejection in dB for a signal band of half-width
    /// `f_band` (cycles/input-sample): the minimum attenuation of the
    /// first-image region `[1/R - f_band, 1/R + f_band]` relative to
    /// the passband edge — the figure of merit for a decimating CIC.
    pub fn alias_rejection_db(&self, f_band: f64) -> f64 {
        let r = self.decimation as f64;
        assert!(
            f_band > 0.0 && f_band < 0.5 / r,
            "band too wide for decimation"
        );
        let edge = self.magnitude(f_band);
        let grid = 200;
        let mut worst: f64 = 0.0;
        for k in 0..=grid {
            let f = 1.0 / r - f_band + 2.0 * f_band * k as f64 / grid as f64;
            worst = worst.max(self.magnitude(f));
        }
        20.0 * (edge / worst.max(1e-300)).log10()
    }

    /// Hogenauer register pruning: the number of least-significant bits
    /// that may be discarded at each of the `2N` internal stages (plus
    /// the output) while keeping total truncation noise below the level
    /// of a single output-LSB rounding, for an output width of
    /// `output_bits`. Returns `2N + 1` entries (stage 1..2N, then
    /// output). Stage indices follow Hogenauer's 1981 paper.
    pub fn pruning(&self, output_bits: u32) -> Vec<u32> {
        let n = self.order as usize;
        let stages = 2 * n;
        let b_max = self.register_bits();
        assert!(output_bits <= b_max, "output wider than full register");
        // Discarded bits at the output:
        let b_out = b_max - output_bits;
        // Error-gain F_j from stage j to the output (Hogenauer eq. 16):
        // computed from the impulse response of the remaining stages.
        let mut result = Vec::with_capacity(stages + 1);
        let sigma_t_sq_total = (1.0 / 12.0) * 2f64.powi(2 * b_out as i32);
        for j in 1..=stages {
            let fj_sq = self.error_gain_sq(j);
            // eq. 21: B_j = floor(-log2 F_j + log2 sigma_T + 0.5·log2(6/N))
            let bj = (-0.5 * fj_sq.log2()
                + 0.5 * (sigma_t_sq_total).log2()
                + 0.5 * (6.0 / stages as f64).log2())
            .floor();
            result.push(bj.max(0.0) as u32);
        }
        result.push(b_out);
        result
    }

    /// Squared error gain `F_j²` from the input of stage `j` (1-based,
    /// integrators first) to the output: the sum of squared impulse
    /// response coefficients of the remaining filter (Hogenauer eq. 16).
    fn error_gain_sq(&self, j: usize) -> f64 {
        let n = self.order as usize;
        let stages = 2 * n;
        assert!((1..=stages).contains(&j));
        if j == stages {
            return 1.0; // last comb: error passes straight through
        }
        // Remaining filter from stage j: (2N - j) stages. Build its
        // impulse response by polynomial convolution:
        //   integrators remaining: N - min(j, N) ... as per Hogenauer,
        //   the filter seen by noise injected at stage j is
        //   H_j(z) = (1-z^{-RM})^{N - max(0, j-N)} / (1-z^{-1})^{N - min(j,N)}
        // evaluated up to the point where coefficients settle.
        let rm = (self.decimation * self.diff_delay) as usize;
        let int_remaining = n.saturating_sub(j.min(n));
        let comb_remaining = n - j.saturating_sub(n).min(n);
        // Impulse response length: enough for the combs' span plus
        // settle margin for integrators (finite because combs
        // differentiate away the growth once j > 0... for remaining
        // integrators the response is infinite only if combs can't
        // cancel them; here comb_remaining >= int_remaining always, so
        // the response is finite with length comb_remaining*rm + 1).
        let len = comb_remaining * rm + 2;
        let mut h = vec![0.0f64; len];
        h[0] = 1.0;
        // Apply comb factors (1 - z^{-RM}):
        for _ in 0..comb_remaining {
            let mut next = vec![0.0f64; len];
            for (i, &v) in h.iter().enumerate() {
                next[i] += v;
                if i + rm < len {
                    next[i + rm] -= v;
                }
            }
            h = next;
        }
        // Apply integrator factors 1/(1 - z^{-1}) as running sums:
        for _ in 0..int_remaining {
            let mut acc = 0.0;
            for v in h.iter_mut() {
                acc += *v;
                *v = acc;
            }
        }
        h.iter().map(|v| v * v).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cic2() -> CicParams {
        CicParams::new(2, 16, 12)
    }

    fn cic5() -> CicParams {
        CicParams::new(5, 21, 12)
    }

    #[test]
    fn bit_growth_known_values() {
        assert_eq!(bit_growth(2, 16, 1), 8); // 16² = 256 = 2⁸
        assert_eq!(bit_growth(5, 21, 1), 22); // 21⁵ = 4084101, 2²¹ < · ≤ 2²²
        assert_eq!(bit_growth(1, 4, 2), 3); // R·M = 8 = 2³
        assert_eq!(bit_growth(1, 1, 1), 0);
    }

    #[test]
    fn bit_growth_is_exact_ceiling_log() {
        // The defining property: 2^(g-1) < (R·M)^N ≤ 2^g, checked in
        // exact integer arithmetic over a sweep that includes every
        // power-of-two boundary an f64 `log2().ceil()` could mis-round.
        for order in 1..=8u32 {
            for rm in 2..=128u32 {
                let g = bit_growth(order, rm, 1);
                let p = u128::from(rm).checked_pow(order).expect("sweep fits u128");
                assert!(1u128 << g >= p, "2^{g} < {rm}^{order}");
                assert!(1u128 << (g - 1) < p, "2^{} >= {rm}^{order}", g - 1);
            }
        }
    }

    #[test]
    fn bit_growth_power_of_two_boundaries() {
        // Exactly-representable products must NOT be rounded up a bit.
        for (order, rm, expect) in [
            (1u32, 1024u32, 10u32),
            (2, 32, 10),
            (4, 16, 16),
            (10, 2, 10),
        ] {
            assert_eq!(bit_growth(order, rm, 1), expect);
        }
        // One above/below a power of two straddle it.
        assert_eq!(bit_growth(1, 1025, 1), 11);
        assert_eq!(bit_growth(1, 1023, 1), 10);
    }

    #[test]
    fn bit_growth_saturates_past_u128() {
        // (2^32)^5 overflows u128 → saturated growth, not a panic.
        assert_eq!(bit_growth(5, u32::MAX, u32::MAX), 128);
    }

    #[test]
    fn gain_is_rm_to_the_n() {
        assert_eq!(cic2().gain(), 256.0);
        assert_eq!(cic5().gain(), 21f64.powi(5));
    }

    #[test]
    fn register_bits_match_hogenauer_formula() {
        // CIC2, R=16: growth = 2·log2(16) = 8 bits -> 20-bit registers.
        assert_eq!(cic2().register_bits(), 20);
        // CIC5, R=21: growth = ceil(5·log2 21) = ceil(21.96) = 22 -> 34.
        assert_eq!(cic5().register_bits(), 34);
    }

    #[test]
    fn magnitude_is_one_at_dc_and_nulls_at_multiples_of_fs_over_rm() {
        let c = cic2();
        assert!((c.magnitude(0.0) - 1.0).abs() < 1e-12);
        for k in 1..8 {
            let f = k as f64 / 16.0;
            assert!(c.magnitude(f) < 1e-10, "no null at {f}");
        }
    }

    #[test]
    fn magnitude_decreases_across_passband() {
        let c = cic5();
        let mut prev = c.magnitude(0.0);
        for k in 1..=10 {
            let f = 0.4 / 21.0 * k as f64 / 10.0;
            let m = c.magnitude(f);
            assert!(m < prev + 1e-12, "droop not monotone at {f}");
            prev = m;
        }
    }

    #[test]
    fn droop_grows_with_order() {
        let lo = CicParams::new(2, 16, 12).droop_db(0.4);
        let hi = CicParams::new(5, 16, 12).droop_db(0.4);
        assert!(
            hi > lo,
            "order-5 droop {hi} should exceed order-2 droop {lo}"
        );
        assert!(lo > 0.0);
    }

    #[test]
    fn alias_rejection_improves_with_order() {
        let band = 0.4 / (2.0 * 21.0) / 2.0;
        let r2 = CicParams::new(2, 21, 12).alias_rejection_db(band);
        let r5 = CicParams::new(5, 21, 12).alias_rejection_db(band);
        assert!(r5 > r2 + 20.0, "r2={r2} r5={r5}");
        assert!(r2 > 20.0);
    }

    #[test]
    fn magnitude_matches_boxcar_equivalence() {
        // CIC of order N ≡ cascade of N boxcars of length RM; check the
        // analytic response against a directly-evaluated boxcar DTFT.
        let c = CicParams::new(3, 8, 12);
        let rm = 8usize;
        let boxcar: Vec<f64> = vec![1.0 / rm as f64; rm];
        for k in 1..40 {
            let f = 0.49 * k as f64 / 40.0;
            let one = crate::fft::dtft(&boxcar, f).abs();
            let expect = one.powi(3);
            assert!(
                (c.magnitude(f) - expect).abs() < 1e-9,
                "mismatch at {f}: {} vs {expect}",
                c.magnitude(f)
            );
        }
    }

    #[test]
    fn pruning_returns_expected_shape_and_monotonicity() {
        let c = cic5();
        let p = c.pruning(12);
        assert_eq!(p.len(), 11); // 2N stages + output
                                 // Total discarded at output:
        assert_eq!(*p.last().unwrap(), c.register_bits() - 12);
        // Hogenauer pruning discards progressively more bits in later
        // stages (noise injected later sees less gain to the output).
        for w in p.windows(2).take(p.len() - 2) {
            assert!(w[0] <= w[1] + 1, "pruning not (weakly) increasing: {p:?}");
        }
        // First integrator must keep nearly everything.
        assert!(p[0] < 8);
    }

    #[test]
    fn pruning_with_full_output_width_discards_little() {
        let c = cic2();
        let p = c.pruning(c.register_bits());
        assert_eq!(*p.last().unwrap(), 0);
    }

    #[test]
    fn drm_chain_droop_budget() {
        // The paper's chain: CIC2 (R=16) then CIC5 (R=21). At the final
        // 12 kHz band edge the combined droop must be small enough that
        // a 125-tap FIR can equalise it; historically this is a few dB.
        let f_edge_in = 12_000.0 / 64_512_000.0; // band edge at input rate
        let d2 = -CicParams::new(2, 16, 12).magnitude_db(f_edge_in);
        let d5 = -CicParams::new(5, 21, 12).magnitude_db(f_edge_in * 16.0);
        let total = d2 + d5;
        assert!(total < 6.0, "chain droop {total} dB too large");
        assert!(total > 0.01, "chain droop {total} dB implausibly small");
    }
}
