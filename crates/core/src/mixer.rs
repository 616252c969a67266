//! The complex mixer (frequency shifter).
//!
//! §2.1 of the paper: *"The signals from the NCO are used to shift the
//! frequencies. To generate an in-phase (I) signal the input signal is
//! multiplied with the cosine signal. The quadrature part (Q) is
//! derived by multiplying the input signal with the sine signal."*
//!
//! We multiply by the conjugate phasor, `I + jQ = x·(cos − j·sin) =
//! x·e^{−jθ}`, so a real input component at `+f_tune` lands at complex
//! baseband (0 Hz). The fixed-point variant models a hardware
//! multiplier followed by a rounding quantizer back to the data-bus
//! width.

use crate::nco::CosSin;
use ddc_dsp::fixed::{round_shift, saturate};

/// One complex mixer output in data-bus fixed point. `i` then `q`, in
/// that order: the channelizer's AVX2 kernel stores a pair as one
/// 16-byte write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(C)]
pub struct Iq {
    /// In-phase component.
    pub i: i64,
    /// Quadrature component.
    pub q: i64,
}

/// Fixed-point mixer: multiplies a `data_bits`-wide input sample by a
/// `coeff_bits`-wide cos/sin pair and quantizes the Q-format product
/// back to `data_bits`.
#[derive(Clone, Copy, Debug)]
pub struct FixedMixer {
    data_bits: u32,
    coeff_frac: u32,
}

impl FixedMixer {
    /// Creates a mixer for the given bus widths.
    pub fn new(data_bits: u32, coeff_bits: u32) -> Self {
        assert!((2..=32).contains(&data_bits));
        assert!((2..=32).contains(&coeff_bits));
        FixedMixer {
            data_bits,
            coeff_frac: coeff_bits - 1,
        }
    }

    /// Mixes one input sample with one NCO sample:
    /// `I = x·cos`, `Q = −x·sin`, each rounded back to the data width
    /// and saturated (a Q1.(c−1) coefficient of +1 would overflow by
    /// exactly one LSB pattern, so saturation is required, not merely
    /// defensive).
    #[inline]
    pub fn mix(&self, x: i64, cs: CosSin) -> Iq {
        let i = saturate(
            round_shift(x * i64::from(cs.cos), self.coeff_frac),
            self.data_bits,
        );
        let q = saturate(
            round_shift(x * i64::from(-cs.sin), self.coeff_frac),
            self.data_bits,
        );
        Iq { i, q }
    }

    /// Mixes a block of ADC samples into *separate* I and Q streams —
    /// the layout the downstream per-rail CIC block kernels consume.
    /// Bit-exact with per-sample [`FixedMixer::mix`]: the round-shift
    /// is inlined with its half-LSB constant hoisted (`coeff_frac ≥ 1`
    /// always, so the `shift == 0` case cannot arise).
    ///
    /// Both rails are produced in a *single* pass. An earlier version
    /// ran one pass per rail, which regressed below the per-sample
    /// path: each pass re-streamed `xs` and `lo` from memory (the
    /// block is megabytes at the ADC rate, far beyond L2), so the
    /// kernel paid the input-side memory traffic twice and the widened
    /// `x` could not be reused across rails in a register. The fused
    /// pass reads every input word once, shares the `i64` widening
    /// between the I and Q products, and writes through pre-sized
    /// output slices so the two stores per sample carry no capacity
    /// checks and the loop stays branch-free for autovectorisation.
    pub fn mix_block_split(
        &self,
        xs: &[i32],
        lo: &[CosSin],
        out_i: &mut Vec<i64>,
        out_q: &mut Vec<i64>,
    ) {
        assert_eq!(xs.len(), lo.len(), "sample/LO block length mismatch");
        let half = 1i64 << (self.coeff_frac - 1);
        let shift = self.coeff_frac;
        let top = ddc_dsp::fixed::max_signed(self.data_bits);
        let bot = ddc_dsp::fixed::min_signed(self.data_bits);
        let base_i = out_i.len();
        let base_q = out_q.len();
        out_i.resize(base_i + xs.len(), 0);
        out_q.resize(base_q + xs.len(), 0);
        let dst_i = &mut out_i[base_i..];
        let dst_q = &mut out_q[base_q..];
        for (((&x, cs), di), dq) in xs.iter().zip(lo).zip(dst_i).zip(dst_q) {
            let xw = i64::from(x);
            *di = ((xw * i64::from(cs.cos) + half) >> shift).clamp(bot, top);
            *dq = ((xw * i64::from(-cs.sin) + half) >> shift).clamp(bot, top);
        }
    }

    /// Data-bus width — exposed for the fused front-end kernel.
    pub(crate) fn data_bits(&self) -> u32 {
        self.data_bits
    }

    /// Coefficient fractional bits — exposed for the fused front-end
    /// kernel.
    pub(crate) fn coeff_frac(&self) -> u32 {
        self.coeff_frac
    }
}

/// Floating-point mixer used by the reference chain: `(x·cos, −x·sin)`.
#[inline]
pub fn mix_f64(x: f64, cos: f64, sin: f64) -> (f64, f64) {
    (x * cos, -(x * sin))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nco::{tuning_word, LutNco};
    use ddc_dsp::fixed::max_signed;
    use ddc_dsp::spectrum::periodogram_complex;
    use ddc_dsp::window::Window;
    use ddc_dsp::C64;

    #[test]
    fn unit_cos_passes_input_through() {
        let m = FixedMixer::new(12, 12);
        let cs = CosSin {
            cos: max_signed(12) as i32,
            sin: 0,
        };
        // cos = 2047/2048 ≈ 1: output within 1 LSB of input
        for x in [-2048i64, -100, 0, 100, 2047] {
            let out = m.mix(x, cs);
            assert!((out.i - x).abs() <= 1, "x={x} i={}", out.i);
            assert_eq!(out.q, 0);
        }
    }

    #[test]
    fn unit_sin_routes_negated_input_to_q() {
        let m = FixedMixer::new(12, 12);
        let cs = CosSin {
            cos: 0,
            sin: max_signed(12) as i32,
        };
        let out = m.mix(1000, cs);
        assert_eq!(out.i, 0);
        assert!((out.q + 1000).abs() <= 1);
    }

    #[test]
    fn mixer_output_never_exceeds_bus() {
        let m = FixedMixer::new(12, 12);
        let worst = CosSin {
            cos: -2048, // -1.0 exactly
            sin: -2048,
        };
        let out = m.mix(-2048, worst); // (-1)·(-1) = +1 → must saturate
        assert_eq!(out.i, 2047);
        assert_eq!(out.q, -2048);
    }

    #[test]
    fn mix_f64_shifts_tone_to_baseband() {
        // A real tone at f0 mixed with an NCO at f0 must produce a
        // complex signal whose strongest component is at DC.
        let fs = 64_512_000.0;
        let f0 = 12_000_000.0;
        let n = 4096;
        let word = tuning_word(f0, fs);
        let mut osc = crate::nco::RefOscillator::new(word);
        let sig: Vec<C64> = (0..n)
            .map(|t| {
                let x = (2.0 * std::f64::consts::PI * f0 * t as f64 / fs).cos();
                let (c, s) = osc.next();
                let (i, q) = mix_f64(x, c, s);
                C64::new(i, q)
            })
            .collect();
        let sp = periodogram_complex(&sig, fs, n, Window::BlackmanHarris);
        let (f_peak, _) = sp.peak();
        assert!(f_peak.abs() < 2.0 * fs / n as f64, "peak at {f_peak}");
    }

    #[test]
    fn fixed_mixer_matches_f64_within_quantization() {
        let fs = 64_512_000.0;
        let f0 = 7_000_000.0;
        let word = tuning_word(f0, fs);
        let mut nco = LutNco::new(word, 10, 16);
        let mut osc = crate::nco::RefOscillator::new(word);
        let m = FixedMixer::new(16, 16);
        let full = max_signed(16) as f64;
        let mut worst: f64 = 0.0;
        for t in 0..2000 {
            let xf = (2.0 * std::f64::consts::PI * 1_000_000.0 * t as f64 / fs).cos() * 0.9;
            let xi = (xf * full).round() as i64;
            let cs = nco.next();
            let (c, s) = osc.next();
            let fx = m.mix(xi, cs);
            let (fi, fq) = mix_f64(xf, c, s);
            worst = worst.max((fx.i as f64 / full - fi).abs());
            worst = worst.max((fx.q as f64 / full - fq).abs());
        }
        // LUT phase error dominates: bound by table step ≈ 2π/1024.
        assert!(worst < 8e-3, "worst {worst}");
    }

    #[test]
    fn zero_input_gives_zero_output() {
        let m = FixedMixer::new(12, 12);
        let out = m.mix(
            0,
            CosSin {
                cos: 1234,
                sin: -999,
            },
        );
        assert_eq!(out, Iq { i: 0, q: 0 });
    }
}
