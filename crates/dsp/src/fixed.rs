//! Two's-complement fixed-point arithmetic.
//!
//! Every architecture in the paper carries the DDC signal as a
//! two's-complement integer of some width (12 bits on the FPGA, 16 bits
//! on the Montium, 32-bit registers on the ARM). This module provides
//! the primitives those bit-true paths are built from:
//!
//! * width-limited saturation and wrap-around,
//! * rounding right-shifts (round-half-up, the behaviour of adding the
//!   half-LSB before truncation that hardware uses),
//! * quantization of `f64` values into Q-format integers,
//! * [`WrappingAccumulator`], the modular-arithmetic accumulator that
//!   makes CIC integrators correct even though they overflow
//!   constantly (Hogenauer's classic observation).

use std::fmt;

/// Maximum representable value of a signed two's-complement word of
/// `bits` bits (e.g. `127` for 8).
#[inline]
pub fn max_signed(bits: u32) -> i64 {
    assert!((2..=63).contains(&bits), "width {bits} out of range 2..=63");
    (1i64 << (bits - 1)) - 1
}

/// Minimum representable value of a signed two's-complement word of
/// `bits` bits (e.g. `-128` for 8).
#[inline]
pub fn min_signed(bits: u32) -> i64 {
    assert!((2..=63).contains(&bits), "width {bits} out of range 2..=63");
    -(1i64 << (bits - 1))
}

/// Saturates `x` into the range of a signed `bits`-bit word.
///
/// This is the behaviour of the quantizer at the FPGA FIR output in the
/// paper: "In case of saturation, the maximum or the minimum value is
/// returned" (§5.2.1).
#[inline]
pub fn saturate(x: i64, bits: u32) -> i64 {
    x.clamp(min_signed(bits), max_signed(bits))
}

/// Wraps `x` into a signed `bits`-bit word, discarding upper bits —
/// exactly what a hardware register of that width does on overflow.
#[inline]
pub fn wrap(x: i64, bits: u32) -> i64 {
    assert!((2..=63).contains(&bits), "width {bits} out of range 2..=63");
    let shift = 64 - bits;
    (x << shift) >> shift
}

/// True when `x` fits a signed `bits`-bit word without overflow.
#[inline]
pub fn fits(x: i64, bits: u32) -> bool {
    x >= min_signed(bits) && x <= max_signed(bits)
}

/// Rounding right-shift: divides by `2^shift` rounding half away from
/// zero-ward infinity (adds the half-LSB then truncates), matching the
/// "add ½ then floor" adder most DSP hardware implements.
///
/// `shift == 0` returns `x` unchanged.
#[inline]
pub fn round_shift(x: i64, shift: u32) -> i64 {
    if shift == 0 {
        return x;
    }
    assert!(shift < 63, "shift {shift} too large");
    (x + (1i64 << (shift - 1))) >> shift
}

/// Truncating right-shift (floor division by `2^shift`), the cheaper
/// hardware alternative to [`round_shift`].
#[inline]
pub fn trunc_shift(x: i64, shift: u32) -> i64 {
    if shift == 0 {
        x
    } else {
        x >> shift
    }
}

/// Rounding mode for [`quantize`] and friends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rounding {
    /// Round to nearest, ties away from zero (`f64::round`).
    Nearest,
    /// Round toward negative infinity (`f64::floor`).
    Floor,
    /// Round toward zero (`f64::trunc`).
    Truncate,
}

/// Quantizes a real value in `[-1, 1)` to a signed fixed-point integer
/// with `frac_bits` fractional bits, saturating at the `bits`-bit word
/// boundaries.
///
/// With `bits == 12, frac_bits == 11` this is the 12-bit ADC model used
/// for the FPGA datapath; with `bits == 16, frac_bits == 15` the Q1.15
/// format used on the Montium and the ARM.
#[inline]
pub fn quantize(x: f64, bits: u32, frac_bits: u32, mode: Rounding) -> i64 {
    let scaled = x * (1i64 << frac_bits) as f64;
    let v = match mode {
        Rounding::Nearest => scaled.round(),
        Rounding::Floor => scaled.floor(),
        Rounding::Truncate => scaled.trunc(),
    };
    // Clamp in f64 space first so the cast cannot overflow/UB even for
    // wildly out-of-range inputs.
    let hi = max_signed(bits) as f64;
    let lo = min_signed(bits) as f64;
    v.clamp(lo, hi) as i64
}

/// The largest `f64` below one half: [`round_to_i64`]'s addend, and
/// that of any vector kernel that rounds the same way.
pub const BELOW_HALF: f64 = 0.499_999_999_999_999_94;

/// Rounds half away from zero to an integer: exactly `x.round() as i64`
/// for every `f64`, including NaN (→ 0) and the saturating
/// out-of-range cases, without calling `f64::round`, which on x86-64
/// targets without SSE4.1 is an out-of-line library call.
#[inline]
pub fn round_to_i64(x: f64) -> i64 {
    // Add the largest double below one half, signed like x, and let
    // `as` truncate toward zero (saturating, NaN → 0). The addition
    // rounds to nearest-even, which lands on the next integer exactly
    // when |frac(x)| ≥ 0.5: at frac = 0.5 the exact sum sits 2^-54
    // below that integer, within half an ulp of it (a tie at |x| = 0.5,
    // broken toward the even 1.0); below 0.5 it sits at least one ulp
    // of x plus 2^-54 below, more than half an ulp of the sum. From
    // 2^52 on, x is an integer and the addend rounds away.
    (x + BELOW_HALF.copysign(x)) as i64
}

/// Converts a fixed-point integer with `frac_bits` fractional bits back
/// to `f64`.
#[inline]
pub fn to_f64(x: i64, frac_bits: u32) -> f64 {
    x as f64 / (1i64 << frac_bits) as f64
}

/// Saturating fixed-point multiply of two Q-format words: multiplies,
/// rounds away `frac_bits`, then saturates into `bits`.
///
/// This is the datapath of a hardware multiplier followed by a
/// quantizer (e.g. the mixer on the Montium: Q1.15 × Q1.15 → Q1.15).
#[inline]
pub fn mul_q(a: i64, b: i64, frac_bits: u32, bits: u32) -> i64 {
    saturate(round_shift(a * b, frac_bits), bits)
}

/// Saturating addition in a `bits`-bit word.
#[inline]
pub fn add_sat(a: i64, b: i64, bits: u32) -> i64 {
    saturate(a + b, bits)
}

/// A two's-complement accumulator of a fixed register width that wraps
/// on overflow — the building block of CIC integrator stages.
///
/// Hogenauer's CIC construction depends on modular arithmetic: the
/// integrators overflow continuously, and as long as (a) the register
/// width is at least `input_bits + N·log2(R·M)` and (b) the downstream
/// combs use the *same* modular arithmetic, the wrap-arounds cancel
/// exactly. `WrappingAccumulator` makes that contract explicit instead
/// of hiding it in `i64` overflow UB.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WrappingAccumulator {
    value: i64,
    bits: u32,
}

impl WrappingAccumulator {
    /// Creates a zeroed accumulator of `bits` register width.
    pub fn new(bits: u32) -> Self {
        assert!((2..=63).contains(&bits), "width {bits} out of range 2..=63");
        WrappingAccumulator { value: 0, bits }
    }

    /// Register width in bits.
    #[inline]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Current register contents (sign-extended to i64).
    #[inline]
    pub fn get(&self) -> i64 {
        self.value
    }

    /// Adds `x` modulo `2^bits` and returns the new register contents.
    #[inline]
    pub fn add(&mut self, x: i64) -> i64 {
        self.value = wrap(self.value.wrapping_add(x), self.bits);
        self.value
    }

    /// Subtracts `x` modulo `2^bits` and returns the result *without*
    /// storing it (comb stages subtract a delayed value but store the
    /// input, not the difference).
    #[inline]
    pub fn sub_from(&self, x: i64) -> i64 {
        wrap(x.wrapping_sub(self.value), self.bits)
    }

    /// Overwrites the register contents (wrapped into range).
    #[inline]
    pub fn set(&mut self, x: i64) {
        self.value = wrap(x, self.bits);
    }

    /// Resets the register to zero.
    #[inline]
    pub fn reset(&mut self) {
        self.value = 0;
    }
}

impl fmt::Display for WrappingAccumulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.value, self.bits)
    }
}

/// Counts the number of bit positions that differ between two words
/// masked to `bits` — the "toggle count" that activity-based power
/// estimators (PowerPlay, the custom ASIC estimate) integrate over time.
#[inline]
pub fn toggles(prev: i64, next: i64, bits: u32) -> u32 {
    let mask = if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    };
    (((prev ^ next) as u64) & mask).count_ones()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_of_common_widths() {
        assert_eq!(max_signed(12), 2047);
        assert_eq!(min_signed(12), -2048);
        assert_eq!(max_signed(16), 32767);
        assert_eq!(min_signed(16), -32768);
    }

    #[test]
    fn saturate_clamps_both_ends() {
        assert_eq!(saturate(5000, 12), 2047);
        assert_eq!(saturate(-5000, 12), -2048);
        assert_eq!(saturate(123, 12), 123);
    }

    #[test]
    fn round_to_i64_equals_round_then_cast() {
        let down = |x: f64| f64::from_bits(x.to_bits() - 1);
        let up = |x: f64| f64::from_bits(x.to_bits() + 1);
        let (p52, p63) = (2f64.powi(52), 2f64.powi(63));
        let mut cases = vec![
            0.0,
            0.5,
            down(0.5),
            up(0.5),
            1.5,
            2.5,
            down(1.0),
            p52 - 0.5,
            p52 + 0.5,
            p52 + 1.0,
            p52 - 1.5,
            down(p52),
            2f64.powi(53) + 2.0,
            p63,
            down(p63),
            up(p63),
            2f64.powi(64),
            1e300,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,
            f64::INFINITY,
        ];
        // Every half-integer and its neighbours over a small range,
        // and at the binade edges where the sum changes exponent.
        for k in 0..64 {
            let h = f64::from(k) + 0.5;
            cases.extend([h, down(h), up(h)]);
        }
        for e in 1..62 {
            let h = 2f64.powi(e) - 0.5;
            cases.extend([h, down(h), up(h)]);
        }
        // Random bit patterns and random values with fractional parts.
        let mut s = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..100_000 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            cases.push(f64::from_bits(s));
            cases.push((s >> 11) as f64 / 2f64.powi(40));
        }
        cases.extend(cases.clone().iter().map(|&x| -x));
        cases.push(f64::NAN);
        for x in cases {
            assert_eq!(round_to_i64(x), x.round() as i64, "x = {x:e}");
        }
    }

    #[test]
    fn wrap_is_modular() {
        // 12-bit: 2048 wraps to -2048, 4096 wraps to 0.
        assert_eq!(wrap(2048, 12), -2048);
        assert_eq!(wrap(4096, 12), 0);
        assert_eq!(wrap(-2049, 12), 2047);
        assert_eq!(wrap(2047, 12), 2047);
    }

    #[test]
    fn wrap_matches_iterated_addition() {
        let mut acc = WrappingAccumulator::new(8);
        let mut model: i64 = 0;
        for x in [100, 100, 100, -250, 77, 127, 127] {
            acc.add(x);
            model = wrap(model + x, 8);
            assert_eq!(acc.get(), model);
        }
    }

    #[test]
    fn round_shift_half_up() {
        assert_eq!(round_shift(5, 1), 3); // 2.5 -> 3
        assert_eq!(round_shift(4, 1), 2);
        assert_eq!(round_shift(-5, 1), -2); // -2.5 -> -2 (adds half then floors)
        assert_eq!(round_shift(7, 2), 2); // 1.75 -> 2
        assert_eq!(round_shift(42, 0), 42);
    }

    #[test]
    fn trunc_shift_floors() {
        assert_eq!(trunc_shift(5, 1), 2);
        assert_eq!(trunc_shift(-5, 1), -3);
        assert_eq!(trunc_shift(9, 0), 9);
    }

    #[test]
    fn quantize_full_scale() {
        // Q1.11 (12-bit): +1.0 saturates to 2047, -1.0 hits -2048 exactly.
        assert_eq!(quantize(1.0, 12, 11, Rounding::Nearest), 2047);
        assert_eq!(quantize(-1.0, 12, 11, Rounding::Nearest), -2048);
        assert_eq!(quantize(0.0, 12, 11, Rounding::Nearest), 0);
        assert_eq!(quantize(0.5, 12, 11, Rounding::Nearest), 1024);
    }

    #[test]
    fn quantize_rounding_modes() {
        // 0.3 * 2^11 = 614.4
        assert_eq!(quantize(0.3, 12, 11, Rounding::Nearest), 614);
        assert_eq!(quantize(0.3, 12, 11, Rounding::Floor), 614);
        assert_eq!(quantize(-0.3, 12, 11, Rounding::Floor), -615);
        assert_eq!(quantize(-0.3, 12, 11, Rounding::Truncate), -614);
    }

    #[test]
    fn quantize_roundtrip_error_bounded() {
        for k in -100..=100 {
            let x = k as f64 / 100.0 * 0.999;
            let q = quantize(x, 16, 15, Rounding::Nearest);
            let back = to_f64(q, 15);
            assert!((back - x).abs() <= 0.5 / 32768.0 + 1e-12, "x={x}");
        }
    }

    #[test]
    fn mul_q_unit_and_saturation() {
        let one = max_signed(16); // 0.99997 in Q1.15
        let x = 12345;
        // multiplying by ~1.0 returns ~x
        assert!((mul_q(x, one, 15, 16) - x).abs() <= 1);
        // -1.0 * -1.0 saturates (the classic Q-format corner case)
        let neg_one = min_signed(16);
        assert_eq!(mul_q(neg_one, neg_one, 15, 16), max_signed(16));
    }

    #[test]
    fn integrator_comb_cancellation_with_wraparound() {
        // An integrator followed by a differentiator must reproduce the
        // input even when the integrator register wraps: y[n] =
        // (acc[n]) - (acc[n-1]) = x[n] (mod 2^bits), and since |x| fits
        // the width, the modular difference is exact.
        let bits = 10;
        let mut acc = WrappingAccumulator::new(bits);
        let mut prev = 0i64;
        let inputs = [400i64, 450, -300, 500, 500, 500, -511, 12, 0, 37];
        for &x in &inputs {
            let s = acc.add(x);
            let diff = wrap(s.wrapping_sub(prev), bits);
            assert_eq!(diff, x);
            prev = s;
        }
    }

    #[test]
    fn toggles_counts_hamming_distance() {
        assert_eq!(toggles(0, 0, 12), 0);
        assert_eq!(toggles(0, -1, 12), 12);
        assert_eq!(toggles(0b1010, 0b0101, 4), 4);
        assert_eq!(toggles(0b1010, 0b1011, 12), 1);
        // sign bits beyond the mask are ignored
        assert_eq!(toggles(-1, -1, 12), 0);
    }

    #[test]
    fn fits_checks_range() {
        assert!(fits(2047, 12));
        assert!(!fits(2048, 12));
        assert!(fits(-2048, 12));
        assert!(!fits(-2049, 12));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn wrap_rejects_bad_width() {
        wrap(0, 1);
    }
}
