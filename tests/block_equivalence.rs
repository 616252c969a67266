//! Property-based equivalence: every block kernel must be bit-exact
//! with its per-sample form, for arbitrary input lengths and arbitrary
//! chunk boundaries (including splits in the middle of a decimation
//! group and mid-FIR-RAM wraparound).

use ddc_suite::core::chain::{FixedDdc, ReferenceDdc};
use ddc_suite::core::cic::CicDecimator;
use ddc_suite::core::fir::{PolyphaseFir, SequentialFir};
use ddc_suite::core::frontend::FusedFrontEnd;
use ddc_suite::core::mixer::FixedMixer;
use ddc_suite::core::nco::{CosSin, LutNco};
use ddc_suite::core::params::DdcConfig;
use proptest::prelude::*;

proptest! {
    /// CIC decimator: block output and post-block state match the
    /// per-sample path for any order/decimation/differential delay.
    #[test]
    fn cic_block_equals_per_sample(
        order in 1u32..=6,
        decim in 1u32..=24,
        diff_delay in 1u32..=2,
        input in prop::collection::vec(-2048i64..=2047, 0..400),
        chunk in 1usize..64,
    ) {
        let mut per_sample = CicDecimator::with_diff_delay(order, decim, diff_delay, 12, 12);
        let mut blocked = per_sample.clone();
        let mut expect = Vec::new();
        for &x in &input {
            if let Some(y) = per_sample.process(x) {
                expect.push(y);
            }
        }
        let mut got = Vec::new();
        for piece in input.chunks(chunk) {
            blocked.process_block(piece, &mut got);
        }
        prop_assert_eq!(&got, &expect);
        // Residual state must agree: continue both over one more group.
        let tail: Vec<i64> = (0..(decim * diff_delay) as i64).map(|k| (k * 131) % 2048).collect();
        let mut expect_tail = Vec::new();
        for &x in &tail {
            if let Some(y) = per_sample.process(x) {
                expect_tail.push(y);
            }
        }
        let mut got_tail = Vec::new();
        blocked.process_block(&tail, &mut got_tail);
        prop_assert_eq!(got_tail, expect_tail);
    }

    /// Sequential (integer) FIR: block output matches per-sample for
    /// any tap count / decimation, including decimation longer than
    /// the delay line.
    #[test]
    fn sequential_fir_block_equals_per_sample(
        coeffs in prop::collection::vec(-1024i32..=1023, 1..140),
        decim in 1u32..=12,
        input in prop::collection::vec(-2048i64..=2047, 0..600),
        chunk in 1usize..97,
    ) {
        let mut per_sample = SequentialFir::new(&coeffs, decim, 12, 12, 45);
        let mut blocked = per_sample.clone();
        let expect: Vec<i64> = input.iter().filter_map(|&x| per_sample.process(x)).collect();
        let mut got = Vec::new();
        for piece in input.chunks(chunk) {
            blocked.process_block(piece, &mut got);
        }
        prop_assert_eq!(got, expect);
    }

    /// Every specialised FIR kernel, forced via `FirKernelSel`, must be
    /// bit-exact with the per-sample reference: across randomly-sized
    /// chunks (the carried phase crosses every block boundary),
    /// optionally symmetrized taps (engaging the symmetric fold and —
    /// at 125 taps — the const-generic instantiations), decimations
    /// longer than the delay line, and a whole-stream single block
    /// (one input run strictly longer than `taps()`, exercising the
    /// history double-buffer wrap). Forcing `Simd` runs the AVX2 kernel
    /// on CPUs that have it and the scalar flat fallback elsewhere;
    /// the other three selections keep the scalar kernels covered on
    /// every CPU.
    #[test]
    fn every_fir_kernel_variant_equals_per_sample(
        coeffs in prop::collection::vec(-1024i32..=1023, 1..140),
        symmetric in any::<bool>(),
        decim in 1u32..=160,
        input in prop::collection::vec(-2048i64..=2047, 150..600),
        chunks in prop::collection::vec(1usize..180, 1..12),
    ) {
        use ddc_suite::core::fir::FirKernelSel;
        let mut coeffs = coeffs;
        if symmetric {
            let n = coeffs.len();
            for j in 0..n / 2 {
                coeffs[n - 1 - j] = coeffs[j];
            }
        }
        let mut reference = SequentialFir::new(&coeffs, decim, 12, 12, 45);
        let expect: Vec<i64> = input.iter().filter_map(|&x| reference.process(x)).collect();
        for sel in [
            FirKernelSel::Generic,
            FirKernelSel::Flat,
            FirKernelSel::Sym,
            FirKernelSel::Simd,
        ] {
            // Randomly-sized chunks: phase carry at every boundary.
            let mut blocked = SequentialFir::with_kernel(&coeffs, decim, 12, 12, 45, sel);
            let mut got = Vec::new();
            let (mut i, mut c) = (0, 0);
            while i < input.len() {
                let take = chunks[c % chunks.len()].min(input.len() - i);
                blocked.process_block(&input[i..i + take], &mut got);
                i += take;
                c += 1;
            }
            prop_assert_eq!(
                &got, &expect,
                "kernel {:?} (runs as {}) diverged on chunked input",
                sel, blocked.kernel_label()
            );
            // Whole stream as one block: a single run longer than the
            // delay line (input is at least 150 samples, taps at most
            // 139), so the history fast-forward path must engage.
            let mut whole = SequentialFir::with_kernel(&coeffs, decim, 12, 12, 45, sel);
            let mut got_whole = Vec::new();
            whole.process_block(&input, &mut got_whole);
            prop_assert_eq!(
                &got_whole, &expect,
                "kernel {:?} (runs as {}) diverged on a single whole-stream block",
                sel, whole.kernel_label()
            );
        }
    }

    /// Polyphase (f64) FIR: f64 addition is order-sensitive, so exact
    /// bit equality proves the block path preserves the per-sample
    /// accumulation order.
    #[test]
    fn polyphase_fir_block_equals_per_sample(
        taps in prop::collection::vec(-0.5f64..0.5, 1..60),
        decim in 1u32..=10,
        input in prop::collection::vec(-1.0f64..1.0, 0..400),
        chunk in 1usize..53,
    ) {
        let mut per_sample = PolyphaseFir::new(&taps, decim);
        let mut blocked = per_sample.clone();
        let expect: Vec<f64> = input.iter().filter_map(|&x| per_sample.process(x)).collect();
        let mut got = Vec::new();
        for piece in input.chunks(chunk) {
            blocked.process_block(piece, &mut got);
        }
        prop_assert_eq!(got.len(), expect.len());
        for (k, (a, b)) in got.iter().zip(&expect).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "output {} diverged", k);
        }
    }

    /// LUT NCO: fill_block equals repeated next() for any tuning word,
    /// across an arbitrary split of the run.
    #[test]
    fn nco_fill_block_equals_next(
        word in any::<u32>(),
        n in 0usize..500,
        split_frac in 0.0f64..1.0,
    ) {
        let mut per_sample = LutNco::new(word, 10, 12);
        let mut blocked = per_sample.clone();
        let expect: Vec<CosSin> = (0..n).map(|_| per_sample.next()).collect();
        let split = ((n as f64) * split_frac) as usize;
        let mut got = Vec::new();
        blocked.fill_block(split, &mut got);
        blocked.fill_block(n - split, &mut got);
        prop_assert_eq!(got, expect);
        prop_assert_eq!(blocked.phase(), per_sample.phase());
    }

    /// Fused front end: the single-pass NCO→mixer→CIC1 kernel equals
    /// the staged per-sample chain for any tuning word, CIC order (the
    /// order-2 case exercises the fused fast path, other orders the
    /// fallback), decimation and chunking of the input.
    #[test]
    fn fused_front_end_equals_staged(
        word in any::<u32>(),
        order in 1u32..=5,
        decim in 1u32..=24,
        input in prop::collection::vec(-2048i32..=2047, 0..500),
        chunk in 1usize..97,
    ) {
        let mut nco = LutNco::new(word, 10, 12);
        let mixer = FixedMixer::new(12, 12);
        let mut cic_i = CicDecimator::new(order, decim, 12, 12);
        let mut cic_q = cic_i.clone();
        let mut fused = FusedFrontEnd::from_parts(nco.clone(), mixer, cic_i.clone(), cic_q.clone());

        let mut expect_i = Vec::new();
        let mut expect_q = Vec::new();
        for &x in &input {
            let cs = nco.next();
            let m = mixer.mix(i64::from(x), cs);
            if let Some(y) = cic_i.process(m.i) {
                expect_i.push(y);
            }
            if let Some(y) = cic_q.process(m.q) {
                expect_q.push(y);
            }
        }

        let mut got_i = Vec::new();
        let mut got_q = Vec::new();
        for piece in input.chunks(chunk) {
            fused.process_block(piece, &mut got_i, &mut got_q);
        }
        prop_assert_eq!(&got_i, &expect_i);
        prop_assert_eq!(&got_q, &expect_q);

        // Residual state (NCO phase, integrators, combs, group phase)
        // must also agree: run one more decimation group through both.
        let tail: Vec<i32> = (0..decim as i32).map(|k| (k * 97) % 2048).collect();
        let mut expect_ti = Vec::new();
        let mut expect_tq = Vec::new();
        for &x in &tail {
            let cs = nco.next();
            let m = mixer.mix(i64::from(x), cs);
            if let Some(y) = cic_i.process(m.i) {
                expect_ti.push(y);
            }
            if let Some(y) = cic_q.process(m.q) {
                expect_tq.push(y);
            }
        }
        let mut got_ti = Vec::new();
        let mut got_tq = Vec::new();
        fused.process_block(&tail, &mut got_ti, &mut got_tq);
        prop_assert_eq!(got_ti, expect_ti);
        prop_assert_eq!(got_tq, expect_tq);
    }

    /// Mixer: the split block form equals per-sample mixing.
    #[test]
    fn mixer_block_equals_per_sample(
        word in any::<u32>(),
        input in prop::collection::vec(-2048i32..=2047, 0..400),
    ) {
        let mixer = FixedMixer::new(12, 12);
        let mut nco = LutNco::new(word, 10, 12);
        let mut lo = Vec::new();
        nco.fill_block(input.len(), &mut lo);
        let mut out_i = Vec::new();
        let mut out_q = Vec::new();
        mixer.mix_block_split(&input, &lo, &mut out_i, &mut out_q);
        for (k, (&x, cs)) in input.iter().zip(&lo).enumerate() {
            let m = mixer.mix(i64::from(x), *cs);
            prop_assert_eq!(m.i, out_i[k]);
            prop_assert_eq!(m.q, out_q[k]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Full fixed-point chain: process_into over arbitrary chunkings
    /// equals the per-sample path, output-for-output.
    #[test]
    fn fixed_ddc_block_equals_per_sample(
        tune_mhz in 1.0f64..30.0,
        input in prop::collection::vec(-2048i32..=2047, 0..8000),
        chunk in 1usize..3000,
    ) {
        let cfg = DdcConfig::drm(tune_mhz * 1e6);
        let mut per_sample = FixedDdc::new(cfg.clone());
        let mut expect = Vec::new();
        for &x in &input {
            if let Some(z) = per_sample.process(i64::from(x)) {
                expect.push(z);
            }
        }
        let mut blocked = FixedDdc::new(cfg);
        let mut got = Vec::new();
        for piece in input.chunks(chunk) {
            blocked.process_into(piece, &mut got);
        }
        prop_assert_eq!(got, expect);
    }

    /// Full floating-point reference chain: block path preserves every
    /// f64 operation order (bit-for-bit output equality).
    #[test]
    fn reference_ddc_block_equals_per_sample(
        tune_mhz in 1.0f64..30.0,
        input in prop::collection::vec(-1.0f64..1.0, 0..8000),
        chunk in 1usize..3000,
    ) {
        let cfg = DdcConfig::drm(tune_mhz * 1e6);
        let mut per_sample = ReferenceDdc::new(cfg.clone());
        let mut expect = Vec::new();
        for &x in &input {
            if let Some(z) = per_sample.process(x) {
                expect.push(z);
            }
        }
        let mut blocked = ReferenceDdc::new(cfg);
        let mut got = Vec::new();
        for piece in input.chunks(chunk) {
            blocked.process_into(piece, &mut got);
        }
        prop_assert_eq!(got.len(), expect.len());
        for (k, (a, b)) in got.iter().zip(&expect).enumerate() {
            prop_assert_eq!(a.re.to_bits(), b.re.to_bits(), "I diverged at {}", k);
            prop_assert_eq!(a.im.to_bits(), b.im.to_bits(), "Q diverged at {}", k);
        }
    }
}
