//! Integration: the architecture simulators compute the *same DDC*.
//!
//! The Montium tile simulator must match the 16-bit fixed chain
//! bit-for-bit; the GPP assembly must match its golden integer model
//! bit-for-bit; the multi-channel farm must match the sequential chain
//! bit-for-bit; and every bit-true path must track the floating-point
//! reference within its quantization budget.

use ddc_suite::arch_gpp::golden::{drm_coefficients, GppDdc};
use ddc_suite::arch_gpp::programs::{optimized, run_ddc as run_gpp, unoptimized};
use ddc_suite::arch_montium::mapping::run_ddc as run_montium;
use ddc_suite::core::nco::tuning_word;
use ddc_suite::core::{DdcConfig, DdcFarm, FixedDdc, ReferenceDdc};
use ddc_suite::dsp::signal::{adc_quantize, Mix, SampleSource, Tone, WhiteNoise};
use ddc_suite::dsp::stats::ser_db;

const FS: f64 = 64_512_000.0;
const F_TUNE: f64 = 10.0e6;

fn stimulus(n: usize) -> Vec<f64> {
    let mut src = Mix(
        Mix(
            Tone::new(F_TUNE + 3_500.0, FS, 0.4, 0.1),
            Tone::new(F_TUNE - 2_000.0, FS, 0.3, 1.2),
        ),
        WhiteNoise::new(11, 0.15),
    );
    src.take_vec(n)
}

#[test]
fn montium_simulator_equals_fixed_chain_bit_for_bit() {
    let sig = stimulus(2688 * 12);
    let adc = adc_quantize(&sig, 16);
    let cfg = DdcConfig::drm_montium(F_TUNE);
    let mut fixed = FixedDdc::new(cfg.clone());
    let expect = fixed.process_block(&adc);
    let run = run_montium(cfg, &adc, 0);
    assert_eq!(run.outputs, expect);
    assert_eq!(expect.len(), 12);
}

#[test]
fn gpp_programs_equal_golden_model_bit_for_bit() {
    let sig = stimulus(2688 * 6);
    let adc = adc_quantize(&sig, 12);
    let word = tuning_word(F_TUNE, FS);
    let coeffs = drm_coefficients();
    let mut golden = GppDdc::new(word, &coeffs);
    let expect = golden.process_block(&adc);
    let (un, _) = run_gpp(unoptimized(), word, &coeffs, &adc);
    let (opt, _) = run_gpp(optimized(), word, &coeffs, &adc);
    assert_eq!(un, expect);
    assert_eq!(opt, expect);
}

#[test]
fn farm_equals_sequential_bit_for_bit() {
    let sig = stimulus(2688 * 7 + 531);
    let adc = adc_quantize(&sig, 12);

    // four farm channels at different tunings each match their
    // individually-run counterpart
    let cfgs: Vec<DdcConfig> = [5e6, 10e6, 15e6, 20e6]
        .iter()
        .map(|&f| DdcConfig::drm(f))
        .collect();
    let mut farm = DdcFarm::new(cfgs.clone());
    let par = farm.submit_block(&adc);
    farm.shutdown();
    for (cfg, got) in cfgs.iter().zip(&par) {
        let mut solo = FixedDdc::new(cfg.clone());
        assert_eq!(*got, solo.process_block(&adc));
    }
}

#[test]
fn all_bit_true_paths_track_the_reference_chain() {
    let sig = stimulus(2688 * 150);

    // 12-bit FPGA path.
    let cfg12 = DdcConfig::drm(F_TUNE);
    let mut reference = ReferenceDdc::with_table_nco(cfg12.clone());
    let ref_out = reference.process_block(&sig);
    let mut fixed = FixedDdc::new(cfg12);
    let raw = fixed.process_block(&adc_quantize(&sig, 12));
    let fx_out = fixed.to_c64(&raw);
    let skip = 32;
    let r: Vec<f64> = ref_out[skip..].iter().map(|z| z.re).collect();
    let f: Vec<f64> = fx_out[skip..].iter().map(|z| z.re).collect();
    let ser12 = ser_db(&r, &f);
    assert!(ser12 > 44.0, "12-bit path SER {ser12} dB");

    // 16-bit Montium path (through the tile simulator).
    let cfg16 = DdcConfig::drm_montium(F_TUNE);
    let mut reference16 = ReferenceDdc::with_table_nco(cfg16.clone());
    let ref16 = reference16.process_block(&sig);
    let run = run_montium(cfg16.clone(), &adc_quantize(&sig, 16), 0);
    let gain = {
        let probe = FixedDdc::new(cfg16);
        probe.nominal_gain()
    };
    let scale = 1.0 / (32768.0 * gain);
    let m: Vec<f64> = run.outputs[skip..]
        .iter()
        .map(|z| z.i as f64 * scale)
        .collect();
    let r16: Vec<f64> = ref16[skip..].iter().map(|z| z.re).collect();
    let ser16 = ser_db(&r16, &m);
    assert!(ser16 > 55.0, "16-bit path SER {ser16} dB");
    assert!(ser16 > ser12, "wider datapath must be cleaner");
}

#[test]
fn gpp_model_tracks_reference_within_its_budget() {
    // The GPP path trades two LSBs at the CIC5 input for 32-bit
    // registers; it still has to track the ideal chain usefully.
    let sig = stimulus(2688 * 100);
    let cfg = DdcConfig::drm(F_TUNE);
    let mut reference = ReferenceDdc::with_table_nco(cfg);
    let ref_out = reference.process_block(&sig);
    let mut gpp = GppDdc::new(tuning_word(F_TUNE, FS), &drm_coefficients());
    let out = gpp.process_block(&adc_quantize(&sig, 12));
    let gain = 21f64.powi(5) / 2f64.powi(22);
    let skip = 32;
    let g: Vec<f64> = out[skip..]
        .iter()
        .map(|&v| v as f64 / 2048.0 / gain)
        .collect();
    let r: Vec<f64> = ref_out[skip..].iter().map(|z| z.re).collect();
    let ser = ser_db(&r, &g);
    assert!(ser > 40.0, "GPP path SER {ser} dB");
}
