//! Integration: the Table 1 rate structure holds end-to-end across
//! every implementation of the chain.

use ddc_suite::arch_montium::mapping::run_ddc as run_montium;
use ddc_suite::core::{DdcConfig, FixedDdc, ReferenceDdc};
use ddc_suite::dsp::signal::{adc_quantize, SampleSource, WhiteNoise};

const BLOCKS: usize = 5;

fn analog(n: usize) -> Vec<f64> {
    WhiteNoise::new(3, 0.8).take_vec(n)
}

#[test]
fn every_implementation_produces_one_output_per_2688_inputs() {
    let n = 2688 * BLOCKS;
    let sig = analog(n);

    let mut reference = ReferenceDdc::new(DdcConfig::drm(10e6));
    assert_eq!(reference.process_block(&sig).len(), BLOCKS);

    let mut fixed = FixedDdc::new(DdcConfig::drm(10e6));
    assert_eq!(fixed.process_block(&adc_quantize(&sig, 12)).len(), BLOCKS);

    let montium = run_montium(DdcConfig::drm_montium(10e6), &adc_quantize(&sig, 16), 0);
    assert_eq!(montium.outputs.len(), BLOCKS);
}

#[test]
fn stage_rates_are_the_paper_values() {
    let cfg = DdcConfig::drm(0.0);
    let [r_in, r_cic2, r_fir, r_out] = cfg.stage_rates();
    assert_eq!(r_in, 64_512_000.0);
    assert_eq!(r_cic2, 4_032_000.0);
    assert_eq!(r_fir, 192_000.0);
    assert_eq!(r_out, 24_000.0);
}

#[test]
fn partial_blocks_withhold_output() {
    // 2687 inputs: no output yet; the 2688th completes it.
    let sig = analog(2688);
    let adc = adc_quantize(&sig, 12);
    let mut fixed = FixedDdc::new(DdcConfig::drm(10e6));
    let first = fixed.process_block(&adc[..2687]);
    assert!(first.is_empty());
    let rest = fixed.process_block(&adc[2687..]);
    assert_eq!(rest.len(), 1);
}

#[test]
fn gc4016_equivalent_matches_reference_rate() {
    use ddc_suite::arch_asic::gc4016::{Gc4016Channel, Gc4016Config};
    let cfg = Gc4016Config::drm_equivalent(10e6);
    assert_eq!(cfg.total_decimation(), 2688);
    let mut ch = Gc4016Channel::new(cfg);
    let adc = adc_quantize(&analog(2688 * BLOCKS), 14);
    assert_eq!(ch.process_block(&adc).len(), BLOCKS);
}
