//! Criterion benches for the full DDC chains: how many simulated
//! MSPS the host sustains for the reference, bit-true and
//! multi-channel variants.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ddc_core::engine::DdcFarm;
use ddc_core::params::DdcConfig;
use ddc_core::{FixedDdc, ReferenceDdc};
use ddc_dsp::signal::{adc_quantize, SampleSource, Tone};
use std::hint::black_box;

const BLOCK: usize = 2688 * 8;

fn analog() -> Vec<f64> {
    Tone::new(10_003_000.0, 64_512_000.0, 0.6, 0.0).take_vec(BLOCK)
}

fn bench_chains(c: &mut Criterion) {
    let sig = analog();
    let adc12 = adc_quantize(&sig, 12);
    let mut g = c.benchmark_group("chain");
    g.throughput(Throughput::Elements(BLOCK as u64));
    g.sample_size(20);
    g.bench_function("reference_f64", |b| {
        let mut ddc = ReferenceDdc::new(DdcConfig::drm(10e6));
        b.iter(|| black_box(ddc.process_block(&sig).len()))
    });
    g.bench_function("fixed_12bit", |b| {
        let mut ddc = FixedDdc::new(DdcConfig::drm(10e6));
        b.iter(|| black_box(ddc.process_block(&adc12).len()))
    });
    g.bench_function("fixed_12bit_with_probes", |b| {
        let mut ddc = FixedDdc::new(DdcConfig::drm(10e6)).with_activity();
        b.iter(|| black_box(ddc.process_block(&adc12).len()))
    });
    g.finish();
}

fn bench_channels(c: &mut Criterion) {
    let sig = analog();
    let adc12 = adc_quantize(&sig, 12);
    let mut g = c.benchmark_group("multichannel");
    // throughput counts total channel-samples processed
    g.sample_size(15);
    for n in [1usize, 2, 4] {
        g.throughput(Throughput::Elements((BLOCK * n) as u64));
        g.bench_function(format!("farm_{n}ch"), |b| {
            let cfgs: Vec<DdcConfig> = (0..n)
                .map(|k| DdcConfig::drm(5e6 + k as f64 * 5e6))
                .collect();
            // Persistent farm: the worker pool is spawned once and
            // reused across iterations, which is the engine's point.
            let mut farm = DdcFarm::new(cfgs);
            b.iter(|| black_box(farm.submit_block(&adc12).len()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_chains, bench_channels);
criterion_main!(benches);
