//! The GC4016 quad-DDC running the datasheet's GSM example (§3.1.2 of
//! the paper): four channels extracting four GSM carriers from one
//! 69.333 MSPS stream, at the published 115 mW/channel power point.
//!
//! ```text
//! cargo run --release --example gsm_gc4016
//! ```

use ddc_suite::arch_asic::gc4016::{Gc4016, Gc4016Config, Gc4016Model, OutputCombiner};
use ddc_suite::arch_model::{Architecture, TechnologyNode};
use ddc_suite::core::{DdcConfig, FixedDdc, FixedFormat};
use ddc_suite::dsp::firdes;
use ddc_suite::dsp::signal::{adc_quantize, Mix, MskCarrier, SampleSource, WhiteNoise};
use ddc_suite::dsp::window::{kaiser_beta, Window};

/// A software DDC matching the GC4016 GSM example's rates: 69.333 MSPS
/// in, ÷256 overall (CIC2 ÷16 × CIC5 ÷8 × FIR ÷2), 270.833 kHz out,
/// with a 63-tap channel filter passing one 200 kHz GSM channel.
fn gsm_software_config(tune_freq: f64, input_rate: f64) -> DdcConfig {
    let beta = kaiser_beta(70.0);
    // FIR input rate = 69.333 MSPS / 128 = 541.666 kHz; the GSM channel
    // is 200 kHz wide, so the passband edge sits at 100/541.666.
    let taps = firdes::lowpass(63, 100_000.0 / 541_666.0, Window::Kaiser(beta));
    DdcConfig {
        input_rate,
        tune_freq,
        cic1_order: 2,
        cic1_decim: 16,
        cic2_order: 5,
        cic2_decim: 8,
        fir_taps: taps,
        fir_decim: 2,
        format: FixedFormat::FPGA12,
    }
}

fn main() {
    let base = Gc4016Config::gsm_example();
    let fs = base.input_rate;
    println!(
        "GC4016: {} MSPS input, CIC5 ÷{} × CFIR ÷2 × PFIR ÷2 = ÷{}, output {:.0} Hz",
        fs / 1e6,
        base.cic_decim,
        base.total_decimation(),
        base.output_rate()
    );

    // Four GSM carriers, 800 kHz apart, plus noise.
    let carriers: Vec<f64> = (0..4).map(|k| 12.0e6 + k as f64 * 800_000.0).collect();
    let mut antenna = Mix(
        Mix(
            MskCarrier::new(carriers[0], 270_833.0, fs, 0.22, 1),
            MskCarrier::new(carriers[1], 270_833.0, fs, 0.22, 2),
        ),
        Mix(
            Mix(
                MskCarrier::new(carriers[2], 270_833.0, fs, 0.22, 3),
                MskCarrier::new(carriers[3], 270_833.0, fs, 0.22, 4),
            ),
            WhiteNoise::new(9, 0.02),
        ),
    );
    let adc = adc_quantize(&antenna.take_vec(256 * 2000), 14);

    // One chip, four channels, one per carrier.
    let configs: Vec<Gc4016Config> = carriers
        .iter()
        .map(|&f| Gc4016Config {
            tune_freq: f,
            ..base.clone()
        })
        .collect();
    let mut chip = Gc4016::new(configs, OutputCombiner::Multiplex).expect("valid quad config");

    let mut outputs = vec![Vec::new(); 4];
    for &x in &adc {
        for (ch, o) in chip.process(i64::from(x)).into_iter().enumerate() {
            if let Some(iq) = o {
                outputs[ch].push(iq);
            }
        }
    }
    for (ch, (f, out)) in carriers.iter().zip(&outputs).enumerate() {
        let rms = (out
            .iter()
            .map(|z| (z.i * z.i + z.q * z.q) as f64)
            .sum::<f64>()
            / out.len() as f64)
            .sqrt();
        println!(
            "channel {ch}: tuned {:.1} MHz → {} outputs, RMS {:.0} LSB",
            f / 1e6,
            out.len(),
            rms
        );
    }

    // The same four carriers in software: one FixedDdc per carrier,
    // each a fixed datapath like a GC4016 channel, identical ÷256
    // structure.
    let soft_cfgs: Vec<DdcConfig> = carriers
        .iter()
        .map(|&f| gsm_software_config(f, fs))
        .collect();
    println!(
        "\nFixedDdc: {} channels, CIC2 ÷16 × CIC5 ÷8 × FIR ÷2 = ÷{}, output {:.0} Hz",
        soft_cfgs.len(),
        soft_cfgs[0].total_decimation(),
        soft_cfgs[0].output_rate()
    );
    for (ch, (f, cfg)) in carriers.iter().zip(soft_cfgs).enumerate() {
        let out = FixedDdc::new(cfg).process_block(&adc);
        let rms = (out
            .iter()
            .map(|z| (z.i * z.i + z.q * z.q) as f64)
            .sum::<f64>()
            / out.len() as f64)
            .sqrt();
        println!(
            "software channel {ch}: tuned {:.1} MHz → {} outputs, RMS {:.0} LSB",
            f / 1e6,
            out.len(),
            rms
        );
    }

    // The power story that anchors the paper's ASIC row.
    let one = Gc4016Model::paper_reference();
    let four = Gc4016Model::new(80.0e6, 4);
    println!(
        "\npower: {} per channel at 80 MHz/2.5 V (datasheet); {} with all four channels",
        one.power().total(),
        four.power().total()
    );
    println!(
        "scaled to 0.13 µm/1.2 V per the paper's C·f·V² law: {} per channel (paper: 13.8 mW)",
        one.power_scaled_to(TechnologyNode::UM_130)
    );
}
