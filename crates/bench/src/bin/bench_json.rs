//! Machine-readable kernel benchmark baseline.
//!
//! Measures every DDC stage (and the assembled fixed-point chain) in
//! both its per-sample and its block-kernel form, in the same process
//! and on the same stimulus, and writes the resulting samples/second
//! and block-vs-per-sample speedups to `BENCH_kernels.json` in the
//! current directory.
//!
//! ```text
//! cargo run -p ddc-bench --release --bin bench_json
//! ```
//!
//! The JSON is a stable, diff-able artifact: commit it to record the
//! baseline, re-run to compare after kernel changes.

use ddc_core::chain::FixedDdc;
use ddc_core::cic::CicDecimator;
use ddc_core::fir::SequentialFir;
use ddc_core::frontend::FusedFrontEnd;
use ddc_core::mixer::FixedMixer;
use ddc_core::nco::{CosSin, LutNco};
use ddc_core::params::DdcConfig;
use ddc_core::spec::{ChainSpec, DRM_TOTAL_DECIMATION};
use ddc_core::{chain_metrics_for, MetricsHandle};
use ddc_dsp::firdes::quantize_taps;
use ddc_dsp::signal::{adc_quantize, Mix, SampleSource, Tone, WhiteNoise};
use std::hint::black_box;
use std::time::Instant;

/// One stage's measurement: throughput of the per-sample path and the
/// block path over the identical stimulus. Service-level stages (like
/// the TCP loopback) have no meaningful per-sample form and emit only
/// `block_msps` — the gate script skips metrics that are absent.
struct StageResult {
    name: String,
    per_sample_msps: Option<f64>,
    block_msps: f64,
    /// Extra scalar fields emitted verbatim into the stage's JSON
    /// object (the telemetry-overhead stage carries its ratio here).
    extra: Vec<(&'static str, f64)>,
}

impl StageResult {
    fn speedup(&self) -> Option<f64> {
        self.per_sample_msps.map(|p| self.block_msps / p)
    }
}

/// Runs `f` (which consumes `samples_per_call` input samples per call)
/// repeatedly for at least 250 ms after a warm-up, returning throughput
/// in samples/second.
fn measure<F: FnMut()>(samples_per_call: usize, mut f: F) -> f64 {
    f();
    f();
    let mut calls = 0u64;
    let start = Instant::now();
    loop {
        f();
        calls += 1;
        if start.elapsed().as_secs_f64() >= 0.25 && calls >= 3 {
            break;
        }
    }
    samples_per_call as f64 * calls as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let cfg = DdcConfig::drm(10e6);
    let f = cfg.format;
    let fs = cfg.input_rate;

    // Stimulus: an in-band tone plus noise, quantized to the ADC width,
    // long enough that the chain produces hundreds of output words.
    let n = DRM_TOTAL_DECIMATION as usize * 256;
    let mut src = Mix(
        Tone::new(10e6 + 3_000.0, fs, 0.6, 0.1),
        WhiteNoise::new(29, 0.2),
    );
    let analog = src.take_vec(n);
    let adc = adc_quantize(&analog, f.data_bits);
    let adc_i64: Vec<i64> = adc.iter().map(|&x| i64::from(x)).collect();

    let mut results: Vec<StageResult> = Vec::new();

    // --- NCO ------------------------------------------------------
    {
        // As with the mixer below, both paths store their results so
        // the comparison is output-for-output, not registers vs memory.
        let mut nco = LutNco::new(cfg.tuning_word(), f.lut_addr_bits, f.coeff_bits);
        let mut lo: Vec<CosSin> = Vec::with_capacity(n);
        let per = measure(n, || {
            lo.clear();
            for _ in 0..n {
                lo.push(nco.next());
            }
            black_box(lo.len());
        });
        let mut nco_b = LutNco::new(cfg.tuning_word(), f.lut_addr_bits, f.coeff_bits);
        let blk = measure(n, || {
            lo.clear();
            nco_b.fill_block(n, &mut lo);
            black_box(lo.len());
        });
        results.push(StageResult {
            name: "nco_lut".to_string(),
            per_sample_msps: Some(per / 1e6),
            block_msps: blk / 1e6,
            extra: Vec::new(),
        });
    }

    // --- Mixer ----------------------------------------------------
    {
        let mixer = FixedMixer::new(f.data_bits, f.coeff_bits);
        let mut nco = LutNco::new(cfg.tuning_word(), f.lut_addr_bits, f.coeff_bits);
        let mut lo: Vec<CosSin> = Vec::with_capacity(n);
        nco.fill_block(n, &mut lo);
        // Both paths write their I/Q results to memory: an earlier
        // version XOR-accumulated the per-sample results in a register,
        // which made the per-sample path look faster than any block
        // kernel that has to store 16 bytes per sample.
        let mut out_i = Vec::with_capacity(n);
        let mut out_q = Vec::with_capacity(n);
        let per = measure(n, || {
            out_i.clear();
            out_q.clear();
            for (&x, cs) in adc_i64.iter().zip(&lo) {
                let m = mixer.mix(x, *cs);
                out_i.push(m.i);
                out_q.push(m.q);
            }
            black_box(out_i.len() + out_q.len());
        });
        let blk = measure(n, || {
            out_i.clear();
            out_q.clear();
            mixer.mix_block_split(&adc, &lo, &mut out_i, &mut out_q);
            black_box(out_i.len());
        });
        results.push(StageResult {
            name: "mixer".to_string(),
            per_sample_msps: Some(per / 1e6),
            block_msps: blk / 1e6,
            extra: Vec::new(),
        });
    }

    // --- Fused front end (NCO → mixer → CIC1, single pass) --------
    {
        let mk_cic = || CicDecimator::new(cfg.cic1_order, cfg.cic1_decim, f.data_bits, f.data_bits);
        let mut nco = LutNco::new(cfg.tuning_word(), f.lut_addr_bits, f.coeff_bits);
        let mixer = FixedMixer::new(f.data_bits, f.coeff_bits);
        let mut cic_i = mk_cic();
        let mut cic_q = mk_cic();
        let mut out_i = Vec::with_capacity(n / cfg.cic1_decim as usize + 1);
        let mut out_q = Vec::with_capacity(n / cfg.cic1_decim as usize + 1);
        // Per-sample form: the staged chain, one sample at a time
        // through three stage calls.
        let per = measure(n, || {
            out_i.clear();
            out_q.clear();
            for &x in &adc {
                let cs = nco.next();
                let m = mixer.mix(i64::from(x), cs);
                if let Some(y) = cic_i.process(m.i) {
                    out_i.push(y);
                }
                if let Some(y) = cic_q.process(m.q) {
                    out_q.push(y);
                }
            }
            black_box(out_i.len() + out_q.len());
        });
        let mut fe = FusedFrontEnd::new(&cfg);
        let blk = measure(n, || {
            out_i.clear();
            out_q.clear();
            fe.process_block(&adc, &mut out_i, &mut out_q);
            black_box(out_i.len() + out_q.len());
        });
        results.push(StageResult {
            name: "fused_frontend".to_string(),
            per_sample_msps: Some(per / 1e6),
            block_msps: blk / 1e6,
            extra: Vec::new(),
        });
    }

    // --- CIC stages (parameters come from the reference spec) -----
    for (order, decim) in [
        (cfg.cic1_order, cfg.cic1_decim),
        (cfg.cic2_order, cfg.cic2_decim),
    ] {
        let name = format!("cic{order}_r{decim}");
        let mut cic = CicDecimator::new(order, decim, f.data_bits, f.data_bits);
        let per = measure(n, || {
            let mut acc = 0i64;
            for &x in &adc_i64 {
                if let Some(y) = cic.process(x) {
                    acc ^= y;
                }
            }
            black_box(acc);
        });
        let mut cic_b = CicDecimator::new(order, decim, f.data_bits, f.data_bits);
        let mut out = Vec::with_capacity(n / decim as usize + 1);
        let blk = measure(n, || {
            out.clear();
            cic_b.process_block(&adc_i64, &mut out);
            black_box(out.len());
        });
        results.push(StageResult {
            name,
            per_sample_msps: Some(per / 1e6),
            block_msps: blk / 1e6,
            extra: Vec::new(),
        });
    }

    // --- Sequential FIR -------------------------------------------
    {
        let coeffs = quantize_taps(&cfg.fir_taps, f.coeff_bits, f.coeff_frac());
        let mk = || {
            SequentialFir::new(
                &coeffs,
                cfg.fir_decim,
                f.data_bits,
                f.coeff_bits,
                f.fir_acc_bits,
            )
        };
        let mut fir = mk();
        let per = measure(n, || {
            let mut acc = 0i64;
            for &x in &adc_i64 {
                if let Some(y) = fir.process(x) {
                    acc ^= y;
                }
            }
            black_box(acc);
        });
        let mut fir_b = mk();
        let mut out = Vec::with_capacity(n / cfg.fir_decim as usize + 1);
        let blk = measure(n, || {
            out.clear();
            fir_b.process_block(&adc_i64, &mut out);
            black_box(out.len());
        });
        results.push(StageResult {
            name: format!("fir_seq_{}tap_r{}", coeffs.len(), cfg.fir_decim),
            per_sample_msps: Some(per / 1e6),
            block_msps: blk / 1e6,
            extra: Vec::new(),
        });
        println!("fir_seq auto-selected kernel: {}", fir_b.kernel_label());

        // Kernel-layout shootout: the same filter, same stimulus, with
        // each block kernel forced, racing the layouts against each
        // other. `fir_seq_*` above stays the auto-selected winner; the
        // per-variant stages are block-only (the per-sample reference
        // path is identical for every variant). Forcing `Simd` on a CPU
        // without AVX2 runs the scalar flat kernel, and the line printed
        // below says so, so the stage set is the same on every host.
        let variants: &[(ddc_core::fir::FirKernelSel, &str)] = &[
            (ddc_core::fir::FirKernelSel::Generic, "fir_generic"),
            (ddc_core::fir::FirKernelSel::Flat, "fir_flat"),
            (ddc_core::fir::FirKernelSel::Sym, "fir_sym"),
            (ddc_core::fir::FirKernelSel::Simd, "fir_simd"),
        ];
        for &(sel, prefix) in variants {
            let mut fir_v = SequentialFir::with_kernel(
                &coeffs,
                cfg.fir_decim,
                f.data_bits,
                f.coeff_bits,
                f.fir_acc_bits,
                sel,
            );
            println!("{prefix} resolves to kernel: {}", fir_v.kernel_label());
            let blk = measure(n, || {
                out.clear();
                fir_v.process_block(&adc_i64, &mut out);
                black_box(out.len());
            });
            results.push(StageResult {
                name: format!("{prefix}_{}tap_r{}", coeffs.len(), cfg.fir_decim),
                per_sample_msps: None,
                block_msps: blk / 1e6,
                extra: Vec::new(),
            });
        }
    }

    // --- Full fixed-point chains, one per registry spec -----------
    // Every ChainSpec in the registry is benchmarked end to end under
    // the name `chain_<spec name>`, so adding a preset automatically
    // adds a gated stage. The stimulus is requantized per spec (the
    // Montium plan is 16-bit).
    for spec in ChainSpec::registry() {
        let spec = spec.tuned(10e6);
        let adc_s = adc_quantize(&analog, spec.format.data_bits);
        let adc_s_i64: Vec<i64> = adc_s.iter().map(|&x| i64::from(x)).collect();
        let mut ddc = FixedDdc::from_spec(spec.clone());
        let per = measure(n, || {
            let mut acc = 0i64;
            for &x in &adc_s_i64 {
                if let Some(z) = ddc.process(x) {
                    acc ^= z.i + z.q;
                }
            }
            black_box(acc);
        });
        let mut ddc_b = FixedDdc::from_spec(spec.clone());
        let mut out = Vec::with_capacity(n / spec.total_decimation() as usize + 1);
        let blk = measure(n, || {
            out.clear();
            ddc_b.process_into(&adc_s, &mut out);
            black_box(out.len());
        });
        results.push(StageResult {
            name: format!("chain_{}", spec.name),
            per_sample_msps: Some(per / 1e6),
            block_msps: blk / 1e6,
            extra: Vec::new(),
        });
    }

    // --- Telemetry overhead on the reference chain ----------------
    // The same DRM chain and stimulus, once with the metrics handle
    // disabled and once with per-stage counters/histograms enabled.
    // Trials are interleaved and each side keeps its best so a clock
    // ramp or cache-warming drift cannot masquerade as overhead; the
    // gate fails the build when the instrumented chain is more than
    // 1% slower (`--max-telemetry-overhead`).
    {
        let spec = ChainSpec::registry()
            .iter()
            .find(|s| s.name == "drm")
            .expect("drm spec in registry")
            .clone()
            .tuned(10e6);
        let adc_s = adc_quantize(&analog, spec.format.data_bits);
        let mut ddc_off = FixedDdc::from_spec(spec.clone());
        let mut ddc_on = FixedDdc::from_spec(spec.clone()).with_metrics(MetricsHandle::enabled(
            std::sync::Arc::new(chain_metrics_for(&spec)),
        ));
        let mut out = Vec::with_capacity(n / spec.total_decimation() as usize + 1);
        let mut best_off = 0.0f64;
        let mut best_on = 0.0f64;
        for _ in 0..3 {
            best_off = best_off.max(measure(n, || {
                out.clear();
                ddc_off.process_into(&adc_s, &mut out);
                black_box(out.len());
            }));
            best_on = best_on.max(measure(n, || {
                out.clear();
                ddc_on.process_into(&adc_s, &mut out);
                black_box(out.len());
            }));
        }
        let overhead_frac = ((best_off - best_on) / best_off).max(0.0);
        results.push(StageResult {
            name: "telemetry_overhead".to_string(),
            per_sample_msps: None,
            block_msps: best_on / 1e6,
            extra: vec![
                ("off_msps", best_off / 1e6),
                ("on_msps", best_on / 1e6),
                ("overhead_frac", overhead_frac),
            ],
        });
    }

    // --- Span-trace overhead on the reference chain ---------------
    // Same interleaved best-of-3 protocol as telemetry_overhead: the
    // DRM chain with the trace handle compiled in but disabled versus
    // enabled with 1-in-64 head sampling (the shipping default). The
    // gate fails the build when the traced chain is more than 1%
    // slower (`--max trace_overhead:overhead_frac=0.01`).
    {
        let spec = ChainSpec::registry()
            .iter()
            .find(|s| s.name == "drm")
            .expect("drm spec in registry")
            .clone()
            .tuned(10e6);
        let adc_s = adc_quantize(&analog, spec.format.data_bits);
        let mut ddc_off = FixedDdc::from_spec(spec.clone());
        let mut ddc_on = FixedDdc::from_spec(spec.clone());
        ddc_on.set_tracer(ddc_obs::TraceHandle::enabled(std::sync::Arc::new(
            ddc_obs::TraceSink::new(2, 4096),
        )));
        let mut out = Vec::with_capacity(n / spec.total_decimation() as usize + 1);
        let mut best_off = 0.0f64;
        let mut best_on = 0.0f64;
        let mut block = 0u64;
        for _ in 0..3 {
            best_off = best_off.max(measure(n, || {
                out.clear();
                ddc_off.process_into(&adc_s, &mut out);
                black_box(out.len());
            }));
            best_on = best_on.max(measure(n, || {
                out.clear();
                let trace_id = if block.is_multiple_of(64) {
                    block + 1
                } else {
                    0
                };
                block += 1;
                ddc_on.process_into_traced(&adc_s, &mut out, trace_id, 0);
                black_box(out.len());
            }));
        }
        let overhead_frac = ((best_off - best_on) / best_off).max(0.0);
        results.push(StageResult {
            name: "trace_overhead".to_string(),
            per_sample_msps: None,
            block_msps: best_on / 1e6,
            extra: vec![
                ("off_msps", best_off / 1e6),
                ("on_msps", best_on / 1e6),
                ("overhead_frac", overhead_frac),
            ],
        });
    }

    // --- Polyphase channelizer: amortisation across N --------------
    // One bank replaces N independent chains: the polyphase front end
    // costs a fixed `taps_per_branch` MACs per wideband input sample
    // regardless of N, and the FFT adds only O(log N) per input
    // sample — so the cost *per channel* falls as the bank widens.
    // `block_msps` is wideband input throughput (one pass serves all
    // N channels); `per_channel_cost_ns` is the amortised cost of one
    // input sample on one channel, the number that must fall
    // monotonically with N for the bank to beat per-channel DDCs
    // (bench_gate checks that curve whenever these stages are
    // present).
    for channels in [8u32, 64, 256] {
        use ddc_core::spec::ChannelizerSpec;
        use ddc_core::ChannelizerFarm;
        let spec = ChannelizerSpec::uniform(channels, fs);
        let mut bank = ChannelizerFarm::from_spec(spec).expect("channelizer spec");
        let blk = measure(n, || {
            let rows = bank.process_block(&adc);
            black_box(rows.len());
        });
        let per_channel_cost_ns = 1e9 / blk / f64::from(channels);
        results.push(StageResult {
            name: format!("channelizer_n{channels}"),
            per_sample_msps: None,
            block_msps: blk / 1e6,
            extra: vec![
                ("channels", f64::from(channels)),
                ("per_channel_cost_ns", per_channel_cost_ns),
                ("aggregate_msps", blk * f64::from(channels) / 1e6),
            ],
        });
    }

    // --- Streaming service over TCP loopback -----------------------
    // End-to-end service throughput: one session, Block policy,
    // lock-step send/ack over a real socket — so the number includes
    // framing, checksums, the session queue and the shard's DSP.
    // (A deeper send window was tried and measured slower on a
    // single-core host: overlap only adds runnable threads and
    // context switches when there is one CPU to run them on.)
    // Alongside samples/s the stage reports frames/s and the
    // send→ack latency quantiles (log2 histogram, so they come from
    // the same machinery the server's own telemetry uses).
    {
        use ddc_obs::LogHistogram;
        use ddc_server::wire::{Backpressure, ConfigPreset, Frame};
        use ddc_server::{serve, Client, ServerConfig};
        let server = serve("127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
        let mut client = Client::connect(server.local_addr(), "bench").expect("connect");
        client
            .configure(ConfigPreset::Drm, 10e6, Backpressure::Block, 8)
            .expect("configure");
        let batch = DRM_TOTAL_DECIMATION as usize * 8;
        let frames_per_run = adc.chunks(batch).count() as f64;
        let mut batch_index = 0u64;
        let lat = LogHistogram::new();
        let blk = measure(n, || {
            for chunk in adc.chunks(batch) {
                let t0 = Instant::now();
                client.send_samples(batch_index, chunk).expect("send");
                batch_index += 1;
                match client.recv().expect("recv") {
                    Frame::Iq(iq) => {
                        black_box(iq.pairs.len());
                    }
                    other => panic!("expected Iq, got {other:?}"),
                }
                lat.record_duration(t0.elapsed());
            }
        });
        let _ = client.send(&Frame::Shutdown);
        assert!(server.shutdown(std::time::Duration::from_secs(10)));
        let snap = lat.snapshot();
        results.push(StageResult {
            name: "server_loopback".to_string(),
            per_sample_msps: None,
            block_msps: blk / 1e6,
            extra: vec![
                ("frames_per_s", blk / n as f64 * frames_per_run),
                ("lat_p50_ns", snap.p50() as f64),
                ("lat_p95_ns", snap.p95() as f64),
                ("lat_p99_ns", snap.p99() as f64),
            ],
        });
    }

    // --- Latency-QoS loopback: the DRM chain under a bounded-delay
    // profile. Same lock-step workload as `server_loopback`, but the
    // session negotiates `Latency{budget_us}`, so the server runs each
    // batch in slices (the batch is deliberately larger than the
    // quarter-budget chunk, forcing the bounded in-flight path) and
    // annotates every ack with queue-wait/service timing. Lock-step
    // send→ack is the natural pacing for a bounded-delay claim: there
    // is never more than one batch in flight, so the client-side e2e
    // quantiles measure the service path, not self-inflicted queueing.
    // `latency_p99_us` is gated with an absolute ceiling
    // (`bench_gate.py --max chain_drm_latency:latency_p99_us=...`):
    // the budget is a promise, so the quantile must hold outright.
    {
        use ddc_obs::LogHistogram;
        use ddc_server::wire::{Backpressure, ConfigPreset, Frame, QosProfile};
        use ddc_server::{serve, Client, ServerConfig};
        let budget_us: u32 = 5_000;
        let server = serve("127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
        let mut client = Client::connect(server.local_addr(), "bench-latency")
            .expect("connect")
            .with_qos(QosProfile::Latency { budget_us });
        client
            .configure(ConfigPreset::Drm, 10e6, Backpressure::Block, 8)
            .expect("configure");
        let batch = DRM_TOTAL_DECIMATION as usize * 32;
        let mut batch_index = 0u64;
        let e2e = LogHistogram::new();
        let service = LogHistogram::new();
        let blk = measure(n, || {
            for chunk in adc.chunks(batch) {
                let t0 = Instant::now();
                client.send_samples(batch_index, chunk).expect("send");
                batch_index += 1;
                match client.recv().expect("recv") {
                    Frame::Iq(iq) => {
                        black_box(iq.pairs.len());
                        let t = iq.timing.expect("latency session acks carry timing");
                        service.record(t.service_ns);
                    }
                    other => panic!("expected Iq, got {other:?}"),
                }
                e2e.record_duration(t0.elapsed());
            }
        });
        let _ = client.send(&Frame::Shutdown);
        assert!(server.shutdown(std::time::Duration::from_secs(10)));
        let e2e = e2e.snapshot();
        let service = service.snapshot();
        results.push(StageResult {
            name: "chain_drm_latency".to_string(),
            per_sample_msps: None,
            block_msps: blk / 1e6,
            extra: vec![
                ("budget_us", f64::from(budget_us)),
                ("latency_p50_us", e2e.p50() as f64 / 1e3),
                ("latency_p99_us", e2e.p99() as f64 / 1e3),
                ("service_p99_us", service.p99() as f64 / 1e3),
            ],
        });
    }

    // --- Service scaling: latency quantiles vs session count --------
    // The readiness runtime's core claim is that session count is
    // decoupled from thread count: S concurrent lock-step sessions
    // share N shard threads. Each point runs S sessions streaming the
    // same workload concurrently and merges their send→ack histograms,
    // so the curve shows how per-batch latency degrades as sessions
    // contend for the shards.
    struct ServerScalePoint {
        sessions: usize,
        aggregate_msps: f64,
        p50_ns: u64,
        p95_ns: u64,
        p99_ns: u64,
    }
    let mut server_scaling: Vec<ServerScalePoint> = Vec::new();
    {
        use ddc_obs::{HistSnapshot, LogHistogram};
        use ddc_server::wire::{Backpressure, ConfigPreset, Frame};
        use ddc_server::{serve, Client, ServerConfig};
        for sessions in [1usize, 4, 16, 64] {
            let cfg = ServerConfig {
                max_sessions: sessions,
                ..ServerConfig::default()
            };
            let server = serve("127.0.0.1:0", cfg).expect("bind loopback");
            let addr = server.local_addr();
            let batch = DRM_TOTAL_DECIMATION as usize * 8;
            let batches_per_session = 24usize;
            let adc = std::sync::Arc::new(adc.clone());
            let t0 = Instant::now();
            let handles: Vec<_> = (0..sessions)
                .map(|k| {
                    let adc = std::sync::Arc::clone(&adc);
                    std::thread::Builder::new()
                        .stack_size(256 * 1024)
                        .spawn(move || {
                            let mut client = Client::connect(addr, &format!("bench-scale-{k}"))
                                .expect("connect");
                            client
                                .configure(
                                    ConfigPreset::Drm,
                                    5e6 + (k % 11) as f64 * 2.5e6,
                                    Backpressure::Block,
                                    8,
                                )
                                .expect("configure");
                            let lat = LogHistogram::new();
                            let mut sent = 0u64;
                            for (b, chunk) in adc
                                .chunks(batch)
                                .cycle()
                                .take(batches_per_session)
                                .enumerate()
                            {
                                let t = Instant::now();
                                client.send_samples(b as u64, chunk).expect("send");
                                sent += chunk.len() as u64;
                                match client.recv().expect("recv") {
                                    Frame::Iq(iq) => {
                                        black_box(iq.pairs.len());
                                    }
                                    other => panic!("expected Iq, got {other:?}"),
                                }
                                lat.record_duration(t.elapsed());
                            }
                            let _ = client.send(&Frame::Shutdown);
                            (lat.snapshot(), sent)
                        })
                        .expect("spawn scale session")
                })
                .collect();
            let mut merged = HistSnapshot::empty();
            let mut total_samples = 0u64;
            for h in handles {
                let (snap, sent) = h.join().expect("scale session panicked");
                merged.merge(&snap);
                total_samples += sent;
            }
            let wall = t0.elapsed().as_secs_f64();
            assert!(server.shutdown(std::time::Duration::from_secs(10)));
            server_scaling.push(ServerScalePoint {
                sessions,
                aggregate_msps: total_samples as f64 / wall / 1e6,
                p50_ns: merged.p50(),
                p95_ns: merged.p95(),
                p99_ns: merged.p99(),
            });
        }
    }

    // --- Report ----------------------------------------------------
    let host_cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"ddc block kernels vs per-sample\",\n");
    json.push_str(&format!(
        "  \"config\": \"DRM preset, fs = {} MHz, {}-bit data, tune 10 MHz\",\n",
        fs / 1e6,
        f.data_bits
    ));
    json.push_str(&format!("  \"input_samples\": {n},\n"));
    json.push_str(&format!("  \"commit\": \"{commit}\",\n"));
    json.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    json.push_str(&format!(
        "  \"build\": \"{}\",\n",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    ));
    json.push_str("  \"stages\": [\n");
    for (k, r) in results.iter().enumerate() {
        let mut fields = format!("\"stage\": \"{}\"", r.name);
        if let Some(per) = r.per_sample_msps {
            fields.push_str(&format!(", \"per_sample_msps\": {per:.2}"));
        }
        fields.push_str(&format!(", \"block_msps\": {:.2}", r.block_msps));
        if let Some(s) = r.speedup() {
            fields.push_str(&format!(", \"speedup\": {s:.2}"));
        }
        for (key, value) in &r.extra {
            fields.push_str(&format!(", \"{key}\": {value:.4}"));
        }
        json.push_str(&format!(
            "    {{{fields}}}{}\n",
            if k + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"server_scaling\": {\n");
    json.push_str(&format!("    \"host_cores\": {host_cores},\n"));
    json.push_str("    \"points\": [\n");
    for (k, p) in server_scaling.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"sessions\": {}, \"aggregate_msps\": {:.2}, \"lat_p50_ns\": {}, \"lat_p95_ns\": {}, \"lat_p99_ns\": {}}}{}\n",
            p.sessions,
            p.aggregate_msps,
            p.p50_ns,
            p.p95_ns,
            p.p99_ns,
            if k + 1 < server_scaling.len() { "," } else { "" }
        ));
    }
    json.push_str("    ]\n");
    json.push_str("  }\n");
    json.push_str("}\n");

    std::fs::write("BENCH_kernels.json", &json).expect("cannot write BENCH_kernels.json");

    println!(
        "{:<22} {:>14} {:>14} {:>9}",
        "stage", "per-sample", "block", "speedup"
    );
    for r in &results {
        match (r.per_sample_msps, r.speedup()) {
            (Some(per), Some(sp)) => println!(
                "{:<22} {:>9.2} Ms/s {:>9.2} Ms/s {:>8.2}x",
                r.name, per, r.block_msps, sp
            ),
            _ => println!(
                "{:<22} {:>14} {:>9.2} Ms/s {:>9}",
                r.name, "-", r.block_msps, "-"
            ),
        }
    }
    println!("server scaling (sessions → latency):");
    for p in &server_scaling {
        println!(
            "  {:>3} session(s) {:>10.2} Ms/s aggregate  p50 {:>9} ns  p95 {:>9} ns  p99 {:>9} ns",
            p.sessions, p.aggregate_msps, p.p50_ns, p.p95_ns, p.p99_ns
        );
    }
    println!("wrote BENCH_kernels.json (commit {commit})");
}
