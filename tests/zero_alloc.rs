//! Proves the telemetry layer's headline claim: with metrics *enabled*,
//! the block-processing hot path performs zero heap allocations in
//! steady state.
//!
//! A counting allocator wraps the system allocator for this whole test
//! crate (integration tests are separate crates, so the counter cannot
//! leak into other suites). The count is kept per thread: libtest runs
//! tests — and its own bookkeeping — on other threads at the same time,
//! so a process-wide counter would charge their allocations to whichever
//! window happened to be open. Every measured path runs entirely on the
//! calling thread, so its own count misses none of its allocations.
//! After a warm-up pass has sized every internal scratch buffer, the
//! measured `process_into` / `process_block` calls — and the raw
//! histogram record and span-ring push/drain paths, and the wire
//! codec's Samples encode/decode and Iq encode — must leave the calling
//! thread's counter untouched.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Counts every allocation and reallocation made by the current thread;
/// frees are not counted (a free in the hot path would imply a previous
/// allocation anyway).
struct CountingAlloc;

thread_local! {
    // Const-initialised and without drop glue: reading it never
    // allocates or registers a destructor, so the allocator may use it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many allocations this thread performed
/// during it.
fn allocations_during<F: FnMut()>(mut f: F) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn instrumented_block_path_is_allocation_free_in_steady_state() {
    use ddc_core::{chain_metrics_for, ChainSpec, FixedDdc, MetricsHandle};

    let spec = ChainSpec::registry()
        .iter()
        .find(|s| s.name == "drm")
        .expect("drm spec in registry")
        .clone()
        .tuned(10e6);
    let decim = spec.total_decimation() as usize;

    // Deterministic full-scale-ish stimulus; realism is irrelevant here,
    // only the control flow through every stage matters.
    let adc: Vec<i32> = (0..decim * 16)
        .map(|k| ((k * 37) % 255) as i32 - 127)
        .collect();

    let metrics = Arc::new(chain_metrics_for(&spec));
    let mut ddc = FixedDdc::from_spec(spec.clone())
        .with_metrics(MetricsHandle::enabled(Arc::clone(&metrics)));
    assert!(ddc.metrics().is_enabled());
    let mut out = Vec::with_capacity(adc.len() / decim + 16);

    // Warm-up: sizes the output vector and any internal scratch.
    for _ in 0..4 {
        out.clear();
        ddc.process_into(&adc, &mut out);
    }
    assert!(!out.is_empty(), "warm-up produced no output");
    let blocks_before = metrics.chain.blocks.get();

    let allocs = allocations_during(|| {
        for _ in 0..8 {
            out.clear();
            ddc.process_into(&adc, &mut out);
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state instrumented process_into allocated {allocs} time(s)"
    );

    // The run above must have been *observed*, not silently untelemetered:
    // eight whole-chain blocks plus eight per-stage blocks per stage.
    assert_eq!(metrics.chain.blocks.get(), blocks_before + 8);
    for stage in &metrics.stages {
        assert!(
            stage.blocks.get() >= 8,
            "stage {} recorded only {} blocks",
            stage.name,
            stage.blocks.get()
        );
        assert_eq!(stage.latency_ns.count(), stage.blocks.get());
    }
}

#[test]
fn traced_block_path_is_allocation_free_in_steady_state() {
    use ddc_core::{ChainSpec, FixedDdc};
    use ddc_obs::{TraceHandle, TraceSink};

    let spec = ChainSpec::registry()
        .iter()
        .find(|s| s.name == "drm")
        .expect("drm spec in registry")
        .clone()
        .tuned(10e6);
    let decim = spec.total_decimation() as usize;
    let adc: Vec<i32> = (0..decim * 16)
        .map(|k| ((k * 41) % 255) as i32 - 127)
        .collect();

    let sink = Arc::new(TraceSink::new(2, 1024));
    let mut ddc = FixedDdc::from_spec(spec.clone());
    ddc.set_tracer(TraceHandle::enabled(Arc::clone(&sink)));
    let mut out = Vec::with_capacity(adc.len() / decim + 16);

    // Warm-up: sizes the output vector and any internal scratch (the
    // span-name table was interned by set_tracer, before measurement).
    for k in 0..4u64 {
        out.clear();
        ddc.process_into_traced(&adc, &mut out, k + 1, 0);
    }
    assert!(!out.is_empty(), "warm-up produced no output");
    let produced_before = sink.produced();

    let allocs = allocations_during(|| {
        for k in 0..8u64 {
            out.clear();
            // Alternate stamped and unstamped blocks, the shape 1-in-N
            // head sampling produces: both sides of the branch must be
            // allocation-free.
            let trace_id = if k.is_multiple_of(2) { 0x1000 + k } else { 0 };
            ddc.process_into_traced(&adc, &mut out, trace_id, 0);
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state traced process_into allocated {allocs} time(s)"
    );

    // The stamped blocks must actually have been recorded: one
    // whole-block span pair per stage per traced block.
    let stages = spec.stages.len() as u64;
    assert_eq!(
        sink.produced() - produced_before,
        4 * stages * 2,
        "each of the 4 stamped blocks records begin+end per stage"
    );
}

#[test]
fn span_ring_push_and_drain_do_not_allocate() {
    use ddc_obs::{span_kind, SpanRing};

    let ring = SpanRing::new(64);
    ring.push(1, 1, span_kind::BEGIN, 0, 0);

    let allocs = allocations_during(|| {
        for k in 0..10_000u64 {
            ring.push(k, k, span_kind::INSTANT, 0, 0);
        }
    });
    assert_eq!(allocs, 0, "span push allocated {allocs} time(s)");
    assert_eq!(ring.produced(), 10_001);

    // The ring wrapped; a drain into a pre-reserved vec must stay
    // allocation-free and account for every overwritten span.
    let mut spans = Vec::with_capacity(64);
    let newly_dropped = allocations_during(|| {
        let dropped = ring.drain_into(&mut spans);
        assert!(dropped > 0, "wrapping the ring reported no drops");
    });
    assert_eq!(newly_dropped, 0, "drain into reserved vec allocated");
    assert!(!spans.is_empty());
    assert_eq!(ring.dropped() + spans.len() as u64, 10_001);
}

#[test]
fn histogram_record_does_not_allocate() {
    use ddc_obs::LogHistogram;

    let hist = LogHistogram::new();

    // Warm-up (construction above already allocated; that is fine —
    // build-time allocation is explicitly allowed).
    hist.record(1);

    let allocs = allocations_during(|| {
        for k in 0..10_000u64 {
            hist.record(k);
        }
    });
    assert_eq!(allocs, 0, "record allocated {allocs} time(s)");
    assert_eq!(hist.count(), 10_001);
}

#[test]
fn channelizer_farm_block_path_is_allocation_free_in_steady_state() {
    use ddc_core::channelizer::{ChannelBackend, ChannelizerFarm};
    use ddc_core::ChannelizerSpec;

    let spec = ChannelizerSpec::uniform(64, 64_512_000.0);
    let rate = spec.output_rate();
    let mut farm = ChannelizerFarm::from_spec(spec.clone())
        .unwrap()
        .with_telemetry();
    assert!(farm.set_backend(
        5,
        ChannelBackend::identity(spec.format.data_bits).with_residual(1234.5, rate),
    ));
    let adc: Vec<i32> = (0..4096).map(|k| (k * 53) % 4095 - 2047).collect();

    // Warm-up at the largest block size sizes every scratch buffer.
    for _ in 0..4 {
        farm.process_block(&adc);
    }
    let blocks_before = farm.metrics().expect("telemetry on").blocks.get();

    // Ragged blocks no larger than the warm-up block, as a socket
    // delivers them, must reuse the same buffers.
    let mut produced = 0;
    let allocs = allocations_during(|| {
        for len in [4096, 1000, 64, 1, 4095, 2048, 3333, 4096] {
            produced += farm.process_block(&adc[..len])[0].len();
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state ChannelizerFarm::process_block allocated {allocs} time(s)"
    );
    assert!(produced > 0, "the measured blocks produced no output");
    assert_eq!(
        farm.metrics().expect("telemetry on").blocks.get(),
        blocks_before + 8
    );
}

#[test]
fn oversampled_sparse_bank_is_allocation_free_in_steady_state() {
    use ddc_core::channelizer::ChannelizerFarm;
    use ddc_core::ChannelizerSpec;

    // Both output phases, 21 of 64 channels (a K mod 4 tail and
    // gathered bins on the AVX2 kernel).
    let mut spec = ChannelizerSpec::uniform(64, 64_512_000.0);
    spec.oversample = 2;
    for (k, e) in spec.enabled.iter_mut().enumerate() {
        *e = k % 3 == 1;
    }
    let mut farm = ChannelizerFarm::from_spec(spec).unwrap().with_telemetry();
    assert_eq!(farm.enabled_channels().len(), 21);
    let adc: Vec<i32> = (0..4096).map(|k| (k * 71) % 4095 - 2047).collect();

    for _ in 0..4 {
        farm.process_block(&adc);
    }
    let mut produced = 0;
    let allocs = allocations_during(|| {
        for len in [4096, 31, 1, 2047, 32, 4095, 999, 4096] {
            produced += farm.process_block(&adc[..len])[20].len();
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state oversampled sparse process_block allocated {allocs} time(s)"
    );
    assert!(produced > 0, "the measured blocks produced no output");
}

#[test]
fn bank_with_a_fixed_demand_is_allocation_free_in_steady_state() {
    use ddc_core::channelizer::ChannelizerFarm;
    use ddc_core::ChannelizerSpec;

    // One of 64 channels demanded: the pruned transform, the row map
    // and the untouched empty rows.
    let mut farm = ChannelizerFarm::from_spec(ChannelizerSpec::uniform(64, 64_512_000.0))
        .unwrap()
        .with_telemetry();
    farm.set_demand(|k| k == 9);
    let adc: Vec<i32> = (0..4096).map(|k| (k * 37) % 4095 - 2047).collect();

    for _ in 0..4 {
        farm.process_block(&adc);
    }
    let mut produced = 0;
    let allocs = allocations_during(|| {
        for len in [4096, 63, 1, 2048, 65, 4095, 777, 4096] {
            let rows = farm.process_block(&adc[..len]);
            produced += rows[9].len();
            assert!(rows[8].is_empty() && rows[10].is_empty());
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state process_block with a fixed demand allocated {allocs} time(s)"
    );
    assert!(produced > 0, "the measured blocks produced no output");
}

#[test]
fn wire_codec_steady_state_does_not_allocate() {
    use ddc_core::mixer::Iq;
    use ddc_server::wire::{decode_header, decode_samples_into, FrameBuf, IqTiming};

    // One DRM batch and its Iq ack, timed as on a latency-QoS session.
    let samples: Vec<i32> = (0..2688 * 8).map(|k| (k * 37) % 4096 - 2048).collect();
    let pairs: Vec<Iq> = (0..8i64).map(|k| Iq { i: k * 977, q: -k }).collect();
    let timing = Some(IqTiming {
        queue_wait_ns: 12_345,
        service_ns: 67_890,
    });
    let mut samples_buf = FrameBuf::new();
    let mut iq_buf = FrameBuf::new();
    let mut decoded: Vec<i32> = Vec::with_capacity(samples.len());
    let mut round_trip = |seq: u32| {
        samples_buf.encode_samples(seq, u64::from(seq), &samples);
        let header = decode_header(&samples_buf.header).expect("valid header");
        decoded.clear();
        let (batch, _) = decode_samples_into(&header, &samples_buf.payload, &mut decoded)
            .expect("valid payload");
        assert_eq!(batch, u64::from(seq));
        iq_buf.encode_iq(seq, u64::from(seq), 0, &pairs, timing, 0);
    };

    // Warm-up: sizes both payload buffers.
    for seq in 0..4 {
        round_trip(seq);
    }
    let allocs = allocations_during(|| {
        for seq in 4..12 {
            round_trip(seq);
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state wire codec allocated {allocs} time(s)"
    );
    assert_eq!(decoded, samples, "the measured decode lost samples");
}
