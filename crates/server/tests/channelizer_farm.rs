//! End-to-end channelizer fan-out: one wideband ingest session drives
//! an N=8 polyphase bank on the server, and one subscriber session per
//! channel receives that channel's Iq stream — bit-exact against a
//! local [`ChannelizerFarm`] run over the same input (the bank's
//! arithmetic is deterministic integer math, so loopback transport must
//! change nothing).

use ddc_core::spec::ChannelizerSpec;
use ddc_core::ChannelizerFarm;
use ddc_server::client::{Client, ClientError};
use ddc_server::wire::{error_code, Backpressure, Frame, IqPayload};
use ddc_server::{serve, ServerConfig};
use std::time::Duration;

fn stimulus(n: usize, seed: u64) -> Vec<i32> {
    use ddc_dsp::signal::{adc_quantize, Mix, SampleSource, Tone, WhiteNoise};
    let mut src = Mix(
        Tone::new(12.1e6, 64_512_000.0, 0.55, 0.2),
        WhiteNoise::new(seed, 0.2),
    );
    adc_quantize(&src.take_vec(n), 12)
}

/// Reads one subscriber's stream to the closing Shutdown, returning
/// the concatenated pairs per batch index.
fn drain_subscriber(client: &mut Client) -> Vec<(u64, Vec<(i64, i64)>)> {
    let mut got = Vec::new();
    loop {
        match client.recv().expect("subscriber frame") {
            Frame::Iq(IqPayload {
                batch_index, pairs, ..
            }) => got.push((batch_index, pairs)),
            Frame::Shutdown => break,
            other => panic!("subscriber got unexpected {other:?}"),
        }
    }
    got
}

#[test]
fn n8_farm_fans_out_bit_exact_per_channel() {
    let server = serve("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let spec = ChannelizerSpec::uniform(8, 64_512_000.0);

    let mut ingest = Client::connect(addr, "ingest").expect("connect ingest");
    let conf = ingest
        .configure_channelizer(&spec, Backpressure::Block, 8)
        .expect("configure channelizer");
    assert_eq!(conf.batches_accepted, 0);

    // All subscribers attach before the first Samples frame, so every
    // one of them sees the full stream.
    let mut subs: Vec<Client> = (0..8)
        .map(|k| {
            let mut c = Client::connect(addr, &format!("sub{k}")).expect("connect sub");
            let r = c
                .subscribe("pfb8", k, Backpressure::Block, 8)
                .expect("subscribe");
            assert_eq!(r.channel, k, "subscriber learns its channel binding");
            c
        })
        .collect();

    let input = stimulus(4096 * 6 + 321, 42);
    let chunks: Vec<&[i32]> = input.chunks(4096).collect();
    for (b, chunk) in chunks.iter().enumerate() {
        ingest.send_samples(b as u64, chunk).expect("send");
        // The ingest's ack is an empty Iq frame (outputs travel on the
        // subscriber connections).
        match ingest.recv().expect("ingest ack") {
            Frame::Iq(IqPayload {
                batch_index, pairs, ..
            }) => {
                assert_eq!(batch_index, b as u64, "acks arrive in order");
                assert!(pairs.is_empty(), "ingest acks carry no pairs");
            }
            other => panic!("expected empty Iq ack, got {other:?}"),
        }
    }

    // Graceful end: the ingest gets Stats + Shutdown, and the bank's
    // teardown sends Shutdown to every subscriber.
    ingest.send(&Frame::Shutdown).expect("shutdown send");
    let stats = match ingest.recv().expect("final stats") {
        Frame::StatsReport(r) => r,
        other => panic!("expected StatsReport, got {other:?}"),
    };
    assert_eq!(stats.samples_in, input.len() as u64, "bank flow counters");
    assert!(stats.outputs > 0);
    match ingest.recv().expect("final shutdown") {
        Frame::Shutdown => {}
        other => panic!("expected Shutdown, got {other:?}"),
    }

    // Local replica over the same input, one block — the core chunking
    // tests guarantee block-size invariance, so one big block is the
    // same as the server's per-batch processing.
    let mut local = ChannelizerFarm::from_spec(spec.clone()).expect("local farm");
    let rows = local.process_block(&input);
    for (k, sub) in subs.iter_mut().enumerate() {
        let per_batch = drain_subscriber(sub);
        assert_eq!(
            per_batch.len(),
            chunks.len(),
            "channel {k}: one Iq per batch"
        );
        for (j, (b, _)) in per_batch.iter().enumerate() {
            assert_eq!(*b, j as u64, "channel {k}: batch indices in order");
        }
        let got: Vec<(i64, i64)> = per_batch.into_iter().flat_map(|(_, pairs)| pairs).collect();
        let expect: Vec<(i64, i64)> = rows[k].iter().map(|z| (z.i, z.q)).collect();
        assert!(!expect.is_empty());
        assert_eq!(got, expect, "channel {k}: streamed output differs");
    }

    // The bank is gone once its ingest ended: a late subscriber is
    // refused with BAD_CONFIG.
    let mut late = Client::connect(addr, "late").expect("connect late");
    match late.subscribe("pfb8", 0, Backpressure::Block, 8) {
        Err(ClientError::Remote(e)) => assert_eq!(e.code, error_code::BAD_CONFIG),
        other => panic!("expected BAD_CONFIG after bank teardown, got {other:?}"),
    }
    assert!(server.shutdown(Duration::from_secs(5)));
}

#[test]
fn bank_labelled_metrics_ride_the_scrape() {
    let server = serve("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let mut spec = ChannelizerSpec::uniform(8, 64_512_000.0);
    spec.name = "scrapeme".into();

    let mut ingest = Client::connect(addr, "ingest").expect("connect");
    ingest
        .configure_channelizer(&spec, Backpressure::Block, 8)
        .expect("configure");
    let input = stimulus(4096 * 2, 7);
    for (b, chunk) in input.chunks(4096).enumerate() {
        ingest.send_samples(b as u64, chunk).expect("send");
        match ingest.recv().expect("ack") {
            Frame::Iq(_) => {}
            other => panic!("expected Iq ack, got {other:?}"),
        }
    }
    let prom = ingest.request_metrics().expect("prometheus scrape");
    let text = String::from_utf8(prom.body).expect("utf-8");
    assert!(
        text.contains("ddc_channelizer_channels_active{bank=\"scrapeme\"} 8"),
        "gauge with bank label missing from scrape:\n{text}"
    );
    assert!(text.contains("ddc_channelizer_blocks_total{bank=\"scrapeme\"} 2"));
    assert!(text.contains("ddc_channelizer_stage_ns_bucket{bank=\"scrapeme\",stage=\"fft\""));
    assert!(text.contains("ddc_channelizer_stage_ns_bucket{bank=\"scrapeme\",stage=\"polyphase\""));
    let _ = ingest.send(&Frame::Shutdown);
    assert!(server.shutdown(Duration::from_secs(5)));
}

#[test]
fn channelizer_misuse_is_rejected_with_structured_errors() {
    let server = serve("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let spec = ChannelizerSpec::uniform(8, 64_512_000.0);

    // Subscribing to a bank that does not exist.
    let mut orphan = Client::connect(addr, "orphan").expect("connect");
    match orphan.subscribe("nosuch", 0, Backpressure::Block, 8) {
        Err(ClientError::Remote(e)) => assert_eq!(e.code, error_code::BAD_CONFIG),
        other => panic!("expected BAD_CONFIG, got {other:?}"),
    }

    let mut ingest = Client::connect(addr, "ingest").expect("connect");
    ingest
        .configure_channelizer(&spec, Backpressure::Block, 8)
        .expect("configure");

    // A second bank under the same name.
    let mut dup = Client::connect(addr, "dup").expect("connect");
    match dup.configure_channelizer(&spec, Backpressure::Block, 8) {
        Err(ClientError::Remote(e)) => assert_eq!(e.code, error_code::BAD_CONFIG),
        other => panic!("expected BAD_CONFIG for duplicate bank, got {other:?}"),
    }

    // A channel index outside the bank.
    let mut outside = Client::connect(addr, "outside").expect("connect");
    match outside.subscribe("pfb8", 99, Backpressure::Block, 8) {
        Err(ClientError::Remote(e)) => assert_eq!(e.code, error_code::BAD_CONFIG),
        other => panic!("expected BAD_CONFIG for bad channel, got {other:?}"),
    }

    // A subscriber pushing Samples breaks protocol and is cut off.
    let mut pushy = Client::connect(addr, "pushy").expect("connect");
    pushy
        .subscribe("pfb8", 3, Backpressure::Block, 8)
        .expect("subscribe");
    pushy.send_samples(0, &[1, 2, 3, 4]).expect("send");
    match pushy.recv() {
        Ok(Frame::Error(e)) => assert_eq!(e.code, error_code::PROTOCOL),
        Ok(other) => panic!("expected Error, got {other:?}"),
        Err(e) => panic!("expected structured Error before close, got {e}"),
    }
    let _ = ingest.send(&Frame::Shutdown);
    assert!(server.shutdown(Duration::from_secs(5)));
}

/// A disabled channel's row never leaves the server, and a sparse mask
/// keeps row↔channel alignment intact across the wire.
#[test]
fn sparse_mask_keeps_subscriber_rows_aligned() {
    let server = serve("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let mut spec = ChannelizerSpec::uniform(8, 64_512_000.0);
    spec.name = "sparse8".into();
    for k in [0usize, 2, 3, 6, 7] {
        spec.enabled[k] = false;
    }

    let mut ingest = Client::connect(addr, "ingest").expect("connect");
    ingest
        .configure_channelizer(&spec, Backpressure::Block, 8)
        .expect("configure");

    // Channel 2 is disabled: refused.
    let mut off = Client::connect(addr, "off").expect("connect");
    match off.subscribe("sparse8", 2, Backpressure::Block, 8) {
        Err(ClientError::Remote(e)) => assert_eq!(e.code, error_code::BAD_CONFIG),
        other => panic!("expected BAD_CONFIG for disabled channel, got {other:?}"),
    }

    let mut sub5 = Client::connect(addr, "sub5").expect("connect");
    sub5.subscribe("sparse8", 5, Backpressure::Block, 8)
        .expect("subscribe enabled channel");

    let input = stimulus(4096 * 3, 99);
    for (b, chunk) in input.chunks(4096).enumerate() {
        ingest.send_samples(b as u64, chunk).expect("send");
        match ingest.recv().expect("ack") {
            Frame::Iq(_) => {}
            other => panic!("expected Iq ack, got {other:?}"),
        }
    }
    ingest.send(&Frame::Shutdown).expect("shutdown");

    let mut local = ChannelizerFarm::from_spec(spec).expect("local farm");
    let row = local
        .enabled_channels()
        .iter()
        .position(|&c| c == 5)
        .unwrap();
    let rows = local.process_block(&input);
    let expect: Vec<(i64, i64)> = rows[row].iter().map(|z| (z.i, z.q)).collect();
    let got: Vec<(i64, i64)> = drain_subscriber(&mut sub5)
        .into_iter()
        .flat_map(|(_, pairs)| pairs)
        .collect();
    assert_eq!(got, expect, "sparse-mask channel 5 differs over the wire");
    assert!(server.shutdown(Duration::from_secs(5)));
}
