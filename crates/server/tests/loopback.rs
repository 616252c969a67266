//! End-to-end loopback tests: a real TCP server on an ephemeral port,
//! real client connections, and bit-exactness of the streamed I/Q
//! against `FixedDdc` run in-process on the same input.

use ddc_core::chain::FixedDdc;
use ddc_server::client::{Client, ClientError};
use ddc_server::wire::{error_code, Backpressure, ConfigPreset, Frame, IqPayload, StatsReport};
use ddc_server::{serve, ServerConfig};
use std::collections::BTreeMap;
use std::time::Duration;

fn stimulus(n: usize, seed: u64) -> Vec<i32> {
    use ddc_dsp::signal::{adc_quantize, Mix, SampleSource, Tone, WhiteNoise};
    let mut src = Mix(
        Tone::new(10e6 + 3_000.0, 64_512_000.0, 0.6, 0.3),
        WhiteNoise::new(seed, 0.15),
    );
    adc_quantize(&src.take_vec(n), 12)
}

fn batches_of(input: &[i32], batch: usize) -> Vec<&[i32]> {
    input.chunks(batch).collect()
}

/// Streams `input` through one session in lock-step (send batch, read
/// its Iq ack) and returns the concatenated output plus final stats.
fn stream_lockstep(
    addr: std::net::SocketAddr,
    tune: f64,
    input: &[i32],
    batch: usize,
) -> (Vec<(i64, i64)>, StatsReport) {
    let mut client = Client::connect(addr, "test").expect("connect");
    let conf = client
        .configure(ConfigPreset::Drm, tune, Backpressure::Block, 8)
        .expect("configure");
    assert_eq!(conf.batches_accepted, 0);
    let mut got = Vec::new();
    for (b, chunk) in batches_of(input, batch).iter().enumerate() {
        client.send_samples(b as u64, chunk).expect("send");
        match client.recv().expect("iq frame") {
            Frame::Iq(IqPayload {
                batch_index, pairs, ..
            }) => {
                assert_eq!(batch_index, b as u64, "acks arrive in order");
                got.extend(pairs);
            }
            other => panic!("expected Iq, got {other:?}"),
        }
    }
    client.send(&Frame::Shutdown).expect("shutdown send");
    let stats = match client.recv().expect("final stats") {
        Frame::StatsReport(r) => r,
        other => panic!("expected final StatsReport, got {other:?}"),
    };
    match client.recv().expect("final shutdown") {
        Frame::Shutdown => {}
        other => panic!("expected Shutdown, got {other:?}"),
    }
    (got, stats)
}

#[test]
fn single_session_is_bit_exact_with_fixed_ddc() {
    let server = serve("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let input = stimulus(2688 * 10 + 997, 3);
    let (got, stats) = stream_lockstep(server.local_addr(), 10e6, &input, 2688 * 2);

    let mut solo = FixedDdc::new(ddc_core::DdcConfig::drm(10e6));
    let expect: Vec<(i64, i64)> = solo
        .process_block(&input)
        .into_iter()
        .map(|z| (z.i, z.q))
        .collect();
    assert_eq!(got, expect, "streamed I/Q differs from in-process chain");
    assert_eq!(stats.samples_in, input.len() as u64);
    assert_eq!(stats.outputs, expect.len() as u64);
    assert_eq!(stats.batches_dropped, 0);
    assert!(server.shutdown(Duration::from_secs(5)), "server joins");
}

#[test]
fn custom_spec_session_is_bit_exact_with_from_spec_chain() {
    // A four-stage plan no preset byte can name: the spec must travel
    // binary-encoded in the Configure frame and come back out as the
    // exact same chain on the server side.
    use ddc_core::spec::{ChainSpec, StageSpec};
    let spec = ChainSpec {
        name: "loopback-custom-672".to_string(),
        input_rate: 64_512_000.0,
        tune_freq: 9.3e6,
        stages: vec![
            StageSpec::Cic {
                order: 2,
                decim: 8,
                diff_delay: 1,
            },
            StageSpec::Cic {
                order: 3,
                decim: 6,
                diff_delay: 2,
            },
            StageSpec::Cic {
                order: 4,
                decim: 7,
                diff_delay: 1,
            },
            StageSpec::Fir {
                taps: ddc_dsp::firdes::lowpass(64, 0.2, ddc_dsp::window::Window::Kaiser(6.0)),
                decim: 2,
            },
        ],
        format: ddc_core::params::FixedFormat::FPGA12,
        budget: None,
    };
    assert!(spec.to_config().is_none(), "plan must be non-classic");

    let server = serve("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let input = stimulus(672 * 40 + 451, 23);
    let mut client = Client::connect(server.local_addr(), "custom-spec").expect("connect");
    client
        .configure_spec(&spec, Backpressure::Block, 8)
        .expect("configure with spec");
    let mut got = Vec::new();
    for (b, chunk) in batches_of(&input, 672 * 4).iter().enumerate() {
        client.send_samples(b as u64, chunk).expect("send");
        match client.recv().expect("iq frame") {
            Frame::Iq(IqPayload { pairs, .. }) => got.extend(pairs),
            other => panic!("expected Iq, got {other:?}"),
        }
    }
    let _ = client.send(&Frame::Shutdown);

    let mut solo = FixedDdc::from_spec(spec);
    let expect: Vec<(i64, i64)> = solo
        .process_block(&input)
        .into_iter()
        .map(|z| (z.i, z.q))
        .collect();
    assert!(!expect.is_empty());
    assert_eq!(got, expect, "custom-spec session differs from FixedDdc");
    assert!(server.shutdown(Duration::from_secs(5)));
}

#[test]
fn four_concurrent_sessions_each_bit_exact_at_their_own_tuning() {
    let server = serve(
        "127.0.0.1:0",
        ServerConfig {
            max_sessions: 4,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let input = std::sync::Arc::new(stimulus(2688 * 8 + 311, 7));
    let tunes = [5e6, 10e6, 15e6, 20e6];
    let mut handles = Vec::new();
    for &tune in &tunes {
        let input = std::sync::Arc::clone(&input);
        handles.push(std::thread::spawn(move || {
            stream_lockstep(addr, tune, &input, 2688)
        }));
    }
    for (k, h) in handles.into_iter().enumerate() {
        let (got, _) = h.join().expect("session thread");
        let mut solo = FixedDdc::new(ddc_core::DdcConfig::drm(tunes[k]));
        let expect: Vec<(i64, i64)> = solo
            .process_block(&input)
            .into_iter()
            .map(|z| (z.i, z.q))
            .collect();
        assert_eq!(got, expect, "session {k}");
    }
    assert_eq!(server.sessions_started(), 4);
    assert_eq!(server.free_slots(), 4, "all slots returned");
    assert!(server.shutdown(Duration::from_secs(5)));
}

#[test]
fn drop_oldest_reports_gaps_and_delivers_the_rest_bit_exact() {
    // A deliberately slow backend (5 ms/batch) and a 2-deep queue force
    // drops while the client floods 24 batches as fast as TCP accepts.
    let server = serve(
        "127.0.0.1:0",
        ServerConfig {
            max_sessions: 1,
            processing_delay: Duration::from_millis(5),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let input = stimulus(2688 * 24, 11);
    let batch = 2688;
    let client = {
        let mut c = Client::connect(server.local_addr(), "flood").expect("connect");
        c.configure(ConfigPreset::Drm, 10e6, Backpressure::DropOldest, 2)
            .expect("configure");
        c
    };
    let (mut tx, mut rx) = client.split();
    let chunks: Vec<Vec<i32>> = input.chunks(batch).map(|c| c.to_vec()).collect();
    let n_batches = chunks.len() as u64;
    let receiver = std::thread::spawn(move || {
        let mut acked: BTreeMap<u64, Vec<(i64, i64)>> = BTreeMap::new();
        let mut final_stats = None;
        loop {
            match rx.recv() {
                Ok(Frame::Iq(iq)) => {
                    acked.insert(iq.batch_index, iq.pairs);
                }
                Ok(Frame::StatsReport(r)) => final_stats = Some(r),
                Ok(Frame::Shutdown) => break,
                Ok(other) => panic!("unexpected {other:?}"),
                Err(e) => panic!("receive error: {e}"),
            }
        }
        (acked, final_stats)
    });
    for (b, chunk) in chunks.iter().enumerate() {
        tx.send_samples(b as u64, chunk).expect("send");
    }
    tx.send(&Frame::Shutdown).expect("shutdown");
    let (acked, final_stats) = receiver.join().expect("receiver");
    let stats = final_stats.expect("final stats");

    // Flooding 24 batches at localhost speed against 5 ms/batch with a
    // 2-deep queue must drop something (22+ batches arrive while the
    // first is still processing).
    assert!(stats.batches_dropped > 0, "flood failed to force drops");
    assert_eq!(
        acked.len() as u64 + stats.batches_dropped,
        n_batches,
        "every batch is either acked or reported dropped"
    );
    // Delivered ranges are bit-exact: the chain state evolves over
    // exactly the accepted batches in order.
    let mut solo = FixedDdc::new(ddc_core::DdcConfig::drm(10e6));
    let mut expect = Vec::new();
    for &b in acked.keys() {
        expect.extend(
            solo.process_block(&chunks[b as usize])
                .into_iter()
                .map(|z| (z.i, z.q)),
        );
    }
    let got: Vec<(i64, i64)> = acked.into_values().flatten().collect();
    assert_eq!(got, expect, "delivered ranges must be bit-exact");
    assert!(server.shutdown(Duration::from_secs(5)));
}

#[test]
fn disconnect_policy_sends_overflow_error_and_closes() {
    let server = serve(
        "127.0.0.1:0",
        ServerConfig {
            max_sessions: 1,
            processing_delay: Duration::from_millis(20),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut client = Client::connect(server.local_addr(), "overflow").expect("connect");
    client
        .configure(ConfigPreset::Drm, 10e6, Backpressure::Disconnect, 1)
        .expect("configure");
    let chunk = stimulus(2688, 13);
    // Flood until the server objects; with a 1-deep queue and 20 ms
    // per batch this happens within a handful of frames.
    let mut saw_overflow = false;
    for b in 0..200 {
        if client.send_samples(b, &chunk).is_err() {
            break; // server already closed the socket
        }
    }
    loop {
        match client.recv() {
            Ok(Frame::Error(e)) => {
                assert_eq!(e.code, error_code::QUEUE_OVERFLOW);
                saw_overflow = true;
            }
            Ok(Frame::Iq(_)) => {}
            Ok(other) => panic!("unexpected {other:?}"),
            Err(ClientError::Io(_)) | Err(ClientError::Protocol(_)) => break,
            Err(e) => panic!("unexpected client error {e}"),
        }
    }
    assert!(saw_overflow, "overflow error never arrived");
    assert!(server.shutdown(Duration::from_secs(5)));
}

#[test]
fn server_full_is_reported_with_an_error_frame() {
    let server = serve(
        "127.0.0.1:0",
        ServerConfig {
            max_sessions: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut first = Client::connect(server.local_addr(), "first").expect("connect");
    first
        .configure(ConfigPreset::Drm, 10e6, Backpressure::Block, 4)
        .expect("configure");
    let mut second = Client::connect(server.local_addr(), "second").expect("connect");
    match second.configure(ConfigPreset::Drm, 12e6, Backpressure::Block, 4) {
        Err(ClientError::Remote(e)) => assert_eq!(e.code, error_code::SERVER_FULL),
        other => panic!("expected SERVER_FULL, got {other:?}"),
    }
    // After the first session ends its slot is reusable.
    first.send(&Frame::Shutdown).expect("shutdown");
    loop {
        match first.recv() {
            Ok(Frame::Shutdown) => break,
            Ok(_) => {}
            Err(e) => panic!("first session teardown: {e}"),
        }
    }
    // Slot release happens after the session thread finishes; poll briefly.
    let mut reclaimed = false;
    for _ in 0..100 {
        let mut third = Client::connect(server.local_addr(), "third").expect("connect");
        match third.configure(ConfigPreset::Drm, 14e6, Backpressure::Block, 4) {
            Ok(_) => {
                reclaimed = true;
                let _ = third.send(&Frame::Shutdown);
                break;
            }
            Err(ClientError::Remote(e)) if e.code == error_code::SERVER_FULL => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(reclaimed, "slot was never returned to the pool");
    assert!(server.shutdown(Duration::from_secs(5)));
}

#[test]
fn corrupt_bytes_get_an_error_frame_then_the_connection_closes() {
    use std::io::{Read, Write};
    let server = serve("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    raw.write_all(b"this is not a ddc frame at all..")
        .expect("write junk");
    let mut buf = Vec::new();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    raw.read_to_end(&mut buf).expect("read until close");
    // The server answered with a well-formed Error frame before
    // closing: decode it.
    let header: [u8; ddc_server::wire::HEADER_LEN] = buf[..ddc_server::wire::HEADER_LEN]
        .try_into()
        .expect("an entire frame arrived");
    let h = ddc_server::wire::decode_header(&header).expect("valid header");
    let frame =
        ddc_server::wire::decode_payload(&h, &buf[ddc_server::wire::HEADER_LEN..]).expect("valid");
    match frame {
        Frame::Error(e) => assert_eq!(e.code, error_code::PROTOCOL),
        other => panic!("expected Error, got {other:?}"),
    }
    assert!(server.shutdown(Duration::from_secs(5)));
}

#[test]
fn graceful_server_shutdown_drains_in_flight_batches() {
    // The session streams with a slow backend; the *server* initiates
    // shutdown mid-stream. Every batch accepted before the read-side
    // close must still be acknowledged with its Iq frame (no lost
    // acknowledged frames), and the server must join in bounded time.
    let server = serve(
        "127.0.0.1:0",
        ServerConfig {
            max_sessions: 1,
            processing_delay: Duration::from_millis(2),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let client = {
        let mut c = Client::connect(server.local_addr(), "drain").expect("connect");
        c.configure(ConfigPreset::Drm, 10e6, Backpressure::Block, 16)
            .expect("configure");
        c
    };
    let (mut tx, mut rx) = client.split();
    let chunk = stimulus(2688, 17);
    let n_sent = 12u64;
    for b in 0..n_sent {
        tx.send_samples(b, &chunk).expect("send");
    }
    // Give the server a moment to ingest everything into the queue,
    // then shut down while batches are still being processed.
    std::thread::sleep(Duration::from_millis(10));
    let t0 = std::time::Instant::now();
    assert!(
        server.shutdown(Duration::from_secs(10)),
        "server failed to join within the deadline"
    );
    assert!(t0.elapsed() < Duration::from_secs(10));
    // Collect everything that made it out before the close: batches
    // are acknowledged contiguously from 0 (FIFO queue, in-order
    // processing), so the drain guarantee shows up as a prefix.
    let mut acked = Vec::new();
    loop {
        match rx.recv() {
            Ok(Frame::Iq(iq)) => acked.push(iq.batch_index),
            Ok(_) => {}
            Err(_) => break,
        }
    }
    for (k, &b) in acked.iter().enumerate() {
        assert_eq!(b, k as u64, "acks form a contiguous prefix");
    }
}

#[test]
fn live_per_stage_telemetry_reads_in_process_and_scrapes_as_prometheus() {
    let server = serve("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr(), "metrics").expect("connect");
    client
        .configure(ConfigPreset::Drm, 10e6, Backpressure::Block, 8)
        .expect("configure");
    // Four batches that each fit one 2^15-sample throughput slice, then
    // one that takes three. Run in lock-step, each batch starts a fresh
    // turn, so the shard runs exactly 4 + 3 chain slices.
    const SLICE: usize = 1 << 15;
    let chunk = stimulus(2688 * 2, 29);
    let long = stimulus(2688 * 32, 30);
    assert_eq!(long.len().div_ceil(SLICE), 3);
    let slices = 4 + 3;
    for (b, batch) in [&chunk, &chunk, &chunk, &chunk, &long]
        .into_iter()
        .enumerate()
    {
        client.send_samples(b as u64, batch).expect("send");
        match client.recv().expect("iq") {
            Frame::Iq(_) => {}
            other => panic!("expected Iq, got {other:?}"),
        }
    }

    // The structured snapshot, read in-process.
    let snap = server.metrics_snapshot();
    assert_eq!(snap.counter("ddc_chain_slices_total"), Some(slices));
    assert!(snap.counter("ddc_server_sessions_active").unwrap() >= 1);
    // Per-stage counters of the session's channel: every stage of the
    // DRM chain must have seen the streamed blocks.
    let channel = {
        let stats = match (client.send(&Frame::StatsRequest), client.recv()) {
            (Ok(()), Ok(Frame::StatsReport(r))) => r,
            other => panic!("stats exchange failed: {other:?}"),
        };
        stats.channel
    };
    for stage in ["cic2r16", "cic5r21", "fir125r8"] {
        let name = format!("ddc_stage_blocks_total{{channel=\"{channel}\",stage=\"{stage}\"}}");
        let blocks = snap.counter(&name).unwrap_or_else(|| {
            panic!(
                "missing per-stage counter {name}; have: {:?}",
                snap.counters.iter().map(|(n, _)| n).collect::<Vec<_>>()
            )
        });
        assert!(blocks >= 4, "{name} = {blocks}");
        let lat = format!("ddc_stage_latency_ns{{channel=\"{channel}\",stage=\"{stage}\"}}");
        let h = snap.histogram(&lat).expect("stage latency histogram");
        assert_eq!(h.count, blocks, "one latency sample per block for {stage}");
    }
    // Session-level codec telemetry is live too.
    let decode = snap
        .histograms
        .iter()
        .find(|(n, _)| n.starts_with("ddc_session_decode_ns"))
        .map(|(_, h)| h)
        .expect("session decode histogram");
    assert!(decode.count >= 4);

    // Prometheus text over the wire carries the histogram family with
    // +Inf buckets.
    let prom = client.request_metrics().expect("prometheus metrics");
    let text = String::from_utf8(prom.body).expect("utf-8 prom");
    assert!(text.contains("# TYPE ddc_chain_slices_total counter"));
    assert!(text.contains(&format!("ddc_chain_slices_total {slices}\n")));
    assert!(text.contains("le=\"+Inf\""));
    assert!(text.contains("ddc_stage_latency_ns_bucket"));

    client.send(&Frame::StatsRequest).expect("still alive");
    match client.recv().expect("stats after the scrape") {
        Frame::StatsReport(r) => {
            assert_eq!(r.batches_accepted, 5);
            assert_eq!(r.chain_slices, slices, "the slice total rides on stats");
        }
        other => panic!("expected StatsReport, got {other:?}"),
    }
    let _ = client.send(&Frame::Shutdown);
    assert!(server.shutdown(Duration::from_secs(5)));
}

/// Reads frames from a raw socket until the server closes it.
fn frames_until_eof(raw: &mut std::net::TcpStream) -> Vec<Frame> {
    use ddc_server::wire::{read_frame, FrameReadError};
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut scratch = Vec::new();
    let mut frames = Vec::new();
    loop {
        match read_frame(raw, &mut scratch) {
            Ok((_, frame)) => frames.push(frame),
            Err(FrameReadError::Eof) => return frames,
            Err(e) => panic!("{e} after {frames:?}"),
        }
    }
}

#[test]
fn a_bank_name_that_would_write_scrape_lines_is_refused() {
    use ddc_server::wire::{encode_frame, ChainPlan, Configure, Hello, QosProfile};
    use std::io::Write;
    let server = serve("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let input = stimulus(2688 * 8, 43);
    let mut neighbour = Client::connect(addr, "neighbour").expect("connect");
    neighbour
        .configure(ConfigPreset::Drm, 10e6, Backpressure::Block, 8)
        .expect("configure");
    let mut got = Vec::new();
    let mut exchange = |client: &mut Client, b: usize| {
        let chunk = &input[b * 2688 * 2..(b + 1) * 2688 * 2];
        client.send_samples(b as u64, chunk).expect("send");
        match client.recv().expect("iq frame") {
            Frame::Iq(iq) => got.extend(iq.pairs),
            other => panic!("expected Iq, got {other:?}"),
        }
    };
    exchange(&mut neighbour, 0);
    exchange(&mut neighbour, 1);

    // A bank name that closes its label and starts lines of its own.
    let mut spec = ddc_core::ChannelizerSpec::uniform(8, 64_512_000.0);
    spec.name = "x\"} 7\nddc_server_free_slots 999\n#".into();
    let configure = Frame::Configure(Configure {
        plan: ChainPlan::Channelizer(spec),
        policy: Backpressure::Block,
        queue_cap: 8,
        qos: QosProfile::Throughput,
        trace_interval: 0,
    });
    let hello = Frame::Hello(Hello {
        info: "injector".into(),
    });
    let mut raw = std::net::TcpStream::connect(addr).expect("connect");
    raw.write_all(&encode_frame(&hello, 0)).expect("send Hello");
    raw.write_all(&encode_frame(&configure, 1))
        .expect("send Configure");
    let frames = frames_until_eof(&mut raw);
    assert_eq!(frames.len(), 2, "{frames:?}");
    assert!(matches!(frames[0], Frame::Hello(_)), "{frames:?}");
    match &frames[1] {
        Frame::Error(e) => {
            assert_eq!(e.code, error_code::PROTOCOL, "{e:?}");
            assert!(e.message.contains("spec name"), "{e:?}");
        }
        other => panic!("expected an Error frame, got {other:?}"),
    }

    exchange(&mut neighbour, 2);
    exchange(&mut neighbour, 3);
    let prom = neighbour.request_metrics().expect("scrape");
    let text = String::from_utf8(prom.body).expect("utf-8 prom");
    let free_slots: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("ddc_server_free_slots"))
        .collect();
    assert_eq!(free_slots.len(), 1, "{text}");
    assert_ne!(free_slots[0], "ddc_server_free_slots 999", "{text}");
    assert!(
        !text.contains("ddc_channelizer"),
        "no bank went live:\n{text}"
    );
    let _ = neighbour.send(&Frame::Shutdown);

    let expect: Vec<(i64, i64)> = FixedDdc::new(ddc_core::DdcConfig::drm(10e6))
        .process_block(&input)
        .into_iter()
        .map(|z| (z.i, z.q))
        .collect();
    assert!(!expect.is_empty());
    assert_eq!(got, expect, "the neighbour's stream changed");
    assert!(server.shutdown(Duration::from_secs(5)));
}

#[test]
fn a_version_2_peer_gets_a_protocol_error_naming_its_version_then_eof() {
    use ddc_server::wire::{checksum, MAGIC};
    use std::io::Write;
    let server = serve("127.0.0.1:0", ServerConfig::default()).expect("bind");
    // A Hello as each older peer sends it, under its own header. A
    // version-2 Hello carries the highest version, max payload, banner
    // and feature bits; a version-3 Hello its banner alone.
    let mut v2 = Vec::new();
    v2.extend_from_slice(&2u16.to_le_bytes());
    v2.extend_from_slice(&(1u32 << 22).to_le_bytes());
    v2.extend_from_slice(&8u16.to_le_bytes());
    v2.extend_from_slice(b"old-peer");
    v2.extend_from_slice(&3u32.to_le_bytes());
    let mut v3 = Vec::new();
    v3.extend_from_slice(&8u16.to_le_bytes());
    v3.extend_from_slice(b"old-peer");
    for (version, payload) in [(2u8, v2), (3, v3)] {
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC.to_le_bytes());
        frame.extend_from_slice(&[version, 1]); // Hello
        frame.extend_from_slice(&0u32.to_le_bytes()); // sequence number
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&checksum(&payload).to_le_bytes());
        let header_sum = checksum(&frame);
        frame.extend_from_slice(&header_sum.to_le_bytes());
        frame.extend_from_slice(&payload);

        let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect");
        raw.write_all(&frame).expect("send the old Hello");
        let frames = frames_until_eof(&mut raw);
        assert_eq!(frames.len(), 1, "version {version}: {frames:?}");
        match &frames[0] {
            Frame::Error(e) => {
                assert_eq!(e.code, error_code::PROTOCOL, "{e:?}");
                assert!(e.message.contains(&format!("version {version}")), "{e:?}");
            }
            other => panic!("expected a PROTOCOL Error frame, got {other:?}"),
        }
    }
    assert!(server.shutdown(Duration::from_secs(5)));
}

#[test]
fn latency_qos_session_is_bit_exact_and_reports_timing() {
    use ddc_server::wire::QosProfile;
    let server = serve("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let input = stimulus(2688 * 12 + 407, 41);
    // A 500 µs budget on the DRM chain: the group delay (≈336 µs)
    // fits, and the derived farm sub-batch bound (≈8064 samples) is
    // smaller than the 10752-sample batches, so the server must chunk
    // submissions — the bit-exactness assertion below covers that path
    // end to end.
    let mut client = Client::connect(server.local_addr(), "latency")
        .expect("connect")
        .with_qos(QosProfile::Latency { budget_us: 500 });
    client
        .configure(ConfigPreset::Drm, 10e6, Backpressure::Block, 8)
        .expect("configure");
    let mut got = Vec::new();
    let mut acks = 0u64;
    for (b, chunk) in batches_of(&input, 2688 * 4).iter().enumerate() {
        client.send_samples(b as u64, chunk).expect("send");
        match client.recv().expect("iq frame") {
            Frame::Iq(iq) => {
                assert_eq!(iq.batch_index, b as u64, "acks arrive in order");
                let t = iq.timing.expect("latency sessions annotate every ack");
                assert!(t.service_ns > 0, "service time is measured");
                acks += 1;
                got.extend(iq.pairs);
            }
            other => panic!("expected Iq, got {other:?}"),
        }
    }
    // Chunked farm submission must stay bit-exact with one whole-batch
    // chain run over the same input.
    let mut solo = FixedDdc::new(ddc_core::DdcConfig::drm(10e6));
    let expect: Vec<(i64, i64)> = solo
        .process_block(&input)
        .into_iter()
        .map(|z| (z.i, z.q))
        .collect();
    assert_eq!(got, expect, "latency profile changed the output");
    // The negotiated budget gates the ddc_latency_* metrics family.
    let snap = server.metrics_snapshot();
    let budget = snap
        .counters
        .iter()
        .find(|(n, _)| n.starts_with("ddc_latency_budget_us"))
        .map(|(_, v)| *v)
        .expect("latency budget gauge exported");
    assert_eq!(budget, 500);
    let e2e = snap
        .histograms
        .iter()
        .find(|(n, _)| n.starts_with("ddc_latency_e2e_ns"))
        .map(|(_, h)| h)
        .expect("e2e latency histogram exported");
    assert_eq!(e2e.count, acks, "one e2e sample per acknowledged batch");
    assert!(snap
        .counters
        .iter()
        .any(|(n, _)| n.starts_with("ddc_latency_deadline_misses_total")));
    let _ = client.send(&Frame::Shutdown);
    assert!(server.shutdown(Duration::from_secs(5)));
}

#[test]
fn latency_budget_below_chain_group_delay_is_rejected() {
    use ddc_server::wire::QosProfile;
    let server = serve("127.0.0.1:0", ServerConfig::default()).expect("bind");
    // The DRM chain's own group delay is ≈336 µs — a 200 µs budget is
    // physically unachievable and must be refused at Configure time.
    let mut client = Client::connect(server.local_addr(), "tight")
        .expect("connect")
        .with_qos(QosProfile::Latency { budget_us: 200 });
    match client.configure(ConfigPreset::Drm, 10e6, Backpressure::Block, 8) {
        Err(ClientError::Remote(e)) => {
            assert_eq!(e.code, error_code::BAD_CONFIG);
            assert!(
                e.message.contains("group delay"),
                "error names the cause: {}",
                e.message
            );
        }
        other => panic!("expected BAD_CONFIG, got {other:?}"),
    }
    // The rejected session must not leak its claimed slot.
    let mut retry = Client::connect(server.local_addr(), "retry").expect("connect");
    retry
        .configure(ConfigPreset::Drm, 10e6, Backpressure::Block, 8)
        .expect("slot was released");
    let _ = retry.send(&Frame::Shutdown);
    assert!(server.shutdown(Duration::from_secs(5)));
}

#[test]
fn latency_qos_on_non_chain_plans_is_rejected() {
    use ddc_server::wire::QosProfile;
    // Latency QoS is enforced through chunked farm submission and the
    // deadline flush, which only chain sessions have. A channelizer
    // (or subscriber) asking for a budget must get a structured
    // refusal, not a silently unenforced bound.
    let server = serve("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr(), "bank")
        .expect("connect")
        .with_qos(QosProfile::Latency { budget_us: 500 });
    let spec = ddc_core::ChannelizerSpec::uniform(8, 8_192_000.0);
    match client.configure_channelizer(&spec, Backpressure::Block, 8) {
        Err(ClientError::Remote(e)) => {
            assert_eq!(e.code, error_code::BAD_CONFIG);
            assert!(
                e.message.contains("chain plan"),
                "error names the constraint: {}",
                e.message
            );
        }
        other => panic!("expected BAD_CONFIG, got {other:?}"),
    }
    // The refused Configure must not have published the bank.
    let mut probe = Client::connect(server.local_addr(), "probe").expect("connect");
    probe
        .configure_channelizer(&spec, Backpressure::Block, 8)
        .expect("name was not leaked by the refused session");
    let _ = probe.send(&Frame::Shutdown);
    assert!(server.shutdown(Duration::from_secs(5)));
}

#[test]
fn traced_batches_echo_their_ids_and_scrape_as_connected_spans() {
    let server = serve("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr(), "traced").expect("connect");
    client
        .configure(ConfigPreset::Drm, 10e6, Backpressure::Block, 8)
        .expect("configure");
    let chunk = stimulus(2688 * 2, 31);
    // Stamp every second batch with a client-chosen trace id (top bit
    // clear — the server's own ids have it set); leave the others
    // unstamped so the legacy path runs interleaved on one session.
    let id_for = |b: u64| b.is_multiple_of(2).then_some(0x0100_0000 + b + 1);
    let mut echoed = Vec::new();
    for b in 0..6u64 {
        match id_for(b) {
            Some(id) => client.send_samples_traced(b, &chunk, id).expect("send"),
            None => client.send_samples(b, &chunk).expect("send"),
        }
        match client.recv().expect("iq frame") {
            Frame::Iq(iq) => {
                assert_eq!(iq.batch_index, b);
                assert_eq!(
                    iq.trace_id,
                    id_for(b).unwrap_or(0),
                    "ack must echo exactly the stamped trace id"
                );
                if iq.trace_id != 0 {
                    echoed.push(iq.trace_id);
                }
            }
            other => panic!("expected Iq, got {other:?}"),
        }
    }
    assert_eq!(echoed.len(), 3, "three stamped batches, three echoes");

    // Scrape the flight recorder: the fragment must mention every
    // stamped trace id, the per-stage kernel spans, and the session
    // lifecycle spans — one connected story per sampled batch.
    let report = client.request_trace().expect("trace report");
    assert_eq!(report.dropped, 0, "rings must not have overflowed");
    let body = String::from_utf8(report.body).expect("utf-8 fragment");
    for id in &echoed {
        assert!(
            body.contains(&format!("{id:#x}")),
            "trace {id:#x} missing from scrape"
        );
    }
    for name in [
        "ingest",
        "queue_wait",
        "service",
        "egress",
        "ddc_job",
        "cic2r16",
        "cic5r21",
        "fir125r8",
    ] {
        assert!(
            body.contains(&format!("\"name\":\"{name}\"")),
            "span family {name} missing from scrape"
        );
    }
    // The fragment splices into a valid Chrome trace-event array: equal
    // numbers of B and E events, and no trailing comma inside events.
    let b_count = body.matches("\"ph\":\"B\"").count();
    let e_count = body.matches("\"ph\":\"E\"").count();
    assert!(
        b_count > 0 && b_count == e_count,
        "B/E balance {b_count}/{e_count}"
    );

    // A second scrape starts from a drained ring: the old ids must not
    // reappear.
    let again = client.request_trace().expect("second trace report");
    let body2 = String::from_utf8(again.body).expect("utf-8");
    for id in &echoed {
        assert!(
            !body2.contains(&format!("{id:#x}")),
            "drain must consume spans: {id:#x} scraped twice"
        );
    }
    let _ = client.send(&Frame::Shutdown);
    assert!(server.shutdown(Duration::from_secs(5)));
}

#[test]
fn server_side_sampling_traces_every_nth_batch_without_client_stamps() {
    let server = serve("127.0.0.1:0", ServerConfig::default()).expect("bind");
    // trace_interval = 2 rides the Configure frame: the server stamps
    // batches 0, 2, 4 itself with SERVER_TRACE_BIT set.
    let mut client = Client::connect(server.local_addr(), "sampled")
        .expect("connect")
        .with_trace_interval(2);
    client
        .configure(ConfigPreset::Drm, 10e6, Backpressure::Block, 8)
        .expect("configure");
    let chunk = stimulus(2688, 37);
    let mut server_ids = Vec::new();
    for b in 0..6u64 {
        client.send_samples(b, &chunk).expect("send");
        match client.recv().expect("iq frame") {
            Frame::Iq(iq) => {
                if b.is_multiple_of(2) {
                    assert_ne!(iq.trace_id, 0, "batch {b} must be head-sampled");
                    assert_ne!(
                        iq.trace_id & ddc_obs::SERVER_TRACE_BIT,
                        0,
                        "server-allocated ids carry the origin bit"
                    );
                    server_ids.push(iq.trace_id);
                } else {
                    assert_eq!(iq.trace_id, 0, "batch {b} must not be sampled");
                }
            }
            other => panic!("expected Iq, got {other:?}"),
        }
    }
    assert_eq!(server_ids.len(), 3);
    let report = client.request_trace().expect("trace report");
    let body = String::from_utf8(report.body).expect("utf-8");
    for id in &server_ids {
        assert!(
            body.contains(&format!("{id:#x}")),
            "sampled trace {id:#x} missing from scrape"
        );
    }
    let _ = client.send(&Frame::Shutdown);
    assert!(server.shutdown(Duration::from_secs(5)));
}

#[test]
fn stats_requests_track_progress_midstream() {
    let server = serve("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr(), "stats").expect("connect");
    client
        .configure(ConfigPreset::Drm, 10e6, Backpressure::Block, 8)
        .expect("configure");
    let chunk = stimulus(2688 * 2, 19);
    for b in 0..3u64 {
        client.send_samples(b, &chunk).expect("send");
        match client.recv().expect("iq") {
            Frame::Iq(_) => {}
            other => panic!("expected Iq, got {other:?}"),
        }
    }
    client.send(&Frame::StatsRequest).expect("stats request");
    match client.recv().expect("stats") {
        Frame::StatsReport(r) => {
            assert_eq!(r.batches_accepted, 3);
            assert_eq!(r.samples_in, 3 * chunk.len() as u64);
            assert!(r.busy_ns > 0);
            assert!(r.queue_hwm >= 1);
        }
        other => panic!("expected StatsReport, got {other:?}"),
    }
    let _ = client.send(&Frame::Shutdown);
    assert!(server.shutdown(Duration::from_secs(5)));
}

/// The `ts` (µs) of the one `egress` instant a server trace fragment
/// holds for `trace_id`.
fn egress_us(fragment: &str, trace_id: u64) -> f64 {
    let trace = format!("\"trace\":\"{trace_id:#x}\"");
    let mut found = fragment
        .split("{\"ph\":")
        .filter(|ev| ev.contains("\"name\":\"egress\"") && ev.contains(&trace))
        .map(|ev| {
            let ts = ev.split("\"ts\":").nth(1).and_then(|t| t.split(',').next());
            ts.and_then(|t| t.parse::<f64>().ok()).expect("numeric ts")
        });
    let ts = found
        .next()
        .unwrap_or_else(|| panic!("no egress instant for trace {trace_id:#x}"));
    assert!(
        found.next().is_none(),
        "two egress instants for {trace_id:#x}"
    );
    ts
}

#[test]
fn a_latency_batch_overtakes_a_bulk_batch_on_the_same_shard() {
    use ddc_server::wire::{QosProfile, MAX_PAYLOAD};
    // One shard: both sessions share one readiness loop, so only the
    // slicing of the bulk work lets the latency batch through early.
    let server = serve(
        "127.0.0.1:0",
        ServerConfig {
            io_shards: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    // Enough bulk work that the shard is still on it when the latency
    // batch arrives, however late its client thread runs: batches of
    // about 1 M samples, nearly the largest Samples frame allowed.
    const BULK_BATCHES: u64 = 16;
    const BULK_ID: u64 = 0x0100_0001;
    const PACED_ID: u64 = 0x0100_0002;
    let mut bulk = Client::connect(addr, "bulk").expect("connect");
    bulk.configure(
        ConfigPreset::Drm,
        10e6,
        Backpressure::Block,
        BULK_BATCHES as u32,
    )
    .expect("configure bulk");
    let mut paced = Client::connect(addr, "paced")
        .expect("connect")
        .with_qos(QosProfile::Latency { budget_us: 1000 });
    paced
        .configure(ConfigPreset::Drm, 15e6, Backpressure::Block, 8)
        .expect("configure latency");

    let big = stimulus(MAX_PAYLOAD as usize / 4 - 1024, 61);
    let small = stimulus(2688 * 4, 62);
    let (mut bulk_tx, mut bulk_rx) = bulk.split();
    for b in 0..BULK_BATCHES - 1 {
        bulk_tx.send_samples(b, &big).expect("send bulk");
    }
    bulk_tx
        .send_samples_traced(BULK_BATCHES - 1, &big, BULK_ID)
        .expect("send bulk");
    bulk_tx.send(&Frame::StatsRequest).expect("stats request");
    // The server answers the StatsRequest when it parses it, right
    // behind the last bulk batch: from this report on, that batch is
    // queued behind the rest of the bulk work. Acks of the first bulk
    // batches may come before it.
    let mut bulk_frames = Vec::new();
    loop {
        match bulk_rx.recv().expect("stats") {
            Frame::StatsReport(r) => {
                assert_eq!(r.batches_accepted, BULK_BATCHES);
                break;
            }
            frame => bulk_frames.push(frame),
        }
    }
    paced
        .send_samples_traced(0, &small, PACED_ID)
        .expect("send latency batch");
    let paced_frame = paced.recv().expect("latency ack");
    while bulk_frames.len() < BULK_BATCHES as usize {
        bulk_frames.push(bulk_rx.recv().expect("bulk ack"));
    }

    // The one shard thread stamps both egress instants, on one clock.
    let report = paced.request_trace().expect("trace report");
    assert_eq!(report.dropped, 0, "rings must not have overflowed");
    let body = String::from_utf8(report.body).expect("utf-8 fragment");
    let paced_at = egress_us(&body, PACED_ID);
    let bulk_at = egress_us(&body, BULK_ID);
    assert!(
        paced_at < bulk_at,
        "the latency ack waited for the bulk work: egress at {paced_at} µs, bulk at {bulk_at} µs"
    );

    let mut solo = FixedDdc::new(ddc_core::DdcConfig::drm(15e6));
    let pairs = |out: Vec<ddc_core::mixer::Iq>| -> Vec<(i64, i64)> {
        out.into_iter().map(|z| (z.i, z.q)).collect()
    };
    match paced_frame {
        Frame::Iq(iq) => assert_eq!(
            iq.pairs,
            pairs(solo.process_block(&small)),
            "latency output"
        ),
        other => panic!("expected Iq, got {other:?}"),
    }
    let mut solo = FixedDdc::new(ddc_core::DdcConfig::drm(10e6));
    for (b, frame) in bulk_frames.into_iter().enumerate() {
        match frame {
            Frame::Iq(iq) => {
                assert_eq!(iq.batch_index, b as u64, "bulk acks arrive in order");
                assert_eq!(iq.pairs, pairs(solo.process_block(&big)), "bulk batch {b}");
            }
            other => panic!("expected Iq, got {other:?}"),
        }
    }
    let _ = bulk_tx.send(&Frame::Shutdown);
    let _ = paced.send(&Frame::Shutdown);
    assert!(server.shutdown(Duration::from_secs(5)));
}
