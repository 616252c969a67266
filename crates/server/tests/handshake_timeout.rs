//! A connection that never finishes its handshake is timed out: one
//! that sends nothing, and one that stops after its Hello, each get a
//! PROTOCOL Error frame naming the timeout and then EOF, within
//! [`HANDSHAKE_TIMEOUT`] plus a second, and the server counts both.

use ddc_server::server::HANDSHAKE_TIMEOUT;
use ddc_server::wire::{encode_frame, error_code, read_frame, FrameReadError, Hello, VERSION};
use ddc_server::{serve, Frame, ServerConfig};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Reads frames until EOF, failing the test if it takes longer than
/// [`HANDSHAKE_TIMEOUT`] plus a second after `opened`.
fn frames_until_eof(stream: &mut TcpStream, opened: Instant, who: &str) -> Vec<Frame> {
    let limit = HANDSHAKE_TIMEOUT + Duration::from_secs(1);
    let mut frames = Vec::new();
    loop {
        let left = limit.saturating_sub(opened.elapsed());
        assert!(!left.is_zero(), "{who}: no EOF within {limit:?}");
        stream.set_read_timeout(Some(left)).unwrap();
        match read_frame(stream) {
            Ok((_, frame)) => frames.push(frame),
            Err(FrameReadError::Eof) => break,
            Err(e) => panic!("{who}: {e} after {:?}", opened.elapsed()),
        }
    }
    // The shard records the accept after the client's connect returns,
    // so the deadline cannot fall noticeably before HANDSHAKE_TIMEOUT.
    let waited = opened.elapsed();
    assert!(
        waited + Duration::from_millis(100) >= HANDSHAKE_TIMEOUT,
        "{who}: closed after only {waited:?}"
    );
    frames
}

fn assert_timeout_error(frame: &Frame, who: &str) {
    match frame {
        Frame::Error(e) => {
            assert_eq!(e.code, error_code::PROTOCOL, "{who}: {e:?}");
            assert!(e.message.contains("handshake timeout"), "{who}: {e:?}");
        }
        other => panic!("{who}: expected the timeout Error frame, got {other:?}"),
    }
}

#[test]
fn unfinished_handshakes_get_an_error_frame_then_eof() {
    let server = serve("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let opened = Instant::now();
    let mut silent = TcpStream::connect(server.local_addr()).expect("connect");
    let mut hello_only = TcpStream::connect(server.local_addr()).expect("connect");
    let hello = Frame::Hello(Hello {
        proto: u16::from(VERSION),
        max_payload: 0,
        info: "hello-only".into(),
        features: 0,
    });
    std::io::Write::write_all(&mut hello_only, &encode_frame(&hello, 0)).expect("send Hello");

    let frames = frames_until_eof(&mut silent, opened, "silent");
    assert_eq!(frames.len(), 1, "silent: {frames:?}");
    assert_timeout_error(&frames[0], "silent");

    let frames = frames_until_eof(&mut hello_only, opened, "hello-only");
    assert_eq!(frames.len(), 2, "hello-only: {frames:?}");
    assert!(
        matches!(frames[0], Frame::Hello(_)),
        "hello-only: {frames:?}"
    );
    assert_timeout_error(&frames[1], "hello-only");

    let scrape = server.metrics_snapshot().to_prometheus();
    let timeouts = scrape
        .lines()
        .find_map(|l| l.strip_prefix("ddc_server_handshake_timeouts_total "))
        .expect("handshake timeout counter in the scrape");
    assert_eq!(timeouts.trim(), "2", "{scrape}");
    assert!(server.shutdown(Duration::from_secs(5)), "server joins");
}
